//! The shared injector: plan consultation + fire-once latching + the
//! injected-fault log.

use std::collections::HashSet;
use std::sync::Mutex;

use arb_obs::Obs;

use crate::plan::{FaultKind, FaultPlan};

/// One fault that actually fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The site's tick coordinate when it fired.
    pub tick: u64,
    /// Target site.
    pub site: String,
    /// What was injected.
    pub kind: FaultKind,
}

#[derive(Debug, Default)]
struct Inner {
    /// Coordinates that already fired. A fault fires **once** per
    /// `(site, tick)`: when a supervisor recovers and re-drives the
    /// same coordinate, the retry must be allowed to succeed —
    /// otherwise a panic window would wedge recovery forever.
    fired: HashSet<(String, u64)>,
    log: Vec<InjectedFault>,
}

/// Shared decision point consulted by every chaos shim
/// ([`crate::SourceChaos`], [`crate::ChaosIo`], [`crate::ChaosTickHook`]).
/// Wrap it in an `Arc` and hand clones to each seam.
#[derive(Debug)]
pub struct ChaosInjector {
    plan: FaultPlan,
    inner: Mutex<Inner>,
    obs: Mutex<Option<Obs>>,
}

impl ChaosInjector {
    /// An injector over `plan` with an empty log.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        ChaosInjector {
            plan,
            inner: Mutex::new(Inner::default()),
            obs: Mutex::new(None),
        }
    }

    /// Mirrors injections to `obs`: `chaos.injected` (+ a per-kind
    /// `chaos.injected.<kind>`) counters and a `chaos.<site>` flight
    /// mark carrying the tick.
    pub fn set_obs(&self, obs: &Obs) {
        *self.obs.lock().unwrap_or_else(|e| e.into_inner()) = Some(obs.clone());
    }

    /// The plan this injector executes.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decides whether a fault fires at `(site, tick)`, latching the
    /// coordinate: the first call returns the planned fault (logged and
    /// counted), every later call for the same coordinate returns
    /// `None` — the fire-once latch that lets a supervised retry of
    /// the same coordinate pass.
    pub fn decide(&self, site: &str, tick: u64) -> Option<FaultKind> {
        let kind = self.plan.fault_at(site, tick)?;
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if !inner.fired.insert((site.to_string(), tick)) {
            return None;
        }
        inner.log.push(InjectedFault {
            tick,
            site: site.to_string(),
            kind,
        });
        drop(inner);
        if let Some(obs) = &*self.obs.lock().unwrap_or_else(|e| e.into_inner()) {
            obs.registry().counter("chaos.injected").inc();
            obs.registry()
                .counter(&format!("chaos.injected.{}", kind.label()))
                .inc();
            obs.marker(&format!("chaos.{site}")).mark(tick);
        }
        Some(kind)
    }

    /// Whether any plan window covers `(site, tick)` (regardless of
    /// rate or latching).
    #[must_use]
    pub fn window_active(&self, site: &str, tick: u64) -> bool {
        self.plan.window_active(site, tick)
    }

    /// Deterministic parameter randomness ([`FaultPlan::aux`]).
    #[must_use]
    pub fn aux(&self, site: &str, tick: u64, salt: u64) -> u64 {
        self.plan.aux(site, tick, salt)
    }

    /// Everything injected so far, in fire order.
    #[must_use]
    pub fn log(&self) -> Vec<InjectedFault> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .log
            .clone()
    }

    /// Count of injected faults.
    #[must_use]
    pub fn injected(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .log
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_latches_each_coordinate_once() {
        let injector = ChaosInjector::new(FaultPlan::new(7).with_window(
            "journal.io",
            0..4,
            FaultKind::WriteError,
            1_000_000,
        ));
        assert_eq!(
            injector.decide("journal.io", 2),
            Some(FaultKind::WriteError)
        );
        assert_eq!(injector.decide("journal.io", 2), None, "latched");
        assert_eq!(
            injector.decide("journal.io", 3),
            Some(FaultKind::WriteError)
        );
        assert_eq!(injector.injected(), 2);
        let log = injector.log();
        assert_eq!(log[0].tick, 2);
        assert_eq!(log[1].tick, 3);
    }

    #[test]
    fn obs_mirrors_injections() {
        let obs = Obs::default();
        let injector = ChaosInjector::new(FaultPlan::new(7).with_window(
            "engine.tick",
            0..1,
            FaultKind::PanicTick,
            1_000_000,
        ));
        injector.set_obs(&obs);
        injector.decide("engine.tick", 0);
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter("chaos.injected"), Some(1));
        assert_eq!(snap.counter("chaos.injected.panic-tick"), Some(1));
    }
}
