//! Per-site health state machines for graceful degradation.
//!
//! Each tracked site — an ingest source, the journal writer, the
//! downstream consumer — owns a [`HealthMonitor`] walking a small
//! deterministic state machine:
//!
//! ```text
//!            idle ≥ lag_after_idle            idle ≥ quarantine_after_idle
//!            or an explicit failure           or failures ≥ quarantine_after_failures
//!  Healthy ─────────────────────▶ Lagging ─────────────────────▶ Quarantined
//!     ▲                             │   ▲                            │
//!     │  progress × recovery_streak │   │ failure                    │ progress
//!     └────────── Recovered ◀───────┴───┴────────────────────────────┘
//! ```
//!
//! Time is whatever monotone counter the caller feeds in — the ingest
//! front-end uses its seal counter, so the machine (and the bounded
//! exponential backoff gating quarantined retries, an
//! [`arb_core::Backoff`]) is a pure function of the observation
//! sequence: no wall clock, reruns reproduce the exact same
//! transitions. Transitions are mirrored to `arb-obs` as a
//! `health.<site>.state` gauge, a `health.<site>.transitions` counter,
//! and a `health.<site>` flight-recorder mark carrying the tick.

use std::fmt;

use arb_core::backoff::{Backoff, BackoffConfig};
use arb_obs::Obs;

/// Where a site sits on the healthy → degraded spectrum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthState {
    /// Making normal progress.
    Healthy,
    /// Behind or failing, but still attempted every time.
    Lagging,
    /// Persistently failing; attempts are gated by bounded exponential
    /// backoff so a dead site cannot hog its callers.
    Quarantined,
    /// Progressing again after degradation; promoted back to
    /// [`HealthState::Healthy`] once the streak is long enough.
    Recovered,
}

impl HealthState {
    /// Stable lowercase label (metric/marker suffixes).
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Lagging => "lagging",
            HealthState::Quarantined => "quarantined",
            HealthState::Recovered => "recovered",
        }
    }

    /// Numeric encoding for the `health.<site>.state` gauge: 0 healthy,
    /// 1 lagging, 2 quarantined, 3 recovered.
    pub fn gauge_value(self) -> f64 {
        match self {
            HealthState::Healthy => 0.0,
            HealthState::Lagging => 1.0,
            HealthState::Quarantined => 2.0,
            HealthState::Recovered => 3.0,
        }
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Thresholds for one [`HealthMonitor`]. All counts are in caller
/// observations (ingest: seals), not wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Consecutive idle observations (others progressed, this site did
    /// not) before Healthy/Recovered demotes to Lagging.
    pub lag_after_idle: u64,
    /// Consecutive idle observations before Lagging demotes to
    /// Quarantined.
    pub quarantine_after_idle: u64,
    /// Consecutive explicit failures before Lagging demotes to
    /// Quarantined.
    pub quarantine_after_failures: u32,
    /// Observations of progress a Recovered site must string together
    /// before it is Healthy again.
    pub recovery_streak: u64,
    /// Backoff gating retry attempts while Quarantined, in the same
    /// units as the caller's tick counter.
    pub backoff: BackoffConfig,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            lag_after_idle: 4,
            quarantine_after_idle: 16,
            quarantine_after_failures: 3,
            recovery_streak: 2,
            backoff: BackoffConfig::new(1, 16),
        }
    }
}

/// One site's health state machine. Drive it with exactly one of
/// [`HealthMonitor::record_progress`], [`HealthMonitor::record_idle`],
/// or [`HealthMonitor::record_failure`] per observation; consult
/// [`HealthMonitor::should_attempt`] before expensive retries.
#[derive(Debug)]
pub struct HealthMonitor {
    site: String,
    config: HealthConfig,
    state: HealthState,
    backoff: Backoff,
    idle_streak: u64,
    failure_streak: u32,
    progress_streak: u64,
    transitions: u64,
    obs: Option<Obs>,
}

impl HealthMonitor {
    /// A monitor for `site` (dotted fault-site name, e.g.
    /// `ingest.source.feed` or `journal.io`), starting Healthy.
    pub fn new(site: impl Into<String>, config: HealthConfig) -> Self {
        HealthMonitor {
            site: site.into(),
            config,
            state: HealthState::Healthy,
            backoff: Backoff::new(config.backoff),
            idle_streak: 0,
            failure_streak: 0,
            progress_streak: 0,
            transitions: 0,
            obs: None,
        }
    }

    /// Mirrors state to `obs` (`health.<site>.state` gauge,
    /// `health.<site>.transitions` counter, `health.<site>` marker).
    pub fn set_obs(&mut self, obs: &Obs) {
        obs.registry()
            .gauge(&format!("health.{}.state", self.site))
            .set(self.state.gauge_value());
        self.obs = Some(obs.clone());
    }

    /// The dotted site name this monitor tracks.
    pub fn site(&self) -> &str {
        &self.site
    }

    /// The current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Total state transitions so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Consecutive explicit failures.
    pub fn failure_streak(&self) -> u32 {
        self.failure_streak
    }

    /// Whether the caller should attempt this site's work at `now`.
    /// Always true outside Quarantined; while Quarantined, true only
    /// once the bounded exponential backoff window has elapsed.
    pub fn should_attempt(&self, now: u64) -> bool {
        self.state != HealthState::Quarantined || self.backoff.is_ready(now)
    }

    /// The site made progress at `now`: resets streaks and promotes
    /// degraded states toward Healthy (via Recovered).
    pub fn record_progress(&mut self, now: u64) {
        self.idle_streak = 0;
        self.failure_streak = 0;
        self.backoff.record_success();
        match self.state {
            HealthState::Healthy => {}
            HealthState::Lagging | HealthState::Quarantined => {
                self.progress_streak = 1;
                if self.config.recovery_streak <= 1 {
                    self.transition(HealthState::Healthy, now);
                } else {
                    self.transition(HealthState::Recovered, now);
                }
            }
            HealthState::Recovered => {
                self.progress_streak += 1;
                if self.progress_streak >= self.config.recovery_streak {
                    self.transition(HealthState::Healthy, now);
                }
            }
        }
    }

    /// The site sat out an observation where peers progressed. An
    /// all-quiet market penalizes nobody — only call this when *some*
    /// site progressed at `now` and this one did not.
    pub fn record_idle(&mut self, now: u64) {
        self.idle_streak += 1;
        self.progress_streak = 0;
        match self.state {
            HealthState::Healthy | HealthState::Recovered => {
                if self.idle_streak >= self.config.lag_after_idle {
                    self.transition(HealthState::Lagging, now);
                }
            }
            HealthState::Lagging => {
                if self.idle_streak >= self.config.quarantine_after_idle {
                    self.quarantine(now);
                }
            }
            HealthState::Quarantined => {}
        }
    }

    /// An attempt at `now` failed outright (a journal commit error).
    /// Demotes immediately — an explicit failure is stronger evidence
    /// than silence.
    pub fn record_failure(&mut self, now: u64) {
        self.failure_streak = self.failure_streak.saturating_add(1);
        self.progress_streak = 0;
        match self.state {
            HealthState::Healthy | HealthState::Recovered => {
                self.transition(HealthState::Lagging, now);
            }
            HealthState::Lagging => {
                if self.failure_streak >= self.config.quarantine_after_failures {
                    self.quarantine(now);
                }
            }
            HealthState::Quarantined => self.backoff.record_failure(now),
        }
    }

    fn quarantine(&mut self, now: u64) {
        self.transition(HealthState::Quarantined, now);
        self.backoff.record_failure(now);
    }

    fn transition(&mut self, to: HealthState, now: u64) {
        if to == self.state {
            return;
        }
        self.state = to;
        self.transitions += 1;
        if let Some(obs) = &self.obs {
            obs.registry()
                .gauge(&format!("health.{}.state", self.site))
                .set(to.gauge_value());
            obs.registry()
                .counter(&format!("health.{}.transitions", self.site))
                .inc();
            obs.marker(&format!("health.{}", self.site)).mark(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> HealthMonitor {
        HealthMonitor::new("test.site", HealthConfig::default())
    }

    #[test]
    fn idle_walks_healthy_to_quarantined() {
        let mut m = monitor();
        for now in 0..3 {
            m.record_idle(now);
            assert_eq!(m.state(), HealthState::Healthy);
        }
        m.record_idle(3); // 4th idle: lag_after_idle
        assert_eq!(m.state(), HealthState::Lagging);
        for now in 4..15 {
            m.record_idle(now);
        }
        assert_eq!(m.state(), HealthState::Lagging);
        m.record_idle(15); // 16th idle: quarantine_after_idle
        assert_eq!(m.state(), HealthState::Quarantined);
    }

    #[test]
    fn failures_quarantine_faster_than_silence() {
        let mut m = monitor();
        m.record_failure(0);
        assert_eq!(m.state(), HealthState::Lagging);
        m.record_failure(1);
        assert_eq!(m.state(), HealthState::Lagging);
        m.record_failure(2); // quarantine_after_failures = 3
        assert_eq!(m.state(), HealthState::Quarantined);
        assert_eq!(m.transitions(), 2);
    }

    #[test]
    fn quarantine_gates_attempts_with_bounded_backoff() {
        let mut m = monitor();
        for now in 0..3 {
            m.record_failure(now);
        }
        assert_eq!(m.state(), HealthState::Quarantined);
        // First quarantined failure at now=2: delay 1 → ready at 3.
        assert!(!m.should_attempt(2));
        assert!(m.should_attempt(3));
        m.record_failure(3); // second failure: delay 2 → ready at 5.
        assert!(!m.should_attempt(4));
        assert!(m.should_attempt(5));
        // Delay never exceeds the configured max (16).
        for now in 6..40 {
            if m.should_attempt(now) {
                m.record_failure(now);
            }
        }
        assert!(m.should_attempt(39 + 16));
    }

    #[test]
    fn recovery_needs_a_streak_of_progress() {
        let mut m = monitor();
        for now in 0..3 {
            m.record_failure(now);
        }
        assert_eq!(m.state(), HealthState::Quarantined);
        m.record_progress(10);
        assert_eq!(m.state(), HealthState::Recovered);
        assert!(m.should_attempt(10));
        m.record_progress(11); // recovery_streak = 2
        assert_eq!(m.state(), HealthState::Healthy);
        assert_eq!(m.failure_streak(), 0);
    }

    #[test]
    fn a_failure_mid_recovery_demotes_again() {
        let mut m = monitor();
        for now in 0..3 {
            m.record_failure(now);
        }
        m.record_progress(5);
        assert_eq!(m.state(), HealthState::Recovered);
        m.record_failure(6);
        assert_eq!(m.state(), HealthState::Lagging);
    }

    #[test]
    fn transitions_mirror_to_obs() {
        let obs = Obs::default();
        let mut m = monitor();
        m.set_obs(&obs);
        let snap = obs.registry().snapshot();
        assert_eq!(snap.gauge("health.test.site.state"), Some(0.0));
        for now in 0..3 {
            m.record_failure(now);
        }
        let snap = obs.registry().snapshot();
        assert_eq!(snap.gauge("health.test.site.state"), Some(2.0));
        assert_eq!(snap.counter("health.test.site.transitions"), Some(2));
    }

    #[test]
    fn same_observation_sequence_reproduces_transitions() {
        let drive = |m: &mut HealthMonitor| {
            let mut trace = Vec::new();
            for now in 0..40u64 {
                match now % 7 {
                    0 | 1 => m.record_progress(now),
                    2..=4 => m.record_idle(now),
                    _ => m.record_failure(now),
                }
                trace.push((m.state(), m.should_attempt(now)));
            }
            trace
        };
        assert_eq!(drive(&mut monitor()), drive(&mut monitor()));
    }
}
