//! Tick faults through the runtime's [`TickHook`] seam: slow ticks and
//! mid-tick panics, keyed on the `engine.tick` site at the runtime's
//! own tick counter.

use std::hint::black_box;
use std::sync::Arc;

use arb_engine::TickHook;

use crate::injector::ChaosInjector;
use crate::plan::FaultKind;
use crate::site;

/// Iterations of the slow-tick busy spin — enough to register as a
/// stall in a latency histogram without moving wall-clock time into
/// the decision path.
const SLOW_TICK_SPINS: u64 = 200_000;

/// A chaos [`TickHook`] for
/// [`arb_engine::ShardedRuntime::set_tick_hook`].
#[derive(Debug)]
pub struct ChaosTickHook {
    injector: Arc<ChaosInjector>,
}

impl ChaosTickHook {
    /// A hook consulting `injector` at [`site::ENGINE_TICK`] coordinates.
    #[must_use]
    pub fn new(injector: Arc<ChaosInjector>) -> Self {
        ChaosTickHook { injector }
    }
}

impl TickHook for ChaosTickHook {
    fn before_tick(&self, tick: u64) {
        match self.injector.decide(site::ENGINE_TICK, tick) {
            Some(FaultKind::SlowTick) => {
                let mut acc = 0u64;
                for i in 0..SLOW_TICK_SPINS {
                    acc = black_box(acc.wrapping_add(splat(i)));
                }
                black_box(acc);
            }
            Some(FaultKind::PanicTick) => {
                panic!("chaos: injected mid-tick panic at tick {tick}")
            }
            _ => {}
        }
    }
}

fn splat(x: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;

    #[test]
    fn panic_windows_panic_exactly_once_per_coordinate() {
        let injector = Arc::new(ChaosInjector::new(FaultPlan::new(9).with_window(
            site::ENGINE_TICK,
            4..5,
            FaultKind::PanicTick,
            1_000_000,
        )));
        let hook = ChaosTickHook::new(Arc::clone(&injector));
        hook.before_tick(3); // outside the window: quiet
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hook.before_tick(4)));
        assert!(caught.is_err(), "window coordinate must panic");
        // A supervisor retrying the same tick must get through.
        hook.before_tick(4);
        assert_eq!(injector.injected(), 1);
    }
}
