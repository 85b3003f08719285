//! Seeded fault plans: *which* fault fires *where* and *when*, as a
//! pure function of `(seed, site, tick)`.
//!
//! No wall clock, no global RNG state: whether a window fires at a
//! given coordinate is decided by hashing the plan seed with the site
//! name and the tick, so the same plan over the same run produces the
//! exact same fault schedule every time — the property the chaos soak's
//! same-seed-rerun assertion rests on. "Tick" is whatever monotone
//! counter the injected site naturally has: the scenario tick for
//! sources, the commit index for journal I/O, the runtime tick for
//! the engine.

use std::fmt;
use std::ops::Range;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultKind {
    /// Hold a source's events one-plus ticks, then release in order.
    DelayEvents,
    /// Hold a source's events for the whole window (a feed/chain
    /// outage); released when the window clears.
    StallSource,
    /// Emit an idempotent event twice, back to back.
    DuplicateEvents,
    /// Swallow an idempotent event (repaired after the window closes
    /// unless a later genuine event superseded it).
    DropEvents,
    /// Replace a feed price with NaN garbage (the price table rejects
    /// it; the genuine price is repaired after the window).
    GarbagePrice,
    /// Fail a journal batch write outright.
    WriteError,
    /// Land the batch but fail the fsync.
    FsyncError,
    /// Land a deterministic prefix of the batch, then fail (a torn
    /// tail for reopen-healing to cut back).
    TornWrite,
    /// Fail the write with `StorageFull` (ENOSPC).
    DiskFull,
    /// Busy-spin a runtime tick (a slow worker, not a dead one).
    SlowTick,
    /// Panic mid-tick, before the runtime applies the tick's events.
    PanicTick,
}

impl FaultKind {
    /// Stable kebab-case label (metric suffixes, logs).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::DelayEvents => "delay-events",
            FaultKind::StallSource => "stall-source",
            FaultKind::DuplicateEvents => "duplicate-events",
            FaultKind::DropEvents => "drop-events",
            FaultKind::GarbagePrice => "garbage-price",
            FaultKind::WriteError => "write-error",
            FaultKind::FsyncError => "fsync-error",
            FaultKind::TornWrite => "torn-write",
            FaultKind::DiskFull => "disk-full",
            FaultKind::SlowTick => "slow-tick",
            FaultKind::PanicTick => "panic-tick",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One scheduled fault: `kind` fires at `site` on each tick in `ticks`
/// with probability `rate_ppm` / 1 000 000 (deterministically hashed,
/// not sampled — `1_000_000` fires every tick of the window).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultWindow {
    /// Target site (see [`crate::site`]).
    pub site: String,
    /// Half-open tick range the window covers.
    pub ticks: Range<u64>,
    /// What to inject.
    pub kind: FaultKind,
    /// Fire rate in parts per million of the window's ticks.
    pub rate_ppm: u32,
}

/// A seeded schedule of [`FaultWindow`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// An empty plan under `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            windows: Vec::new(),
        }
    }

    /// Adds a window (builder style).
    #[must_use]
    pub fn with_window(
        mut self,
        site: impl Into<String>,
        ticks: Range<u64>,
        kind: FaultKind,
        rate_ppm: u32,
    ) -> Self {
        self.windows.push(FaultWindow {
            site: site.into(),
            ticks,
            kind,
            rate_ppm: rate_ppm.min(1_000_000),
        });
        self
    }

    /// The plan seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled windows.
    #[must_use]
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Whether any window covers `(site, tick)` — firing or not. Used
    /// to decide when dropped-event repairs may be released.
    #[must_use]
    pub fn window_active(&self, site: &str, tick: u64) -> bool {
        self.windows
            .iter()
            .any(|w| w.site == site && w.ticks.contains(&tick))
    }

    /// The fault (if any) that fires at `(site, tick)`: the first
    /// covering window whose hash draw lands under its rate. Pure — two
    /// calls with the same arguments always agree.
    #[must_use]
    pub fn fault_at(&self, site: &str, tick: u64) -> Option<FaultKind> {
        self.windows
            .iter()
            .filter(|w| w.site == site && w.ticks.contains(&tick))
            .find(|w| self.draw(site, tick, w.kind.label()) % 1_000_000 < u64::from(w.rate_ppm))
            .map(|w| w.kind)
    }

    /// Deterministic auxiliary randomness for a firing fault's
    /// parameters (e.g. where a torn write cuts). Vary `salt` for
    /// independent draws at one coordinate.
    #[must_use]
    pub fn aux(&self, site: &str, tick: u64, salt: u64) -> u64 {
        self.draw(site, tick, "aux").wrapping_add(splitmix64(salt))
    }

    fn draw(&self, site: &str, tick: u64, label: &str) -> u64 {
        splitmix64(
            self.seed
                ^ fnv1a(site)
                ^ fnv1a(label).rotate_left(17)
                ^ tick.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }
}

/// FNV-1a over a string — a stable, dependency-free site hash.
fn fnv1a(s: &str) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in s.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// `splitmix64` finalizer — a cheap, well-mixed pure hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan::new(42)
            .with_window("ingest.source.feed", 10..20, FaultKind::DropEvents, 500_000)
            .with_window("journal.io", 5..8, FaultKind::WriteError, 1_000_000)
    }

    #[test]
    fn full_rate_windows_fire_every_covered_tick() {
        let plan = plan();
        for tick in 5..8 {
            assert_eq!(
                plan.fault_at("journal.io", tick),
                Some(FaultKind::WriteError)
            );
        }
        assert_eq!(plan.fault_at("journal.io", 4), None);
        assert_eq!(plan.fault_at("journal.io", 8), None);
        assert_eq!(plan.fault_at("engine.tick", 6), None);
    }

    #[test]
    fn partial_rates_fire_deterministically_and_partially() {
        let plan = plan();
        let fired: Vec<u64> = (10..20)
            .filter(|&t| plan.fault_at("ingest.source.feed", t).is_some())
            .collect();
        let again: Vec<u64> = (10..20)
            .filter(|&t| plan.fault_at("ingest.source.feed", t).is_some())
            .collect();
        assert_eq!(fired, again, "pure function of (seed, site, tick)");
        assert!(
            !fired.is_empty() && fired.len() < 10,
            "a 50% window should fire some but not all of 10 ticks: {fired:?}"
        );
    }

    #[test]
    fn different_seeds_shuffle_the_schedule() {
        let a = plan();
        let b = FaultPlan::new(43).with_window(
            "ingest.source.feed",
            10..20,
            FaultKind::DropEvents,
            500_000,
        );
        let fired = |p: &FaultPlan| -> Vec<u64> {
            (10..20)
                .filter(|&t| p.fault_at("ingest.source.feed", t).is_some())
                .collect()
        };
        assert_ne!(fired(&a), fired(&b), "seed must matter");
    }

    #[test]
    fn window_active_ignores_the_rate() {
        let plan = plan();
        for tick in 10..20 {
            assert!(plan.window_active("ingest.source.feed", tick));
        }
        assert!(!plan.window_active("ingest.source.feed", 20));
    }

    #[test]
    fn aux_is_stable_per_salt() {
        let plan = plan();
        assert_eq!(plan.aux("journal.io", 5, 1), plan.aux("journal.io", 5, 1));
        assert_ne!(plan.aux("journal.io", 5, 1), plan.aux("journal.io", 5, 2));
    }
}
