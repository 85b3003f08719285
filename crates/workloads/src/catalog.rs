//! The named workload catalog.

use crate::error::WorkloadError;
use crate::scenario::{Scenario, ScenarioConfig};

/// The shape of market activity a workload models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum WorkloadKind {
    /// A calm live market: every tick nudges a handful of pools by small
    /// amounts — the sparse-delta baseline the streaming engine was built
    /// for.
    SteadySparse,
    /// Mostly quiet, punctuated by whale swaps that move a large slice of
    /// the universe by double-digit percentages in one tick.
    WhaleBursts,
    /// The Milionis et al. sweep: phases of (fee tier, move size, arrival
    /// intensity) that shift which loops clear the fee hurdle — low-fee
    /// pools under small frequent moves, then mid, then high-fee pools
    /// under large rare moves, with new pools deployed at each regime's
    /// tier.
    FeeRegimeShift,
    /// A create/retire storm: pools deploy (occasionally bridging two
    /// execution domains), drain to
    /// zero, and revive, while background deltas keep flowing.
    PoolChurn,
    /// Degenerate-pool flood: waves of pools drained to zero reserves and
    /// revived shortly after, stressing retire/revive bookkeeping
    /// (tombstoned cycle slots, posting lists, standing-set eviction).
    DegenerateFlood,
}

/// Agent intensities for driving the same shape through the bot's
/// chain-backed market simulation (`arb_bot::sim::MarketSim`), where
/// events come from executed transactions instead of a synthetic stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimProfile {
    /// Per-pool probability that the noise trader acts each block.
    pub trader_probability: f64,
    /// Noise trade size as a fraction of the input reserve.
    pub trader_max_fraction: f64,
    /// Per-pool probability that the LP agent acts each block.
    pub lp_probability: f64,
    /// LP deposit size as a fraction of reserves.
    pub lp_fraction: f64,
    /// CEX reference-price volatility per block.
    pub cex_volatility: f64,
    /// Initial pool mispricing dispersion.
    pub mispricing_std: f64,
}

/// A named, documented workload: the unit of the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Stable catalog name (kebab-case, usable as a CLI argument).
    pub name: &'static str,
    /// The activity shape.
    pub kind: WorkloadKind,
    /// One-line description.
    pub summary: &'static str,
}

impl WorkloadSpec {
    /// Materializes this workload into a concrete scenario: a multi-domain
    /// pool universe, an initial price table, and `config.ticks` event
    /// batches. Deterministic: the same `config` always produces the
    /// bit-identical scenario.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] for contradictory sizing
    /// and [`WorkloadError::Snapshot`] if the base universe cannot be
    /// generated.
    pub fn scenario(&self, config: &ScenarioConfig) -> Result<Scenario, WorkloadError> {
        crate::scenario::generate(self, config)
    }

    /// The agent intensities that reproduce this workload's shape inside
    /// the chain-backed market sim.
    pub fn sim_profile(&self) -> SimProfile {
        match self.kind {
            WorkloadKind::SteadySparse => SimProfile {
                trader_probability: 0.25,
                trader_max_fraction: 0.015,
                lp_probability: 0.05,
                lp_fraction: 0.05,
                cex_volatility: 0.001,
                mispricing_std: 0.006,
            },
            WorkloadKind::WhaleBursts => SimProfile {
                trader_probability: 0.1,
                trader_max_fraction: 0.2,
                lp_probability: 0.03,
                lp_fraction: 0.05,
                cex_volatility: 0.002,
                mispricing_std: 0.004,
            },
            WorkloadKind::FeeRegimeShift => SimProfile {
                trader_probability: 0.5,
                trader_max_fraction: 0.03,
                lp_probability: 0.08,
                lp_fraction: 0.08,
                cex_volatility: 0.004,
                mispricing_std: 0.008,
            },
            WorkloadKind::PoolChurn => SimProfile {
                trader_probability: 0.3,
                trader_max_fraction: 0.05,
                lp_probability: 0.25,
                lp_fraction: 0.2,
                cex_volatility: 0.002,
                mispricing_std: 0.006,
            },
            WorkloadKind::DegenerateFlood => SimProfile {
                trader_probability: 0.2,
                trader_max_fraction: 0.1,
                lp_probability: 0.35,
                lp_fraction: 0.45,
                cex_volatility: 0.001,
                mispricing_std: 0.004,
            },
        }
    }
}

const CATALOG: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "steady-sparse",
        kind: WorkloadKind::SteadySparse,
        summary: "calm market, a few small reserve deltas per tick",
    },
    WorkloadSpec {
        name: "whale-bursts",
        kind: WorkloadKind::WhaleBursts,
        summary: "quiet baseline punctuated by large correlated swaps",
    },
    WorkloadSpec {
        name: "fee-regime-shift",
        kind: WorkloadKind::FeeRegimeShift,
        summary: "fee-tier/volatility/intensity phases per Milionis et al.",
    },
    WorkloadSpec {
        name: "pool-churn",
        kind: WorkloadKind::PoolChurn,
        summary: "pool create/drain/revive storm, incl. cross-domain bridges",
    },
    WorkloadSpec {
        name: "degenerate-flood",
        kind: WorkloadKind::DegenerateFlood,
        summary: "waves of pools drained to zero and revived",
    },
];

/// The full workload catalog.
pub fn catalog() -> &'static [WorkloadSpec] {
    &CATALOG
}

/// Looks a workload up by its stable name.
pub fn find(name: &str) -> Option<&'static WorkloadSpec> {
    CATALOG.iter().find(|spec| spec.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_findable() {
        let mut names: Vec<&str> = catalog().iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), catalog().len());
        for spec in catalog() {
            assert_eq!(find(spec.name).unwrap().kind, spec.kind);
            assert!(!spec.summary.is_empty());
        }
        assert!(find("no-such-workload").is_none());
    }

    #[test]
    fn sim_profiles_are_sane() {
        for spec in catalog() {
            let p = spec.sim_profile();
            assert!((0.0..=1.0).contains(&p.trader_probability), "{}", spec.name);
            assert!((0.0..=1.0).contains(&p.lp_probability), "{}", spec.name);
            assert!(p.trader_max_fraction > 0.0 && p.trader_max_fraction < 1.0);
            assert!(p.cex_volatility >= 0.0);
            assert!(p.mispricing_std >= 0.0);
        }
    }
}
