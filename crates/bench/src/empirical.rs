//! The §VI empirical pipeline: snapshot → graph → loop census → strategy
//! comparison rows.

use arb_core::batch::{self, LoopCase};
use arb_core::loop_def::ArbLoop;
use arb_core::report::{CompareOptions, LoopComparison};
use arb_graph::{Cycle, TokenGraph};
use arb_snapshot::{Generator, Snapshot, SnapshotConfig};

/// The assembled empirical study for one snapshot.
pub struct EmpiricalStudy {
    /// The filtered snapshot (the paper's 51-token / 208-pool census).
    pub snapshot: Snapshot,
    /// The token graph over the filtered pools.
    pub graph: TokenGraph,
}

impl EmpiricalStudy {
    /// Generates the study from a snapshot config (defaults reproduce the
    /// paper's census).
    ///
    /// # Panics
    ///
    /// Panics on snapshot/graph construction failure — the binaries using
    /// this are reproduction scripts where failing loudly is correct.
    pub fn build(config: &SnapshotConfig) -> Self {
        let snapshot = Generator::new(*config)
            .generate()
            .expect("snapshot generation")
            .filtered(config);
        let graph = TokenGraph::new(snapshot.pools().to_vec()).expect("non-empty graph");
        EmpiricalStudy { snapshot, graph }
    }

    /// All arbitrage loops of the given length, as strategy-ready cases.
    pub fn loop_cases(&self, length: usize) -> Vec<LoopCase> {
        let prices = self.snapshot.price_vector();
        self.graph
            .arbitrage_loops(length)
            .expect("cycle enumeration")
            .into_iter()
            .map(|cycle| self.case_for(&cycle, &prices))
            .collect()
    }

    fn case_for(&self, cycle: &Cycle, prices: &[f64]) -> LoopCase {
        let hops = self.graph.curves_for(cycle).expect("validated cycle");
        let loop_ = ArbLoop::new(hops, cycle.tokens().to_vec()).expect("valid loop");
        let case_prices = cycle.tokens().iter().map(|t| prices[t.index()]).collect();
        LoopCase {
            loop_,
            prices: case_prices,
        }
    }

    /// Strategy comparisons for every arbitrage loop of a length,
    /// evaluated on the worker pool.
    pub fn comparisons(&self, length: usize) -> Vec<LoopComparison> {
        let cases = self.loop_cases(length);
        batch::compare_all_parallel(&cases, &CompareOptions::default())
            .expect("strategy evaluation")
    }
}

/// Loops below this monetized profit are excluded from *relative* convex
/// statistics: the convex solver works to an absolute duality-gap
/// tolerance (micro-dollars), so relative numbers on nano-dollar loops are
/// numerically meaningless noise.
pub const RELATIVE_STATS_FLOOR_USD: f64 = 1e-3;

/// Summary statistics over comparison rows (reported in EXPERIMENTS.md).
#[derive(Debug, Clone, PartialEq)]
pub struct DominanceSummary {
    /// Number of loops.
    pub loops: usize,
    /// Fraction of traditional-rotation points strictly below MaxMax
    /// (the rest tie — the winning rotation itself).
    pub traditional_strictly_below: f64,
    /// Fraction of loops where MaxPrice is strictly below MaxMax
    /// ("unreliability" of the MaxPrice heuristic).
    pub maxprice_strictly_below: f64,
    /// Largest absolute gap `maxmax − convex` in dollars (bounded by the
    /// solver's duality-gap tolerance; convex dominates in theory).
    pub worst_convex_shortfall_usd: f64,
    /// Largest relative gap `(maxmax − convex)/maxmax` over loops above
    /// the profit floor.
    pub worst_convex_shortfall: f64,
    /// Mean relative gap `(convex − maxmax)/maxmax` over loops above the
    /// profit floor (paper: tiny but non-negative).
    pub mean_convex_gain: f64,
}

/// Computes the dominance summary for a set of rows.
pub fn summarize(rows: &[LoopComparison]) -> DominanceSummary {
    let mut trad_total = 0usize;
    let mut trad_below = 0usize;
    let mut maxprice_below = 0usize;
    let mut worst_abs = 0.0f64;
    let mut worst_shortfall = f64::NEG_INFINITY;
    let mut gain_sum = 0.0;
    let mut gain_count = 0usize;
    for row in rows {
        let mm = row.maxmax.value();
        for t in &row.traditional {
            trad_total += 1;
            if t.value() < mm - 1e-9 * (1.0 + mm) {
                trad_below += 1;
            }
        }
        if row.maxprice.value() < mm - 1e-9 * (1.0 + mm) {
            maxprice_below += 1;
        }
        worst_abs = worst_abs.max(mm - row.convex.value());
        if mm >= RELATIVE_STATS_FLOOR_USD {
            worst_shortfall = worst_shortfall.max((mm - row.convex.value()) / mm);
            gain_sum += (row.convex.value() - mm) / mm;
            gain_count += 1;
        }
    }
    DominanceSummary {
        loops: rows.len(),
        traditional_strictly_below: ratio(trad_below, trad_total),
        maxprice_strictly_below: ratio(maxprice_below, rows.len()),
        worst_convex_shortfall_usd: worst_abs,
        worst_convex_shortfall: if worst_shortfall.is_finite() {
            worst_shortfall
        } else {
            0.0
        },
        mean_convex_gain: if gain_count > 0 {
            gain_sum / gain_count as f64
        } else {
            0.0
        },
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SnapshotConfig {
        SnapshotConfig {
            num_tokens: 12,
            num_pools: 26,
            ..SnapshotConfig::default()
        }
    }

    #[test]
    fn pipeline_produces_dominant_rows() {
        let study = EmpiricalStudy::build(&small_config());
        let rows = study.comparisons(3);
        assert!(!rows.is_empty(), "small market should have some loops");
        for row in &rows {
            assert!(
                row.satisfies_dominance(1e-4 * (1.0 + row.maxmax.value())),
                "{row:?}"
            );
        }
        let summary = summarize(&rows);
        assert_eq!(summary.loops, rows.len());
        // Convex never falls materially below MaxMax.
        assert!(summary.worst_convex_shortfall < 1e-4);
        // Exactly one rotation per loop ties with MaxMax, so the strictly-
        // below fraction is (n−1)/n per loop = 2/3 for triangles.
        assert!(summary.traditional_strictly_below > 0.5);
    }

    #[test]
    fn summary_on_empty_rows() {
        let s = summarize(&[]);
        assert_eq!(s.loops, 0);
        assert_eq!(s.maxprice_strictly_below, 0.0);
    }
}
