//! The uniform arbitrage-opportunity type produced by the pipeline.
//!
//! An [`ArbitrageOpportunity`] is a shared immutable handle: the
//! evaluated body ([`EvaluatedOpportunity`]) is built once, behind an
//! `Arc`, where the pipeline evaluates a cycle, and never mutated after.
//! Field reads go through `Deref` (`opp.cycle`, `opp.net_profit`), and
//! `Clone` is a refcount bump — so the engine's rank cache, the runtime's
//! ranking, published snapshots and ranking deltas all share one
//! allocation per evaluation instead of deep-copying its vectors.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use arb_core::loop_def::ArbLoop;
use arb_core::monetize::Usd;
use arb_graph::Cycle;

/// A fully evaluated arbitrage opportunity: one discovered cycle, the
/// winning strategy, and everything an executor needs to act on it.
///
/// This is the single currency flowing between discovery, ranking, and
/// execution: the bot builds flash bundles from it, examples print it,
/// and benches count them. It dereferences to its
/// [`EvaluatedOpportunity`] body; clones share that body.
#[derive(Clone)]
pub struct ArbitrageOpportunity(Arc<EvaluatedOpportunity>);

/// The evaluated body behind an [`ArbitrageOpportunity`] handle.
#[derive(Debug)]
pub struct EvaluatedOpportunity {
    /// The discovered cycle (token + pool ids in trade order).
    pub cycle: Cycle,
    /// The analysis view of the same loop (curves + token labels).
    pub loop_: ArbLoop,
    /// CEX (USD) prices aligned with the loop's token order.
    pub prices: Vec<f64>,
    /// Name of the strategy that produced this sizing.
    pub strategy: &'static str,
    /// Optimal input per hop, aligned with loop order. Single-rotation
    /// strategies (Traditional/MaxPrice/MaxMax) have exactly one nonzero
    /// entry; ConvexOpt may fund several hops.
    pub optimal_inputs: Vec<f64>,
    /// Net profit per loop token, aligned with loop order.
    pub token_profits: Vec<f64>,
    /// Monetized profit before execution costs.
    pub gross_profit: Usd,
    /// Monetized profit after the configured per-trade execution cost.
    pub net_profit: Usd,
}

impl ArbitrageOpportunity {
    /// Freezes an evaluated body into a shareable handle.
    #[must_use]
    pub fn new(body: EvaluatedOpportunity) -> Self {
        Self(Arc::new(body))
    }

    /// Whether two handles share one evaluation (a clone of the same
    /// handle), as opposed to two evaluations that may merely be equal.
    #[must_use]
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for ArbitrageOpportunity {
    type Target = EvaluatedOpportunity;

    fn deref(&self) -> &EvaluatedOpportunity {
        &self.0
    }
}

impl fmt::Debug for ArbitrageOpportunity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl EvaluatedOpportunity {
    /// Number of hops in the loop.
    pub fn hops(&self) -> usize {
        self.cycle.len()
    }

    /// When exactly one hop is funded, returns `(rotation, input)` — the
    /// shape single-rotation strategies produce, which executors can chain
    /// hop-by-hop with exact integer outputs.
    pub fn single_entry(&self) -> Option<(usize, f64)> {
        let mut entry = None;
        for (j, &input) in self.optimal_inputs.iter().enumerate() {
            if input > 0.0 {
                if entry.is_some() {
                    return None;
                }
                entry = Some((j, input));
            }
        }
        entry
    }

    /// The loop's zero-input round-trip rate (`> 1` ⇔ arbitrage exists).
    pub fn round_trip_rate(&self) -> f64 {
        self.loop_.round_trip_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arb_amm::curve::SwapCurve;
    use arb_amm::fee::FeeRate;
    use arb_amm::pool::PoolId;
    use arb_amm::token::TokenId;

    fn opportunity(inputs: Vec<f64>) -> ArbitrageOpportunity {
        let fee = FeeRate::UNISWAP_V2;
        let tokens = vec![TokenId::new(0), TokenId::new(1), TokenId::new(2)];
        let pools = vec![PoolId::new(0), PoolId::new(1), PoolId::new(2)];
        let hops = vec![
            SwapCurve::new(100.0, 200.0, fee).unwrap(),
            SwapCurve::new(300.0, 200.0, fee).unwrap(),
            SwapCurve::new(200.0, 400.0, fee).unwrap(),
        ];
        ArbitrageOpportunity::new(EvaluatedOpportunity {
            cycle: Cycle::new(tokens.clone(), pools).unwrap(),
            loop_: ArbLoop::new(hops, tokens).unwrap(),
            prices: vec![2.0, 10.2, 20.0],
            strategy: "maxmax",
            optimal_inputs: inputs,
            token_profits: vec![0.0, 0.0, 10.0],
            gross_profit: Usd::new(200.0),
            net_profit: Usd::new(195.0),
        })
    }

    #[test]
    fn single_entry_detects_rotations() {
        assert_eq!(
            opportunity(vec![0.0, 27.5, 0.0]).single_entry(),
            Some((1, 27.5))
        );
        assert_eq!(opportunity(vec![1.0, 2.0, 0.0]).single_entry(), None);
        assert_eq!(opportunity(vec![0.0, 0.0, 0.0]).single_entry(), None);
    }

    #[test]
    fn round_trip_rate_matches_loop() {
        let opp = opportunity(vec![27.0, 0.0, 0.0]);
        let expected = 0.997f64.powi(3) * 8.0 / 3.0;
        assert!((opp.round_trip_rate() - expected).abs() < 1e-12);
        assert_eq!(opp.hops(), 3);
    }

    #[test]
    fn clones_share_one_body() {
        let opp = opportunity(vec![27.0, 0.0, 0.0]);
        let copy = opp.clone();
        assert!(ArbitrageOpportunity::ptr_eq(&opp, &copy));
        assert!(!ArbitrageOpportunity::ptr_eq(
            &opp,
            &opportunity(vec![27.0, 0.0, 0.0])
        ));
    }
}
