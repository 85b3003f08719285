//! Parallel strategy evaluation across many loops.
//!
//! The empirical pipeline (paper §VI) evaluates four strategies on
//! hundreds of loops; the work is embarrassingly parallel, so this module
//! fans it out over the process-wide worker pool (the `rayon` shim).
//! Results preserve input order and are bit-identical to the serial path
//! (asserted in tests).

use rayon::prelude::*;

use crate::error::StrategyError;
use crate::loop_def::ArbLoop;
use crate::report::{compare, CompareOptions, LoopComparison};

/// A loop paired with its CEX prices, ready for evaluation.
#[derive(Debug, Clone)]
pub struct LoopCase {
    /// The loop.
    pub loop_: ArbLoop,
    /// Prices aligned with the loop's tokens.
    pub prices: Vec<f64>,
}

/// Compares all strategies on every case, serially.
///
/// # Errors
///
/// Fails fast on the first evaluation error.
pub fn compare_all(
    cases: &[LoopCase],
    options: &CompareOptions,
) -> Result<Vec<LoopComparison>, StrategyError> {
    cases
        .iter()
        .map(|case| compare(&case.loop_, &case.prices, options))
        .collect()
}

/// Compares all strategies on every case on the process-wide worker
/// pool, preserving input order.
///
/// # Errors
///
/// Fails on the first evaluation error in input order.
///
/// # Panics
///
/// Re-raises a panic from an evaluation on the pool.
pub fn compare_all_parallel(
    cases: &[LoopCase],
    options: &CompareOptions,
) -> Result<Vec<LoopComparison>, StrategyError> {
    cases
        .par_iter()
        .map(|case| compare(&case.loop_, &case.prices, options))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use arb_amm::curve::SwapCurve;
    use arb_amm::fee::FeeRate;
    use arb_amm::token::TokenId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_cases(n: usize, seed: u64) -> Vec<LoopCase> {
        let mut rng = StdRng::seed_from_u64(seed);
        let fee = FeeRate::UNISWAP_V2;
        (0..n)
            .map(|_| {
                let r = |rng: &mut StdRng| rng.gen_range(100.0..10_000.0);
                let loop_ = ArbLoop::new(
                    vec![
                        SwapCurve::new(r(&mut rng), r(&mut rng), fee).unwrap(),
                        SwapCurve::new(r(&mut rng), r(&mut rng), fee).unwrap(),
                        SwapCurve::new(r(&mut rng), r(&mut rng), fee).unwrap(),
                    ],
                    vec![TokenId::new(0), TokenId::new(1), TokenId::new(2)],
                )
                .unwrap();
                let prices = (0..3).map(|_| rng.gen_range(0.1..100.0)).collect();
                LoopCase { loop_, prices }
            })
            .collect()
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let options = CompareOptions::default();
        for n in [0, 1, 5, 40] {
            let cases = random_cases(n, 99);
            let serial = compare_all(&cases, &options).unwrap();
            let parallel = compare_all_parallel(&cases, &options).unwrap();
            assert_eq!(parallel, serial, "{n} cases");
        }
    }

    #[test]
    fn all_rows_satisfy_dominance() {
        let cases = random_cases(60, 123);
        let rows = compare_all_parallel(&cases, &CompareOptions::default()).unwrap();
        assert_eq!(rows.len(), 60);
        for (i, row) in rows.iter().enumerate() {
            assert!(
                row.satisfies_dominance(1e-4 * (1.0 + row.maxmax.value())),
                "case {i}: {row:?}"
            );
        }
    }
}
