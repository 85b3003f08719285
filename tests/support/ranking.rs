//! The ranking comparison shared by the root equivalence suites.

use arbloops::prelude::*;

/// Asserts two rankings are identical, bit for bit, position by position:
/// same cycles, winning strategies, gross/net profits and input-vector
/// shapes, in the same order.
pub fn assert_rankings_identical(
    context: &str,
    actual: &[ArbitrageOpportunity],
    expected: &[ArbitrageOpportunity],
) {
    assert_eq!(
        actual.len(),
        expected.len(),
        "{context}: opportunity counts diverged"
    );
    for (position, (a, e)) in actual.iter().zip(expected).enumerate() {
        let context = format!("{context} position {position}");
        assert_eq!(a.cycle.tokens(), e.cycle.tokens(), "{context}: tokens");
        assert_eq!(a.cycle.pools(), e.cycle.pools(), "{context}: pools");
        assert_eq!(a.strategy, e.strategy, "{context}: strategy");
        assert_eq!(
            a.gross_profit.value().to_bits(),
            e.gross_profit.value().to_bits(),
            "{context}: gross profit"
        );
        assert_eq!(
            a.net_profit.value().to_bits(),
            e.net_profit.value().to_bits(),
            "{context}: net profit"
        );
        assert_eq!(
            a.optimal_inputs.len(),
            e.optimal_inputs.len(),
            "{context}: input vector shape"
        );
    }
}
