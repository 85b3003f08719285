//! Ranking deltas: what changed between two published snapshots.
//!
//! The pipeline's comparator is a **total** order (score, then hops,
//! then token ids, then pool ids — no two distinct opportunities ever
//! compare equal), and it is a pure function of an entry's value. So
//! between two revisions, every entry whose evaluation is bit-unchanged
//! keeps its relative order against every other unchanged entry. That
//! makes a compact delta lossless:
//!
//! * `removed` — cycles ranked in the base but absent from the target
//!   (retired, repriced below the floor, or pushed out of the `top_k`
//!   cut);
//! * `upserts` — `(rank, entry)` pairs for cycles that are new to the
//!   ranking *or* whose evaluation changed bitwise;
//! * `len` — the target ranking's length.
//!
//! [`apply`] rebuilds the target exactly: place the upserts at their
//! ranks, then fill the remaining slots with the surviving unchanged
//! entries **in base order**. Correctness of the fill is exactly the
//! relative-order-preservation argument above.

use arb_engine::ArbitrageOpportunity;
use arb_graph::Cycle;

/// The change set between two consecutive published revisions.
#[derive(Debug, Clone)]
pub struct RankingDelta {
    /// Revision the delta applies on top of.
    pub from_revision: u64,
    /// Revision the delta produces.
    pub to_revision: u64,
    /// Length of the target ranking.
    pub len: usize,
    /// Cycles present in the base ranking but not the target.
    pub removed: Vec<Cycle>,
    /// New or re-evaluated entries with their target ranks, ascending.
    pub upserts: Vec<(u32, ArbitrageOpportunity)>,
}

impl RankingDelta {
    /// Whether the delta carries no change (revision advanced with an
    /// identical ranking — e.g. the first publish after a
    /// checkpoint/restore).
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.removed.is_empty() && self.upserts.is_empty()
    }
}

/// Errors from [`apply`]: the delta does not fit the base it was handed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// A removed cycle was not present in the base ranking.
    RemovedMissing,
    /// An upsert rank falls outside the target length.
    RankOutOfBounds,
    /// Survivor count does not match the non-upsert slots.
    SurvivorMismatch,
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::RemovedMissing => write!(f, "delta removes a cycle the base does not rank"),
            Self::RankOutOfBounds => write!(f, "delta upsert rank exceeds the target length"),
            Self::SurvivorMismatch => {
                write!(f, "survivors do not fill the delta's non-upsert slots")
            }
        }
    }
}

impl std::error::Error for ApplyError {}

/// True when two evaluations of the same cycle are bitwise identical —
/// the condition under which an entry may ride along implicitly instead
/// of being re-shipped as an upsert. Two handles on one shared
/// evaluation are identical without looking; otherwise the f64 bit
/// patterns are compared in place.
fn same_eval(a: &ArbitrageOpportunity, b: &ArbitrageOpportunity) -> bool {
    fn same_bits(xs: &[f64], ys: &[f64]) -> bool {
        xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| x.to_bits() == y.to_bits())
    }
    ArbitrageOpportunity::ptr_eq(a, b)
        || (a.strategy == b.strategy
            && a.gross_profit.value().to_bits() == b.gross_profit.value().to_bits()
            && a.net_profit.value().to_bits() == b.net_profit.value().to_bits()
            && same_bits(&a.prices, &b.prices)
            && same_bits(&a.optimal_inputs, &b.optimal_inputs)
            && same_bits(&a.token_profits, &b.token_profits))
}

/// Computes the delta turning `base` into `next`.
#[must_use]
pub fn diff(
    from_revision: u64,
    base: &[ArbitrageOpportunity],
    to_revision: u64,
    next: &[ArbitrageOpportunity],
) -> RankingDelta {
    let base_by_cycle: std::collections::HashMap<&Cycle, &ArbitrageOpportunity> =
        base.iter().map(|opp| (&opp.cycle, opp)).collect();
    let next_cycles: std::collections::HashSet<&Cycle> =
        next.iter().map(|opp| &opp.cycle).collect();
    let removed = base
        .iter()
        .filter(|opp| !next_cycles.contains(&opp.cycle))
        .map(|opp| opp.cycle.clone())
        .collect();
    let upserts = next
        .iter()
        .enumerate()
        .filter(|(_, opp)| {
            base_by_cycle
                .get(&opp.cycle)
                .is_none_or(|prev| !same_eval(prev, opp))
        })
        .map(|(rank, opp)| (rank as u32, opp.clone()))
        .collect();
    RankingDelta {
        from_revision,
        to_revision,
        len: next.len(),
        removed,
        upserts,
    }
}

/// Applies a delta to the base ranking it was diffed against,
/// reconstructing the target ranking exactly (bit-identical entries in
/// identical order).
///
/// # Errors
///
/// [`ApplyError`] when the delta is inconsistent with `base` — the
/// subscription layer treats that as a broken chain and resyncs.
pub fn apply(
    base: &[ArbitrageOpportunity],
    delta: &RankingDelta,
) -> Result<Vec<ArbitrageOpportunity>, ApplyError> {
    let removed: std::collections::HashSet<&Cycle> = delta.removed.iter().collect();
    if removed.len() != delta.removed.len() {
        return Err(ApplyError::RemovedMissing);
    }
    let base_cycles: std::collections::HashSet<&Cycle> =
        base.iter().map(|opp| &opp.cycle).collect();
    if removed.iter().any(|cycle| !base_cycles.contains(*cycle)) {
        return Err(ApplyError::RemovedMissing);
    }
    let upserted: std::collections::HashSet<&Cycle> =
        delta.upserts.iter().map(|(_, opp)| &opp.cycle).collect();

    let mut slots: Vec<Option<ArbitrageOpportunity>> = vec![None; delta.len];
    for (rank, opp) in &delta.upserts {
        let slot = slots
            .get_mut(*rank as usize)
            .ok_or(ApplyError::RankOutOfBounds)?;
        if slot.is_some() {
            return Err(ApplyError::RankOutOfBounds);
        }
        *slot = Some(opp.clone());
    }

    // Unchanged survivors keep their relative order under the total
    // comparator, so base order fills the remaining slots exactly.
    let mut survivors = base
        .iter()
        .filter(|opp| !removed.contains(&opp.cycle) && !upserted.contains(&opp.cycle));
    for slot in &mut slots {
        if slot.is_none() {
            *slot = Some(
                survivors
                    .next()
                    .ok_or(ApplyError::SurvivorMismatch)?
                    .clone(),
            );
        }
    }
    if survivors.next().is_some() {
        return Err(ApplyError::SurvivorMismatch);
    }
    Ok(slots
        .into_iter()
        .map(|slot| slot.expect("filled"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Delta round-trips over real rankings are exercised end-to-end in
    // `tests/serve_diff.rs`; here we only pin the degenerate shapes.
    #[test]
    fn empty_to_empty_is_noop() {
        let delta = diff(3, &[], 4, &[]);
        assert!(delta.is_noop());
        assert_eq!(delta.len, 0);
        assert!(apply(&[], &delta).unwrap().is_empty());
    }

    #[test]
    fn apply_rejects_foreign_removal() {
        let delta = RankingDelta {
            from_revision: 0,
            to_revision: 1,
            len: 0,
            removed: vec![Cycle::new(
                vec![
                    arb_amm::token::TokenId::new(0),
                    arb_amm::token::TokenId::new(1),
                ],
                vec![arb_amm::pool::PoolId::new(0), arb_amm::pool::PoolId::new(1)],
            )
            .unwrap()],
            upserts: Vec::new(),
        };
        assert_eq!(apply(&[], &delta).unwrap_err(), ApplyError::RemovedMissing);
    }
}
