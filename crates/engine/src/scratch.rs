//! The reusable evaluation scratch arena behind the streaming refresh.
//!
//! Every incremental refresh (`ShardedRuntime::refresh_standing`) used
//! to allocate per dirty cycle: a cloned [`arb_graph::Cycle`], a curve
//! `Vec` from `curves_for`, an `ArbLoop` (two more `Vec`s), a prices
//! `Vec`, and a collected results `Vec`. This module replaces all of
//! that with one runtime-owned arena of flat structure-of-arrays
//! buffers:
//!
//! ```text
//! hops:   [c0h0 c0h1 c0h2 | c1h0 c1h1 | ...]   SwapCurve, flat
//! tokens: [c0t0 c0t1 c0t2 | c1t0 c1t1 | ...]   TokenId,   flat
//! prices: [c0p0 c0p1 c0p2 | c1p0 c1p1 | ...]   f64,       flat
//! slots:  [ (id, offset, len, ArbLoop scratch, outcome) ... ]
//! ```
//!
//! Each surviving candidate is one [`EvalSlot`] holding an `(offset,
//! len)` span into the shared buffers plus a persistent [`ArbLoop`] whose
//! inner vectors are rebuilt in place per refresh (capacity reused). The
//! parallel fan-out runs `for_each` over `&mut` slots — every worker
//! writes its outcome into its own slot, so nothing is collected and
//! nothing is allocated. Buffers only grow while a refresh touches more
//! candidates/hops than any refresh before it; [`ScratchArena::grow_events`]
//! counts those growth episodes so benches can assert the steady state
//! allocates **zero** bytes in this path.

use arb_amm::curve::SwapCurve;
use arb_amm::pool::PoolId;
use arb_amm::token::TokenId;
use arb_core::loop_def::ArbLoop;
use arb_graph::CycleId;

use crate::error::EngineError;
use crate::opportunity::ArbitrageOpportunity;

/// One prepared candidate awaiting (or holding the result of) strategy
/// evaluation.
#[derive(Debug)]
pub(crate) struct EvalSlot {
    /// The cycle under evaluation.
    pub(crate) id: CycleId,
    /// Start of this candidate's span in the flat buffers.
    pub(crate) offset: usize,
    /// Hop count (= token count = price count) of the span.
    pub(crate) len: usize,
    /// Reusable loop storage, rebuilt in place each refresh.
    pub(crate) loop_: ArbLoop,
    /// The evaluation outcome, written by the fan-out worker that owns
    /// this slot.
    pub(crate) outcome: Option<Result<EvalOutcome, EngineError>>,
}

/// One cycle's evaluation result: `(best opportunity, strategy attempts,
/// benign failures)` — the tuple `OpportunityPipeline::evaluate_cycle`
/// returns.
pub(crate) type EvalOutcome = (Option<ArbitrageOpportunity>, usize, usize);

/// The engine-owned scratch arena. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct ScratchArena {
    /// Flat per-hop curves, span-indexed by slots.
    pub(crate) hops: Vec<SwapCurve>,
    /// Flat per-hop entry tokens, span-indexed by slots.
    pub(crate) tokens: Vec<TokenId>,
    /// Flat per-token USD prices, span-indexed by slots.
    pub(crate) prices: Vec<f64>,
    /// Slot storage; only `..used` is meaningful this refresh.
    slots: Vec<EvalSlot>,
    used: usize,
    /// Cycles the screen (or exact classification) dropped this refresh,
    /// to be removed from the standing set at commit.
    pub(crate) dropped: Vec<CycleId>,
    /// Reused buffer for the feed-diff pool scan.
    pub(crate) moved_pools: Vec<PoolId>,
    /// Capacity-growth episodes since construction: refreshes during
    /// which at least one arena buffer had to allocate. Flat after
    /// warmup ⇔ the refresh hot path is allocation-free.
    grow_events: usize,
    watermark: (usize, usize, usize, usize, usize),
}

impl ScratchArena {
    /// Resets the arena for a new refresh. Lengths go to zero; capacity
    /// is retained.
    pub(crate) fn begin_refresh(&mut self) {
        self.hops.clear();
        self.tokens.clear();
        self.prices.clear();
        self.used = 0;
        self.dropped.clear();
        self.watermark = self.capacities();
    }

    /// Finishes the refresh's preparation phase, recording whether any
    /// buffer grew past its prior high-water capacity.
    pub(crate) fn end_prepare(&mut self) {
        if self.capacities() != self.watermark {
            self.grow_events += 1;
        }
    }

    fn capacities(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.hops.capacity(),
            self.tokens.capacity(),
            self.prices.capacity(),
            self.slots.capacity(),
            self.dropped.capacity(),
        )
    }

    /// Capacity-growth episodes since construction.
    pub(crate) fn grow_events(&self) -> usize {
        self.grow_events
    }

    /// Claims the next evaluation slot for the candidate whose span
    /// `[offset, offset+len)` was just pushed into the flat buffers.
    /// Reuses a previously grown slot (and its `ArbLoop` capacity) when
    /// one is available.
    pub(crate) fn push_candidate(&mut self, id: CycleId, offset: usize, len: usize) {
        if self.used < self.slots.len() {
            let slot = &mut self.slots[self.used];
            slot.id = id;
            slot.offset = offset;
            slot.len = len;
            slot.outcome = None;
        } else {
            self.slots.push(EvalSlot {
                id,
                offset,
                len,
                loop_: ArbLoop::scratch(),
                outcome: None,
            });
        }
        self.used += 1;
    }

    /// The slots prepared this refresh, mutably (the fan-out's working
    /// set).
    pub(crate) fn slots_mut(&mut self) -> &mut [EvalSlot] {
        &mut self.slots[..self.used]
    }

    /// Splits the arena for the evaluation fan-out: shared read-only
    /// views of the flat buffers plus mutable access to this refresh's
    /// slots — disjoint fields, so workers can write outcomes while all
    /// of them read the same spans.
    #[allow(clippy::type_complexity)]
    pub(crate) fn split_for_eval(&mut self) -> (&[SwapCurve], &[TokenId], &[f64], &mut [EvalSlot]) {
        (
            &self.hops,
            &self.tokens,
            &self.prices,
            &mut self.slots[..self.used],
        )
    }

    /// The slots prepared this refresh.
    pub(crate) fn slots(&self) -> &[EvalSlot] {
        &self.slots[..self.used]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_reuse_and_growth_accounting() {
        let mut arena = ScratchArena::default();
        arena.begin_refresh();
        for i in 0..4 {
            arena
                .hops
                .push(SwapCurve::new(10.0, 10.0, arb_amm::fee::FeeRate::UNISWAP_V2).unwrap());
            arena.tokens.push(TokenId::new(i));
            arena.prices.push(1.0);
        }
        arena.push_candidate(CycleId::from_index(0), 0, 2);
        arena.push_candidate(CycleId::from_index(1), 2, 2);
        arena.end_prepare();
        assert_eq!(arena.slots().len(), 2);
        assert_eq!(arena.grow_events(), 1, "cold arena grows once");

        // A same-shape refresh reuses every buffer: no growth episode.
        arena.begin_refresh();
        for i in 0..4 {
            arena
                .hops
                .push(SwapCurve::new(10.0, 10.0, arb_amm::fee::FeeRate::UNISWAP_V2).unwrap());
            arena.tokens.push(TokenId::new(i));
            arena.prices.push(1.0);
        }
        arena.push_candidate(CycleId::from_index(7), 0, 2);
        arena.push_candidate(CycleId::from_index(8), 2, 2);
        arena.end_prepare();
        assert_eq!(arena.grow_events(), 1, "steady state allocates nothing");
        assert_eq!(arena.slots()[0].id, CycleId::from_index(7));
        assert!(arena.slots()[0].outcome.is_none(), "outcome reset on reuse");

        // A *smaller* refresh also reuses.
        arena.begin_refresh();
        arena.end_prepare();
        assert_eq!(arena.slots().len(), 0);
        assert_eq!(arena.grow_events(), 1);
    }
}
