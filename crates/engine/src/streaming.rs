//! The incremental streaming engine: event deltas → dirty cycles → re-rank.
//!
//! [`crate::OpportunityPipeline`] is a pure function of a full market
//! snapshot: every run rebuilds the graph and re-enumerates every cycle.
//! That is the right shape for cold starts and offline studies, but a live
//! market tick touches a handful of pools while the universe holds
//! hundreds — rescanning the world each block does O(universe) work for
//! O(delta) change.
//!
//! [`StreamingEngine`] owns the state the batch pipeline recomputes:
//!
//! ```text
//! events ──▶ delta apply (TokenGraph::apply_sync / add_pool)
//!    │              │
//!    │        CycleIndex: PoolId → affected CycleIds  ──▶ dirty set
//!    │                                                      │
//!    └── price feed ──▶ re-evaluate ONLY dirty cycles (parallel)
//!                                   │
//!                    merge into standing ranked opportunity set
//! ```
//!
//! The work per batch is proportional to the cycles the events touched,
//! not to the universe; [`StreamStats::evaluations_saved`] counts the
//! difference. Evaluation, floor filtering, and ranking reuse the exact
//! pipeline code, so after any event sequence the standing set is
//! *identical* to a fresh batch run on the resulting state under the same
//! feed (`tests/streaming_equivalence.rs` enforces this).
//!
//! Feed moves are handled symmetrically to reserve moves: every refresh
//! compares the feed against the per-token prices used last time and
//! dirties the cycles touching any token whose USD price changed, so the
//! standing set stays batch-identical even under a drifting CEX feed —
//! while a universe whose prices *didn't* move pays nothing.
//!
//! # The profitability screen and the zero-allocation hot path
//!
//! Re-evaluation itself is screened: before a dirty cycle pays for curve
//! assembly, price resolution, and the strategy fan-out (the convex
//! solver dominates), the engine consults the [`CycleIndex`]'s
//! incrementally maintained log-sum. A cycle whose running `Σ log p` sits
//! at or below `-`[`CycleIndex::SCREEN_DRIFT_MARGIN`] is provably not an
//! arbitrage loop — the full path would classify it `NotArbitrage` and
//! drop it — so the engine drops it directly and counts it in
//! [`StreamStats::cycles_screened_out`]. When the effective gross floor
//! (`execution_cost_usd + min_net_profit_usd`) is positive, a second
//! sound screen applies: no trading plan can extract more USD from a
//! cycle's pools than `Σ_pools (√(Pa·x) − √(Pb·y))²` (each pool's value
//! at feed prices never drops below its `2√(k·Pa·Pb)` alignment minimum,
//! and with fees `k` never decreases), so cycles whose bound cannot clear
//! the floor skip strategy evaluation too
//! ([`StreamStats::cycles_floor_screened`]). Both screens are
//! conservative — borderline cycles fall through to the exact path — so
//! output stays bit-identical with the screen on or off
//! (`tests/screen_equivalence.rs`).
//!
//! Survivors are prepared into a reusable scratch arena (flat
//! structure-of-arrays buffers for curves/tokens/prices, span-indexed
//! evaluation slots with per-slot reusable `ArbLoop`s) and evaluated by
//! an in-place `for_each` fan-out: in the steady state the refresh
//! performs **zero heap allocation** in this scratch path
//! ([`StreamStats::scratch_grow_events`] stays flat once warm).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use arb_amm::pool::Pool;
use arb_cex::feed::PriceFeed;
use arb_dexsim::events::Event;
use arb_dexsim::units::to_display;
use arb_graph::{CycleId, CycleIndex, SyncOutcome, TokenGraph};
use arb_obs::{Counter, Obs, SpanTimer};
use rayon::prelude::*;

use crate::bounds::{floor_verdict, FloorVerdict};
use crate::checkpoint::{EngineCheckpoint, PoolSlot};
use crate::dirty::DirtyCycleSet;
use crate::error::EngineError;
use crate::opportunity::ArbitrageOpportunity;
use crate::pipeline::OpportunityPipeline;
use crate::scratch::{EvalSlot, ScratchArena};

/// Cumulative counters for one streaming engine's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Events consumed (all variants).
    pub events_applied: usize,
    /// `Sync` reserve updates applied to the graph.
    pub syncs_applied: usize,
    /// Pools added from `PoolCreated` events.
    pub pools_added: usize,
    /// Pools retired after degenerate reserves.
    pub pools_retired: usize,
    /// Retired pools revived by a later valid `Sync`.
    pub pools_revived: usize,
    /// Cycles newly indexed for added/revived pools.
    pub cycles_added: usize,
    /// Cycles retired with their pools.
    pub cycles_retired: usize,
    /// Cycle-ids marked dirty by events (deduplicated per batch).
    pub cycles_dirtied: usize,
    /// Dirty cycles actually re-examined across all refreshes.
    pub cycles_evaluated: usize,
    /// Strategy evaluation attempts on dirty profitable cycles.
    pub strategy_evaluations: usize,
    /// Live cycles whose standing evaluation was reused instead of being
    /// recomputed — the per-refresh gap to a full rescan, accumulated.
    pub evaluations_saved: usize,
    /// Refresh passes run.
    pub refreshes: usize,
    /// Dirty cycles the incremental log-sum screen dropped without
    /// preparation or strategy evaluation (provably `Σ log p ≤ 0`).
    pub cycles_screened_out: usize,
    /// Dirty cycles dropped because a sound profit upper bound could
    /// not clear the effective gross floor (execution cost + net-profit
    /// floor) at current feed prices — by either the pool-potential or
    /// the per-hop fee-aware bound.
    pub cycles_floor_screened: usize,
    /// The subset of [`StreamStats::cycles_floor_screened`] only the
    /// per-hop fee-aware bound could discharge — marginal
    /// whale-displaced loops whose book displacement (pool-potential
    /// bound) looks huge but whose fee-adjusted marginal rates cannot
    /// clear the floor.
    pub cycles_hop_screened: usize,
    /// Dirty cycles skipped because a hop's fee-adjusted rate degenerated
    /// (`Σ log p = -∞`) — counted separately from ordinary non-arbitrage
    /// cycles instead of being conflated with them.
    pub cycles_degenerate_skipped: usize,
    /// O(1) `new − old` delta updates applied to per-cycle log-sums.
    pub screen_delta_updates: usize,
    /// Exact log-sum resummations (periodic drift control, or a
    /// non-finite rate passing through).
    pub screen_resummations: usize,
    /// Scratch-arena capacity-growth episodes; flat once warm ⇔ the
    /// refresh fan-out scratch path is allocation-free.
    pub scratch_grow_events: usize,
    /// Arena slots tracked by the generation-stamped dense dirty bitset
    /// (which replaced the old `BTreeSet<CycleId>` dirty set).
    pub dirty_bitset_capacity: usize,
}

impl fmt::Display for StreamStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} events ({} syncs), {} cycles dirtied, {} evaluated \
             ({} screened, {} floor-screened ({} by hop bound), \
             {} degenerate), {} evaluations saved over {} refreshes \
             (+{} pools, -{} pools, {} revived; screen {}Δ/{}Σ, \
             bitset {} slots, {} scratch grows)",
            self.events_applied,
            self.syncs_applied,
            self.cycles_dirtied,
            self.cycles_evaluated,
            self.cycles_screened_out,
            self.cycles_floor_screened,
            self.cycles_hop_screened,
            self.cycles_degenerate_skipped,
            self.evaluations_saved,
            self.refreshes,
            self.pools_added,
            self.pools_retired,
            self.pools_revived,
            self.screen_delta_updates,
            self.screen_resummations,
            self.dirty_bitset_capacity,
            self.scratch_grow_events
        )
    }
}

/// Pre-resolved registry instruments mirroring [`StreamStats`] under
/// `engine.*`, plus the refresh/rank span timers.
///
/// Counters are *additive* across engines sharing a registry: each
/// engine pushes only the delta since its last sync (`mirrored`), so a
/// registry shared by several engines holds the sum over all of them.
/// Syncs happen at refresh boundaries (the end of every tick
/// path), so a snapshot taken between ticks always agrees with the
/// legacy struct.
#[derive(Debug)]
struct EngineObs {
    refresh: SpanTimer,
    rank: SpanTimer,
    events_applied: Counter,
    syncs_applied: Counter,
    pools_added: Counter,
    pools_retired: Counter,
    pools_revived: Counter,
    cycles_added: Counter,
    cycles_retired: Counter,
    cycles_dirtied: Counter,
    cycles_evaluated: Counter,
    strategy_evaluations: Counter,
    evaluations_saved: Counter,
    refreshes: Counter,
    cycles_screened_out: Counter,
    cycles_floor_screened: Counter,
    cycles_hop_screened: Counter,
    cycles_degenerate_skipped: Counter,
    screen_delta_updates: Counter,
    screen_resummations: Counter,
    scratch_grow_events: Counter,
    dirty_bitset_capacity: Counter,
    /// The stats value last pushed to the registry; the next sync adds
    /// only the field-wise delta beyond this.
    mirrored: StreamStats,
}

impl EngineObs {
    fn new(obs: &Obs) -> Self {
        let registry = obs.registry();
        EngineObs {
            refresh: obs.span("engine.refresh.eval_ns"),
            rank: obs.span("engine.rank_ns"),
            events_applied: registry.counter("engine.events_applied"),
            syncs_applied: registry.counter("engine.syncs_applied"),
            pools_added: registry.counter("engine.pools_added"),
            pools_retired: registry.counter("engine.pools_retired"),
            pools_revived: registry.counter("engine.pools_revived"),
            cycles_added: registry.counter("engine.cycles_added"),
            cycles_retired: registry.counter("engine.cycles_retired"),
            cycles_dirtied: registry.counter("engine.cycles_dirtied"),
            cycles_evaluated: registry.counter("engine.cycles_evaluated"),
            strategy_evaluations: registry.counter("engine.strategy_evaluations"),
            evaluations_saved: registry.counter("engine.evaluations_saved"),
            refreshes: registry.counter("engine.refreshes"),
            cycles_screened_out: registry.counter("engine.cycles_screened_out"),
            cycles_floor_screened: registry.counter("engine.cycles_floor_screened"),
            cycles_hop_screened: registry.counter("engine.cycles_hop_screened"),
            cycles_degenerate_skipped: registry.counter("engine.cycles_degenerate_skipped"),
            screen_delta_updates: registry.counter("engine.screen_delta_updates"),
            screen_resummations: registry.counter("engine.screen_resummations"),
            scratch_grow_events: registry.counter("engine.scratch_grow_events"),
            dirty_bitset_capacity: registry.counter("engine.dirty_bitset_capacity"),
            mirrored: StreamStats::default(),
        }
    }

    /// Pushes the delta between `current` and the last sync into the
    /// registry. Every [`StreamStats`] field is monotone over one
    /// engine's lifetime, so the deltas are always non-negative.
    fn sync(&mut self, current: &StreamStats) {
        let m = &self.mirrored;
        self.events_applied
            .add((current.events_applied - m.events_applied) as u64);
        self.syncs_applied
            .add((current.syncs_applied - m.syncs_applied) as u64);
        self.pools_added
            .add((current.pools_added - m.pools_added) as u64);
        self.pools_retired
            .add((current.pools_retired - m.pools_retired) as u64);
        self.pools_revived
            .add((current.pools_revived - m.pools_revived) as u64);
        self.cycles_added
            .add((current.cycles_added - m.cycles_added) as u64);
        self.cycles_retired
            .add((current.cycles_retired - m.cycles_retired) as u64);
        self.cycles_dirtied
            .add((current.cycles_dirtied - m.cycles_dirtied) as u64);
        self.cycles_evaluated
            .add((current.cycles_evaluated - m.cycles_evaluated) as u64);
        self.strategy_evaluations
            .add((current.strategy_evaluations - m.strategy_evaluations) as u64);
        self.evaluations_saved
            .add((current.evaluations_saved - m.evaluations_saved) as u64);
        self.refreshes.add((current.refreshes - m.refreshes) as u64);
        self.cycles_screened_out
            .add((current.cycles_screened_out - m.cycles_screened_out) as u64);
        self.cycles_floor_screened
            .add((current.cycles_floor_screened - m.cycles_floor_screened) as u64);
        self.cycles_hop_screened
            .add((current.cycles_hop_screened - m.cycles_hop_screened) as u64);
        self.cycles_degenerate_skipped
            .add((current.cycles_degenerate_skipped - m.cycles_degenerate_skipped) as u64);
        self.screen_delta_updates
            .add((current.screen_delta_updates - m.screen_delta_updates) as u64);
        self.screen_resummations
            .add((current.screen_resummations - m.screen_resummations) as u64);
        self.scratch_grow_events
            .add((current.scratch_grow_events - m.scratch_grow_events) as u64);
        self.dirty_bitset_capacity
            .add((current.dirty_bitset_capacity - m.dirty_bitset_capacity) as u64);
        self.mirrored = *current;
    }
}

/// The ranked output of one streaming refresh.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// The standing opportunity set in execution-priority order.
    pub opportunities: Vec<ArbitrageOpportunity>,
    /// Cumulative engine counters at the time of the refresh.
    pub stats: StreamStats,
}

impl StreamReport {
    /// The best standing opportunity, if any.
    pub fn best(&self) -> Option<&ArbitrageOpportunity> {
        self.opportunities.first()
    }
}

/// The incremental engine: an owned graph + cycle index + standing
/// opportunity set, advanced by event batches.
#[derive(Debug)]
pub struct StreamingEngine {
    pipeline: OpportunityPipeline,
    graph: TokenGraph,
    index: CycleIndex,
    dirty: DirtyCycleSet,
    /// Reusable flat buffers + evaluation slots for the refresh hot
    /// path; grows to a high-water mark, then never allocates again.
    scratch: ScratchArena,
    standing: BTreeMap<CycleId, ArbitrageOpportunity>,
    /// USD price per token index as of the last refresh (`None` =
    /// unpriced then). Refreshes diff the feed against this to dirty the
    /// cycles a price move invalidates.
    feed_prices: Vec<Option<f64>>,
    /// Bumped whenever the standing set may have changed (conservative:
    /// re-inserting a bitwise-identical evaluation still counts). Lets
    /// callers cache derived views — the runtime bumps its own revision
    /// only when this moves.
    revision: u64,
    /// Ranked view memoized per revision: `ranked()` at an unchanged
    /// revision re-clones this instead of re-sorting the standing set.
    /// Interior mutability because ranking is logically a read.
    rank_cache: Mutex<Option<(u64, Vec<ArbitrageOpportunity>)>>,
    /// How many times `ranked()` actually sorted (cache misses).
    rank_sorts: AtomicUsize,
    stats: StreamStats,
    /// Registry mirror + span timers, when observability is attached.
    obs: Option<EngineObs>,
}

impl StreamingEngine {
    /// Builds the engine over an initial pool universe: constructs the
    /// graph, enumerates the cycle index once, and marks every cycle
    /// dirty so the first refresh produces the full cold-start ranking.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] for an invalid pipeline config and
    /// [`EngineError::Graph`] on graph/index construction failures.
    pub fn new(pipeline: OpportunityPipeline, pools: Vec<Pool>) -> Result<Self, EngineError> {
        let graph = TokenGraph::new(pools)?;
        Self::with_graph(pipeline, graph)
    }

    /// Builds the engine over an already-constructed graph, which may
    /// contain retired slots (e.g. a chain mirror where some pools have
    /// degenerated — they keep their slot for id alignment and revive on
    /// a later valid `Sync`). Retired pools contribute no cycles.
    ///
    /// # Errors
    ///
    /// See [`StreamingEngine::new`].
    pub fn with_graph(
        pipeline: OpportunityPipeline,
        graph: TokenGraph,
    ) -> Result<Self, EngineError> {
        let config = *pipeline.config();
        config.validate()?;
        let index = CycleIndex::build(&graph, config.min_cycle_len, config.max_cycle_len)?;
        let mut dirty = DirtyCycleSet::new();
        for (id, _) in index.iter_live() {
            dirty.insert(id);
        }
        let stats = StreamStats {
            cycles_added: dirty.len(),
            cycles_dirtied: dirty.len(),
            dirty_bitset_capacity: dirty.capacity(),
            ..StreamStats::default()
        };
        Ok(StreamingEngine {
            pipeline,
            graph,
            index,
            dirty,
            scratch: ScratchArena::default(),
            standing: BTreeMap::new(),
            feed_prices: Vec::new(),
            revision: 0,
            rank_cache: Mutex::new(None),
            rank_sorts: AtomicUsize::new(0),
            stats,
            obs: None,
        })
    }

    /// Attaches observability: an `engine.refresh.eval_ns` span per
    /// refresh, an `engine.rank_ns` span per ranking, and an additive
    /// registry mirror of [`StreamStats`] under `engine.*` (synced at
    /// refresh boundaries). Counters already accumulated — cold-start
    /// cycle enumeration, work done before attachment — are pushed
    /// immediately, so the registry never under-reports.
    pub fn set_obs(&mut self, obs: &Obs) {
        let mut engine_obs = EngineObs::new(obs);
        engine_obs.sync(&self.stats);
        self.obs = Some(engine_obs);
    }

    /// The engine's current graph view.
    pub fn graph(&self) -> &TokenGraph {
        &self.graph
    }

    /// The persistent cycle index.
    pub fn index(&self) -> &CycleIndex {
        &self.index
    }

    /// The inner pipeline (strategy set, ranking policy, config).
    pub fn pipeline(&self) -> &OpportunityPipeline {
        &self.pipeline
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Cycles currently awaiting re-evaluation.
    pub fn pending_dirty(&self) -> usize {
        self.dirty.len()
    }

    /// A monotone counter that moves whenever the standing opportunity
    /// set may have changed (over-approximate: re-evaluating a cycle to
    /// the same result still counts). Equal revisions across two calls
    /// guarantee [`StreamingEngine::ranked`] would return the same list,
    /// so derived views can be cached against it.
    pub fn standing_revision(&self) -> u64 {
        self.revision
    }

    /// Marks every live cycle dirty, forcing the next refresh to
    /// re-evaluate the full standing set. Feed moves are detected
    /// automatically per token ([`StreamingEngine::refresh`]); this is
    /// the blunt escape hatch for anything else (e.g. a strategy whose
    /// output depends on state outside the graph and feed).
    pub fn mark_all_dirty(&mut self) {
        for (id, _) in self.index.iter_live() {
            if self.dirty.insert(id) {
                self.stats.cycles_dirtied += 1;
            }
        }
    }

    /// Applies a batch of chain events to the owned graph, marks the
    /// affected cycles dirty via the index, re-evaluates **only** those,
    /// and returns the merged standing ranking.
    ///
    /// # Errors
    ///
    /// * [`EngineError::Desync`] — an event references a pool this engine
    ///   never saw; rebuild from a fresh snapshot.
    /// * [`EngineError::Graph`] / [`EngineError::Strategy`] — forwarded
    ///   evaluation failures (benign thin-interior infeasibility is only
    ///   counted).
    pub fn apply_events<F: PriceFeed>(
        &mut self,
        events: &[Event],
        feed: &F,
    ) -> Result<StreamReport, EngineError> {
        self.advance(events, feed)?;
        Ok(StreamReport {
            opportunities: self.ranked(),
            stats: self.stats,
        })
    }

    /// [`StreamingEngine::apply_events`] without materializing the ranked
    /// report: applies the batch and brings the standing set current, but
    /// skips the clone + sort of [`StreamingEngine::ranked`]. Callers pair
    /// this with [`StreamingEngine::standing_revision`] to learn whether
    /// the ranking moved before asking for it.
    ///
    /// # Errors
    ///
    /// See [`StreamingEngine::apply_events`].
    pub fn advance<F: PriceFeed>(&mut self, events: &[Event], feed: &F) -> Result<(), EngineError> {
        for event in events {
            self.apply_event(event)?;
        }
        self.refresh_standing(feed)
    }

    /// Re-evaluates the dirty set against `feed` and returns the standing
    /// ranking. Tokens whose USD price moved since the last refresh dirty
    /// their cycles first, so standing valuations never go stale under a
    /// drifting feed. A no-op refresh (nothing dirty, no price moves)
    /// just re-ranks.
    ///
    /// # Errors
    ///
    /// Forwards evaluation failures; see [`StreamingEngine::apply_events`].
    /// A failed refresh leaves the standing ranking and evaluation
    /// counters untouched and keeps every pending cycle dirty (including
    /// cycles dirtied by this call's feed diff), so the engine stays
    /// consistent and the refresh can simply be retried.
    pub fn refresh<F: PriceFeed>(&mut self, feed: &F) -> Result<StreamReport, EngineError> {
        self.refresh_standing(feed)?;
        Ok(StreamReport {
            opportunities: self.ranked(),
            stats: self.stats,
        })
    }

    /// [`StreamingEngine::refresh`] minus the report: re-evaluates the
    /// dirty set and updates the standing map without cloning or ranking
    /// it.
    ///
    /// The pass is screen-first and allocation-free in the steady state:
    /// dirty cycles whose incremental log-sum (or feed-priced profit
    /// bound) proves the full evaluation would drop them are dropped
    /// directly; survivors are prepared into the engine's reusable
    /// scratch arena and evaluated by an in-place fan-out. See the
    /// module docs for the soundness argument.
    ///
    /// # Errors
    ///
    /// See [`StreamingEngine::refresh`]. A failed refresh leaves the
    /// standing ranking and evaluation counters untouched and keeps
    /// every pending cycle dirty (including cycles dirtied by this
    /// call's feed diff), so the engine stays consistent and the refresh
    /// can simply be retried.
    pub fn refresh_standing<F: PriceFeed>(&mut self, feed: &F) -> Result<(), EngineError> {
        // Clone the timer out so the guard doesn't borrow `self` across
        // the field destructure below; SpanTimer clones are Arc-cheap.
        let refresh_timer = self.obs.as_ref().map(|o| o.refresh.clone());
        let _refresh_span = refresh_timer.as_ref().map(SpanTimer::start);
        self.dirty_feed_moves(feed);

        let StreamingEngine {
            pipeline,
            graph,
            index,
            dirty,
            scratch,
            standing,
            revision,
            stats,
            obs,
            ..
        } = self;
        let config = pipeline.config();
        let screen = config.screen;
        // A standing entry needs `gross > 0` and `gross − cost ≥ floor`;
        // when the combined requirement is positive, a sound gross upper
        // bound can discharge cycles without evaluating them.
        let required_gross = config.execution_cost_usd + config.min_net_profit_usd;
        let floor_screen = screen && required_gross > 0.0;

        // Phase 1 — screen + prepare. Nothing engine-visible mutates
        // here (counter deltas are committed only after evaluation
        // succeeds), so any `?` leaves the engine retryable.
        scratch.begin_refresh();
        let mut screened_out = 0usize;
        let mut floor_screened = 0usize;
        let mut hop_screened = 0usize;
        let mut degenerate_skipped = 0usize;
        for id in dirty.iter() {
            let cycle = index.get(id).expect("dirty set only holds live cycles");
            if screen {
                let log_sum = index.screen_log_sum(id).expect("live cycles are screened");
                if log_sum <= -CycleIndex::SCREEN_DRIFT_MARGIN {
                    // Sound: the exact Σ log p is certainly ≤ 0, so the
                    // full path would classify this NotArbitrage (or
                    // Degenerate) and drop it — identical outcome,
                    // without curves, prices, or strategies.
                    scratch.dropped.push(id);
                    screened_out += 1;
                    continue;
                }
            }
            // Exact classification, mirroring the batch pipeline's
            // `prepare_candidate` step for step (the equivalence tests
            // hold the two paths together).
            let log_rate = graph.cycle_log_rate(cycle)?;
            if log_rate == f64::NEG_INFINITY {
                scratch.dropped.push(id);
                degenerate_skipped += 1;
                continue;
            }
            if log_rate.is_nan() || log_rate <= 0.0 {
                scratch.dropped.push(id);
                continue;
            }
            if floor_screen {
                // Either sound gross bound (pool-potential, or the
                // per-hop fee-aware bound for whale-displaced loops)
                // may discharge the cycle; both carry a relative safety
                // margin so strategy-side rounding can never flip a
                // borderline keep into a screened drop.
                match floor_verdict(graph, cycle, feed, required_gross) {
                    FloorVerdict::Keep => {}
                    verdict => {
                        scratch.dropped.push(id);
                        floor_screened += 1;
                        if verdict == FloorVerdict::HopBound {
                            hop_screened += 1;
                        }
                        continue;
                    }
                }
            }
            // Prepare into the flat buffers: the same validation, curve
            // construction, and price resolution as
            // `prepare_candidate`, minus its allocations.
            cycle.validate(graph)?;
            let offset = scratch.hops.len();
            for (&pool, &token_in) in cycle.pools().iter().zip(cycle.tokens()) {
                scratch.hops.push(graph.curve(pool, token_in)?);
            }
            scratch.tokens.extend_from_slice(cycle.tokens());
            let mut unpriced = false;
            for &token in cycle.tokens() {
                match feed.usd_price(token) {
                    Some(price) => scratch.prices.push(price),
                    None => {
                        unpriced = true;
                        break;
                    }
                }
            }
            if unpriced {
                scratch.hops.truncate(offset);
                scratch.tokens.truncate(offset);
                scratch.prices.truncate(offset);
                scratch.dropped.push(id);
                continue;
            }
            scratch.push_candidate(id, offset, cycle.len());
        }
        scratch.end_prepare();

        // Phase 2 — the strategy fan-out, in place over the scratch
        // slots: every worker writes into its own slot, nothing is
        // collected, nothing allocates.
        {
            let (hops, tokens, prices, slots) = scratch.split_for_eval();
            let evaluate = |slot: &mut EvalSlot| {
                let span = slot.offset..slot.offset + slot.len;
                let cycle = index.get(slot.id).expect("slots hold live cycles");
                let outcome = slot
                    .loop_
                    .rebuild(&hops[span.clone()], &tokens[span.clone()])
                    .map_err(EngineError::from)
                    .and_then(|()| pipeline.evaluate_cycle(cycle, &slot.loop_, &prices[span]));
                slot.outcome = Some(outcome);
            };
            if config.parallel && slots.len() > 1 {
                slots.par_iter_mut().for_each(evaluate);
            } else {
                slots.iter_mut().for_each(evaluate);
            }
        }
        if scratch
            .slots()
            .iter()
            .any(|slot| matches!(slot.outcome, Some(Err(_))))
        {
            for slot in scratch.slots_mut() {
                if let Some(Err(error)) = slot.outcome.take() {
                    return Err(error);
                }
            }
        }

        // Phase 3 — commit. Infallible from here on.
        let dirty_count = dirty.len();
        dirty.clear();
        stats.refreshes += 1;
        stats.cycles_evaluated += dirty_count;
        stats.evaluations_saved += index.live_cycles() - dirty_count;
        stats.cycles_screened_out += screened_out;
        stats.cycles_floor_screened += floor_screened;
        stats.cycles_hop_screened += hop_screened;
        stats.cycles_degenerate_skipped += degenerate_skipped;
        stats.scratch_grow_events = scratch.grow_events();
        stats.dirty_bitset_capacity = dirty.capacity();
        let mut changed = false;
        for &id in &scratch.dropped {
            changed |= standing.remove(&id).is_some();
        }
        let floor = config.min_net_profit_usd;
        for slot in scratch.slots_mut() {
            let (opportunity, attempts, _benign) = slot
                .outcome
                .take()
                .expect("fan-out filled every slot")
                .expect("errors were drained above");
            stats.strategy_evaluations += attempts;
            match opportunity {
                Some(opp) if opp.net_profit.value() >= floor => {
                    standing.insert(slot.id, opp);
                    changed = true;
                }
                _ => {
                    changed |= standing.remove(&slot.id).is_some();
                }
            }
        }
        if changed {
            *revision += 1;
        }
        if let Some(obs) = obs {
            obs.sync(stats);
        }

        Ok(())
    }

    /// The standing opportunity set in execution-priority order (the
    /// pipeline's ranking policy, tie-breaks, and `top_k` cut). Sorts
    /// references and keeps only the survivors of the `top_k` cut,
    /// memoized per [`StreamingEngine::standing_revision`]: repeat calls
    /// at an unchanged revision skip the sort and return the cached
    /// list. Entries are shared handles, so both the cache and the
    /// returned `Vec` hold refcount bumps of the standing set, not
    /// copies.
    pub fn ranked(&self) -> Vec<ArbitrageOpportunity> {
        let _rank_span = self.obs.as_ref().map(|o| o.rank.start());
        let mut cache = self.rank_cache.lock().expect("rank cache lock");
        if let Some((revision, ranked)) = cache.as_ref() {
            if *revision == self.revision {
                return ranked.clone();
            }
        }
        self.rank_sorts.fetch_add(1, Ordering::Relaxed);
        let mut refs: Vec<&ArbitrageOpportunity> = self.standing.values().collect();
        refs.sort_by(|a, b| self.pipeline.compare(a, b));
        if let Some(k) = self.pipeline.config().top_k {
            refs.truncate(k);
        }
        let ranked: Vec<ArbitrageOpportunity> = refs.into_iter().cloned().collect();
        *cache = Some((self.revision, ranked.clone()));
        ranked
    }

    /// How many [`StreamingEngine::ranked`] calls fell through the
    /// per-revision cache and re-sorted the standing set. Repeated
    /// `ranked()` calls at an unchanged [`StreamingEngine::standing_revision`]
    /// leave this flat.
    pub fn rank_sorts(&self) -> usize {
        self.rank_sorts.load(Ordering::Relaxed)
    }

    /// Captures this engine's durable state as plain data: every pool
    /// slot, the cycle-index arena, and the standing revision. The
    /// standing opportunity values are not captured —
    /// [`StreamingEngine::restore`] recomputes them bit-identically on
    /// its first refresh, because evaluation is a pure function of
    /// (reserves, feed).
    pub fn checkpoint(&self) -> EngineCheckpoint {
        let (min_cycle_len, max_cycle_len) = self.index.length_bounds();
        let (arena, free) = self.index.to_parts();
        EngineCheckpoint {
            min_cycle_len,
            max_cycle_len,
            slots: (0..self.graph.pool_count())
                .map(|i| PoolSlot::capture(&self.graph, arb_amm::pool::PoolId::new(i as u32)))
                .collect(),
            arena,
            free,
            standing_revision: self.revision,
        }
    }

    /// Rebuilds an engine from a checkpoint: same graph (including
    /// retired slots), same cycle index (same `CycleId`s, same future
    /// slot recycling), restored standing revision. Every live cycle
    /// starts dirty and the standing set empty, so the first refresh
    /// reproduces the checkpointed ranking bit-for-bit under the same
    /// feed; cumulative [`StreamStats`] restart from zero.
    ///
    /// # Errors
    ///
    /// * [`EngineError::Config`] — invalid pipeline config, or cycle
    ///   length bounds that contradict the checkpoint's.
    /// * [`EngineError::Graph`] — the checkpoint's slots or arena are
    ///   internally inconsistent
    ///   ([`arb_graph::GraphError::InvalidCheckpoint`]).
    pub fn restore(
        pipeline: OpportunityPipeline,
        checkpoint: &EngineCheckpoint,
    ) -> Result<Self, EngineError> {
        let config = *pipeline.config();
        config.validate()?;
        if (config.min_cycle_len, config.max_cycle_len)
            != (checkpoint.min_cycle_len, checkpoint.max_cycle_len)
        {
            return Err(EngineError::Config(format!(
                "checkpoint cycle bounds {}..={} do not match pipeline config {}..={}",
                checkpoint.min_cycle_len,
                checkpoint.max_cycle_len,
                config.min_cycle_len,
                config.max_cycle_len
            )));
        }
        let graph = checkpoint.build_graph()?;
        let index = CycleIndex::from_parts(
            &graph,
            checkpoint.min_cycle_len,
            checkpoint.max_cycle_len,
            checkpoint.arena.clone(),
            checkpoint.free.clone(),
        )?;
        let mut dirty = DirtyCycleSet::new();
        for (id, _) in index.iter_live() {
            dirty.insert(id);
        }
        let stats = StreamStats {
            cycles_added: dirty.len(),
            cycles_dirtied: dirty.len(),
            dirty_bitset_capacity: dirty.capacity(),
            ..StreamStats::default()
        };
        Ok(StreamingEngine {
            pipeline,
            graph,
            index,
            dirty,
            scratch: ScratchArena::default(),
            standing: BTreeMap::new(),
            feed_prices: Vec::new(),
            revision: checkpoint.standing_revision,
            rank_cache: Mutex::new(None),
            rank_sorts: AtomicUsize::new(0),
            stats,
            obs: None,
        })
    }

    fn apply_event(&mut self, event: &Event) -> Result<(), EngineError> {
        self.stats.events_applied += 1;
        match *event {
            Event::Sync {
                pool,
                reserve_a,
                reserve_b,
            } => {
                if pool.index() >= self.graph.pool_count() {
                    return Err(EngineError::Desync("Sync for a pool never seen"));
                }
                self.stats.syncs_applied += 1;
                let was_live = self.graph.is_live(pool);
                // Capture the pre-sync cached log rates: a live→live
                // update feeds the screen an O(1) delta per containing
                // cycle instead of a recompute.
                let old_log_rates = self.graph.pool_log_rates(pool);
                match self
                    .graph
                    .apply_sync(pool, to_display(reserve_a), to_display(reserve_b))?
                {
                    SyncOutcome::Updated => {
                        let update = self.index.on_pool_synced(&self.graph, pool, old_log_rates);
                        self.stats.screen_delta_updates += update.deltas;
                        self.stats.screen_resummations += update.resummations;
                        self.mark_pool_dirty(pool);
                    }
                    // `Retired` is idempotent at the graph layer; only a
                    // live → retired transition has cycles to drop (and
                    // counts as a retirement).
                    SyncOutcome::Retired if was_live => self.retire_pool_cycles(pool),
                    SyncOutcome::Retired => {}
                    SyncOutcome::Revived => {
                        self.stats.pools_revived += 1;
                        self.extend_index(pool)?;
                    }
                }
            }
            Event::PoolCreated {
                pool,
                token_a,
                token_b,
                reserve_a,
                reserve_b,
                fee,
            } => {
                if pool.index() != self.graph.pool_count() {
                    return Err(EngineError::Desync("PoolCreated out of slot order"));
                }
                let analysis = Pool::new(
                    token_a,
                    token_b,
                    to_display(reserve_a),
                    to_display(reserve_b),
                    fee,
                )
                .map_err(arb_graph::GraphError::from)?;
                let assigned = self.graph.add_pool(analysis);
                debug_assert_eq!(assigned, pool);
                self.stats.pools_added += 1;
                self.extend_index(pool)?;
            }
            Event::Swap { pool, .. } | Event::Mint { pool, .. } | Event::Burn { pool, .. } => {
                // Reserve changes arrive via the paired `Sync`; these only
                // pre-mark the pool's cycles (cheap and idempotent).
                if pool.index() >= self.graph.pool_count() {
                    return Err(EngineError::Desync("event for a pool never seen"));
                }
                self.mark_pool_dirty(pool);
            }
            // `Event` is non-exhaustive; unknown variants carry no reserve
            // deltas this engine understands, so they are counted and
            // skipped rather than desyncing the stream.
            _ => {}
        }
        Ok(())
    }

    /// Diffs `feed` against the prices used at the last refresh and marks
    /// the cycles of every token whose price changed (a cycle visiting a
    /// token always enters it through one of the token's adjacent pools,
    /// so the pool posting lists cover it). Bit-level comparison: any
    /// representable move, however small, re-values its cycles.
    fn dirty_feed_moves<F: PriceFeed>(&mut self, feed: &F) {
        let tokens = self.graph.token_count();
        if self.feed_prices.len() < tokens {
            self.feed_prices.resize(tokens, None);
        }
        self.scratch.moved_pools.clear();
        for index in 0..tokens {
            let token = arb_amm::token::TokenId::new(index as u32);
            let now = feed.usd_price(token);
            if self.feed_prices[index].map(f64::to_bits) != now.map(f64::to_bits) {
                self.feed_prices[index] = now;
                self.scratch
                    .moved_pools
                    .extend(self.graph.neighbors(token).iter().map(|e| e.pool));
            }
        }
        // Indexed loop: `mark_pool_dirty` needs `&mut self`, so the
        // reused buffer cannot stay borrowed across it.
        for position in 0..self.scratch.moved_pools.len() {
            let pool = self.scratch.moved_pools[position];
            self.mark_pool_dirty(pool);
        }
    }

    fn mark_pool_dirty(&mut self, pool: arb_amm::pool::PoolId) {
        for entry in self.index.cycles_for_pool(pool) {
            if self.dirty.insert(entry.cycle) {
                self.stats.cycles_dirtied += 1;
            }
        }
    }

    fn retire_pool_cycles(&mut self, pool: arb_amm::pool::PoolId) {
        self.stats.pools_retired += 1;
        for id in self.index.on_pool_removed(pool) {
            self.dirty.remove(id);
            if self.standing.remove(&id).is_some() {
                self.revision += 1;
            }
            self.stats.cycles_retired += 1;
        }
    }

    fn extend_index(&mut self, pool: arb_amm::pool::PoolId) -> Result<(), EngineError> {
        for id in self.index.on_pool_added(&self.graph, pool)? {
            self.stats.cycles_added += 1;
            if self.dirty.insert(id) {
                self.stats.cycles_dirtied += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use arb_amm::fee::FeeRate;
    use arb_amm::pool::PoolId;
    use arb_amm::token::TokenId;
    use arb_cex::feed::PriceTable;
    use arb_dexsim::units::to_raw;

    fn t(i: u32) -> TokenId {
        TokenId::new(i)
    }

    fn p(i: u32) -> PoolId {
        PoolId::new(i)
    }

    fn paper_pools() -> Vec<Pool> {
        let fee = FeeRate::UNISWAP_V2;
        vec![
            Pool::new(t(0), t(1), 100.0, 200.0, fee).unwrap(),
            Pool::new(t(1), t(2), 300.0, 200.0, fee).unwrap(),
            Pool::new(t(2), t(0), 200.0, 400.0, fee).unwrap(),
        ]
    }

    fn paper_feed() -> PriceTable {
        [(t(0), 2.0), (t(1), 10.2), (t(2), 20.0)]
            .into_iter()
            .collect()
    }

    fn sync(pool: u32, a: f64, b: f64) -> Event {
        Event::Sync {
            pool: p(pool),
            reserve_a: to_raw(a),
            reserve_b: to_raw(b),
        }
    }

    /// The streaming oracle: after any event batch the ranked set must be
    /// bit-identical to a fresh batch run on the engine's live pools.
    fn assert_matches_batch(engine: &StreamingEngine, feed: &PriceTable) {
        let pools: Vec<Pool> = engine.graph().live_pools().map(|(_, p)| *p).collect();
        let fresh = OpportunityPipeline::new(*engine.pipeline().config())
            .run(pools, feed)
            .unwrap();
        let streamed = engine.ranked();
        assert_eq!(streamed.len(), fresh.opportunities.len());
        for (s, f) in streamed.iter().zip(&fresh.opportunities) {
            assert_eq!(s.cycle.tokens(), f.cycle.tokens());
            assert_eq!(s.strategy, f.strategy);
            assert_eq!(
                s.gross_profit.value().to_bits(),
                f.gross_profit.value().to_bits()
            );
            assert_eq!(
                s.net_profit.value().to_bits(),
                f.net_profit.value().to_bits()
            );
        }
    }

    #[test]
    fn cold_start_equals_batch_run() {
        let mut engine =
            StreamingEngine::new(OpportunityPipeline::default(), paper_pools()).unwrap();
        let report = engine.refresh(&paper_feed()).unwrap();
        assert_eq!(report.opportunities.len(), 1);
        assert_eq!(report.best().unwrap().strategy, "convex");
        assert_matches_batch(&engine, &paper_feed());
    }

    #[test]
    fn ranked_caches_per_revision() {
        let feed = paper_feed();
        let mut engine =
            StreamingEngine::new(OpportunityPipeline::default(), paper_pools()).unwrap();
        engine.refresh(&feed).unwrap();
        let sorts_after_refresh = engine.rank_sorts();
        let first = engine.ranked();
        let revision = engine.standing_revision();
        // Repeat calls at an unchanged revision must not re-sort.
        for _ in 0..5 {
            let again = engine.ranked();
            assert_eq!(again.len(), first.len());
            for (a, b) in again.iter().zip(&first) {
                assert_eq!(a.cycle.pools(), b.cycle.pools());
                assert_eq!(
                    a.net_profit.value().to_bits(),
                    b.net_profit.value().to_bits()
                );
            }
        }
        assert_eq!(engine.standing_revision(), revision);
        assert_eq!(
            engine.rank_sorts(),
            sorts_after_refresh,
            "repeat ranked() calls at an unchanged revision re-sorted"
        );
        // Moving the standing set invalidates the cache exactly once:
        // apply_events ranks its report, repeat calls hit the cache.
        engine
            .apply_events(&[sync(0, 120.0, 180.0)], &feed)
            .unwrap();
        assert!(engine.standing_revision() > revision);
        engine.ranked();
        engine.ranked();
        assert_eq!(engine.rank_sorts(), sorts_after_refresh + 1);
        assert_matches_batch(&engine, &feed);
    }

    #[test]
    fn sync_dirties_only_affected_cycles() {
        let fee = FeeRate::UNISWAP_V2;
        // Two disjoint triangles: 0-1-2 (paper) and 3-4-5 (imbalanced).
        let mut pools = paper_pools();
        pools.push(Pool::new(t(3), t(4), 1_000.0, 1_050.0, fee).unwrap());
        pools.push(Pool::new(t(4), t(5), 1_000.0, 1_000.0, fee).unwrap());
        pools.push(Pool::new(t(5), t(3), 1_000.0, 1_000.0, fee).unwrap());
        let mut feed = paper_feed();
        feed.extend([(t(3), 1.0), (t(4), 1.0), (t(5), 1.0)]);

        let mut engine = StreamingEngine::new(OpportunityPipeline::default(), pools).unwrap();
        engine.refresh(&feed).unwrap();
        let evaluated_cold = engine.stats().cycles_evaluated;

        // Perturb one pool of the second triangle: only its two directed
        // cycles are dirtied, the paper triangle is untouched.
        let report = engine
            .apply_events(&[sync(3, 1_000.0, 1_060.0)], &feed)
            .unwrap();
        assert_eq!(report.stats.cycles_evaluated - evaluated_cold, 2);
        assert!(report.stats.evaluations_saved > 0);
        assert_matches_batch(&engine, &feed);
    }

    #[test]
    fn degenerate_sync_retires_then_revives() {
        let feed = paper_feed();
        let mut engine =
            StreamingEngine::new(OpportunityPipeline::default(), paper_pools()).unwrap();
        engine.refresh(&feed).unwrap();
        assert_eq!(engine.ranked().len(), 1);

        // Draining pool 0 breaks the triangle: no cycles, no standing set.
        let report = engine
            .apply_events(
                &[Event::Sync {
                    pool: p(0),
                    reserve_a: 0,
                    reserve_b: 0,
                }],
                &feed,
            )
            .unwrap();
        assert!(report.opportunities.is_empty());
        assert_eq!(report.stats.pools_retired, 1);
        assert_eq!(report.stats.cycles_retired, 2);
        assert_eq!(engine.index().live_cycles(), 0);

        // A second degenerate sync is idempotent: no double retirement.
        let report = engine
            .apply_events(
                &[Event::Sync {
                    pool: p(0),
                    reserve_a: 0,
                    reserve_b: 0,
                }],
                &feed,
            )
            .unwrap();
        assert_eq!(report.stats.pools_retired, 1, "{}", report.stats);
        assert_eq!(report.stats.cycles_retired, 2);

        // Reviving it restores the standing set exactly.
        let report = engine
            .apply_events(&[sync(0, 100.0, 200.0)], &feed)
            .unwrap();
        assert_eq!(report.opportunities.len(), 1);
        assert_eq!(report.stats.pools_revived, 1);
        assert_matches_batch(&engine, &feed);
    }

    #[test]
    fn pool_created_extends_the_universe() {
        let feed = {
            let mut f = paper_feed();
            f.set(t(3), 1.0);
            f
        };
        let mut engine =
            StreamingEngine::new(OpportunityPipeline::default(), paper_pools()).unwrap();
        engine.refresh(&feed).unwrap();

        // A parallel pool on (0,1) at a different price opens 2-cycles and
        // new triangles.
        let created = Event::PoolCreated {
            pool: p(3),
            token_a: t(0),
            token_b: t(1),
            reserve_a: to_raw(150.0),
            reserve_b: to_raw(250.0),
            fee: FeeRate::UNISWAP_V2,
        };
        let report = engine.apply_events(&[created], &feed).unwrap();
        assert_eq!(report.stats.pools_added, 1);
        assert!(report.stats.cycles_added > 0);
        assert_matches_batch(&engine, &feed);
    }

    #[test]
    fn out_of_order_events_desync() {
        let feed = paper_feed();
        let mut engine =
            StreamingEngine::new(OpportunityPipeline::default(), paper_pools()).unwrap();
        let err = engine
            .apply_events(&[sync(9, 1.0, 1.0)], &feed)
            .unwrap_err();
        assert!(matches!(err, EngineError::Desync(_)), "{err:?}");

        let gap = Event::PoolCreated {
            pool: p(7),
            token_a: t(0),
            token_b: t(3),
            reserve_a: to_raw(1.0),
            reserve_b: to_raw(1.0),
            fee: FeeRate::UNISWAP_V2,
        };
        let err = engine.apply_events(&[gap], &feed).unwrap_err();
        assert!(matches!(err, EngineError::Desync(_)), "{err:?}");
    }

    #[test]
    fn floor_and_top_k_match_pipeline_semantics() {
        let feed = paper_feed();
        let config = PipelineConfig {
            min_net_profit_usd: 1_000.0,
            ..PipelineConfig::default()
        };
        let mut engine =
            StreamingEngine::new(OpportunityPipeline::new(config), paper_pools()).unwrap();
        let report = engine.refresh(&feed).unwrap();
        assert!(report.opportunities.is_empty(), "floored out");
        assert_matches_batch(&engine, &feed);
    }

    #[test]
    fn mark_all_dirty_forces_full_revaluation() {
        let feed = paper_feed();
        let mut engine =
            StreamingEngine::new(OpportunityPipeline::default(), paper_pools()).unwrap();
        engine.refresh(&feed).unwrap();
        assert_eq!(engine.pending_dirty(), 0);
        engine.mark_all_dirty();
        assert_eq!(engine.pending_dirty(), engine.index().live_cycles());

        // A feed move re-values the standing set on the next refresh.
        let mut moved = feed.clone();
        moved.set(t(2), 25.0);
        let report = engine.refresh(&moved).unwrap();
        assert_matches_batch(&engine, &moved);
        assert_eq!(report.opportunities.len(), 1);
    }

    #[test]
    fn feed_moves_dirty_affected_cycles_automatically() {
        let fee = FeeRate::UNISWAP_V2;
        // Two disjoint triangles so a price move on one leaves the other
        // untouched.
        let mut pools = paper_pools();
        pools.push(Pool::new(t(3), t(4), 1_000.0, 1_080.0, fee).unwrap());
        pools.push(Pool::new(t(4), t(5), 1_000.0, 1_000.0, fee).unwrap());
        pools.push(Pool::new(t(5), t(3), 1_000.0, 1_000.0, fee).unwrap());
        let mut feed = paper_feed();
        feed.extend([(t(3), 1.0), (t(4), 1.0), (t(5), 1.0)]);

        let mut engine = StreamingEngine::new(OpportunityPipeline::default(), pools).unwrap();
        engine.refresh(&feed).unwrap();
        let evaluated_cold = engine.stats().cycles_evaluated;

        // No chain events, just a CEX move on token 4: only the second
        // triangle's two directed cycles re-evaluate, and the standing
        // set still equals a fresh batch run under the new feed.
        feed.set(t(4), 1.3);
        let report = engine.refresh(&feed).unwrap();
        assert_eq!(report.stats.cycles_evaluated - evaluated_cold, 2);
        assert_matches_batch(&engine, &feed);

        // A refresh with an unchanged feed re-evaluates nothing.
        let before = engine.stats().cycles_evaluated;
        engine.refresh(&feed).unwrap();
        assert_eq!(engine.stats().cycles_evaluated, before);
    }

    #[test]
    fn screen_drops_non_arb_cycles_without_preparing_them() {
        let feed = paper_feed();
        let mut engine =
            StreamingEngine::new(OpportunityPipeline::default(), paper_pools()).unwrap();
        engine.refresh(&feed).unwrap();
        // The cold start re-examined both directed triangle cycles; the
        // unprofitable direction (exact Σ log p < −fee drag) was screened
        // out by the incremental sum without curve/price preparation.
        assert_eq!(engine.stats().cycles_screened_out, 1, "{}", engine.stats());

        // A sync keeps the screen maintained by O(1) deltas and screens
        // the losing direction again on the next refresh.
        engine
            .apply_events(&[sync(0, 101.0, 199.0)], &feed)
            .unwrap();
        assert!(engine.stats().screen_delta_updates > 0);
        assert_eq!(engine.stats().cycles_screened_out, 2);
        assert_matches_batch(&engine, &feed);
    }

    #[test]
    fn unscreened_config_matches_screened_bit_for_bit() {
        let feed = paper_feed();
        let screened = StreamingEngine::new(OpportunityPipeline::default(), paper_pools()).unwrap();
        let config = PipelineConfig {
            screen: false,
            ..PipelineConfig::default()
        };
        let unscreened =
            StreamingEngine::new(OpportunityPipeline::new(config), paper_pools()).unwrap();
        let mut engines = [screened, unscreened];
        for engine in &mut engines {
            engine.refresh(&feed).unwrap();
        }
        for batch in [vec![sync(0, 101.0, 199.0)], vec![sync(1, 290.0, 210.0)]] {
            let [a, b] = &mut engines;
            let ra = a.apply_events(&batch, &feed).unwrap();
            let rb = b.apply_events(&batch, &feed).unwrap();
            assert_eq!(ra.opportunities.len(), rb.opportunities.len());
            for (x, y) in ra.opportunities.iter().zip(&rb.opportunities) {
                assert_eq!(
                    x.net_profit.value().to_bits(),
                    y.net_profit.value().to_bits()
                );
            }
        }
        assert_eq!(engines[1].stats().cycles_screened_out, 0);
        assert!(engines[0].stats().cycles_screened_out > 0);
    }

    #[test]
    fn floor_screen_skips_strategy_work_only_below_the_bound() {
        let feed = paper_feed();
        // The paper triangle's pool-potential bound is ≈ $2247; a floor
        // far above it screens the profitable direction without ever
        // running a strategy, a floor below it does not.
        let screened_out = |floor: f64| {
            let config = PipelineConfig {
                min_net_profit_usd: floor,
                ..PipelineConfig::default()
            };
            let mut engine =
                StreamingEngine::new(OpportunityPipeline::new(config), paper_pools()).unwrap();
            engine.refresh(&feed).unwrap();
            assert_matches_batch(&engine, &feed);
            (
                engine.stats().cycles_floor_screened,
                engine.stats().strategy_evaluations,
            )
        };
        let (floored_high, evals_high) = screened_out(10_000.0);
        assert_eq!(floored_high, 1, "profitable direction provably < floor");
        assert_eq!(evals_high, 0, "no strategy ran at all");
        let (floored_low, evals_low) = screened_out(100.0);
        assert_eq!(floored_low, 0, "bound cannot discharge a reachable floor");
        assert!(evals_low > 0);
    }

    #[test]
    fn hop_bound_discharges_marginal_loops_the_pool_bound_cannot() {
        // A high-fee triangle whose loop edge is barely positive: every
        // pool sits ~4% off mid (inside what the 3.5% fee band leaves as
        // a ~1% loop edge), so the realizable profit is cents — but the
        // fee-blind pool-potential bound still sees ~$4 of book
        // displacement per pool and cannot discharge a $5 gross floor.
        // The per-hop fee-aware bound can.
        let fee = FeeRate::from_ppm(35_000).unwrap();
        let pools = vec![
            Pool::new(t(0), t(1), 10_000.0, 10_400.0, fee).unwrap(),
            Pool::new(t(1), t(2), 10_000.0, 10_400.0, fee).unwrap(),
            Pool::new(t(2), t(0), 10_000.0, 10_400.0, fee).unwrap(),
        ];
        let feed: PriceTable = [(t(0), 1.0), (t(1), 1.0), (t(2), 1.0)]
            .into_iter()
            .collect();
        let config = PipelineConfig {
            execution_cost_usd: 4.0,
            min_net_profit_usd: 1.0,
            ..PipelineConfig::default()
        };
        let mut engine =
            StreamingEngine::new(OpportunityPipeline::new(config), pools.clone()).unwrap();
        engine.refresh(&feed).unwrap();
        assert_eq!(
            engine.stats().cycles_hop_screened,
            1,
            "the marginal direction must fall to the hop bound: {}",
            engine.stats()
        );
        assert_eq!(
            engine.stats().strategy_evaluations,
            0,
            "no strategy work on a fully screened universe: {}",
            engine.stats()
        );
        assert_matches_batch(&engine, &feed);

        // Control: without the hop bound's reach (no gross floor), the
        // same universe evaluates normally and ranks nothing above $1.
        let mut unfloored = StreamingEngine::new(OpportunityPipeline::default(), pools).unwrap();
        let report = unfloored.refresh(&feed).unwrap();
        assert_eq!(unfloored.stats().cycles_hop_screened, 0);
        for opp in &report.opportunities {
            assert!(
                opp.gross_profit.value() < 5.0,
                "loop was genuinely marginal"
            );
        }
    }

    #[test]
    fn steady_state_refreshes_stop_growing_the_scratch_arena() {
        let feed = paper_feed();
        let mut engine =
            StreamingEngine::new(OpportunityPipeline::default(), paper_pools()).unwrap();
        engine.refresh(&feed).unwrap();
        let mut flip = false;
        for _ in 0..3 {
            // Alternate between two reserve states so every refresh does
            // real re-evaluation work of identical shape.
            flip = !flip;
            let (a, b) = if flip { (101.0, 199.0) } else { (100.0, 200.0) };
            engine.apply_events(&[sync(0, a, b)], &feed).unwrap();
        }
        let warm = engine.stats().scratch_grow_events;
        for _ in 0..16 {
            flip = !flip;
            let (a, b) = if flip { (101.0, 199.0) } else { (100.0, 200.0) };
            engine.apply_events(&[sync(0, a, b)], &feed).unwrap();
        }
        assert_eq!(
            engine.stats().scratch_grow_events,
            warm,
            "warm refreshes must not allocate in the scratch path: {}",
            engine.stats()
        );
        assert_matches_batch(&engine, &feed);
    }

    #[test]
    fn degenerate_rates_are_counted_alike_in_batch_and_streaming() {
        let fee = FeeRate::UNISWAP_V2;
        // A live pool whose 1→2 rate underflows to zero: reserves are
        // valid so nothing retires, but every cycle through it is
        // untradeable and must be skipped — and *counted* — identically
        // by the batch pipeline and the streaming engine.
        let pools = vec![
            Pool::new(t(0), t(1), 100.0, 200.0, fee).unwrap(),
            Pool::new(t(1), t(2), 1e300, 1e-300, fee).unwrap(),
            Pool::new(t(2), t(0), 200.0, 400.0, fee).unwrap(),
        ];
        let feed = paper_feed();

        let batch = OpportunityPipeline::default()
            .run(pools.clone(), &feed)
            .unwrap();
        // One direction sums to -inf (degenerate); the reverse sums to
        // +inf and evaluates like any other loop candidate.
        assert_eq!(batch.stats.cycles_degenerate, 1, "{}", batch.stats);

        // Screened streaming: the -inf sum is caught by the log-sum
        // screen, so the dedicated degenerate counter only moves when
        // the screen is off — but the *output* is identical either way.
        let unscreened_config = PipelineConfig {
            screen: false,
            ..PipelineConfig::default()
        };
        let mut unscreened =
            StreamingEngine::new(OpportunityPipeline::new(unscreened_config), pools.clone())
                .unwrap();
        unscreened.refresh(&feed).unwrap();
        assert_eq!(
            unscreened.stats().cycles_degenerate_skipped,
            1,
            "{}",
            unscreened.stats()
        );
        let mut screened =
            StreamingEngine::new(OpportunityPipeline::default(), pools.clone()).unwrap();
        screened.refresh(&feed).unwrap();
        assert_eq!(
            screened.stats().cycles_screened_out + screened.stats().cycles_degenerate_skipped,
            1,
            "{}",
            screened.stats()
        );
        assert_matches_batch(&screened, &feed);
        assert_matches_batch(&unscreened, &feed);

        // NaN-sync and zero-reserve syncs retire the pool in streaming;
        // the batch run over the remaining live pools must agree.
        let mut engine = StreamingEngine::new(OpportunityPipeline::default(), pools).unwrap();
        engine.refresh(&feed).unwrap();
        engine
            .apply_events(
                &[Event::Sync {
                    pool: p(1),
                    reserve_a: 0,
                    reserve_b: 0,
                }],
                &feed,
            )
            .unwrap();
        assert_eq!(engine.stats().pools_retired, 1);
        assert_matches_batch(&engine, &feed);
    }

    #[test]
    fn stream_stats_display_one_liner() {
        let feed = paper_feed();
        let mut engine =
            StreamingEngine::new(OpportunityPipeline::default(), paper_pools()).unwrap();
        engine
            .apply_events(&[sync(0, 101.0, 199.0)], &feed)
            .unwrap();
        let line = engine.stats().to_string();
        assert!(line.contains("events"), "{line}");
        assert!(line.contains("evaluations saved"), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn checkpoint_restore_reproduces_ranking_bit_for_bit() {
        let feed = paper_feed();
        let mut engine =
            StreamingEngine::new(OpportunityPipeline::default(), paper_pools()).unwrap();
        engine.refresh(&feed).unwrap();
        // Mutate past the cold start: a sync, a retire (tombstones +
        // free-list entries), and a new pool.
        engine
            .apply_events(
                &[
                    sync(0, 101.0, 199.0),
                    Event::PoolCreated {
                        pool: p(3),
                        token_a: t(0),
                        token_b: t(1),
                        reserve_a: to_raw(150.0),
                        reserve_b: to_raw(250.0),
                        fee: FeeRate::UNISWAP_V2,
                    },
                    Event::Sync {
                        pool: p(1),
                        reserve_a: 0,
                        reserve_b: 0,
                    },
                    sync(1, 300.0, 200.0),
                ],
                &feed,
            )
            .unwrap();

        let checkpoint = engine.checkpoint();
        let mut restored =
            StreamingEngine::restore(OpportunityPipeline::default(), &checkpoint).unwrap();
        assert_eq!(restored.standing_revision(), engine.standing_revision());
        assert_eq!(
            restored.pending_dirty(),
            restored.index().live_cycles(),
            "restore starts with everything dirty"
        );
        restored.refresh(&feed).unwrap();

        let live = engine.ranked();
        let back = restored.ranked();
        assert_eq!(live.len(), back.len());
        assert!(!live.is_empty(), "non-vacuous");
        for (a, b) in live.iter().zip(&back) {
            assert_eq!(a.cycle.tokens(), b.cycle.tokens());
            assert_eq!(a.cycle.pools(), b.cycle.pools());
            assert_eq!(a.strategy, b.strategy);
            assert_eq!(
                a.net_profit.value().to_bits(),
                b.net_profit.value().to_bits()
            );
        }

        // Both copies keep agreeing on subsequent events (same CycleIds,
        // same slot recycling, same revive behavior).
        for batch in [vec![sync(3, 160.0, 240.0)], vec![sync(1, 290.0, 210.0)]] {
            let a = engine.apply_events(&batch, &feed).unwrap();
            let b = restored.apply_events(&batch, &feed).unwrap();
            assert_eq!(a.opportunities.len(), b.opportunities.len());
            for (x, y) in a.opportunities.iter().zip(&b.opportunities) {
                assert_eq!(
                    x.net_profit.value().to_bits(),
                    y.net_profit.value().to_bits()
                );
            }
        }
    }

    #[test]
    fn restore_rejects_mismatched_cycle_bounds() {
        let engine = StreamingEngine::new(OpportunityPipeline::default(), paper_pools()).unwrap();
        let checkpoint = engine.checkpoint();
        let config = PipelineConfig {
            max_cycle_len: 4,
            ..PipelineConfig::default()
        };
        let err =
            StreamingEngine::restore(OpportunityPipeline::new(config), &checkpoint).unwrap_err();
        assert!(matches!(err, EngineError::Config(_)), "{err:?}");
        assert!(err.to_string().contains("cycle bounds"), "{err}");
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let config = PipelineConfig {
            min_cycle_len: 5,
            max_cycle_len: 3,
            ..PipelineConfig::default()
        };
        let err =
            StreamingEngine::new(OpportunityPipeline::new(config), paper_pools()).unwrap_err();
        assert!(matches!(err, EngineError::Config(_)), "{err:?}");
    }
}
