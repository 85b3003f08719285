//! The runtime: the one incremental engine the ingest, journal and serve
//! layers drive.
//!
//! ```text
//! events ──▶ apply_event ──▶ refresh_standing ──▶ ranked ──▶ RuntimeReport
//!            apply deltas,    screen + evaluate      memoized per
//!            dirty touched    only the dirty         standing
//!            cycles           cycles on the          revision
//!                             worker pool
//!            └──────────── streaming.rs ────────┘
//! ```
//!
//! [`ShardedRuntime`] owns the graph, the persistent cycle index, the
//! dirty set, the scratch arena and the standing opportunity set, plus
//! what the layers above key on: a standing revision, cumulative
//! [`RuntimeStats`] with an optional registry mirror, a pre-tick
//! [`TickHook`], and plain-data checkpoints
//! ([`crate::RuntimeCheckpoint`]).
//!
//! Every paper strategy runs per cycle (eq. 8), so evaluation fans out
//! over the process-wide worker pool. A new pool — wherever it attaches
//! — only dirties the cycles it closes, so a pool that joins two
//! components costs those cycles and nothing more. After any event
//! sequence the ranking is bit-identical to a batch
//! [`OpportunityPipeline::run_graph`] over [`ShardedRuntime::graph`]
//! under the same feed (`tests/runtime_equivalence.rs` checks it after
//! every tick across the workload catalog). The type keeps its
//! historical name and constructor shape.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use arb_amm::pool::{Pool, PoolId};
use arb_cex::feed::PriceFeed;
use arb_dexsim::events::Event;
use arb_graph::{CycleId, CycleIndex, TokenGraph};
use arb_obs::{Counter, Gauge, Histogram, Obs, SpanTimer};

use crate::checkpoint::{PoolSlot, RuntimeCheckpoint};
use crate::dirty::DirtyCycleSet;
use crate::error::EngineError;
use crate::opportunity::ArbitrageOpportunity;
use crate::pipeline::OpportunityPipeline;
use crate::scratch::ScratchArena;

/// A hook invoked at the start of every tick, before the runtime sees the
/// tick's events — the seam fault-injection harnesses use to make a tick
/// slow or panic at a chosen tick, without the runtime knowing anything
/// about chaos plans.
///
/// Invoked on the caller's thread, so a panicking hook unwinds there
/// with the runtime untouched. Hooks are **not** part of checkpoints: a
/// recovered runtime starts with no hook, and supervisors re-install
/// theirs after rebuild.
pub trait TickHook: Send + Sync + fmt::Debug {
    /// Called once per tick with the runtime's tick counter (completed
    /// [`ShardedRuntime::apply_events`] calls, so the first tick is 0).
    fn before_tick(&self, tick: u64);
}

/// Cumulative counters for one runtime's lifetime. Every counter is
/// monotone; a restored runtime restarts them from zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Event batches processed ([`ShardedRuntime::apply_events`] calls).
    pub ticks: usize,
    /// Always 0: one engine owns the whole universe, so nothing is ever
    /// rebuilt. Kept so existing readers of the field still compile.
    pub rebuilds: usize,
    /// Opportunities in the most recent ranking.
    pub merged_opportunities: usize,
    /// Wall-clock nanoseconds spent in the most recent ranking step.
    pub last_merge_nanos: u64,
    /// Total wall-clock nanoseconds spent ranking.
    pub total_merge_nanos: u64,
    /// Wall-clock nanoseconds of the most recent end-to-end tick.
    pub last_tick_nanos: u64,
    /// Total wall-clock nanoseconds across all ticks.
    pub total_tick_nanos: u64,
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
    /// Cycles newly indexed (cold start, restore, added/revived pools).
    pub cycles_added: usize,
    /// Cycles retired with their pools.
    pub cycles_retired: usize,
    /// Cycle-ids marked dirty (deduplicated per refresh).
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
    /// The subset of [`RuntimeStats::cycles_floor_screened`] only the
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
    /// Arena slots tracked by the generation-stamped dense dirty bitset.
    /// A level, not a count: it only grows with the cycle arena.
    pub dirty_bitset_capacity: usize,
}

impl fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ticks, {} standing opportunities, last tick {}ns (merge {}ns); \
             {} events ({} syncs), {} cycles dirtied, {} evaluated \
             ({} screened, {} floor-screened ({} by hop bound), \
             {} degenerate), {} evaluations saved over {} refreshes \
             (+{} pools, -{} pools, {} revived; screen {}Δ/{}Σ, \
             bitset {} slots, {} scratch grows)",
            self.ticks,
            self.merged_opportunities,
            self.last_tick_nanos,
            self.last_merge_nanos,
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

/// The runtime's profitability-screen counters, cumulative for the
/// runtime's lifetime (like [`ShardedRuntime::cycles_evaluated`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScreenTotals {
    /// Dirty cycles dropped by the incremental log-sum screen.
    pub cycles_screened_out: usize,
    /// Dirty cycles dropped by the feed-priced profit-floor bound.
    pub cycles_floor_screened: usize,
    /// The subset of [`ScreenTotals::cycles_floor_screened`] only the
    /// per-hop fee-aware bound could discharge.
    pub cycles_hop_screened: usize,
    /// Dirty cycles skipped for degenerate (`-∞`) log rates.
    pub cycles_degenerate_skipped: usize,
    /// O(1) delta updates applied to per-cycle log-sums.
    pub screen_delta_updates: usize,
    /// Exact resummations (drift control / non-finite rates).
    pub screen_resummations: usize,
    /// Strategy evaluation attempts actually performed.
    pub strategy_evaluations: usize,
}

impl fmt::Display for ScreenTotals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} screened, {} floor-screened ({} by hop bound), {} degenerate, \
             {} strategy evaluations (screen {}Δ/{}Σ)",
            self.cycles_screened_out,
            self.cycles_floor_screened,
            self.cycles_hop_screened,
            self.cycles_degenerate_skipped,
            self.strategy_evaluations,
            self.screen_delta_updates,
            self.screen_resummations
        )
    }
}

/// Reads one [`RuntimeStats`] field.
type StatField = fn(&RuntimeStats) -> usize;

/// The additive registry counters, one per cumulative [`RuntimeStats`]
/// field. `runtime.merged_opportunities` and
/// `engine.dirty_bitset_capacity` are levels and mirror as gauges.
const COUNTERS: [(&str, StatField); 20] = [
    ("runtime.ticks", |s| s.ticks),
    ("engine.events_applied", |s| s.events_applied),
    ("engine.syncs_applied", |s| s.syncs_applied),
    ("engine.pools_added", |s| s.pools_added),
    ("engine.pools_retired", |s| s.pools_retired),
    ("engine.pools_revived", |s| s.pools_revived),
    ("engine.cycles_added", |s| s.cycles_added),
    ("engine.cycles_retired", |s| s.cycles_retired),
    ("engine.cycles_dirtied", |s| s.cycles_dirtied),
    ("engine.cycles_evaluated", |s| s.cycles_evaluated),
    ("engine.strategy_evaluations", |s| s.strategy_evaluations),
    ("engine.evaluations_saved", |s| s.evaluations_saved),
    ("engine.refreshes", |s| s.refreshes),
    ("engine.cycles_screened_out", |s| s.cycles_screened_out),
    ("engine.cycles_floor_screened", |s| s.cycles_floor_screened),
    ("engine.cycles_hop_screened", |s| s.cycles_hop_screened),
    ("engine.cycles_degenerate_skipped", |s| {
        s.cycles_degenerate_skipped
    }),
    ("engine.screen_delta_updates", |s| s.screen_delta_updates),
    ("engine.screen_resummations", |s| s.screen_resummations),
    ("engine.scratch_grow_events", |s| s.scratch_grow_events),
];

/// Pre-resolved registry instruments mirroring [`RuntimeStats`], plus
/// the per-tick histograms and the refresh/rank span timers.
///
/// Counters are *additive* across runtimes sharing a registry: each
/// runtime pushes only the delta since its last sync (`mirrored`), so a
/// registry that outlives a runtime rebuild keeps counting. Gauges hold
/// the live runtime's level. Syncs happen at the end of every tick, so a
/// snapshot taken between ticks always agrees with the stats struct.
#[derive(Debug)]
pub(crate) struct Instruments {
    pub(crate) refresh: SpanTimer,
    rank: SpanTimer,
    tick_ns: Histogram,
    merge_ns: Histogram,
    counters: [Counter; COUNTERS.len()],
    merged_opportunities: Gauge,
    dirty_bitset_capacity: Gauge,
    /// The stats value last pushed to the registry.
    mirrored: RuntimeStats,
}

impl Instruments {
    fn new(obs: &Obs) -> Self {
        let registry = obs.registry();
        Instruments {
            refresh: obs.span("engine.refresh.eval_ns"),
            rank: obs.span("engine.rank_ns"),
            tick_ns: registry.histogram("runtime.tick_ns"),
            merge_ns: registry.histogram("runtime.merge_ns"),
            counters: COUNTERS.map(|(name, _)| registry.counter(name)),
            merged_opportunities: registry.gauge("runtime.merged_opportunities"),
            dirty_bitset_capacity: registry.gauge("engine.dirty_bitset_capacity"),
            mirrored: RuntimeStats::default(),
        }
    }

    /// Pushes the field-wise delta between `current` and the last sync
    /// into the counters, and sets the gauges.
    fn sync(&mut self, current: &RuntimeStats) {
        for ((_, field), counter) in COUNTERS.iter().zip(&self.counters) {
            counter.add((field(current) - field(&self.mirrored)) as u64);
        }
        self.merged_opportunities
            .set(current.merged_opportunities as f64);
        self.dirty_bitset_capacity
            .set(current.dirty_bitset_capacity as f64);
        self.mirrored = *current;
    }
}

/// The ranked output of one runtime tick.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// The standing opportunity set in execution-priority order.
    pub opportunities: Vec<ArbitrageOpportunity>,
    /// Cumulative runtime counters at the time of the tick.
    pub stats: RuntimeStats,
}

impl RuntimeReport {
    /// The best standing opportunity, if any.
    pub fn best(&self) -> Option<&ArbitrageOpportunity> {
        self.opportunities.first()
    }
}

/// The incremental engine: an owned graph + cycle index + standing
/// opportunity set, advanced by event batches. See the module docs;
/// [`ShardedRuntime::apply_events`] is the whole interface.
#[derive(Debug)]
pub struct ShardedRuntime {
    pub(crate) pipeline: OpportunityPipeline,
    pub(crate) graph: TokenGraph,
    pub(crate) index: CycleIndex,
    pub(crate) dirty: DirtyCycleSet,
    /// Reusable flat buffers + evaluation slots for the refresh hot
    /// path; grows to a high-water mark, then never allocates again.
    pub(crate) scratch: ScratchArena,
    pub(crate) standing: BTreeMap<CycleId, ArbitrageOpportunity>,
    /// USD price per token index as of the last refresh (`None` =
    /// unpriced then). Refreshes diff the feed against this to dirty the
    /// cycles a price move invalidates.
    pub(crate) feed_prices: Vec<Option<f64>>,
    /// Set whenever the standing set may have changed since the last
    /// revision bump (conservative: re-inserting a bitwise-identical
    /// evaluation still counts).
    pub(crate) standing_moved: bool,
    /// See [`ShardedRuntime::standing_revision`].
    revision: u64,
    /// The ranking memoized per revision: a tick at an unchanged
    /// revision re-clones this instead of re-sorting the standing set.
    rank_cache: Option<(u64, Vec<ArbitrageOpportunity>)>,
    /// Ranking steps that missed the cache and sorted.
    pub(crate) rank_sorts: usize,
    pub(crate) stats: RuntimeStats,
    /// Registry instruments, when observability is attached
    /// ([`ShardedRuntime::set_obs`]).
    pub(crate) obs: Option<Instruments>,
    /// Pre-tick hook ([`ShardedRuntime::set_tick_hook`]).
    tick_hook: Option<Arc<dyn TickHook>>,
}

impl ShardedRuntime {
    /// Builds the runtime over an initial pool universe: constructs the
    /// graph and enumerates the cycle index once. The runtime starts
    /// cold; the first [`ShardedRuntime::refresh`] produces the full
    /// ranking. The third argument is ignored (it once capped a shard
    /// count) and kept so existing callers still compile.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] for an invalid pipeline config and
    /// [`EngineError::Graph`] on graph/index construction failures.
    pub fn new(
        pipeline: OpportunityPipeline,
        pools: Vec<Pool>,
        _ignored: usize,
    ) -> Result<Self, EngineError> {
        Self::with_graph(pipeline, TokenGraph::new(pools)?)
    }

    /// Builds the runtime over an already-constructed graph, which may
    /// contain retired slots (e.g. a chain mirror where some pools have
    /// degenerated — they keep their slot for id alignment and revive on
    /// a later valid `Sync`). Retired pools contribute no cycles.
    ///
    /// # Errors
    ///
    /// See [`ShardedRuntime::new`].
    pub fn with_graph(
        pipeline: OpportunityPipeline,
        graph: TokenGraph,
    ) -> Result<Self, EngineError> {
        let config = *pipeline.config();
        config.validate()?;
        let index = CycleIndex::build(&graph, config.min_cycle_len, config.max_cycle_len)?;
        Ok(Self::assemble(pipeline, graph, index))
    }

    /// A cold runtime over `graph` and its `index`: every live cycle
    /// dirty, the standing set empty, revision and counters at zero.
    fn assemble(pipeline: OpportunityPipeline, graph: TokenGraph, index: CycleIndex) -> Self {
        let mut dirty = DirtyCycleSet::new();
        for (id, _) in index.iter_live() {
            dirty.insert(id);
        }
        let stats = RuntimeStats {
            cycles_added: dirty.len(),
            cycles_dirtied: dirty.len(),
            dirty_bitset_capacity: dirty.capacity(),
            ..RuntimeStats::default()
        };
        ShardedRuntime {
            pipeline,
            graph,
            index,
            dirty,
            scratch: ScratchArena::default(),
            standing: BTreeMap::new(),
            feed_prices: Vec::new(),
            standing_moved: false,
            revision: 0,
            rank_cache: None,
            rank_sorts: 0,
            stats,
            obs: None,
            tick_hook: None,
        }
    }

    /// Installs (or replaces) the pre-tick [`TickHook`]. Hooks do not
    /// survive checkpoints — see the trait docs.
    pub fn set_tick_hook(&mut self, hook: Arc<dyn TickHook>) {
        self.tick_hook = Some(hook);
    }

    /// Removes the installed [`TickHook`].
    pub fn clear_tick_hook(&mut self) {
        self.tick_hook = None;
    }

    /// Attaches observability: `runtime.*` and `engine.*` registry
    /// instruments mirror [`RuntimeStats`] (additive counters, plus the
    /// `runtime.merged_opportunities` and `engine.dirty_bitset_capacity`
    /// gauges), `runtime.tick_ns`/`runtime.merge_ns` histograms record
    /// every tick, and `engine.refresh.eval_ns`/`engine.rank_ns` spans
    /// time each refresh and ranking. Counters already accumulated —
    /// cold-start cycle enumeration, work done before attachment — are
    /// pushed immediately, so the registry never under-reports.
    pub fn set_obs(&mut self, obs: &Obs) {
        let mut instruments = Instruments::new(obs);
        instruments.sync(&self.stats);
        self.obs = Some(instruments);
    }

    /// Cumulative runtime counters.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// The runtime's current graph view, retired slots included.
    pub fn graph(&self) -> &TokenGraph {
        &self.graph
    }

    /// Monotone revision of the standing set. Bumped at most once per
    /// [`ShardedRuntime::apply_events`], and only when that tick saw the
    /// standing set move, so two calls returning the same value bracket
    /// a window in which the rankings were unchanged. Restored runtimes
    /// restart at zero; serving layers that survive a restore must
    /// re-anchor rather than compare across the gap.
    pub fn standing_revision(&self) -> u64 {
        self.revision
    }

    /// Live cycles in the universe.
    pub fn live_cycles(&self) -> usize {
        self.index.live_cycles()
    }

    /// Dirty cycles evaluated since construction (or restore).
    pub fn cycles_evaluated(&self) -> usize {
        self.stats.cycles_evaluated
    }

    /// Profitability-screen counters since construction (or restore).
    pub fn screen_totals(&self) -> ScreenTotals {
        let stats = &self.stats;
        ScreenTotals {
            cycles_screened_out: stats.cycles_screened_out,
            cycles_floor_screened: stats.cycles_floor_screened,
            cycles_hop_screened: stats.cycles_hop_screened,
            cycles_degenerate_skipped: stats.cycles_degenerate_skipped,
            screen_delta_updates: stats.screen_delta_updates,
            screen_resummations: stats.screen_resummations,
            strategy_evaluations: stats.strategy_evaluations,
        }
    }

    /// Applies a batch of chain events, re-evaluates **only** the cycles
    /// they (and any feed moves) touched, and returns the standing
    /// ranking.
    ///
    /// # Errors
    ///
    /// * [`EngineError::Desync`] — an event references a pool the runtime
    ///   never saw, or a `PoolCreated` arrived out of slot order; rebuild
    ///   from a fresh snapshot.
    /// * [`EngineError::Graph`] / [`EngineError::Strategy`] — forwarded
    ///   evaluation failures (benign thin-interior infeasibility is only
    ///   counted). An event may have been partially applied; treat the
    ///   runtime as desynchronized and rebuild. A failed refresh alone
    ///   keeps every pending cycle dirty and can simply be retried.
    pub fn apply_events<F: PriceFeed + Sync>(
        &mut self,
        events: &[Event],
        feed: &F,
    ) -> Result<RuntimeReport, EngineError> {
        let tick_start = Instant::now();
        if let Some(hook) = &self.tick_hook {
            hook.before_tick(self.stats.ticks as u64);
        }
        for event in events {
            self.apply_event(event)?;
        }
        self.refresh_standing(feed)?;

        let rank_start = Instant::now();
        if std::mem::take(&mut self.standing_moved) {
            self.revision += 1;
        }
        let opportunities = self.ranked();

        let merge_nanos = rank_start.elapsed().as_nanos() as u64;
        let tick_nanos = tick_start.elapsed().as_nanos() as u64;
        let stats = &mut self.stats;
        stats.ticks += 1;
        stats.merged_opportunities = opportunities.len();
        stats.last_merge_nanos = merge_nanos;
        stats.total_merge_nanos += merge_nanos;
        stats.last_tick_nanos = tick_nanos;
        stats.total_tick_nanos += tick_nanos;
        if let Some(obs) = &mut self.obs {
            obs.tick_ns.record(tick_nanos);
            obs.merge_ns.record(merge_nanos);
            obs.sync(&self.stats);
        }
        Ok(RuntimeReport {
            opportunities,
            stats: self.stats,
        })
    }

    /// Brings the runtime current against `feed` (re-evaluating cycles
    /// whose token prices moved) and returns the ranking.
    ///
    /// # Errors
    ///
    /// See [`ShardedRuntime::apply_events`].
    pub fn refresh<F: PriceFeed + Sync>(&mut self, feed: &F) -> Result<RuntimeReport, EngineError> {
        self.apply_events(&[], feed)
    }

    /// The standing set in execution-priority order (the pipeline's
    /// ranking policy, tie-breaks, and `top_k` cut), memoized per
    /// standing revision. Entries are shared handles, so both the cache
    /// and the returned `Vec` hold refcount bumps, not copies.
    fn ranked(&mut self) -> Vec<ArbitrageOpportunity> {
        let _rank_span = self.obs.as_ref().map(|o| o.rank.start());
        if let Some((revision, ranked)) = &self.rank_cache {
            if *revision == self.revision {
                return ranked.clone();
            }
        }
        self.rank_sorts += 1;
        let mut refs: Vec<&ArbitrageOpportunity> = self.standing.values().collect();
        refs.sort_by(|a, b| self.pipeline.compare(a, b));
        if let Some(k) = self.pipeline.config().top_k {
            refs.truncate(k);
        }
        let ranked: Vec<ArbitrageOpportunity> = refs.into_iter().cloned().collect();
        self.rank_cache = Some((self.revision, ranked.clone()));
        ranked
    }

    /// Captures the runtime's durable state as plain data: every pool
    /// slot and the cycle-index arena. Standing opportunity values are
    /// not captured — [`ShardedRuntime::restore`] recomputes them
    /// bit-identically on its first refresh, because evaluation is a
    /// pure function of (reserves, feed). Call between ticks; the
    /// capture is pure and cheap relative to a tick.
    pub fn checkpoint(&self) -> RuntimeCheckpoint {
        let (min_cycle_len, max_cycle_len) = self.index.length_bounds();
        let (arena, free) = self.index.to_parts();
        RuntimeCheckpoint {
            min_cycle_len,
            max_cycle_len,
            slots: (0..self.graph.pool_count())
                .map(|i| PoolSlot::capture(&self.graph, PoolId::new(i as u32)))
                .collect(),
            arena,
            free,
            feed: Vec::new(),
            source_positions: Vec::new(),
        }
    }

    /// Rebuilds a runtime from a checkpoint: same graph (including
    /// retired slots), same cycle index (same `CycleId`s, same future
    /// slot recycling). Every live cycle starts dirty and the standing
    /// set empty, so the first refresh reproduces the checkpointed
    /// ranking bit-for-bit under the same feed; the revision and
    /// cumulative [`RuntimeStats`] restart from zero.
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
        checkpoint: &RuntimeCheckpoint,
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
        Ok(Self::assemble(pipeline, graph, index))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use arb_amm::fee::FeeRate;
    use arb_amm::token::TokenId;
    use arb_cex::feed::PriceTable;
    use arb_dexsim::units::to_raw;

    pub(crate) fn t(i: u32) -> TokenId {
        TokenId::new(i)
    }

    pub(crate) fn p(i: u32) -> PoolId {
        PoolId::new(i)
    }

    /// Two disjoint triangles (paper + imbalanced) and an isolated pair.
    fn island_pools() -> Vec<Pool> {
        let fee = FeeRate::UNISWAP_V2;
        vec![
            Pool::new(t(0), t(1), 100.0, 200.0, fee).unwrap(),
            Pool::new(t(1), t(2), 300.0, 200.0, fee).unwrap(),
            Pool::new(t(2), t(0), 200.0, 400.0, fee).unwrap(),
            Pool::new(t(3), t(4), 1_000.0, 1_080.0, fee).unwrap(),
            Pool::new(t(4), t(5), 1_000.0, 1_000.0, fee).unwrap(),
            Pool::new(t(5), t(3), 1_000.0, 1_000.0, fee).unwrap(),
            Pool::new(t(6), t(7), 500.0, 500.0, fee).unwrap(),
        ]
    }

    fn island_feed() -> PriceTable {
        let mut feed: PriceTable = [(t(0), 2.0), (t(1), 10.2), (t(2), 20.0)]
            .into_iter()
            .collect();
        feed.extend((3..8).map(|i| (t(i), 1.0)));
        feed
    }

    pub(crate) fn sync(pool: u32, a: f64, b: f64) -> Event {
        Event::Sync {
            pool: p(pool),
            reserve_a: to_raw(a),
            reserve_b: to_raw(b),
        }
    }

    fn created(pool: u32, a: u32, b: u32, reserve_a: f64, reserve_b: f64) -> Event {
        Event::PoolCreated {
            pool: p(pool),
            token_a: t(a),
            token_b: t(b),
            reserve_a: to_raw(reserve_a),
            reserve_b: to_raw(reserve_b),
            fee: FeeRate::UNISWAP_V2,
        }
    }

    /// Asserts two rankings are identical, bit for bit, position by
    /// position.
    pub(crate) fn assert_same_ranking(a: &[ArbitrageOpportunity], b: &[ArbitrageOpportunity]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.cycle.tokens(), y.cycle.tokens());
            assert_eq!(x.cycle.pools(), y.cycle.pools());
            assert_eq!(x.strategy, y.strategy);
            assert_eq!(
                x.gross_profit.value().to_bits(),
                y.gross_profit.value().to_bits()
            );
            assert_eq!(
                x.net_profit.value().to_bits(),
                y.net_profit.value().to_bits()
            );
        }
    }

    /// The oracle shared by the runtime's unit tests: the ranking must be
    /// bit-identical to a batch run over the runtime's own graph.
    pub(crate) fn assert_matches_batch(
        runtime: &ShardedRuntime,
        ranked: &[ArbitrageOpportunity],
        feed: &PriceTable,
    ) {
        let expected = OpportunityPipeline::new(*runtime.pipeline.config())
            .run_graph(runtime.graph(), feed)
            .unwrap()
            .opportunities;
        assert_same_ranking(ranked, &expected);
    }

    /// A runtime over the islands, refreshed. It is asked for one shard
    /// per island (3), an argument it ignores.
    fn refreshed(config: PipelineConfig) -> ShardedRuntime {
        let mut runtime =
            ShardedRuntime::new(OpportunityPipeline::new(config), island_pools(), 3).unwrap();
        runtime.refresh(&island_feed()).unwrap();
        runtime
    }

    #[test]
    fn cold_start_matches_single_engine() {
        let feed = island_feed();
        let mut runtime =
            ShardedRuntime::new(OpportunityPipeline::default(), island_pools(), 3).unwrap();
        let report = runtime.refresh(&feed).unwrap();
        assert_matches_batch(&runtime, &report.opportunities, &feed);
        assert_eq!(report.opportunities.len(), 2, "both triangles arb");
        assert_eq!(runtime.standing_revision(), 1);
    }

    #[test]
    fn syncs_reevaluate_only_the_touched_cycles() {
        let feed = island_feed();
        let mut runtime = refreshed(PipelineConfig::default());
        let evaluated_cold = runtime.cycles_evaluated();

        let report = runtime
            .apply_events(&[sync(3, 1_000.0, 1_060.0)], &feed)
            .unwrap();
        assert_matches_batch(&runtime, &report.opportunities, &feed);
        // Only the touched triangle's two directed cycles re-evaluated.
        assert_eq!(runtime.cycles_evaluated() - evaluated_cold, 2);
    }

    #[test]
    fn pool_created_same_component_stays_put() {
        let feed = island_feed();
        let mut runtime = refreshed(PipelineConfig::default());

        // A parallel pool inside the paper triangle's component.
        let report = runtime
            .apply_events(&[created(7, 0, 1, 150.0, 250.0)], &feed)
            .unwrap();
        assert_eq!(report.stats.rebuilds, 0);
        assert_matches_batch(&runtime, &report.opportunities, &feed);
    }

    #[test]
    fn bridge_pool_is_not_a_cold_refresh() {
        let feed = island_feed();
        let mut runtime = refreshed(PipelineConfig::default());

        // Token 2 (paper triangle) ↔ token 4 (second triangle) joins the
        // two components but closes no cycle; token 2 ↔ token 3 then
        // closes the triangle 2-4-3 in both directions. Each step must
        // evaluate exactly the cycles its pool added.
        for batch in [
            vec![created(7, 2, 4, 100.0, 2_000.0)],
            vec![created(8, 2, 3, 100.0, 2_100.0)],
            vec![sync(7, 110.0, 1_900.0), sync(0, 101.0, 199.0)],
        ] {
            let cycles_before = runtime.live_cycles();
            let evaluated_before = runtime.cycles_evaluated();
            let report = runtime.apply_events(&batch, &feed).unwrap();
            assert_matches_batch(&runtime, &report.opportunities, &feed);
            if let Event::PoolCreated { .. } = batch[0] {
                let added = runtime.live_cycles() - cycles_before;
                assert_eq!(runtime.cycles_evaluated() - evaluated_before, added);
            }
        }
        assert_eq!(runtime.live_cycles(), 6, "three triangles");
        assert_eq!(runtime.stats().rebuilds, 0);
    }

    #[test]
    fn retire_and_revive_match_single_engine() {
        let feed = island_feed();
        let mut runtime = refreshed(PipelineConfig::default());

        for batch in [
            vec![Event::Sync {
                pool: p(0),
                reserve_a: 0,
                reserve_b: 0,
            }],
            vec![sync(0, 100.0, 200.0)],
        ] {
            let report = runtime.apply_events(&batch, &feed).unwrap();
            assert_matches_batch(&runtime, &report.opportunities, &feed);
        }
    }

    #[test]
    fn set_obs_mirrors_stats() {
        let feed = island_feed();
        let obs = arb_obs::Obs::default();
        let mut runtime =
            ShardedRuntime::new(OpportunityPipeline::default(), island_pools(), 3).unwrap();
        runtime.set_obs(&obs);
        runtime.refresh(&feed).unwrap();
        runtime
            .apply_events(&[created(7, 2, 4, 100.0, 2_000.0)], &feed)
            .unwrap();
        runtime
            .apply_events(&[sync(7, 110.0, 1_900.0)], &feed)
            .unwrap();

        let snapshot = obs.snapshot();
        let stats = runtime.stats();
        for (name, field) in COUNTERS {
            assert_eq!(snapshot.counter(name), Some(field(stats) as u64), "{name}");
        }
        assert_eq!(
            snapshot.gauge("runtime.merged_opportunities"),
            Some(stats.merged_opportunities as f64)
        );
        let ticks = snapshot
            .histogram("runtime.tick_ns")
            .expect("tick histogram registered");
        assert_eq!(ticks.count, stats.ticks as u64);
    }

    #[test]
    fn dirty_bitset_capacity_is_a_level_across_rebuilds() {
        // A runtime rebuilt on the same registry (a supervisor's
        // recovery) must leave the gauge at the live runtime's capacity,
        // not at the sum over every runtime ever attached.
        let feed = island_feed();
        let obs = arb_obs::Obs::default();
        let mut first =
            ShardedRuntime::new(OpportunityPipeline::default(), island_pools(), 1).unwrap();
        first.set_obs(&obs);
        first.refresh(&feed).unwrap();
        let mut second =
            ShardedRuntime::restore(OpportunityPipeline::default(), &first.checkpoint()).unwrap();
        second.set_obs(&obs);
        second.refresh(&feed).unwrap();
        let capacity = second.stats().dirty_bitset_capacity;
        assert!(capacity > 0);
        assert_eq!(
            obs.snapshot().gauge("engine.dirty_bitset_capacity"),
            Some(capacity as f64)
        );
        // Counters, by contrast, keep counting across the rebuild.
        assert_eq!(
            obs.snapshot().counter("runtime.ticks"),
            Some((first.stats().ticks + second.stats().ticks) as u64)
        );
    }

    #[test]
    fn top_k_merge_matches_global_cut() {
        let config = PipelineConfig {
            top_k: Some(1),
            ..PipelineConfig::default()
        };
        let feed = island_feed();
        let mut runtime = refreshed(config);
        let report = runtime.refresh(&feed).unwrap();
        assert_eq!(report.opportunities.len(), 1);
        assert_matches_batch(&runtime, &report.opportunities, &feed);
    }

    #[test]
    fn checkpoint_restore_reproduces_merged_ranking() {
        let feed = island_feed();
        let mut runtime =
            ShardedRuntime::new(OpportunityPipeline::default(), island_pools(), 3).unwrap();
        runtime.refresh(&feed).unwrap();
        // Mutate: a sync, a PoolCreated, a retire.
        runtime
            .apply_events(
                &[
                    sync(3, 1_000.0, 1_060.0),
                    created(7, 0, 1, 150.0, 250.0),
                    Event::Sync {
                        pool: p(6),
                        reserve_a: 0,
                        reserve_b: 0,
                    },
                ],
                &feed,
            )
            .unwrap();
        let live = runtime.refresh(&feed).unwrap();

        let checkpoint = runtime.checkpoint();
        let mut restored =
            ShardedRuntime::restore(OpportunityPipeline::default(), &checkpoint).unwrap();
        assert_eq!(
            restored.standing_revision(),
            0,
            "restored runtimes restart at 0"
        );
        let back = restored.refresh(&feed).unwrap();
        assert!(!back.opportunities.is_empty(), "non-vacuous");
        assert_same_ranking(&back.opportunities, &live.opportunities);

        // The restored runtime keeps applying and reviving identically.
        let follow_up = [sync(6, 490.0, 510.0), sync(0, 101.0, 199.0)];
        let a = runtime.apply_events(&follow_up, &feed).unwrap();
        let b = restored.apply_events(&follow_up, &feed).unwrap();
        assert_same_ranking(&a.opportunities, &b.opportunities);
    }

    #[test]
    fn restore_rejects_inconsistent_checkpoints() {
        let runtime =
            ShardedRuntime::new(OpportunityPipeline::default(), island_pools(), 3).unwrap();
        let good = runtime.checkpoint();

        let mut dangling = good.clone();
        dangling.slots.truncate(2);
        let err = ShardedRuntime::restore(OpportunityPipeline::default(), &dangling).unwrap_err();
        assert!(matches!(err, EngineError::Graph(_)), "{err:?}");

        let config = PipelineConfig {
            max_cycle_len: 4,
            ..PipelineConfig::default()
        };
        let err = ShardedRuntime::restore(OpportunityPipeline::new(config), &good).unwrap_err();
        assert!(matches!(err, EngineError::Config(_)), "{err:?}");
        assert!(err.to_string().contains("cycle bounds"), "{err}");
    }

    #[test]
    fn runtime_stats_display_one_liner() {
        let feed = island_feed();
        let mut runtime =
            ShardedRuntime::new(OpportunityPipeline::default(), island_pools(), 2).unwrap();
        runtime
            .apply_events(&[sync(0, 101.0, 199.0)], &feed)
            .unwrap();
        let line = runtime.stats().to_string();
        for needle in ["ticks", "merge", "events", "evaluations saved"] {
            assert!(line.contains(needle), "{needle}: {line}");
        }
        assert!(!line.contains('\n'));
    }
}
