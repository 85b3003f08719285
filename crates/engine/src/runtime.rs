//! The sharded multi-engine runtime: one [`StreamingEngine`] per shard.
//!
//! A single streaming engine owns the whole pool universe; past a few
//! hundred pools its per-tick serial sections (candidate preparation,
//! standing-set maintenance, the full clone + sort behind
//! [`StreamingEngine::ranked`]) become the bottleneck. This module splits
//! the universe along connected components ([`arb_graph::Partition`]) —
//! an arbitrage cycle can never cross a component boundary, so sharding by
//! component loses nothing — and runs an independent engine per shard:
//!
//! ```text
//! events ──▶ route by owning shard ─┬─▶ shard 0: StreamingEngine ─┐
//!            (PoolCreated broadcast │        ⋮   (worker pool)    ├─▶ k-way
//!             for slot alignment)   └─▶ shard N: StreamingEngine ─┘   merge
//!                                                                      │
//!                                              global ranked opportunity set
//! ```
//!
//! * **Routing.** Pool-keyed events (`Sync`/`Swap`/`Mint`/`Burn`) go only
//!   to the owning shard. `PoolCreated` is broadcast so every shard keeps
//!   the same `PoolId` slot space (the streaming desync checks rely on
//!   it); non-owners retire the new slot immediately after applying it.
//! * **Rebuilds.** A created pool that bridges two different shards'
//!   components would let cycles span shards, so the runtime flushes
//!   pending work and repartitions from the merged live state — rare,
//!   counted in [`RuntimeStats::rebuilds`], and equivalence-preserving
//!   (evaluation is a pure function of reserves + feed, so re-evaluating
//!   from cold reproduces every standing value bit-for-bit).
//! * **Merging.** Each shard's ranked list is cached against its engine's
//!   [`StreamingEngine::standing_revision`] and re-cloned only when the
//!   shard actually changed; the global ranking is a k-way merge under
//!   the pipeline's total execution-priority order. With `top_k` set,
//!   per-shard lists are already `top_k`-truncated and the merge stops at
//!   `top_k` — the global top-k of a union is always drawn from the
//!   per-shard top-k's.
//!
//! The merged output is **bit-identical** to one [`StreamingEngine`] over
//! the same event stream (`tests/runtime_equivalence.rs` proves it across
//! the workload catalog): sharding is an execution strategy, never an
//! approximation.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use arb_amm::pool::{Pool, PoolId};
use arb_cex::feed::PriceFeed;
use arb_dexsim::events::Event;
use arb_dexsim::units::to_display;
use arb_graph::{Partition, TokenGraph};
use arb_obs::{Counter, Gauge, Histogram, Obs};
use rayon::prelude::*;

use crate::checkpoint::RuntimeCheckpoint;
use crate::error::EngineError;
use crate::opportunity::ArbitrageOpportunity;
use crate::pipeline::OpportunityPipeline;
use crate::streaming::{StreamStats, StreamingEngine};

/// A hook invoked just before each shard's queue is flushed on a tick —
/// the seam fault-injection harnesses use to make a specific shard slow
/// or panic mid-tick at a chosen `(shard, tick)` coordinate, without the
/// runtime knowing anything about chaos plans.
///
/// Invoked serially (outside the worker pool) so a panicking hook
/// unwinds on the caller's thread exactly like a panicking shard worker
/// would (the worker-pool shim re-raises worker panics on the caller).
/// Hooks are **not** part of checkpoints: a recovered runtime starts
/// with no hook, and supervisors re-install theirs after rebuild.
pub trait TickHook: Send + Sync + fmt::Debug {
    /// Called once per shard per flush, with the runtime's tick counter
    /// (completed [`ShardedRuntime::apply_events`] calls, so the first
    /// tick is 0).
    fn before_shard_tick(&self, shard: usize, tick: u64);
}

/// Cumulative counters for one sharded runtime's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Event batches processed ([`ShardedRuntime::apply_events`] calls).
    pub ticks: usize,
    /// Pool-keyed events routed to a single owning shard.
    pub events_routed: usize,
    /// `PoolCreated` events broadcast to every shard for slot alignment.
    pub broadcasts: usize,
    /// Full repartitions triggered by cross-shard bridge pools.
    pub rebuilds: usize,
    /// Per-shard refresh passes run (ticks × shards, plus rebuild flushes).
    pub shard_refreshes: usize,
    /// Shard ranked-list clones skipped because the shard's standing
    /// revision had not moved since the cache was filled.
    pub merge_cache_hits: usize,
    /// Opportunities in the most recent merged ranking.
    pub merged_opportunities: usize,
    /// Wall-clock nanoseconds spent in the most recent merge.
    pub last_merge_nanos: u64,
    /// Total wall-clock nanoseconds spent merging.
    pub total_merge_nanos: u64,
    /// Wall-clock nanoseconds of the most recent end-to-end tick.
    pub last_tick_nanos: u64,
    /// Total wall-clock nanoseconds across all ticks.
    pub total_tick_nanos: u64,
}

impl fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ticks ({} events routed, {} broadcasts, {} rebuilds), \
             {} shard refreshes, {} merge cache hits, \
             {} standing opportunities, last tick {}ns (merge {}ns)",
            self.ticks,
            self.events_routed,
            self.broadcasts,
            self.rebuilds,
            self.shard_refreshes,
            self.merge_cache_hits,
            self.merged_opportunities,
            self.last_tick_nanos,
            self.last_merge_nanos
        )
    }
}

/// The fleet-wide profitability-screen counters, summed across every
/// shard engine **and** across rebuilds (a repartition replaces the
/// engines, so their counters are banked first — these totals are
/// cumulative for the runtime's lifetime, like
/// [`ShardedRuntime::cycles_evaluated`]).
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

impl ScreenTotals {
    /// Accumulates one engine's screen counters into the totals (used by
    /// the runtime across its fleet, and by telemetry consumers to view a
    /// single [`StreamingEngine`]'s counters in the same shape).
    pub fn add_stats(&mut self, stats: &StreamStats) {
        self.cycles_screened_out += stats.cycles_screened_out;
        self.cycles_floor_screened += stats.cycles_floor_screened;
        self.cycles_hop_screened += stats.cycles_hop_screened;
        self.cycles_degenerate_skipped += stats.cycles_degenerate_skipped;
        self.screen_delta_updates += stats.screen_delta_updates;
        self.screen_resummations += stats.screen_resummations;
        self.strategy_evaluations += stats.strategy_evaluations;
    }
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

/// Pre-resolved registry instruments for the runtime, plus the `Obs`
/// handle kept to re-wire shard engines after rebuilds.
#[derive(Debug)]
struct RuntimeObs {
    handle: Obs,
    tick_ns: Histogram,
    merge_ns: Histogram,
    ticks: Counter,
    events_routed: Counter,
    broadcasts: Counter,
    rebuilds: Counter,
    shard_refreshes: Counter,
    merge_cache_hits: Counter,
    merged_opportunities: Gauge,
    shard_count: Gauge,
    mirrored: RuntimeStats,
}

impl RuntimeObs {
    fn new(obs: &Obs) -> Self {
        let registry = obs.registry();
        RuntimeObs {
            handle: obs.clone(),
            tick_ns: registry.histogram("runtime.tick_ns"),
            merge_ns: registry.histogram("runtime.merge_ns"),
            ticks: registry.counter("runtime.ticks"),
            events_routed: registry.counter("runtime.events_routed"),
            broadcasts: registry.counter("runtime.broadcasts"),
            rebuilds: registry.counter("runtime.rebuilds"),
            shard_refreshes: registry.counter("runtime.shard_refreshes"),
            merge_cache_hits: registry.counter("runtime.merge_cache_hits"),
            merged_opportunities: registry.gauge("runtime.merged_opportunities"),
            shard_count: registry.gauge("runtime.shard_count"),
            mirrored: RuntimeStats::default(),
        }
    }

    /// Pushes the delta since the last sync (monotone fields) and the
    /// current levels (gauges); the nanosecond fields feed the
    /// histograms directly in `merge`.
    fn sync(&mut self, current: &RuntimeStats, shards: usize) {
        let m = &self.mirrored;
        self.ticks.add((current.ticks - m.ticks) as u64);
        self.events_routed
            .add((current.events_routed - m.events_routed) as u64);
        self.broadcasts
            .add((current.broadcasts - m.broadcasts) as u64);
        self.rebuilds.add((current.rebuilds - m.rebuilds) as u64);
        self.shard_refreshes
            .add((current.shard_refreshes - m.shard_refreshes) as u64);
        self.merge_cache_hits
            .add((current.merge_cache_hits - m.merge_cache_hits) as u64);
        self.merged_opportunities
            .set(current.merged_opportunities as f64);
        self.shard_count.set(shards as f64);
        self.mirrored = *current;
    }
}

/// The merged, globally ranked output of one runtime tick.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// The merged standing opportunity set in execution-priority order.
    pub opportunities: Vec<ArbitrageOpportunity>,
    /// Cumulative runtime counters at the time of the tick.
    pub stats: RuntimeStats,
}

impl RuntimeReport {
    /// The best standing opportunity across all shards, if any.
    pub fn best(&self) -> Option<&ArbitrageOpportunity> {
        self.opportunities.first()
    }
}

/// One shard: an engine plus its event queue and cached ranking.
#[derive(Debug)]
struct Shard {
    engine: StreamingEngine,
    queue: Vec<Event>,
    /// This shard's standing set in execution-priority order, valid while
    /// `revision` matches the engine's standing revision.
    ranked: Vec<ArbitrageOpportunity>,
    revision: u64,
}

impl Shard {
    /// Re-reads the cached ranking if the engine's standing set moved.
    /// Returns whether the cache was still valid.
    fn refresh_cache(&mut self) -> bool {
        let revision = self.engine.standing_revision();
        if revision == self.revision {
            return true;
        }
        self.ranked = self.engine.ranked();
        self.revision = revision;
        false
    }
}

/// The sharded multi-engine runtime. See the module docs for the
/// architecture; construction partitions the universe, after which
/// [`ShardedRuntime::apply_events`] is the whole interface: route, flush
/// on a worker pool, merge.
#[derive(Debug)]
pub struct ShardedRuntime {
    /// The merge pipeline: comparator + `top_k` for the global ranking.
    /// Shard engines hold clones of it.
    pipeline: OpportunityPipeline,
    shards: Vec<Shard>,
    partition: Partition,
    /// Total pool slots across the universe (every shard mirrors them).
    pool_slots: usize,
    /// The shard-count cap to re-apply on rebuilds.
    max_shards: usize,
    /// `PoolCreated` slots awaiting retirement in non-owning shards
    /// (processed after the queues drain, before anything re-evaluates).
    pending_retires: Vec<(PoolId, usize)>,
    /// Cycle evaluations accumulated by shard fleets that rebuilds have
    /// since replaced, so [`ShardedRuntime::cycles_evaluated`] stays
    /// cumulative across repartitions.
    evaluations_before_rebuilds: usize,
    /// Screen counters banked from replaced fleets, mirroring
    /// `evaluations_before_rebuilds`.
    screen_before_rebuilds: ScreenTotals,
    /// Bumped whenever a merge found at least one shard whose standing
    /// set moved (see [`ShardedRuntime::standing_revision`]).
    revision: u64,
    stats: RuntimeStats,
    /// Registry instruments, when observability is attached
    /// ([`ShardedRuntime::set_obs`]).
    obs: Option<RuntimeObs>,
    /// Per-shard pre-tick hook ([`ShardedRuntime::set_tick_hook`]).
    tick_hook: Option<Arc<dyn TickHook>>,
}

impl ShardedRuntime {
    /// Builds the runtime over an initial pool universe, partitioning it
    /// into at most `max_shards` component-aligned shards (fewer when the
    /// graph has fewer components). Every shard engine starts cold; the
    /// first [`ShardedRuntime::refresh`] produces the full ranking.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] for an invalid pipeline config and
    /// [`EngineError::Graph`] on graph/index construction failures.
    pub fn new(
        pipeline: OpportunityPipeline,
        pools: Vec<Pool>,
        max_shards: usize,
    ) -> Result<Self, EngineError> {
        let graph = TokenGraph::new(pools)?;
        Self::with_graph(pipeline, graph, max_shards)
    }

    /// Builds the runtime over an already-constructed graph, which may
    /// contain retired slots (a chain mirror with degenerate pools).
    /// Retired slots keep their component's shard so a later revive stays
    /// shard-local.
    ///
    /// # Errors
    ///
    /// See [`ShardedRuntime::new`].
    pub fn with_graph(
        pipeline: OpportunityPipeline,
        graph: TokenGraph,
        max_shards: usize,
    ) -> Result<Self, EngineError> {
        pipeline.config().validate()?;
        let partition = Partition::new(&graph, max_shards);
        let shards = Self::build_shards(&pipeline, &graph, &partition)?;
        Ok(ShardedRuntime {
            pipeline,
            pool_slots: graph.pool_count(),
            partition,
            max_shards,
            pending_retires: Vec::new(),
            evaluations_before_rebuilds: 0,
            screen_before_rebuilds: ScreenTotals::default(),
            revision: 0,
            shards,
            stats: RuntimeStats::default(),
            obs: None,
            tick_hook: None,
        })
    }

    /// Installs (or replaces) the per-shard pre-tick [`TickHook`]. Pass
    /// hooks survive repartitions but not checkpoints — see the trait
    /// docs.
    pub fn set_tick_hook(&mut self, hook: Arc<dyn TickHook>) {
        self.tick_hook = Some(hook);
    }

    /// Removes the installed [`TickHook`].
    pub fn clear_tick_hook(&mut self) {
        self.tick_hook = None;
    }

    fn build_shards(
        pipeline: &OpportunityPipeline,
        graph: &TokenGraph,
        partition: &Partition,
    ) -> Result<Vec<Shard>, EngineError> {
        (0..partition.shard_count())
            .map(|shard| {
                // Full slot array (id alignment with the event stream),
                // with everything the shard does not own retired — the
                // cycle index then enumerates exactly the shard's cycles.
                let mut shard_graph = graph.clone();
                for index in 0..graph.pool_count() {
                    let id = PoolId::new(index as u32);
                    if partition.shard_of_pool(id) != Some(shard) {
                        shard_graph.remove_pool(id)?;
                    }
                }
                let engine = StreamingEngine::with_graph(pipeline.clone(), shard_graph)?;
                let revision = engine.standing_revision();
                Ok(Shard {
                    engine,
                    queue: Vec::new(),
                    ranked: Vec::new(),
                    revision,
                })
            })
            .collect()
    }

    /// Attaches observability: `runtime.*` counters/gauges mirror
    /// [`RuntimeStats`], `runtime.tick_ns`/`runtime.merge_ns` histograms
    /// record every tick, and each shard engine reports its
    /// [`StreamStats`] and refresh/rank spans under `engine.*` (shard
    /// deltas are additive, so the registry shows fleet totals). The
    /// handle survives rebuilds — replacement fleets are re-wired
    /// automatically.
    pub fn set_obs(&mut self, obs: &Obs) {
        let mut runtime_obs = RuntimeObs::new(obs);
        runtime_obs.sync(&self.stats, self.shards.len());
        self.obs = Some(runtime_obs);
        self.wire_shards();
    }

    /// Points every current shard engine at the attached registry (on
    /// attach, and again after each rebuild replaces the fleet).
    fn wire_shards(&mut self) {
        if let Some(obs) = &self.obs {
            let handle = obs.handle.clone();
            for shard in &mut self.shards {
                shard.engine.set_obs(&handle);
            }
        }
    }

    /// Number of shards in use.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The current pool → shard assignment.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Cumulative runtime counters.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// Monotone revision of the merged standing set. Bumped exactly when
    /// a merge pass observed at least one shard whose standing ranking
    /// moved, so two calls returning the same value bracket a window in
    /// which [`ShardedRuntime::apply_events`] rankings were unchanged.
    /// Restored runtimes restart at zero; serving layers that survive a
    /// restore must re-anchor rather than compare across the gap.
    pub fn standing_revision(&self) -> u64 {
        self.revision
    }

    /// Per-shard engine counters, indexed by shard. Counters cover the
    /// *current* fleet — a rebuild replaces every engine, so these reset
    /// at the last repartition ([`ShardedRuntime::cycles_evaluated`]
    /// stays cumulative across rebuilds).
    pub fn shard_stats(&self) -> Vec<&StreamStats> {
        self.shards.iter().map(|s| s.engine.stats()).collect()
    }

    /// Live cycles across all shards (the global cycle universe).
    pub fn live_cycles(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.engine.index().live_cycles())
            .sum()
    }

    /// Dirty cycles evaluated across all shards since construction,
    /// including work done by fleets that rebuilds have since replaced.
    pub fn cycles_evaluated(&self) -> usize {
        self.evaluations_before_rebuilds
            + self
                .shards
                .iter()
                .map(|s| s.engine.stats().cycles_evaluated)
                .sum::<usize>()
    }

    /// Fleet-wide profitability-screen counters since construction,
    /// cumulative across rebuilds (see [`ScreenTotals`]).
    pub fn screen_totals(&self) -> ScreenTotals {
        let mut totals = self.screen_before_rebuilds;
        for shard in &self.shards {
            totals.add_stats(shard.engine.stats());
        }
        totals
    }

    /// Routes a batch of chain events to their owning shards, flushes
    /// every shard on the worker pool, and returns the merged global
    /// ranking. Equivalent — bit for bit — to feeding the same batch to a
    /// single [`StreamingEngine`] over the same universe.
    ///
    /// # Errors
    ///
    /// * [`EngineError::Desync`] — an event references a pool no shard
    ///   owns, or a `PoolCreated` arrived out of slot order; rebuild from
    ///   a fresh snapshot.
    /// * [`EngineError::Graph`] / [`EngineError::Strategy`] — forwarded
    ///   shard failures. The runtime's shards may have partially applied
    ///   the batch; treat the runtime as desynchronized and rebuild.
    pub fn apply_events<F: PriceFeed + Sync>(
        &mut self,
        events: &[Event],
        feed: &F,
    ) -> Result<RuntimeReport, EngineError> {
        let tick_start = Instant::now();
        for event in events {
            self.route(event, feed)?;
        }
        self.flush(feed)?;
        Ok(self.merge(tick_start))
    }

    /// Brings every shard current against `feed` (re-evaluating cycles
    /// whose token prices moved) and returns the merged ranking.
    ///
    /// # Errors
    ///
    /// Forwards shard refresh failures; see
    /// [`ShardedRuntime::apply_events`].
    pub fn refresh<F: PriceFeed + Sync>(&mut self, feed: &F) -> Result<RuntimeReport, EngineError> {
        self.apply_events(&[], feed)
    }

    fn route<F: PriceFeed + Sync>(&mut self, event: &Event, feed: &F) -> Result<(), EngineError> {
        match *event {
            Event::PoolCreated {
                pool,
                token_a,
                token_b,
                ..
            } => {
                if pool.index() != self.pool_slots {
                    return Err(EngineError::Desync("PoolCreated out of slot order"));
                }
                let a = self.partition.shard_of_token(token_a);
                let b = self.partition.shard_of_token(token_b);
                match (a, b) {
                    (Some(x), Some(y)) if x != y => {
                        // The new pool bridges two shards' components:
                        // cycles could now span shards, so settle pending
                        // work and repartition around the merged state.
                        self.stats.rebuilds += 1;
                        self.flush(feed)?;
                        self.rebuild_with(event)?;
                    }
                    _ => {
                        let owner = a.or(b).unwrap_or_else(|| self.least_loaded_shard());
                        self.stats.broadcasts += 1;
                        for shard in &mut self.shards {
                            shard.queue.push(*event);
                        }
                        self.partition.register_pool(pool, token_a, token_b, owner);
                        self.pending_retires.push((pool, owner));
                        self.pool_slots += 1;
                    }
                }
            }
            Event::Sync { pool, .. }
            | Event::Swap { pool, .. }
            | Event::Mint { pool, .. }
            | Event::Burn { pool, .. } => {
                let Some(shard) = self.partition.shard_of_pool(pool) else {
                    return Err(EngineError::Desync("event for a pool no shard owns"));
                };
                self.stats.events_routed += 1;
                self.shards[shard].queue.push(*event);
            }
            // `Event` is non-exhaustive; unknown variants carry no pool
            // deltas this runtime understands (mirroring the single
            // engine, which counts and skips them).
            _ => {}
        }
        Ok(())
    }

    /// Drains every shard's queue through its engine and brings every
    /// standing set current. Three phases: apply events (the shards fan
    /// out over the process-wide persistent thread pool — the rayon shim
    /// runs serially on the caller when it has one thread or one shard),
    /// retire the slots non-owners only mirror for id alignment, then
    /// re-evaluate, fanned out the same way. A shard's own evaluation
    /// fan-out queues on the same pool, so a thread whose shards finished
    /// early helps the busy one. The retires run *between* application
    /// and evaluation so no shard ever evaluates cycles through a
    /// mirrored slot it is about to discard.
    fn flush<F: PriceFeed + Sync>(&mut self, feed: &F) -> Result<(), EngineError> {
        if let Some(hook) = &self.tick_hook {
            // Serial and on the caller's thread: a panicking hook
            // unwinds exactly where a panicking shard worker would.
            let tick = self.stats.ticks as u64;
            for shard in 0..self.shards.len() {
                hook.before_shard_tick(shard, tick);
            }
        }
        let ingested: Vec<Result<(), EngineError>> = self
            .shards
            .par_iter_mut()
            .map(|shard| {
                let queue = std::mem::take(&mut shard.queue);
                shard.engine.ingest(&queue)
            })
            .collect();
        for result in ingested {
            result?;
        }
        for (pool, owner) in std::mem::take(&mut self.pending_retires) {
            for (index, shard) in self.shards.iter_mut().enumerate() {
                if index != owner {
                    shard.engine.retire_pool(pool)?;
                }
            }
        }
        let refreshed: Vec<Result<(), EngineError>> = self
            .shards
            .par_iter_mut()
            .map(|shard| shard.engine.refresh_standing(feed))
            .collect();
        self.stats.shard_refreshes += refreshed.len();
        for result in refreshed {
            result?;
        }
        Ok(())
    }

    /// Repartitions the runtime around the merged live state plus the
    /// bridge pool that triggered the rebuild. Queues are empty (the
    /// caller flushed) and every standing value is reproduced bit-for-bit
    /// by the cold re-evaluation, so equivalence is preserved.
    fn rebuild_with(&mut self, created: &Event) -> Result<(), EngineError> {
        let Event::PoolCreated {
            pool,
            token_a,
            token_b,
            reserve_a,
            reserve_b,
            fee,
        } = *created
        else {
            unreachable!("rebuild_with is only called for PoolCreated");
        };
        debug_assert_eq!(pool.index(), self.pool_slots);
        let mut graph = self.merged_graph()?;
        graph.add_pool(
            Pool::new(
                token_a,
                token_b,
                to_display(reserve_a),
                to_display(reserve_b),
                fee,
            )
            .map_err(arb_graph::GraphError::from)?,
        );
        self.bank_shard_counters();
        self.partition = Partition::new(&graph, self.max_shards);
        self.shards = Self::build_shards(&self.pipeline, &graph, &self.partition)?;
        self.wire_shards();
        self.pool_slots = graph.pool_count();
        Ok(())
    }

    /// Reassembles the single-engine view of the fleet's live state: one
    /// graph holding every slot (owners are authoritative for reserves
    /// and liveness). Queues must be drained first.
    fn merged_graph(&self) -> Result<TokenGraph, EngineError> {
        let mut pools = Vec::with_capacity(self.pool_slots);
        let mut dead = Vec::new();
        for index in 0..self.pool_slots {
            let id = PoolId::new(index as u32);
            let owner = self
                .partition
                .shard_of_pool(id)
                .expect("every slot is owned");
            let graph = self.shards[owner].engine.graph();
            pools.push(graph.pools()[index]);
            if !graph.is_live(id) {
                dead.push(id);
            }
        }
        let mut graph = TokenGraph::new(pools)?;
        for id in dead {
            graph.remove_pool(id)?;
        }
        Ok(graph)
    }

    /// The fleet is about to be replaced wholesale; bank its evaluation
    /// and screen counters so the cumulative totals survive.
    fn bank_shard_counters(&mut self) {
        self.evaluations_before_rebuilds += self
            .shards
            .iter()
            .map(|s| s.engine.stats().cycles_evaluated)
            .sum::<usize>();
        for shard in &self.shards {
            self.screen_before_rebuilds.add_stats(shard.engine.stats());
        }
    }

    /// Captures the whole fleet's durable state: the per-slot shard
    /// assignment plus one [`crate::EngineCheckpoint`] per shard. Call
    /// between ticks (every public entry point leaves the queues
    /// drained); the capture is pure and cheap relative to a tick.
    pub fn checkpoint(&self) -> RuntimeCheckpoint {
        debug_assert!(
            self.pending_retires.is_empty() && self.shards.iter().all(|s| s.queue.is_empty()),
            "checkpoint between ticks only"
        );
        RuntimeCheckpoint {
            max_shards: self.max_shards,
            owners: (0..self.pool_slots)
                .map(|index| {
                    self.partition
                        .shard_of_pool(PoolId::new(index as u32))
                        .expect("every slot is owned") as u32
                })
                .collect(),
            shards: self.shards.iter().map(|s| s.engine.checkpoint()).collect(),
            feed: Vec::new(),
            source_positions: Vec::new(),
        }
    }

    /// Rebuilds a runtime from a checkpoint: each shard engine is
    /// restored exactly ([`StreamingEngine::restore`]) and the partition
    /// is reconstructed from the recorded assignment, so routing,
    /// rebuild triggers, and future revives behave exactly as they would
    /// have in the checkpointed process. Cumulative [`RuntimeStats`]
    /// restart from zero; the first refresh reproduces the checkpointed
    /// merged ranking bit-for-bit under the same feed.
    ///
    /// # Errors
    ///
    /// * [`EngineError::Config`] — invalid pipeline config, or a
    ///   checkpoint whose shard shapes are inconsistent.
    /// * [`EngineError::Graph`] — a shard checkpoint fails validation
    ///   ([`arb_graph::GraphError::InvalidCheckpoint`]).
    pub fn restore(
        pipeline: OpportunityPipeline,
        checkpoint: &RuntimeCheckpoint,
    ) -> Result<Self, EngineError> {
        pipeline.config().validate()?;
        if checkpoint.shards.is_empty() {
            return Err(EngineError::Config(
                "runtime checkpoint has no shards".to_string(),
            ));
        }
        let pool_slots = checkpoint.owners.len();
        if checkpoint
            .shards
            .iter()
            .any(|shard| shard.slots.len() != pool_slots)
        {
            return Err(EngineError::Config(
                "runtime checkpoint shards disagree on the slot count".to_string(),
            ));
        }
        let shards = checkpoint
            .shards
            .iter()
            .map(|state| {
                let engine = StreamingEngine::restore(pipeline.clone(), state)?;
                let revision = engine.standing_revision();
                Ok(Shard {
                    engine,
                    queue: Vec::new(),
                    ranked: Vec::new(),
                    revision,
                })
            })
            .collect::<Result<Vec<Shard>, EngineError>>()?;
        let owners: Vec<usize> = checkpoint.owners.iter().map(|&o| o as usize).collect();
        let partition = Partition::from_assignments(
            shards[0].engine.graph(),
            &owners,
            checkpoint.shards.len(),
        )?;
        Ok(ShardedRuntime {
            pipeline,
            partition,
            pool_slots,
            max_shards: checkpoint.max_shards,
            pending_retires: Vec::new(),
            evaluations_before_rebuilds: 0,
            screen_before_rebuilds: ScreenTotals::default(),
            revision: 0,
            shards,
            stats: RuntimeStats::default(),
            obs: None,
            tick_hook: None,
        })
    }

    fn least_loaded_shard(&self) -> usize {
        (0..self.shards.len())
            .min_by_key(|&s| (self.partition.members(s).len(), s))
            .expect("at least one shard")
    }

    /// Merges the per-shard rankings into the global execution-priority
    /// order: refresh stale caches, then k-way select under the
    /// pipeline's total order, stopping at `top_k` when configured.
    fn merge(&mut self, tick_start: Instant) -> RuntimeReport {
        let merge_start = Instant::now();
        let mut moved = false;
        for shard in &mut self.shards {
            if shard.refresh_cache() {
                self.stats.merge_cache_hits += 1;
            } else {
                moved = true;
            }
        }
        if moved {
            self.revision += 1;
        }
        let cap = self.pipeline.config().top_k.unwrap_or(usize::MAX);
        let total: usize = self.shards.iter().map(|s| s.ranked.len()).sum();
        let mut merged: Vec<ArbitrageOpportunity> = Vec::with_capacity(total.min(cap));
        let mut cursors = vec![0usize; self.shards.len()];
        while merged.len() < cap {
            let mut best: Option<usize> = None;
            for (index, shard) in self.shards.iter().enumerate() {
                let Some(candidate) = shard.ranked.get(cursors[index]) else {
                    continue;
                };
                best = match best {
                    Some(current)
                        if self
                            .pipeline
                            .compare(candidate, &self.shards[current].ranked[cursors[current]])
                            .is_ge() =>
                    {
                        Some(current)
                    }
                    _ => Some(index),
                };
            }
            let Some(winner) = best else { break };
            merged.push(self.shards[winner].ranked[cursors[winner]].clone());
            cursors[winner] += 1;
        }

        self.stats.ticks += 1;
        self.stats.merged_opportunities = merged.len();
        let merge_nanos = merge_start.elapsed().as_nanos() as u64;
        self.stats.last_merge_nanos = merge_nanos;
        self.stats.total_merge_nanos += merge_nanos;
        let tick_nanos = tick_start.elapsed().as_nanos() as u64;
        self.stats.last_tick_nanos = tick_nanos;
        self.stats.total_tick_nanos += tick_nanos;

        let stats = self.stats;
        let shard_count = self.shards.len();
        if let Some(obs) = &mut self.obs {
            obs.tick_ns.record(tick_nanos);
            obs.merge_ns.record(merge_nanos);
            obs.sync(&stats, shard_count);
        }

        RuntimeReport {
            opportunities: merged,
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use arb_amm::fee::FeeRate;
    use arb_amm::token::TokenId;
    use arb_cex::feed::PriceTable;
    use arb_dexsim::units::to_raw;

    fn t(i: u32) -> TokenId {
        TokenId::new(i)
    }

    fn p(i: u32) -> PoolId {
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

    fn sync(pool: u32, a: f64, b: f64) -> Event {
        Event::Sync {
            pool: p(pool),
            reserve_a: to_raw(a),
            reserve_b: to_raw(b),
        }
    }

    /// The oracle shared by every test here: merged output must be
    /// bit-identical to one engine fed the same stream.
    fn assert_matches_single(
        runtime: &ShardedRuntime,
        single: &StreamingEngine,
        merged: &[ArbitrageOpportunity],
    ) {
        let expected = single.ranked();
        assert_eq!(merged.len(), expected.len(), "{}", runtime.stats());
        for (m, e) in merged.iter().zip(&expected) {
            assert_eq!(m.cycle.tokens(), e.cycle.tokens());
            assert_eq!(m.cycle.pools(), e.cycle.pools());
            assert_eq!(m.strategy, e.strategy);
            assert_eq!(
                m.gross_profit.value().to_bits(),
                e.gross_profit.value().to_bits()
            );
            assert_eq!(
                m.net_profit.value().to_bits(),
                e.net_profit.value().to_bits()
            );
        }
    }

    #[test]
    fn cold_start_matches_single_engine() {
        let feed = island_feed();
        let mut runtime =
            ShardedRuntime::new(OpportunityPipeline::default(), island_pools(), 3).unwrap();
        let mut single =
            StreamingEngine::new(OpportunityPipeline::default(), island_pools()).unwrap();
        single.refresh(&feed).unwrap();
        let report = runtime.refresh(&feed).unwrap();
        assert_eq!(runtime.shard_count(), 3);
        assert_matches_single(&runtime, &single, &report.opportunities);
        assert_eq!(report.opportunities.len(), 2, "both triangles arb");
    }

    #[test]
    fn routed_syncs_touch_only_their_shard() {
        let feed = island_feed();
        let mut runtime =
            ShardedRuntime::new(OpportunityPipeline::default(), island_pools(), 3).unwrap();
        runtime.refresh(&feed).unwrap();
        let evaluated_cold = runtime.cycles_evaluated();

        let mut single =
            StreamingEngine::new(OpportunityPipeline::default(), island_pools()).unwrap();
        single.refresh(&feed).unwrap();

        let batch = [sync(3, 1_000.0, 1_060.0)];
        single.apply_events(&batch, &feed).unwrap();
        let report = runtime.apply_events(&batch, &feed).unwrap();
        assert_matches_single(&runtime, &single, &report.opportunities);
        // Only the touched triangle's two directed cycles re-evaluated.
        assert_eq!(runtime.cycles_evaluated() - evaluated_cold, 2);
        // The untouched shards' caches were reused.
        assert!(report.stats.merge_cache_hits >= 2, "{}", report.stats);
    }

    #[test]
    fn pool_created_same_component_stays_put() {
        let feed = island_feed();
        let mut runtime =
            ShardedRuntime::new(OpportunityPipeline::default(), island_pools(), 3).unwrap();
        let mut single =
            StreamingEngine::new(OpportunityPipeline::default(), island_pools()).unwrap();
        runtime.refresh(&feed).unwrap();
        single.refresh(&feed).unwrap();

        // A parallel pool inside the paper triangle's component.
        let created = Event::PoolCreated {
            pool: p(7),
            token_a: t(0),
            token_b: t(1),
            reserve_a: to_raw(150.0),
            reserve_b: to_raw(250.0),
            fee: FeeRate::UNISWAP_V2,
        };
        single.apply_events(&[created], &feed).unwrap();
        let report = runtime.apply_events(&[created], &feed).unwrap();
        assert_eq!(report.stats.rebuilds, 0);
        assert_eq!(report.stats.broadcasts, 1);
        assert_matches_single(&runtime, &single, &report.opportunities);
        assert_eq!(
            runtime.partition().shard_of_pool(p(7)),
            runtime.partition().shard_of_pool(p(0))
        );
    }

    #[test]
    fn bridge_pool_triggers_rebuild_and_stays_equivalent() {
        let feed = island_feed();
        let mut runtime =
            ShardedRuntime::new(OpportunityPipeline::default(), island_pools(), 3).unwrap();
        let mut single =
            StreamingEngine::new(OpportunityPipeline::default(), island_pools()).unwrap();
        runtime.refresh(&feed).unwrap();
        single.refresh(&feed).unwrap();

        // Token 2 (paper triangle) ↔ token 4 (second triangle): merges two
        // shards' components into one.
        let bridge = Event::PoolCreated {
            pool: p(7),
            token_a: t(2),
            token_b: t(4),
            reserve_a: to_raw(100.0),
            reserve_b: to_raw(2_000.0),
            fee: FeeRate::UNISWAP_V2,
        };
        single.apply_events(&[bridge], &feed).unwrap();
        let report = runtime.apply_events(&[bridge], &feed).unwrap();
        assert_eq!(report.stats.rebuilds, 1, "{}", report.stats);
        assert_matches_single(&runtime, &single, &report.opportunities);

        // Follow-up syncs keep working against the repartitioned runtime.
        let batch = [sync(7, 110.0, 1_900.0), sync(0, 101.0, 199.0)];
        single.apply_events(&batch, &feed).unwrap();
        let report = runtime.apply_events(&batch, &feed).unwrap();
        assert_matches_single(&runtime, &single, &report.opportunities);
    }

    #[test]
    fn retire_and_revive_stay_shard_local() {
        let feed = island_feed();
        let mut runtime =
            ShardedRuntime::new(OpportunityPipeline::default(), island_pools(), 3).unwrap();
        let mut single =
            StreamingEngine::new(OpportunityPipeline::default(), island_pools()).unwrap();
        runtime.refresh(&feed).unwrap();
        single.refresh(&feed).unwrap();

        for batch in [
            vec![Event::Sync {
                pool: p(0),
                reserve_a: 0,
                reserve_b: 0,
            }],
            vec![sync(0, 100.0, 200.0)],
        ] {
            single.apply_events(&batch, &feed).unwrap();
            let report = runtime.apply_events(&batch, &feed).unwrap();
            assert_matches_single(&runtime, &single, &report.opportunities);
        }
        assert_eq!(report_rebuilds(&runtime), 0);
    }

    fn report_rebuilds(runtime: &ShardedRuntime) -> usize {
        runtime.stats().rebuilds
    }

    #[test]
    fn set_obs_survives_rebuilds_and_mirrors_stats() {
        let feed = island_feed();
        let obs = arb_obs::Obs::default();
        let mut runtime =
            ShardedRuntime::new(OpportunityPipeline::default(), island_pools(), 3).unwrap();
        runtime.set_obs(&obs);
        runtime.refresh(&feed).unwrap();

        // Bridge pool forces a rebuild that replaces every shard engine;
        // the replacement fleet must keep reporting.
        let bridge = Event::PoolCreated {
            pool: p(7),
            token_a: t(2),
            token_b: t(4),
            reserve_a: to_raw(100.0),
            reserve_b: to_raw(2_000.0),
            fee: FeeRate::UNISWAP_V2,
        };
        runtime.apply_events(&[bridge], &feed).unwrap();
        runtime
            .apply_events(&[sync(7, 110.0, 1_900.0)], &feed)
            .unwrap();

        let snapshot = obs.snapshot();
        assert_eq!(
            snapshot.counter("runtime.ticks"),
            Some(runtime.stats().ticks as u64)
        );
        assert_eq!(snapshot.counter("runtime.rebuilds"), Some(1));
        assert_eq!(
            snapshot.counter("runtime.events_routed"),
            Some(runtime.stats().events_routed as u64)
        );
        // Screen counters flow from the shard engines, cumulatively
        // across the rebuild (the banked totals stay in the registry).
        let screen = runtime.screen_totals();
        assert_eq!(
            snapshot.counter("engine.strategy_evaluations"),
            Some(screen.strategy_evaluations as u64)
        );
        let ticks = snapshot
            .histogram("runtime.tick_ns")
            .expect("tick histogram registered");
        assert_eq!(ticks.count, runtime.stats().ticks as u64);
    }

    #[test]
    fn top_k_merge_matches_global_cut() {
        let config = PipelineConfig {
            top_k: Some(1),
            ..PipelineConfig::default()
        };
        let feed = island_feed();
        let mut runtime =
            ShardedRuntime::new(OpportunityPipeline::new(config), island_pools(), 3).unwrap();
        let mut single =
            StreamingEngine::new(OpportunityPipeline::new(config), island_pools()).unwrap();
        single.refresh(&feed).unwrap();
        let report = runtime.refresh(&feed).unwrap();
        assert_eq!(report.opportunities.len(), 1);
        assert_matches_single(&runtime, &single, &report.opportunities);
    }

    #[test]
    fn unknown_pool_desyncs() {
        let feed = island_feed();
        let mut runtime =
            ShardedRuntime::new(OpportunityPipeline::default(), island_pools(), 2).unwrap();
        let err = runtime
            .apply_events(&[sync(42, 1.0, 1.0)], &feed)
            .unwrap_err();
        assert!(matches!(err, EngineError::Desync(_)), "{err:?}");

        let gap = Event::PoolCreated {
            pool: p(11),
            token_a: t(0),
            token_b: t(9),
            reserve_a: to_raw(1.0),
            reserve_b: to_raw(1.0),
            fee: FeeRate::UNISWAP_V2,
        };
        let err = runtime.apply_events(&[gap], &feed).unwrap_err();
        assert!(matches!(err, EngineError::Desync(_)), "{err:?}");
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let config = PipelineConfig {
            min_cycle_len: 4,
            max_cycle_len: 3,
            ..PipelineConfig::default()
        };
        let err =
            ShardedRuntime::new(OpportunityPipeline::new(config), island_pools(), 2).unwrap_err();
        assert!(matches!(err, EngineError::Config(_)), "{err:?}");
    }

    #[test]
    fn checkpoint_restore_reproduces_merged_ranking() {
        let feed = island_feed();
        let mut runtime =
            ShardedRuntime::new(OpportunityPipeline::default(), island_pools(), 3).unwrap();
        runtime.refresh(&feed).unwrap();
        // Mutate: routed syncs, a broadcast PoolCreated, a retire.
        runtime
            .apply_events(
                &[
                    sync(3, 1_000.0, 1_060.0),
                    Event::PoolCreated {
                        pool: p(7),
                        token_a: t(0),
                        token_b: t(1),
                        reserve_a: to_raw(150.0),
                        reserve_b: to_raw(250.0),
                        fee: FeeRate::UNISWAP_V2,
                    },
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
        assert_eq!(restored.shard_count(), runtime.shard_count());
        assert_eq!(restored.partition(), runtime.partition());
        let back = restored.refresh(&feed).unwrap();
        assert_eq!(back.opportunities.len(), live.opportunities.len());
        assert!(!back.opportunities.is_empty(), "non-vacuous");
        for (a, b) in live.opportunities.iter().zip(&back.opportunities) {
            assert_eq!(a.cycle.tokens(), b.cycle.tokens());
            assert_eq!(a.cycle.pools(), b.cycle.pools());
            assert_eq!(
                a.net_profit.value().to_bits(),
                b.net_profit.value().to_bits()
            );
        }

        // The restored fleet keeps routing and reviving identically.
        let follow_up = [sync(6, 490.0, 510.0), sync(0, 101.0, 199.0)];
        let a = runtime.apply_events(&follow_up, &feed).unwrap();
        let b = restored.apply_events(&follow_up, &feed).unwrap();
        assert_eq!(a.opportunities.len(), b.opportunities.len());
        for (x, y) in a.opportunities.iter().zip(&b.opportunities) {
            assert_eq!(
                x.net_profit.value().to_bits(),
                y.net_profit.value().to_bits()
            );
        }
    }

    #[test]
    fn restore_rejects_inconsistent_checkpoints() {
        let runtime =
            ShardedRuntime::new(OpportunityPipeline::default(), island_pools(), 3).unwrap();
        let good = runtime.checkpoint();

        let mut empty = good.clone();
        empty.shards.clear();
        let err = ShardedRuntime::restore(OpportunityPipeline::default(), &empty).unwrap_err();
        assert!(matches!(err, EngineError::Config(_)), "{err:?}");

        let mut ragged = good.clone();
        ragged.shards[0].slots.pop();
        let err = ShardedRuntime::restore(OpportunityPipeline::default(), &ragged).unwrap_err();
        assert!(err.to_string().contains("slot count"), "{err}");

        let mut bad_owner = good;
        bad_owner.owners[0] = 99;
        let err = ShardedRuntime::restore(OpportunityPipeline::default(), &bad_owner).unwrap_err();
        assert!(matches!(err, EngineError::Graph(_)), "{err:?}");
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
        assert!(line.contains("ticks"), "{line}");
        assert!(line.contains("merge"), "{line}");
        assert!(!line.contains('\n'));
    }
}
