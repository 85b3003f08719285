//! The runtime: one [`StreamingEngine`] over the whole pool universe,
//! plus the revision, counters and observability the layers above key
//! on.
//!
//! ```text
//! events ──▶ StreamingEngine::advance ──▶ StreamingEngine::ranked ──▶ RuntimeReport
//!            (apply, screen, evaluate      (memoized per engine
//!             dirty cycles on the           standing revision)
//!             worker pool)
//! ```
//!
//! Every paper strategy runs per cycle (eq. 8), so the engine's
//! evaluation already fans out over the process-wide worker pool; there
//! is no serial section left for a second engine to parallelize. A new
//! pool — wherever it attaches — only dirties the cycles it closes, so a
//! pool that joins two components costs those cycles and nothing more.
//!
//! The type keeps its historical name and constructor shape; the output
//! of [`ShardedRuntime::apply_events`] is by construction identical to a
//! [`StreamingEngine`] fed the same event stream
//! (`tests/runtime_equivalence.rs` checks it across the workload
//! catalog).

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use arb_amm::pool::Pool;
use arb_cex::feed::PriceFeed;
use arb_dexsim::events::Event;
use arb_graph::TokenGraph;
use arb_obs::{Counter, Gauge, Histogram, Obs};

use crate::checkpoint::RuntimeCheckpoint;
use crate::error::EngineError;
use crate::opportunity::ArbitrageOpportunity;
use crate::pipeline::OpportunityPipeline;
use crate::streaming::StreamingEngine;

/// A hook invoked at the start of every tick, before the engine sees the
/// tick's events — the seam fault-injection harnesses use to make a tick
/// slow or panic at a chosen tick, without the runtime knowing anything
/// about chaos plans.
///
/// Invoked on the caller's thread, so a panicking hook unwinds there
/// with the engine untouched. Hooks are **not** part of checkpoints: a
/// recovered runtime starts with no hook, and supervisors re-install
/// theirs after rebuild.
pub trait TickHook: Send + Sync + fmt::Debug {
    /// Called once per tick with the runtime's tick counter (completed
    /// [`ShardedRuntime::apply_events`] calls, so the first tick is 0).
    fn before_tick(&self, tick: u64);
}

/// Cumulative counters for one runtime's lifetime.
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
}

impl fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ticks, {} standing opportunities, last tick {}ns (merge {}ns)",
            self.ticks, self.merged_opportunities, self.last_tick_nanos, self.last_merge_nanos
        )
    }
}

/// The engine's profitability-screen counters, cumulative for the
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

/// Pre-resolved registry instruments for the runtime.
#[derive(Debug)]
struct RuntimeObs {
    tick_ns: Histogram,
    merge_ns: Histogram,
    ticks: Counter,
    merged_opportunities: Gauge,
}

impl RuntimeObs {
    fn new(obs: &Obs) -> Self {
        let registry = obs.registry();
        RuntimeObs {
            tick_ns: registry.histogram("runtime.tick_ns"),
            merge_ns: registry.histogram("runtime.merge_ns"),
            ticks: registry.counter("runtime.ticks"),
            merged_opportunities: registry.gauge("runtime.merged_opportunities"),
        }
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

/// One streaming engine plus the runtime's revision, counters and
/// observability. See the module docs;
/// [`ShardedRuntime::apply_events`] is the whole interface.
#[derive(Debug)]
pub struct ShardedRuntime {
    engine: StreamingEngine,
    /// The engine's standing revision as of the last ranking step.
    engine_revision: u64,
    /// Bumped whenever a ranking step saw the engine's standing set move
    /// (see [`ShardedRuntime::standing_revision`]).
    revision: u64,
    stats: RuntimeStats,
    /// Registry instruments, when observability is attached
    /// ([`ShardedRuntime::set_obs`]).
    obs: Option<RuntimeObs>,
    /// Pre-tick hook ([`ShardedRuntime::set_tick_hook`]).
    tick_hook: Option<Arc<dyn TickHook>>,
}

impl ShardedRuntime {
    /// Builds the runtime over an initial pool universe. The engine
    /// starts cold; the first [`ShardedRuntime::refresh`] produces the
    /// full ranking. The third argument is ignored (it once capped a
    /// shard count) and kept so existing callers still compile.
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
    /// contain retired slots (a chain mirror with degenerate pools).
    ///
    /// # Errors
    ///
    /// See [`ShardedRuntime::new`].
    pub fn with_graph(
        pipeline: OpportunityPipeline,
        graph: TokenGraph,
    ) -> Result<Self, EngineError> {
        Ok(Self::around(StreamingEngine::with_graph(pipeline, graph)?))
    }

    fn around(engine: StreamingEngine) -> Self {
        ShardedRuntime {
            engine_revision: engine.standing_revision(),
            engine,
            revision: 0,
            stats: RuntimeStats::default(),
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

    /// Attaches observability: `runtime.ticks` and
    /// `runtime.merged_opportunities` mirror [`RuntimeStats`],
    /// `runtime.tick_ns`/`runtime.merge_ns` histograms record every tick,
    /// and the engine reports its counters and refresh/rank spans under
    /// `engine.*`.
    pub fn set_obs(&mut self, obs: &Obs) {
        let runtime_obs = RuntimeObs::new(obs);
        runtime_obs.ticks.add(self.stats.ticks as u64);
        runtime_obs
            .merged_opportunities
            .set(self.stats.merged_opportunities as f64);
        self.obs = Some(runtime_obs);
        self.engine.set_obs(obs);
    }

    /// Cumulative runtime counters.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// The engine behind the runtime.
    pub fn engine(&self) -> &StreamingEngine {
        &self.engine
    }

    /// Monotone revision of the standing set. Bumped exactly when a tick
    /// observed the engine's standing ranking move, so two calls
    /// returning the same value bracket a window in which
    /// [`ShardedRuntime::apply_events`] rankings were unchanged.
    /// Restored runtimes restart at zero; serving layers that survive a
    /// restore must re-anchor rather than compare across the gap.
    pub fn standing_revision(&self) -> u64 {
        self.revision
    }

    /// Live cycles in the universe.
    pub fn live_cycles(&self) -> usize {
        self.engine.index().live_cycles()
    }

    /// Dirty cycles evaluated since construction (or restore).
    pub fn cycles_evaluated(&self) -> usize {
        self.engine.stats().cycles_evaluated
    }

    /// Profitability-screen counters since construction (or restore).
    pub fn screen_totals(&self) -> ScreenTotals {
        let stats = self.engine.stats();
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

    /// Applies a batch of chain events, brings the standing set current
    /// against `feed`, and returns the ranking: exactly what
    /// [`StreamingEngine::apply_events`] returns for the same batch.
    ///
    /// # Errors
    ///
    /// * [`EngineError::Desync`] — an event references a pool the engine
    ///   never saw, or a `PoolCreated` arrived out of slot order; rebuild
    ///   from a fresh snapshot.
    /// * [`EngineError::Graph`] / [`EngineError::Strategy`] — forwarded
    ///   engine failures. The engine may have partially applied the
    ///   batch; treat the runtime as desynchronized and rebuild.
    pub fn apply_events<F: PriceFeed + Sync>(
        &mut self,
        events: &[Event],
        feed: &F,
    ) -> Result<RuntimeReport, EngineError> {
        let tick_start = Instant::now();
        if let Some(hook) = &self.tick_hook {
            hook.before_tick(self.stats.ticks as u64);
        }
        self.engine.advance(events, feed)?;

        let rank_start = Instant::now();
        let engine_revision = self.engine.standing_revision();
        if engine_revision != self.engine_revision {
            self.engine_revision = engine_revision;
            self.revision += 1;
        }
        let opportunities = self.engine.ranked();

        let merge_nanos = rank_start.elapsed().as_nanos() as u64;
        let tick_nanos = tick_start.elapsed().as_nanos() as u64;
        let stats = &mut self.stats;
        stats.ticks += 1;
        stats.merged_opportunities = opportunities.len();
        stats.last_merge_nanos = merge_nanos;
        stats.total_merge_nanos += merge_nanos;
        stats.last_tick_nanos = tick_nanos;
        stats.total_tick_nanos += tick_nanos;
        if let Some(obs) = &self.obs {
            obs.tick_ns.record(tick_nanos);
            obs.merge_ns.record(merge_nanos);
            obs.ticks.add(1);
            obs.merged_opportunities.set(opportunities.len() as f64);
        }
        Ok(RuntimeReport {
            opportunities,
            stats: self.stats,
        })
    }

    /// Brings the engine current against `feed` (re-evaluating cycles
    /// whose token prices moved) and returns the ranking.
    ///
    /// # Errors
    ///
    /// See [`ShardedRuntime::apply_events`].
    pub fn refresh<F: PriceFeed + Sync>(&mut self, feed: &F) -> Result<RuntimeReport, EngineError> {
        self.apply_events(&[], feed)
    }

    /// Captures the runtime's durable state: the engine's checkpoint.
    /// Call between ticks; the capture is pure and cheap relative to a
    /// tick.
    pub fn checkpoint(&self) -> RuntimeCheckpoint {
        RuntimeCheckpoint {
            engine: self.engine.checkpoint(),
            feed: Vec::new(),
            source_positions: Vec::new(),
        }
    }

    /// Rebuilds a runtime from a checkpoint
    /// ([`StreamingEngine::restore`]). Cumulative [`RuntimeStats`]
    /// restart from zero; the first refresh reproduces the checkpointed
    /// ranking bit-for-bit under the same feed.
    ///
    /// # Errors
    ///
    /// * [`EngineError::Config`] — invalid pipeline config, or cycle
    ///   bounds that contradict the checkpoint's.
    /// * [`EngineError::Graph`] — the checkpoint fails validation
    ///   ([`arb_graph::GraphError::InvalidCheckpoint`]).
    pub fn restore(
        pipeline: OpportunityPipeline,
        checkpoint: &RuntimeCheckpoint,
    ) -> Result<Self, EngineError> {
        Ok(Self::around(StreamingEngine::restore(
            pipeline,
            &checkpoint.engine,
        )?))
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

    /// The oracle shared by every test here: the runtime's output must be
    /// bit-identical to one engine fed the same stream.
    fn assert_matches_single(
        runtime: &ShardedRuntime,
        single: &StreamingEngine,
        ranked: &[ArbitrageOpportunity],
    ) {
        let expected = single.ranked();
        assert_eq!(ranked.len(), expected.len(), "{}", runtime.stats());
        for (m, e) in ranked.iter().zip(&expected) {
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

    /// A runtime and a single engine over the islands, both refreshed.
    /// The runtime is asked for one shard per island (3), an argument it
    /// ignores, so a runtime that did shard would fail these tests.
    fn refreshed_pair(config: PipelineConfig) -> (ShardedRuntime, StreamingEngine) {
        let feed = island_feed();
        let mut runtime =
            ShardedRuntime::new(OpportunityPipeline::new(config), island_pools(), 3).unwrap();
        let mut single =
            StreamingEngine::new(OpportunityPipeline::new(config), island_pools()).unwrap();
        runtime.refresh(&feed).unwrap();
        single.refresh(&feed).unwrap();
        (runtime, single)
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
        assert_matches_single(&runtime, &single, &report.opportunities);
        assert_eq!(report.opportunities.len(), 2, "both triangles arb");
        assert_eq!(runtime.standing_revision(), 1);
    }

    #[test]
    fn syncs_reevaluate_only_the_touched_cycles() {
        let feed = island_feed();
        let (mut runtime, mut single) = refreshed_pair(PipelineConfig::default());
        let evaluated_cold = runtime.cycles_evaluated();

        let batch = [sync(3, 1_000.0, 1_060.0)];
        single.apply_events(&batch, &feed).unwrap();
        let report = runtime.apply_events(&batch, &feed).unwrap();
        assert_matches_single(&runtime, &single, &report.opportunities);
        // Only the touched triangle's two directed cycles re-evaluated.
        assert_eq!(runtime.cycles_evaluated() - evaluated_cold, 2);
    }

    #[test]
    fn pool_created_same_component_stays_put() {
        let feed = island_feed();
        let (mut runtime, mut single) = refreshed_pair(PipelineConfig::default());

        // A parallel pool inside the paper triangle's component.
        let batch = [created(7, 0, 1, 150.0, 250.0)];
        single.apply_events(&batch, &feed).unwrap();
        let report = runtime.apply_events(&batch, &feed).unwrap();
        assert_eq!(report.stats.rebuilds, 0);
        assert_matches_single(&runtime, &single, &report.opportunities);
    }

    #[test]
    fn bridge_pool_is_not_a_cold_refresh() {
        let feed = island_feed();
        let (mut runtime, mut single) = refreshed_pair(PipelineConfig::default());

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
            single.apply_events(&batch, &feed).unwrap();
            let report = runtime.apply_events(&batch, &feed).unwrap();
            assert_matches_single(&runtime, &single, &report.opportunities);
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
        let (mut runtime, mut single) = refreshed_pair(PipelineConfig::default());

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
        assert_eq!(
            snapshot.counter("runtime.ticks"),
            Some(runtime.stats().ticks as u64)
        );
        assert_eq!(
            snapshot.gauge("runtime.merged_opportunities"),
            Some(runtime.stats().merged_opportunities as f64)
        );
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
        let (mut runtime, single) = refreshed_pair(config);
        let report = runtime.refresh(&island_feed()).unwrap();
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

        let mut runtime =
            ShardedRuntime::new(OpportunityPipeline::default(), island_pools(), 2).unwrap();
        let gap = created(11, 0, 9, 1.0, 1.0);
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

        // The restored runtime keeps applying and reviving identically.
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

        let mut dangling = good.clone();
        dangling.engine.slots.truncate(2);
        let err = ShardedRuntime::restore(OpportunityPipeline::default(), &dangling).unwrap_err();
        assert!(matches!(err, EngineError::Graph(_)), "{err:?}");

        let config = PipelineConfig {
            max_cycle_len: 4,
            ..PipelineConfig::default()
        };
        let err = ShardedRuntime::restore(OpportunityPipeline::new(config), &good).unwrap_err();
        assert!(matches!(err, EngineError::Config(_)), "{err:?}");
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
