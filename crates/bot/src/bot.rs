//! The per-block scan → evaluate → execute policy, driven by the engine.

use std::sync::Arc;

use arb_cex::feed::PriceFeed;
use arb_core::monetize::Usd;
use arb_core::{ConvexOptimization, MaxMax};
use arb_dexsim::chain::{Chain, EventCursor};
use arb_dexsim::state::AccountId;
use arb_engine::{
    ArbitrageOpportunity, OpportunityPipeline, PipelineConfig, RuntimeStats, ScreenTotals,
    ShardLoads, ShardedRuntime, SharedStrategy, StreamStats, StreamingEngine,
};
use arb_serve::{
    ClientClass, GovernorConfig, GovernorStats, PublishStats, Publisher, ServeHandle, Subscription,
};

use crate::config::{BotConfig, ScanMode, StrategyChoice};
use crate::error::BotError;
use crate::execution;
use crate::obs::{BotObs, ExportSink, ObsConfig};
use crate::scanner;

/// Builds the engine pipeline a bot configuration describes: one sizing
/// strategy, net-profit ranking, and the config's loop-length and
/// profit-floor limits.
pub fn pipeline_for(config: &BotConfig) -> OpportunityPipeline {
    let strategy: SharedStrategy = match config.strategy {
        StrategyChoice::MaxMax => Arc::new(MaxMax {
            method: config.method,
        }),
        StrategyChoice::Convex => Arc::new(ConvexOptimization {
            options: config.convex,
        }),
    };
    OpportunityPipeline::new(PipelineConfig {
        min_cycle_len: 2,
        max_cycle_len: config.max_loop_len,
        execution_cost_usd: 0.0,
        min_net_profit_usd: config.min_profit_usd,
        parallel: config.workers > 1,
        top_k: None,
        ..PipelineConfig::default()
    })
    .with_strategies(vec![strategy])
}

/// What the bot decided to do this block.
#[derive(Debug, Clone)]
pub enum BotAction {
    /// No opportunity above the profit floor.
    Idle,
    /// Submitted a flash bundle with this expected monetized profit.
    Submitted {
        /// Expected profit at evaluation time.
        expected: Usd,
        /// Number of hops in the executed loop.
        hops: usize,
    },
}

/// The bot's live streaming view: an incremental engine plus its
/// position in the chain's event log.
#[derive(Debug)]
struct StreamState {
    engine: StreamingEngine,
    cursor: EventCursor,
}

/// The bot's sharded view: a multi-engine runtime plus its position in
/// the chain's event log.
#[derive(Debug)]
struct ShardedState {
    runtime: ShardedRuntime,
    cursor: EventCursor,
}

/// The arbitrage bot: owns an account, a configuration, and the engine
/// pipeline built from it. In [`ScanMode::Streaming`] it also owns a
/// [`StreamingEngine`] kept in sync with the chain's event stream.
#[derive(Debug)]
pub struct ArbBot {
    account: AccountId,
    config: BotConfig,
    pipeline: OpportunityPipeline,
    stream: Option<StreamState>,
    sharded: Option<ShardedState>,
    serving: Option<Publisher>,
    obs: Option<BotObs>,
}

impl Clone for ArbBot {
    fn clone(&self) -> Self {
        // The pipeline is a pure function of the config; rebuild it. The
        // streaming view re-synchronizes lazily on the clone's first
        // step. The serving side-car and observability are not cloned —
        // readers attach to one publisher, and a clone must opt back in.
        ArbBot {
            account: self.account,
            config: self.config,
            pipeline: pipeline_for(&self.config),
            stream: None,
            sharded: None,
            serving: None,
            obs: None,
        }
    }
}

/// One-line serving telemetry: publish + admission counters.
#[derive(Debug, Clone, Copy)]
pub struct ServeTelemetry {
    /// Serve revision of the currently published snapshot.
    pub revision: u64,
    /// Publisher counters.
    pub publish: PublishStats,
    /// Admission counters.
    pub governor: GovernorStats,
}

impl std::fmt::Display for ServeTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "serve: revision={} publishes={} skipped={} noop_deltas={} {}",
            self.revision,
            self.publish.publishes,
            self.publish.skipped,
            self.publish.noop_deltas,
            self.governor
        )
    }
}

impl ArbBot {
    /// Registers a bot account on the chain.
    pub fn new(chain: &mut Chain, config: BotConfig) -> Self {
        ArbBot {
            account: chain.create_account(),
            pipeline: pipeline_for(&config),
            config,
            stream: None,
            sharded: None,
            serving: None,
            obs: None,
        }
    }

    /// Turns on the serving side-car: every subsequent step publishes
    /// the ranking it acted on as an immutable snapshot readers attach
    /// to via [`ArbBot::serve_handle`] / [`ArbBot::serve_subscribe`].
    /// Idempotent; a second call keeps existing readers attached.
    pub fn enable_serving(&mut self, governor: GovernorConfig) {
        if self.serving.is_none() {
            let mut publisher = Publisher::new(governor);
            if let Some(obs) = &self.obs {
                publisher.set_obs(obs.obs());
            }
            self.serving = Some(publisher);
        }
    }

    /// Turns on observability: one registry + flight recorder shared by
    /// every layer the bot owns. The live market view (streaming engine
    /// or sharded runtime) and the serving publisher are wired
    /// immediately if present, and lazily as they are (re)built; each
    /// step records `bot.step_ns` and the step counters. Idempotent.
    pub fn enable_observability(&mut self, config: ObsConfig) {
        if self.obs.is_some() {
            return;
        }
        let bot_obs = BotObs::new(&config);
        if let Some(state) = &mut self.stream {
            state.engine.set_obs(bot_obs.obs());
        }
        if let Some(state) = &mut self.sharded {
            state.runtime.set_obs(bot_obs.obs());
        }
        if let Some(publisher) = &mut self.serving {
            publisher.set_obs(bot_obs.obs());
        }
        self.obs = Some(bot_obs);
    }

    /// The shared observability handle (`None` until
    /// [`ArbBot::enable_observability`]).
    pub fn obs(&self) -> Option<&arb_obs::Obs> {
        self.obs.as_ref().map(BotObs::obs)
    }

    /// The current registry in Prometheus text format — the body a
    /// `/metrics` pull endpoint would serve. `None` until observability
    /// is enabled.
    pub fn metrics(&self) -> Option<String> {
        self.obs.as_ref().map(|o| o.obs().prometheus_text())
    }

    /// Routes the periodic JSON-lines export (every
    /// [`ObsConfig::export_every_steps`] steps) into `sink`. No-op
    /// until observability is enabled.
    pub fn set_obs_export(&mut self, sink: ExportSink) {
        if let Some(obs) = &mut self.obs {
            obs.set_sink(sink);
        }
    }

    /// A wait-free reader handle in `class` (`None` until
    /// [`ArbBot::enable_serving`]).
    pub fn serve_handle(&self, class: ClientClass) -> Option<ServeHandle> {
        self.serving.as_ref().map(|p| p.handle(class))
    }

    /// A ranking-delta subscription (`None` until serving is enabled).
    pub fn serve_subscribe(&self) -> Option<Subscription> {
        self.serving.as_ref().map(Publisher::subscribe)
    }

    /// Serving telemetry one-liner (`None` until serving is enabled).
    pub fn serve_stats(&self) -> Option<ServeTelemetry> {
        self.serving.as_ref().map(|p| ServeTelemetry {
            revision: p.revision(),
            publish: p.stats(),
            governor: p.governor_stats(),
        })
    }

    /// The bot's account.
    pub fn account(&self) -> AccountId {
        self.account
    }

    /// The configuration.
    pub fn config(&self) -> &BotConfig {
        &self.config
    }

    /// Streaming counters, once the event-driven view is live (`None` in
    /// batch mode and before the first streaming step).
    pub fn stream_stats(&self) -> Option<&StreamStats> {
        self.stream.as_ref().map(|s| s.engine.stats())
    }

    /// Sharded-runtime counters, once the sharded view is live (`None`
    /// outside [`ScanMode::Sharded`] and before the first sharded step).
    pub fn runtime_stats(&self) -> Option<&RuntimeStats> {
        self.sharded.as_ref().map(|s| s.runtime.stats())
    }

    /// Realized shard count of the live sharded view, if any.
    pub fn shard_count(&self) -> Option<usize> {
        self.sharded.as_ref().map(|s| s.runtime.shard_count())
    }

    /// Cumulative screen-discharge totals of the live market view: the
    /// sharded fleet's rebuild-surviving totals in [`ScanMode::Sharded`],
    /// or the streaming engine's own counters in [`ScanMode::Streaming`],
    /// in one [`ScreenTotals`] `Display` line. `None` in batch mode and
    /// before the first step.
    pub fn screen_totals(&self) -> Option<ScreenTotals> {
        if let Some(state) = &self.sharded {
            return Some(state.runtime.screen_totals());
        }
        self.stream.as_ref().map(|state| {
            let mut totals = ScreenTotals::default();
            totals.add_stats(state.engine.stats());
            totals
        })
    }

    /// Per-shard load picture of the live sharded view — routed events in
    /// the current observation window, cumulative evaluations, and the
    /// rebalance count — as one [`ShardLoads`] `Display` line. `None`
    /// outside [`ScanMode::Sharded`] and before the first sharded step.
    pub fn shard_loads(&self) -> Option<ShardLoads> {
        self.sharded.as_ref().map(|s| s.runtime.shard_loads())
    }

    /// One decision step: bring the market view current (incrementally in
    /// [`ScanMode::Streaming`], by full rescan in [`ScanMode::Batch`]) and
    /// submit a flash bundle for the best executable opportunity.
    ///
    /// The transaction is only *submitted*; the caller mines the block.
    ///
    /// # Errors
    ///
    /// Fails on discovery errors, not on unprofitable markets (those
    /// yield [`BotAction::Idle`]).
    pub fn step<F: PriceFeed + Sync>(
        &mut self,
        chain: &mut Chain,
        feed: &F,
    ) -> Result<BotAction, BotError> {
        let step_timer = self.obs.as_ref().map(BotObs::step_timer);
        let step_span = step_timer.as_ref().map(arb_obs::SpanTimer::start);
        let opportunities = match self.config.mode {
            ScanMode::Batch => scanner::discover(chain, &self.pipeline, feed)?.opportunities,
            ScanMode::Streaming => self.streaming_opportunities(chain, feed)?,
            ScanMode::Sharded => self.sharded_opportunities(chain, feed)?,
        };
        self.publish(&opportunities);
        let action = execution::submit_best(chain, self.account, &opportunities)?;
        drop(step_span);
        if let Some(obs) = &mut self.obs {
            obs.after_step(matches!(action, BotAction::Submitted { .. }));
        }
        Ok(action)
    }

    /// Publishes the ranking this step acted on, when serving is
    /// enabled. Incremental views key the publish on their standing
    /// revision so quiet steps skip; batch scans (including the desync
    /// fallback, which drops the incremental view) have no revision to
    /// anchor on and re-publish unconditionally.
    fn publish(&mut self, opportunities: &[ArbitrageOpportunity]) {
        let Some(publisher) = self.serving.as_mut() else {
            return;
        };
        let source = match self.config.mode {
            ScanMode::Sharded => self.sharded.as_ref().map(|s| s.runtime.standing_revision()),
            ScanMode::Streaming => self.stream.as_ref().map(|s| s.engine.standing_revision()),
            ScanMode::Batch => None,
        };
        match source {
            Some(revision) => {
                publisher.publish_if_changed(revision, opportunities);
            }
            None => {
                publisher.reanchor();
                publisher.publish(opportunities.to_vec());
            }
        }
    }

    /// The event-driven path: drain new chain events into the streaming
    /// engine and return its standing ranking. The first step pays one
    /// full build (cold start); a desynchronized stream is dropped and
    /// the step falls back to a batch scan, re-synchronizing next step.
    fn streaming_opportunities<F: PriceFeed>(
        &mut self,
        chain: &Chain,
        feed: &F,
    ) -> Result<Vec<ArbitrageOpportunity>, BotError> {
        if self.stream.is_none() {
            let mut state = self.build_stream(chain)?;
            if let Some(obs) = &self.obs {
                state.engine.set_obs(obs.obs());
            }
            self.stream = Some(state);
        }
        let state = self.stream.as_mut().expect("initialized above");
        let events = chain.drain_events(&mut state.cursor);
        match state.engine.apply_events(&events, feed) {
            Ok(report) => Ok(report.opportunities),
            Err(_) => {
                // Fallback path: drop the stale view, serve this block
                // from a full rescan, rebuild the stream next step.
                self.stream = None;
                Ok(scanner::discover(chain, &self.pipeline, feed)?.opportunities)
            }
        }
    }

    /// Builds a streaming engine over the chain's *current* pool set and
    /// subscribes at the current end of the event log, so the pair stays
    /// consistent: state now + every event after now. Degenerate pools
    /// enter as retired slots (keeping `PoolId`s chain-aligned) and
    /// revive through their next valid `Sync`.
    fn build_stream(&self, chain: &Chain) -> Result<StreamState, BotError> {
        let graph = scanner::graph_from_chain(chain)?;
        let engine = StreamingEngine::with_graph(pipeline_for(&self.config), graph)
            .map_err(BotError::from)?;
        Ok(StreamState {
            engine,
            cursor: chain.subscribe(),
        })
    }

    /// The sharded path: drain new chain events into the multi-engine
    /// runtime and return the merged global ranking. Cold start and
    /// desync fallback mirror [`ArbBot::streaming_opportunities`].
    fn sharded_opportunities<F: PriceFeed + Sync>(
        &mut self,
        chain: &Chain,
        feed: &F,
    ) -> Result<Vec<ArbitrageOpportunity>, BotError> {
        if self.sharded.is_none() {
            let mut state = self.build_sharded(chain)?;
            if let Some(obs) = &self.obs {
                state.runtime.set_obs(obs.obs());
            }
            self.sharded = Some(state);
        }
        let state = self.sharded.as_mut().expect("initialized above");
        let events = chain.drain_events(&mut state.cursor);
        match state.runtime.apply_events(&events, feed) {
            Ok(report) => Ok(report.opportunities),
            Err(_) => {
                // Fallback path: drop the stale fleet, serve this block
                // from a full rescan, rebuild the runtime next step.
                self.sharded = None;
                Ok(scanner::discover(chain, &self.pipeline, feed)?.opportunities)
            }
        }
    }

    /// Builds the sharded runtime over the chain's current pool set (the
    /// same slot-aligned graph the streaming engine mirrors) and
    /// subscribes at the current end of the event log.
    fn build_sharded(&self, chain: &Chain) -> Result<ShardedState, BotError> {
        let graph = scanner::graph_from_chain(chain)?;
        let runtime =
            ShardedRuntime::with_graph(pipeline_for(&self.config), graph, self.config.shards)
                .map_err(BotError::from)?;
        Ok(ShardedState {
            runtime,
            cursor: chain.subscribe(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{drive, funded_whale, paper_chain, paper_feed, t};
    use arb_amm::fee::FeeRate;
    use arb_cex::feed::PriceTable;
    use arb_dexsim::tx::Transaction;
    use arb_dexsim::units::to_raw;

    #[test]
    fn maxmax_bot_extracts_paper_profit() {
        let mut chain = paper_chain();
        let mut bot = ArbBot::new(&mut chain, BotConfig::default());
        let action = bot.step(&mut chain, &paper_feed()).unwrap();
        let BotAction::Submitted { expected, hops } = action else {
            panic!("expected a submission");
        };
        assert_eq!(hops, 3);
        // MaxMax expects ≈ $205.6.
        assert!((expected.value() - 205.6).abs() < 1.0, "{expected}");
        let block = chain.mine_block();
        assert!(block.receipts[0].success, "{:?}", block.receipts[0].error);
        // Profit banked in token Z (start of the winning rotation).
        assert!(chain.state().balance(bot.account(), t(2)) > to_raw(10.0));
    }

    #[test]
    fn convex_bot_extracts_more() {
        let mut chain = paper_chain();
        let mut bot = ArbBot::new(
            &mut chain,
            BotConfig {
                strategy: StrategyChoice::Convex,
                ..BotConfig::default()
            },
        );
        let action = bot.step(&mut chain, &paper_feed()).unwrap();
        let BotAction::Submitted { expected, .. } = action else {
            panic!("expected a submission");
        };
        assert!((expected.value() - 206.1).abs() < 1.0, "{expected}");
        let block = chain.mine_block();
        assert!(block.receipts[0].success, "{:?}", block.receipts[0].error);
        let y = chain.state().balance(bot.account(), t(1));
        let z = chain.state().balance(bot.account(), t(2));
        assert!(y > 0 && z > 0, "convex profit spread across tokens");
    }

    #[test]
    fn idle_when_market_is_balanced() {
        let mut chain = Chain::new();
        let fee = FeeRate::UNISWAP_V2;
        for (a, b) in [(0, 1), (1, 2), (2, 0)] {
            chain
                .add_pool(t(a), t(b), to_raw(1_000.0), to_raw(1_000.0), fee)
                .unwrap();
        }
        let mut bot = ArbBot::new(&mut chain, BotConfig::default());
        let action = bot.step(&mut chain, &paper_feed()).unwrap();
        assert!(matches!(action, BotAction::Idle));
        assert_eq!(chain.pending(), 0);
    }

    #[test]
    fn profit_floor_filters_small_opportunities() {
        let mut chain = paper_chain();
        let mut bot = ArbBot::new(
            &mut chain,
            BotConfig {
                min_profit_usd: 1_000.0, // above the ~$206 available
                ..BotConfig::default()
            },
        );
        let action = bot.step(&mut chain, &paper_feed()).unwrap();
        assert!(matches!(action, BotAction::Idle));
    }

    #[test]
    fn unpriced_tokens_are_skipped() {
        let mut chain = paper_chain();
        let mut bot = ArbBot::new(&mut chain, BotConfig::default());
        let empty = PriceTable::new();
        let action = bot.step(&mut chain, &empty).unwrap();
        assert!(matches!(action, BotAction::Idle));
    }

    #[test]
    fn streaming_and_batch_bots_make_identical_decisions() {
        // Same chain, same feed, same seed of perturbations: the
        // event-driven bot must submit exactly what the rescan bot does.
        let run = |mode: ScanMode| {
            let mut chain = paper_chain();
            let mut bot = ArbBot::new(
                &mut chain,
                BotConfig {
                    mode,
                    ..BotConfig::default()
                },
            );
            // A whale trade perturbs pool 0 between bot steps.
            let whale = funded_whale(&mut chain);
            let actions = drive(&mut chain, whale, 0..6, |chain, _| {
                bot.step(chain, &paper_feed()).unwrap()
            });
            (actions, chain.state().digest())
        };
        let (streaming_actions, streaming_digest) = run(ScanMode::Streaming);
        let (batch_actions, batch_digest) = run(ScanMode::Batch);
        let (sharded_actions, sharded_digest) = run(ScanMode::Sharded);
        assert_eq!(streaming_actions, batch_actions);
        assert_eq!(streaming_digest, batch_digest);
        assert_eq!(sharded_actions, batch_actions);
        assert_eq!(sharded_digest, batch_digest);
        assert!(
            streaming_actions.iter().any(Option::is_some),
            "perturbations should open executable opportunities"
        );
    }

    #[test]
    fn sharded_bot_tracks_events_and_reports_runtime_stats() {
        let mut chain = paper_chain();
        // A second, disjoint triangle so the partition has two components.
        let fee = FeeRate::UNISWAP_V2;
        for (a, b) in [(3, 4), (4, 5), (5, 3)] {
            chain
                .add_pool(t(a), t(b), to_raw(1_000.0), to_raw(1_010.0), fee)
                .unwrap();
        }
        let mut feed = paper_feed();
        feed.extend((3..6).map(|i| (t(i), 1.0)));
        let mut bot = ArbBot::new(
            &mut chain,
            BotConfig {
                mode: ScanMode::Sharded,
                shards: 2,
                ..BotConfig::default()
            },
        );
        assert!(bot.runtime_stats().is_none());
        bot.step(&mut chain, &feed).unwrap();
        chain.mine_block();
        assert_eq!(bot.shard_count(), Some(2));

        // Whale flow between steps reaches the owning shard as events.
        let whale = chain.create_account();
        chain.mint(whale, t(0), to_raw(50.0));
        chain.submit(Transaction::Swap {
            account: whale,
            pool: arb_amm::pool::PoolId::new(0),
            token_in: t(0),
            amount_in: to_raw(5.0),
            min_out: 0,
        });
        chain.mine_block();
        bot.step(&mut chain, &feed).unwrap();
        let stats = bot.runtime_stats().unwrap();
        assert!(stats.ticks >= 2, "{stats}");
        assert!(stats.events_routed > 0, "{stats}");

        // Telemetry one-liners: screen totals and the per-shard loads.
        let totals = bot.screen_totals().unwrap();
        let line = totals.to_string();
        assert!(line.contains("screened"), "{line}");
        assert!(!line.contains('\n'));
        let loads = bot.shard_loads().unwrap();
        assert_eq!(loads.window_events.len(), 2);
        assert!(loads.window_events.iter().sum::<u64>() > 0, "{loads}");
        assert_eq!(loads.rebalances, 0);
        assert!(!loads.to_string().contains('\n'));
    }

    #[test]
    fn serving_bot_publishes_the_ranking_it_acts_on() {
        let mut chain = paper_chain();
        let mut bot = ArbBot::new(
            &mut chain,
            BotConfig {
                mode: ScanMode::Sharded,
                ..BotConfig::default()
            },
        );
        assert!(bot.serve_handle(ClientClass::Interactive).is_none());
        assert!(bot.serve_stats().is_none());
        bot.enable_serving(GovernorConfig::default());
        let handle = bot.serve_handle(ClientClass::Interactive).unwrap();
        assert_eq!(handle.load().revision(), 0, "nothing published yet");

        bot.step(&mut chain, &paper_feed()).unwrap();
        let published = handle.load();
        assert_eq!(published.revision(), 1);
        assert_eq!(published.len(), 1, "the paper triangle ranks once");
        // Bit-identical to what the engine would rank right now.
        let guard = handle.query().unwrap();
        assert_eq!(
            guard.top_k(1)[0].net_profit.value().to_bits(),
            published.entries()[0].net_profit.value().to_bits()
        );
        drop(guard);

        // A quiet step (the bundle is pending, not mined, so no chain
        // events arrive) publishes nothing new.
        bot.step(&mut chain, &paper_feed()).unwrap();
        let stats = bot.serve_stats().unwrap();
        assert_eq!(stats.revision, 1, "{stats}");
        assert_eq!(stats.publish.skipped, 1);
        assert!(stats.governor.admitted[0] >= 1);
        let line = stats.to_string();
        assert!(line.contains("serve:"), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn telemetry_is_none_before_first_step() {
        let mut chain = paper_chain();
        let mut bot = ArbBot::new(&mut chain, BotConfig::default());
        assert!(bot.screen_totals().is_none());
        assert!(bot.shard_loads().is_none());
        // The default mode is streaming: after a step the screen totals
        // surface through the same accessor, loads stay sharded-only.
        bot.step(&mut chain, &paper_feed()).unwrap();
        assert!(bot.stream_stats().is_some());
        assert!(bot.screen_totals().is_some());
        assert!(bot.shard_loads().is_none());
    }

    #[test]
    fn streaming_bot_tracks_pools_created_after_cold_start() {
        let mut chain = paper_chain();
        let mut bot = ArbBot::new(&mut chain, BotConfig::default());
        // Cold start over the original triangle.
        bot.step(&mut chain, &paper_feed()).unwrap();
        chain.mine_block();
        assert!(bot.stream_stats().is_some());

        // A new pool arrives as an event, not a re-snapshot.
        chain
            .add_pool(t(0), t(1), to_raw(90.0), to_raw(210.0), FeeRate::UNISWAP_V2)
            .unwrap();
        bot.step(&mut chain, &paper_feed()).unwrap();
        let stats = bot.stream_stats().unwrap();
        assert_eq!(stats.pools_added, 1);
        assert!(stats.cycles_added > 0, "{stats}");
    }

    #[test]
    fn pipeline_reflects_config() {
        let maxmax = pipeline_for(&BotConfig::default());
        assert_eq!(maxmax.strategy_names(), vec!["maxmax"]);
        let convex = pipeline_for(&BotConfig {
            strategy: StrategyChoice::Convex,
            max_loop_len: 4,
            ..BotConfig::default()
        });
        assert_eq!(convex.strategy_names(), vec!["convex"]);
        assert_eq!(convex.config().max_cycle_len, 4);
    }
}
