//! The bot's one step loop: stage the block's feed moves and chain
//! events, seal them, apply the sealed block to the runtime,
//! rank, and execute the best plan atomically.

use std::sync::Arc;

use arb_amm::token::TokenId;
use arb_cex::feed::PriceTable;
use arb_core::monetize::Usd;
use arb_core::{ConvexOptimization, MaxMax};
use arb_dexsim::chain::{Chain, EventCursor};
use arb_dexsim::state::AccountId;
use arb_engine::{
    ArbitrageOpportunity, OpportunityPipeline, PipelineConfig, ShardedRuntime, SharedStrategy,
    TickHook,
};
use arb_ingest::{IngestConfig, IngestDriver, IngestStats, Ingestor, SourceId};
use arb_serve::{
    ClientClass, GovernorConfig, GovernorStats, PublishStats, Publisher, ServeHandle, Subscription,
};

use crate::config::{BotConfig, StrategyChoice};
use crate::error::BotError;
use crate::execution;
use crate::ingest_bot::Journal;
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
        top_k: None,
        ..PipelineConfig::default()
    })
    .with_strategies(vec![strategy])
}

/// A price table as feed moves, sorted by token so the staged (and
/// journaled) order is deterministic.
pub(crate) fn sorted_prices(feed: &PriceTable) -> Vec<(TokenId, f64)> {
    let mut prices: Vec<(TokenId, f64)> = feed.iter().collect();
    prices.sort_unstable_by_key(|(token, _)| token.index());
    prices
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

/// The bot's market view: the ingest front-end with one source for the
/// CEX feed and one for the chain, the driver that applies each sealed
/// block to the runtime, and the bot's position in the chain's
/// event log.
#[derive(Debug)]
pub(crate) struct MarketView {
    pub(crate) ingestor: Ingestor,
    pub(crate) driver: IngestDriver,
    feed_source: SourceId,
    chain_source: SourceId,
    pub(crate) cursor: EventCursor,
}

impl MarketView {
    /// Registers the feed source ahead of the chain source (a block's
    /// feed moves apply before its events) around an already-current
    /// runtime and price table.
    pub(crate) fn new(
        mut ingestor: Ingestor,
        runtime: ShardedRuntime,
        feed: PriceTable,
        cursor: EventCursor,
    ) -> Self {
        let feed_source = ingestor.register_source("cex-feed");
        let chain_source = ingestor.register_source("dexsim");
        let driver = IngestDriver::new(runtime, feed, ingestor.handle());
        MarketView {
            ingestor,
            driver,
            feed_source,
            chain_source,
            cursor,
        }
    }

    /// A view over the chain's *current* pool set, subscribed at the
    /// current end of its event log: state now + every event after now.
    /// Degenerate pools enter as retired slots (keeping `PoolId`s
    /// chain-aligned) and revive through their next valid `Sync`.
    pub(crate) fn from_chain(
        chain: &Chain,
        feed: PriceTable,
        config: &BotConfig,
        ingestor: Ingestor,
    ) -> Result<Self, BotError> {
        let graph = scanner::graph_from_chain(chain)?;
        let runtime = ShardedRuntime::with_graph(pipeline_for(config), graph)?;
        Ok(MarketView::new(ingestor, runtime, feed, chain.subscribe()))
    }

    /// Stages one block's feed moves and chain events and seals them
    /// into one batch (journaled first when a journal is attached).
    pub(crate) fn seal(
        &mut self,
        feed_moves: &[(TokenId, f64)],
        events: Vec<arb_dexsim::events::Event>,
    ) -> Result<(), BotError> {
        self.ingestor
            .offer_feed_moves(self.feed_source, feed_moves)?;
        self.ingestor.offer(self.chain_source, events)?;
        self.ingestor.seal_block()?;
        Ok(())
    }
}

/// The arbitrage bot: an account, a configuration, and one ingest-fed
/// market view (`Ingestor → IngestDriver → ShardedRuntime`) it advances
/// and acts on every block. Durability is chosen by the constructor:
/// [`ArbBot::new`] runs without a journal, [`ArbBot::attach`] and
/// [`ArbBot::recover`] journal every sealed block and checkpoint the
/// runtime (see [`crate::ingest_bot`]).
#[derive(Debug)]
pub struct ArbBot {
    pub(crate) account: AccountId,
    pub(crate) config: BotConfig,
    pub(crate) ingest: IngestConfig,
    pub(crate) view: MarketView,
    pub(crate) journal: Option<Journal>,
    /// Set when a runtime error left a journal-less view behind the
    /// chain; the next step rebuilds it from chain state.
    stale: bool,
    serving: Option<Publisher>,
    obs: Option<BotObs>,
    /// Remembered so a rebuild from the journal re-instruments itself.
    obs_config: Option<ObsConfig>,
    tick_hook: Option<Arc<dyn TickHook>>,
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
            "serve: revision={} publishes={} skipped={} {}",
            self.revision, self.publish.publishes, self.publish.skipped, self.governor
        )
    }
}

impl ArbBot {
    /// Starts a bot without a journal on a live chain: registers its
    /// account and builds the market view from current chain state and
    /// `feed`. Later steps pass only the feed's moves.
    ///
    /// # Errors
    ///
    /// Forwards graph / engine construction failures.
    pub fn new(chain: &mut Chain, feed: &PriceTable, config: BotConfig) -> Result<Self, BotError> {
        let ingest = IngestConfig::default();
        let view = MarketView::from_chain(chain, feed.clone(), &config, Ingestor::new(ingest))?;
        Ok(ArbBot::assemble(
            chain.create_account(),
            config,
            ingest,
            view,
            None,
        ))
    }

    pub(crate) fn assemble(
        account: AccountId,
        config: BotConfig,
        ingest: IngestConfig,
        view: MarketView,
        journal: Option<Journal>,
    ) -> Self {
        ArbBot {
            account,
            config,
            ingest,
            view,
            journal,
            stale: false,
            serving: None,
            obs: None,
            obs_config: None,
            tick_hook: None,
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

    /// Turns on observability: one registry + flight recorder wired
    /// through every layer the bot owns — ingest sealing
    /// (`ingest.seal_ns` → `queue_ns` spans), the apply side
    /// (`ingest.apply_ns`, `ingest.e2e_ns`, per-batch `ingest.tick`
    /// flight marks), the runtime (`runtime.*`, `engine.*`),
    /// the serving publisher, and the bot's own `bot.step_ns` and step
    /// counters. A journaled bot defaults
    /// [`ObsConfig::panic_dump_dir`] to its journal directory, next to
    /// the journal a post-mortem will replay, and reports the recovery
    /// that built it under `journal.*`. The config is remembered, so a
    /// rebuild from the journal re-instruments itself. Idempotent.
    pub fn enable_observability(&mut self, mut config: ObsConfig) {
        if self.obs.is_some() {
            return;
        }
        if let Some(journal) = &self.journal {
            config
                .panic_dump_dir
                .get_or_insert_with(|| journal.settings.dir.clone());
        }
        let bot_obs = BotObs::new(&config);
        if let Some(recovery) = self.journal.as_ref().and_then(|j| j.recovery.as_ref()) {
            recovery.record(bot_obs.obs());
        }
        if let Some(publisher) = &mut self.serving {
            publisher.set_obs(bot_obs.obs());
        }
        self.view.ingestor.set_obs(bot_obs.obs());
        self.view.driver.set_obs(bot_obs.obs());
        self.obs = Some(bot_obs);
        self.obs_config = Some(config);
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

    /// Installs an [`arb_engine::TickHook`] on the runtime — the
    /// seam chaos tests use to inject slow ticks and mid-tick panics
    /// into a live bot. The bot re-installs it whenever it rebuilds its
    /// runtime.
    pub fn set_tick_hook(&mut self, hook: Arc<dyn TickHook>) {
        let runtime = self.view.driver.runtime_mut();
        runtime.set_tick_hook(Arc::clone(&hook));
        self.tick_hook = Some(hook);
    }

    /// A reader handle in `class` (`None` until
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

    /// The price table as of the last applied block.
    pub fn feed(&self) -> &PriceTable {
        self.view.driver.feed()
    }

    /// Front-end counters (coalescing, queue depth, degraded merges).
    pub fn ingest_stats(&self) -> IngestStats {
        self.view.ingestor.stats()
    }

    /// The apply-side driver (batch counters, seal-to-rank latency).
    pub fn driver(&self) -> &IngestDriver {
        &self.view.driver
    }

    /// The runtime behind the ranking: its stats, screen totals and
    /// engine.
    pub fn runtime(&self) -> &ShardedRuntime {
        self.view.driver.runtime()
    }

    /// One decision step: stage this block's feed moves (absolute
    /// prices) and the chain's new events, seal them into one block,
    /// apply it, checkpoint if one is due, publish the ranking when
    /// serving, and submit a flash bundle for the best executable
    /// opportunity. The transaction is only *submitted*; the caller
    /// mines the block.
    ///
    /// Without a journal, a runtime error serves the block from a full
    /// [`scanner::discover`] rescan and rebuilds the view from chain
    /// state on the next step.
    ///
    /// # Errors
    ///
    /// Fails on journal write errors, on runtime errors of a journaled
    /// bot, and on bundle construction failures — not on unprofitable
    /// markets ([`BotAction::Idle`]).
    pub fn step(
        &mut self,
        chain: &mut Chain,
        feed_moves: &[(TokenId, f64)],
    ) -> Result<BotAction, BotError> {
        let step_timer = self.obs.as_ref().map(BotObs::step_timer);
        let step_span = step_timer.as_ref().map(arb_obs::SpanTimer::start);
        let action = self.step_inner(chain, feed_moves)?;
        drop(step_span);
        if let Some(obs) = &mut self.obs {
            obs.after_step(matches!(action, BotAction::Submitted { .. }));
        }
        Ok(action)
    }

    fn step_inner(
        &mut self,
        chain: &mut Chain,
        feed_moves: &[(TokenId, f64)],
    ) -> Result<BotAction, BotError> {
        if self.stale {
            self.rebuild_from_chain(chain)?;
        }
        let events = chain.drain_events(&mut self.view.cursor);
        let staged = feed_moves.len() + events.len();
        self.view.seal(feed_moves, events)?;
        let (opportunities, revision) = match self.view.driver.drain() {
            Ok(report) => (
                report.map_or_else(Vec::new, |report| report.opportunities),
                Some(self.runtime().standing_revision()),
            ),
            Err(err) if self.journal.is_some() => return Err(err.into()),
            Err(_) => {
                self.stale = true;
                let pipeline = pipeline_for(&self.config);
                let report = scanner::discover(chain, &pipeline, self.view.driver.feed())?;
                (report.opportunities, None)
            }
        };
        if self
            .journal
            .as_mut()
            .is_some_and(|journal| journal.checkpoint_due(staged))
        {
            self.checkpoint()?;
        }
        self.publish(revision, &opportunities);
        execution::submit_best(chain, self.account, &opportunities)
    }

    /// Publishes the ranking this step acted on, when serving is
    /// enabled, keyed on the runtime's standing revision so quiet steps
    /// skip. A rescanned block has no revision to anchor on: it
    /// re-publishes unconditionally and re-anchors, since the rebuilt
    /// runtime's revision restarts.
    fn publish(&mut self, revision: Option<u64>, opportunities: &[ArbitrageOpportunity]) {
        let Some(publisher) = self.serving.as_mut() else {
            return;
        };
        match revision {
            Some(revision) => {
                publisher.publish_if_changed(revision, opportunities);
            }
            None => {
                publisher.reanchor();
                publisher.publish(opportunities.to_vec());
            }
        }
    }

    /// Replaces a journal-less view that fell behind the chain with one
    /// built from current chain state, keeping the price table, and
    /// re-wires observability and the tick hook into it.
    fn rebuild_from_chain(&mut self, chain: &Chain) -> Result<(), BotError> {
        let feed = self.view.driver.feed().clone();
        self.view = MarketView::from_chain(chain, feed, &self.config, Ingestor::new(self.ingest))?;
        if let Some(obs) = &self.obs {
            self.view.ingestor.set_obs(obs.obs());
            self.view.driver.set_obs(obs.obs());
        }
        if let Some(hook) = &self.tick_hook {
            let runtime = self.view.driver.runtime_mut();
            runtime.set_tick_hook(Arc::clone(hook));
        }
        self.stale = false;
        Ok(())
    }

    /// Rebuilds the bot after its runtime can no longer be trusted (a
    /// panic mid-tick). A journaled bot is recovered from disk under
    /// the same account, then re-applies its remembered observability
    /// config (a fresh registry, and the panic hook now dumps the new
    /// recorder), export sink, tick hook and publisher (re-anchored,
    /// since the recovered runtime's revision restarts). A bot without
    /// a journal rebuilds its view from chain state on the next step.
    ///
    /// # Errors
    ///
    /// Forwards recovery failures (see [`ArbBot::recover`]).
    pub(crate) fn rebuild(&mut self, chain: &mut Chain) -> Result<(), BotError> {
        let Some(journal) = &self.journal else {
            self.stale = true;
            return Ok(());
        };
        let settings = journal.settings.clone();
        let mut fresh =
            ArbBot::recover_as(chain, self.config, settings, self.ingest, self.account)?;
        fresh.serving = self.serving.take();
        if let Some(publisher) = &mut fresh.serving {
            publisher.reanchor();
        }
        if let Some(config) = self.obs_config.take() {
            fresh.enable_observability(config);
        }
        if let Some(sink) = self.obs.take().and_then(BotObs::into_sink) {
            fresh.set_obs_export(sink);
        }
        if let Some(hook) = self.tick_hook.take() {
            fresh.set_tick_hook(hook);
        }
        *self = fresh;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{drive, funded_whale, paper_chain, paper_feed, t};
    use arb_amm::fee::FeeRate;
    use arb_dexsim::tx::Transaction;
    use arb_dexsim::units::to_raw;

    fn paper_bot(chain: &mut Chain, config: BotConfig) -> ArbBot {
        ArbBot::new(chain, &paper_feed(), config).unwrap()
    }

    #[test]
    fn maxmax_bot_extracts_paper_profit() {
        let mut chain = paper_chain();
        let mut bot = paper_bot(&mut chain, BotConfig::default());
        let action = bot.step(&mut chain, &[]).unwrap();
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
        let mut bot = paper_bot(
            &mut chain,
            BotConfig {
                strategy: StrategyChoice::Convex,
                ..BotConfig::default()
            },
        );
        let action = bot.step(&mut chain, &[]).unwrap();
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
        let mut bot = paper_bot(&mut chain, BotConfig::default());
        let action = bot.step(&mut chain, &[]).unwrap();
        assert!(matches!(action, BotAction::Idle));
        assert_eq!(chain.pending(), 0);
    }

    #[test]
    fn profit_floor_filters_small_opportunities() {
        let mut chain = paper_chain();
        let mut bot = paper_bot(
            &mut chain,
            BotConfig {
                min_profit_usd: 1_000.0, // above the ~$206 available
                ..BotConfig::default()
            },
        );
        let action = bot.step(&mut chain, &[]).unwrap();
        assert!(matches!(action, BotAction::Idle));
    }

    #[test]
    fn unpriced_tokens_are_skipped() {
        let mut chain = paper_chain();
        let mut bot = ArbBot::new(&mut chain, &PriceTable::new(), BotConfig::default()).unwrap();
        let action = bot.step(&mut chain, &[]).unwrap();
        assert!(matches!(action, BotAction::Idle));
    }

    #[test]
    fn bot_decides_like_a_per_step_discover_oracle() {
        // Same chain, same feed drift, same whale perturbations: the
        // ingest-fed bot must submit exactly what a full
        // per-block rescan would.
        let mut chain = paper_chain();
        let mut bot = paper_bot(&mut chain, BotConfig::default());
        let whale = funded_whale(&mut chain);
        let actions = drive(&mut chain, whale, 0..8, |chain, moves| {
            bot.step(chain, moves).unwrap()
        });

        let mut oracle_chain = paper_chain();
        let account = oracle_chain.create_account();
        let whale = funded_whale(&mut oracle_chain);
        let pipeline = pipeline_for(&BotConfig::default());
        let mut feed = paper_feed();
        let oracle_actions = drive(&mut oracle_chain, whale, 0..8, |chain, moves| {
            for &(token, price) in moves {
                feed.set(token, price);
            }
            let ranked = scanner::discover(chain, &pipeline, &feed).unwrap();
            execution::submit_best(chain, account, &ranked.opportunities).unwrap()
        });

        assert_eq!(actions, oracle_actions);
        assert_eq!(chain.state().digest(), oracle_chain.state().digest());
        assert!(
            actions.iter().any(Option::is_some),
            "perturbations should open executable opportunities"
        );
    }

    #[test]
    fn a_rebuilt_view_decides_like_an_uninterrupted_one() {
        // The journal-less rebuild path (taken after a runtime error):
        // a view rebuilt from chain state mid-run changes no decision.
        let run = |rebuild_at: Option<usize>| {
            let mut chain = paper_chain();
            let mut bot = paper_bot(&mut chain, BotConfig::default());
            let whale = funded_whale(&mut chain);
            let mut actions = drive(&mut chain, whale, 0..4, |chain, moves| {
                bot.step(chain, moves).unwrap()
            });
            if rebuild_at.is_some() {
                bot.rebuild(&mut chain).unwrap();
            }
            actions.extend(drive(&mut chain, whale, 4..8, |chain, moves| {
                bot.step(chain, moves).unwrap()
            }));
            (
                actions,
                bot.driver().batches_applied(),
                chain.state().digest(),
            )
        };
        let (uninterrupted, batches, digest) = run(None);
        let (rebuilt, rebuilt_batches, rebuilt_digest) = run(Some(4));
        assert_eq!(rebuilt, uninterrupted);
        assert_eq!(rebuilt_digest, digest);
        assert_eq!(batches, 8);
        assert_eq!(
            rebuilt_batches, 4,
            "the rebuilt view counts from its rebuild"
        );
    }

    #[test]
    fn sharded_bot_tracks_events_and_reports_runtime_stats() {
        let mut chain = paper_chain();
        // A second, disjoint triangle: two components in one engine.
        let fee = FeeRate::UNISWAP_V2;
        for (a, b) in [(3, 4), (4, 5), (5, 3)] {
            chain
                .add_pool(t(a), t(b), to_raw(1_000.0), to_raw(1_010.0), fee)
                .unwrap();
        }
        let mut feed = paper_feed();
        feed.extend((3..6).map(|i| (t(i), 1.0)));
        let mut bot = ArbBot::new(&mut chain, &feed, BotConfig::default()).unwrap();
        assert_eq!(bot.runtime().stats().ticks, 0);
        bot.step(&mut chain, &[]).unwrap();
        chain.mine_block();
        let applied = bot.runtime().stats().events_applied;

        // Whale flow between steps reaches the engine as events.
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
        bot.step(&mut chain, &[]).unwrap();
        let stats = bot.runtime().stats();
        assert!(stats.ticks >= 2, "{stats}");
        assert!(bot.runtime().stats().events_applied > applied, "{stats}");

        // Telemetry one-liner: the engine's screen totals.
        let totals = bot.runtime().screen_totals();
        let line = totals.to_string();
        assert!(line.contains("screened"), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn serving_bot_publishes_the_ranking_it_acts_on() {
        let mut chain = paper_chain();
        let mut bot = paper_bot(&mut chain, BotConfig::default());
        assert!(bot.serve_handle(ClientClass::Interactive).is_none());
        assert!(bot.serve_stats().is_none());
        bot.enable_serving(GovernorConfig::default());
        let handle = bot.serve_handle(ClientClass::Interactive).unwrap();
        assert_eq!(handle.load().revision(), 0, "nothing published yet");

        bot.step(&mut chain, &[]).unwrap();
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
        bot.step(&mut chain, &[]).unwrap();
        let stats = bot.serve_stats().unwrap();
        assert_eq!(stats.revision, 1, "{stats}");
        assert_eq!(stats.publish.skipped, 1);
        assert!(stats.governor.admitted[0] >= 1);
        let line = stats.to_string();
        assert!(line.contains("serve:"), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn telemetry_is_live_from_construction() {
        let mut chain = paper_chain();
        let mut bot = paper_bot(&mut chain, BotConfig::default());
        // The view is built with the bot; the first step is its first
        // tick, not a cold start.
        assert_eq!(bot.runtime().screen_totals().strategy_evaluations, 0);
        assert_eq!(bot.driver().batches_applied(), 0);
        bot.step(&mut chain, &[]).unwrap();
        assert_eq!(bot.runtime().stats().ticks, 1);
        assert!(bot.runtime().screen_totals().strategy_evaluations > 0);
        assert_eq!(bot.driver().batches_applied(), 1);
    }

    #[test]
    fn streaming_bot_tracks_pools_created_after_cold_start() {
        let mut chain = paper_chain();
        let mut bot = paper_bot(&mut chain, BotConfig::default());
        bot.step(&mut chain, &[]).unwrap();
        chain.mine_block();

        // A new pool arrives as an event, not a re-snapshot.
        chain
            .add_pool(t(0), t(1), to_raw(90.0), to_raw(210.0), FeeRate::UNISWAP_V2)
            .unwrap();
        bot.step(&mut chain, &[]).unwrap();
        let stats = bot.runtime().stats();
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
