//! The bot's durable mode: one journaled multiplexed stream for chain
//! events **and** CEX price moves, periodic checkpoints, crash recovery.
//!
//! [`IngestBot`] fronts the sharded scan loop with the `arb-ingest`
//! front-end and the `arb-journal` durability stack:
//!
//! * every block, the CEX feed's price moves and the chain's new events
//!   are staged on separate [`arb_ingest::Ingestor`] sources, sealed
//!   into one deterministically ordered block, journaled **raw**, then
//!   coalesced and applied through an [`arb_ingest::IngestDriver`];
//! * every [`JournalSettings::checkpoint_every_events`] staged events, a
//!   checkpoint embeds the fleet, the price table and the per-source
//!   stream positions, old snapshots are pruned and fully-snapshotted
//!   segments compacted;
//! * [`IngestBot::recover`] rebuilds the fleet *and* the feed from disk
//!   alone — no live price feed is needed to resume;
//! * the scan/execute policy is [`crate::ArbBot`]'s in
//!   [`crate::ScanMode::Sharded`]: best executable opportunity per
//!   block, flash-bundle submission ([`execution::submit_best`]).

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use arb_amm::token::TokenId;
use arb_cex::feed::PriceTable;
use arb_dexsim::chain::{Chain, EventCursor};
use arb_dexsim::state::AccountId;
use arb_ingest::{IngestConfig, IngestDriver, IngestStats, Ingestor, SourceId};
use arb_journal::{
    JournalConfig, JournalError, JournalWriter, Recovery, RecoveryStats, SnapshotStore,
};

use crate::bot::{pipeline_for, BotAction};
use crate::config::BotConfig;
use crate::error::BotError;
use crate::execution;
use crate::obs::{BotObs, ExportSink, ObsConfig};
use crate::scanner;

/// Durability tuning for [`IngestBot`].
#[derive(Debug, Clone)]
pub struct JournalSettings {
    /// Directory holding segments and snapshots.
    pub dir: PathBuf,
    /// Take a checkpoint after this many staged events.
    pub checkpoint_every_events: usize,
    /// Segment roll threshold ([`JournalConfig::segment_max_bytes`]).
    pub segment_max_bytes: u64,
    /// Snapshots retained after each checkpoint (older ones are pruned).
    pub keep_snapshots: usize,
}

impl JournalSettings {
    /// Settings with production-shaped defaults: checkpoint every 256
    /// events, 256 KiB segments, 2 retained snapshots.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        JournalSettings {
            dir: dir.into(),
            checkpoint_every_events: 256,
            segment_max_bytes: 256 * 1024,
            keep_snapshots: 2,
        }
    }

    fn journal_config(&self) -> JournalConfig {
        JournalConfig {
            segment_max_bytes: self.segment_max_bytes,
            sync_on_commit: true,
        }
    }
}

/// An arbitrage bot whose market view survives restarts, fed through the
/// `arb-ingest` front-end. See the module docs for the lifecycle.
#[derive(Debug)]
pub struct IngestBot {
    account: AccountId,
    config: BotConfig,
    settings: JournalSettings,
    ingestor: Ingestor,
    driver: IngestDriver,
    feed_source: SourceId,
    chain_source: SourceId,
    cursor: EventCursor,
    writer: Arc<Mutex<JournalWriter>>,
    store: SnapshotStore,
    events_since_checkpoint: usize,
    checkpoints_taken: usize,
    recovery: Option<RecoveryStats>,
    obs: Option<BotObs>,
}

impl IngestBot {
    /// Starts an ingest-fronted bot on a live chain. The journal
    /// directory must be fresh: ingest offsets count the *multiplexed*
    /// stream (feed moves included), so adopting a chain-only journal
    /// would silently misalign every snapshot. The initial feed and the
    /// chain's full event history are journaled first — sorted feed
    /// prices, then chain history — giving recovery a self-contained
    /// genesis prefix.
    ///
    /// # Errors
    ///
    /// Forwards journal I/O failures ([`BotError::Journal`]) and graph /
    /// engine construction failures; rejects a non-empty journal
    /// directory.
    pub fn attach(
        chain: &mut Chain,
        feed: &PriceTable,
        config: BotConfig,
        settings: JournalSettings,
        ingest: IngestConfig,
    ) -> Result<Self, BotError> {
        let writer = JournalWriter::open(&settings.dir, settings.journal_config())
            .map_err(JournalError::from)?;
        if writer.next_offset() != 0 {
            return Err(BotError::Journal(JournalError::Corrupt(
                "ingest attach requires a fresh journal directory (offsets count the \
                 multiplexed stream) — use IngestBot::recover to resume one"
                    .to_string(),
            )));
        }
        let writer = Arc::new(Mutex::new(writer));
        let mut ingestor = Ingestor::new(ingest).with_journal(writer.clone());
        let feed_source = ingestor.register_source("cex-feed");
        let chain_source = ingestor.register_source("dexsim");

        // Journal the genesis prefix: the full feed (sorted, so attach is
        // deterministic), then the chain's event history.
        let mut initial_prices: Vec<(TokenId, f64)> = feed.iter().collect();
        initial_prices.sort_unstable_by_key(|(token, _)| token.index());
        ingestor.offer_feed_moves(feed_source, &initial_prices)?;
        ingestor.offer(chain_source, chain.event_log().decode_from(0))?;
        ingestor.seal_block()?;
        // The runtime below is built from *current* chain state; the
        // backfill block exists for recovery replay, not for application.
        ingestor
            .handle()
            .try_pop()
            .expect("the backfill block was just sealed");

        let graph = scanner::graph_from_chain(chain)?;
        let runtime =
            arb_engine::ShardedRuntime::with_graph(pipeline_for(&config), graph, config.shards)?;
        let driver = IngestDriver::new(runtime, feed.clone(), ingestor.handle());
        let store = SnapshotStore::new(&settings.dir)?;
        let cursor = chain.subscribe();
        Ok(IngestBot {
            account: chain.create_account(),
            config,
            settings,
            ingestor,
            driver,
            feed_source,
            chain_source,
            cursor,
            writer,
            store,
            events_since_checkpoint: 0,
            checkpoints_taken: 0,
            recovery: None,
            obs: None,
        })
    }

    /// Rebuilds an ingest-fronted bot after a crash **from disk alone**:
    /// no live price feed is passed — the journal's inline `FeedPrice`
    /// stream and the snapshot's embedded price table reconstruct it.
    /// Chain events the chain emitted while the bot was down are
    /// ingested (journaled, sealed, applied) before this returns.
    ///
    /// # Errors
    ///
    /// See [`IngestBot::attach`]; additionally fails when recovery
    /// cannot bootstrap (no snapshot and no genesis prefix).
    pub fn recover(
        chain: &mut Chain,
        config: BotConfig,
        settings: JournalSettings,
        ingest: IngestConfig,
    ) -> Result<Self, BotError> {
        Self::recover_impl(chain, config, settings, ingest, None)
    }

    /// [`IngestBot::recover`], resuming the pre-crash bot's `account`
    /// instead of registering a fresh one.
    ///
    /// # Errors
    ///
    /// See [`IngestBot::recover`].
    pub fn recover_as(
        chain: &mut Chain,
        config: BotConfig,
        settings: JournalSettings,
        ingest: IngestConfig,
        account: AccountId,
    ) -> Result<Self, BotError> {
        Self::recover_impl(chain, config, settings, ingest, Some(account))
    }

    fn recover_impl(
        chain: &mut Chain,
        config: BotConfig,
        settings: JournalSettings,
        ingest: IngestConfig,
        account: Option<AccountId>,
    ) -> Result<Self, BotError> {
        let writer = JournalWriter::open(&settings.dir, settings.journal_config())
            .map_err(JournalError::from)?;
        let writer = Arc::new(Mutex::new(writer));

        let recovered = Recovery::new(&settings.dir, pipeline_for(&config), config.shards)
            .recover_journaled()?;

        // Reconstruct per-source positions: the snapshot's recorded
        // counts (zeros on the genesis path) plus everything the replay
        // consumed on each source.
        let snapshot_positions = &recovered.source_positions;
        let feed_position = snapshot_positions.first().copied().unwrap_or(0)
            + recovered.feed_events_replayed as u64;
        let chain_position = snapshot_positions.get(1).copied().unwrap_or(0)
            + (recovered.genesis_bootstrap_events + recovered.chain_events_replayed) as u64;

        let mut ingestor = Ingestor::new(ingest).with_journal(writer.clone());
        let feed_source = ingestor.register_source("cex-feed");
        let chain_source = ingestor.register_source("dexsim");
        ingestor.restore_positions(&[feed_position, chain_position])?;
        let driver = IngestDriver::new(recovered.runtime, recovered.feed, ingestor.handle());

        let cursor = EventCursor::at(chain_position as usize);
        let store = SnapshotStore::new(&settings.dir)?;
        let mut bot = IngestBot {
            account: account.unwrap_or_else(|| chain.create_account()),
            config,
            settings,
            ingestor,
            driver,
            feed_source,
            chain_source,
            cursor,
            writer,
            store,
            events_since_checkpoint: 0,
            checkpoints_taken: 0,
            recovery: Some(recovered.stats),
            obs: None,
        };
        // Catch up on blocks mined while the bot was down: journal and
        // apply them now so the first step sees a current fleet.
        let missed = chain.drain_events(&mut bot.cursor);
        if !missed.is_empty() {
            bot.ingestor.offer(bot.chain_source, missed)?;
            bot.ingestor.seal_block()?;
            bot.driver.drain()?;
        }
        Ok(bot)
    }

    /// Turns on observability: one registry + flight recorder wired
    /// through the whole pipeline this bot owns — ingest sealing
    /// (`ingest.seal_ns` → `queue_ns` spans), the apply side
    /// (`ingest.apply_ns`, `ingest.e2e_ns`, per-batch `ingest.tick`
    /// flight marks), the sharded runtime (`runtime.*`, `engine.*`),
    /// and the bot's own step counters. Unless the config names another
    /// directory, a panic hook is installed that dumps the flight
    /// recorder to the journal directory on crash, next to the journal
    /// the post-mortem will replay. A recovery that built this bot is
    /// reported under `journal.*`. Idempotent.
    pub fn enable_observability(&mut self, mut config: ObsConfig) {
        if self.obs.is_some() {
            return;
        }
        if config.panic_dump_dir.is_none() {
            config.panic_dump_dir = Some(self.settings.dir.clone());
        }
        let bot_obs = BotObs::new(&config);
        self.ingestor.set_obs(bot_obs.obs());
        self.driver.set_obs(bot_obs.obs());
        if let Some(recovery) = &self.recovery {
            recovery.record(bot_obs.obs());
        }
        self.obs = Some(bot_obs);
    }

    /// The shared observability handle (`None` until
    /// [`IngestBot::enable_observability`]).
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

    /// The bot's account.
    pub fn account(&self) -> AccountId {
        self.account
    }

    /// The configuration.
    pub fn config(&self) -> &BotConfig {
        &self.config
    }

    /// The journal directory.
    pub fn journal_dir(&self) -> &Path {
        &self.settings.dir
    }

    /// The recovered price table / current feed view.
    pub fn feed(&self) -> &PriceTable {
        self.driver.feed()
    }

    /// Front-end counters (coalescing, queue depth, stalls).
    pub fn ingest_stats(&self) -> IngestStats {
        self.ingestor.stats()
    }

    /// The apply-side driver (batch counters, seal-to-rank latency).
    pub fn driver(&self) -> &IngestDriver {
        &self.driver
    }

    /// How the last [`IngestBot::recover`] went (`None` after
    /// [`IngestBot::attach`]).
    pub fn recovery_stats(&self) -> Option<&RecoveryStats> {
        self.recovery.as_ref()
    }

    /// Checkpoints written since this process started.
    pub fn checkpoints_taken(&self) -> usize {
        self.checkpoints_taken
    }

    /// One decision step: stage this block's feed moves and chain
    /// events, seal them into one journaled block, apply it through the
    /// driver, checkpoint if due, and submit a flash bundle for the best
    /// executable opportunity.
    ///
    /// # Errors
    ///
    /// Fails on journal write errors, engine failures, or bundle
    /// construction failures — not on unprofitable markets
    /// ([`BotAction::Idle`]).
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
        self.ingestor
            .offer_feed_moves(self.feed_source, feed_moves)?;
        let events = chain.drain_events(&mut self.cursor);
        let staged = feed_moves.len() + events.len();
        self.ingestor.offer(self.chain_source, events)?;
        self.ingestor.seal_block()?;
        let report = self.driver.drain()?;

        self.events_since_checkpoint += staged;
        if self.events_since_checkpoint >= self.settings.checkpoint_every_events {
            self.checkpoint()?;
        }

        match report {
            Some(report) => execution::submit_best(chain, self.account, &report.opportunities),
            None => Ok(BotAction::Idle),
        }
    }

    /// Writes a snapshot of the fleet — including the price table and
    /// per-source positions — at the journal's durable tail, prunes old
    /// snapshots, and compacts segments below the oldest retained one.
    /// Called automatically by [`IngestBot::step`]; public for shutdown
    /// hooks.
    ///
    /// When the journal is running behind (events appended but not yet
    /// durably committed, e.g. while the writer is in degraded mode),
    /// the checkpoint is **deferred**: a snapshot taken now would claim
    /// the fleet's state is durable at an offset the disk has not
    /// reached. The due-counter is left alone so the next step retries.
    ///
    /// The writer locks tolerate poisoning: a panicked tick can never
    /// corrupt the writer mid-operation (every mutation completes or
    /// returns an error before control leaves the journal crate), so a
    /// supervised recovery is free to checkpoint afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`BotError::Journal`] on snapshot or compaction failures.
    pub fn checkpoint(&mut self) -> Result<(), BotError> {
        let (offset, pending) = {
            let writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
            (writer.durable_offset(), writer.pending_events())
        };
        if pending > 0 {
            return Ok(());
        }
        let mut checkpoint = self.driver.checkpoint();
        checkpoint.source_positions = self.ingestor.source_positions();
        self.store.write(offset, &checkpoint)?;
        self.store.prune(self.settings.keep_snapshots)?;
        if let Some(oldest_retained) = self.store.list()?.first().map(|(offset, _)| *offset) {
            self.writer
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .compact_below(oldest_retained)
                .map_err(JournalError::from)?;
        }
        self.checkpoints_taken += 1;
        self.events_since_checkpoint = 0;
        Ok(())
    }

    /// Installs an [`arb_engine::TickHook`] on the underlying sharded
    /// runtime — the seam chaos tests use to inject slow ticks and
    /// mid-tick panics into a live bot. Hooks do not survive recovery
    /// (the runtime is rebuilt from disk); [`crate::SupervisedBot`]
    /// re-installs its hook after every supervised restart.
    pub fn set_tick_hook(&mut self, hook: Arc<dyn arb_engine::TickHook>) {
        self.driver.runtime_mut().set_tick_hook(hook);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{drive, funded_whale, paper_chain, paper_feed, t, TestDir};
    use arb_journal::JournalReader;
    use std::fs;

    fn settings(dir: &TestDir, checkpoint_every: usize) -> JournalSettings {
        JournalSettings {
            checkpoint_every_events: checkpoint_every,
            ..JournalSettings::new(dir.path())
        }
    }

    #[test]
    fn ingest_bot_recovers_without_a_live_feed_and_decides_identically() {
        let dir = TestDir::new("crash");

        // The never-crashed oracle: one bot across all 8 blocks.
        let mut oracle_chain = paper_chain();
        let whale = funded_whale(&mut oracle_chain);
        let oracle_dir = TestDir::new("crash-oracle");
        let mut oracle = IngestBot::attach(
            &mut oracle_chain,
            &paper_feed(),
            BotConfig::default(),
            settings(&oracle_dir, 4),
            IngestConfig::default(),
        )
        .unwrap();
        let oracle_actions = drive(&mut oracle_chain, whale, 0..8, |chain, moves| {
            oracle.step(chain, moves).unwrap()
        });

        // The crashing run: same chain history, bot dies after block 4.
        let mut chain = paper_chain();
        let whale = funded_whale(&mut chain);
        let mut bot = IngestBot::attach(
            &mut chain,
            &paper_feed(),
            BotConfig::default(),
            settings(&dir, 4),
            IngestConfig::default(),
        )
        .unwrap();
        assert!(bot.recovery_stats().is_none());
        let mut first_half = drive(&mut chain, whale, 0..4, |chain, moves| {
            bot.step(chain, moves).unwrap()
        });
        assert!(bot.checkpoints_taken() > 0, "checkpoints were due");
        let pre_crash_account = bot.account();
        drop(bot); // 💥 the chain's later events pile up un-journaled

        // NO feed is passed here — the whole point of the ingest stream.
        let mut bot = IngestBot::recover_as(
            &mut chain,
            BotConfig::default(),
            settings(&dir, 4),
            IngestConfig::default(),
            pre_crash_account,
        )
        .unwrap();
        assert_eq!(bot.account(), pre_crash_account);
        let stats = *bot.recovery_stats().expect("recovered");
        assert!(stats.snapshot_offset.is_some(), "{stats}");

        // The feed was reconstructed from disk: last pre-crash drift
        // applied at block 3.
        let recovered_price = bot
            .feed()
            .iter()
            .find(|(token, _)| *token == t(1))
            .map(|(_, price)| price)
            .expect("t1 priced");
        assert_eq!(
            recovered_price.to_bits(),
            (10.2f64 + 0.05 * 3.0).to_bits(),
            "recovery must replay FeedPrice events to the journal tail"
        );

        let second_half = drive(&mut chain, whale, 4..8, |chain, moves| {
            bot.step(chain, moves).unwrap()
        });
        first_half.extend(second_half);
        assert_eq!(
            first_half, oracle_actions,
            "crash + feed-free recovery must not change a single decision"
        );
        assert!(
            first_half.iter().any(Option::is_some),
            "perturbations should open executable opportunities"
        );
        assert_eq!(chain.state().digest(), oracle_chain.state().digest());
    }

    #[test]
    fn recovery_bootstraps_from_the_journaled_genesis_prefix() {
        let dir = TestDir::new("genesis");
        let mut chain = paper_chain();
        let whale = funded_whale(&mut chain);
        // Huge checkpoint interval: the bot dies before any snapshot.
        let mut bot = IngestBot::attach(
            &mut chain,
            &paper_feed(),
            BotConfig::default(),
            settings(&dir, 10_000),
            IngestConfig::default(),
        )
        .unwrap();
        drive(&mut chain, whale, 0..3, |chain, moves| {
            bot.step(chain, moves).unwrap()
        });
        assert_eq!(bot.checkpoints_taken(), 0);
        drop(bot);

        let bot = IngestBot::recover(
            &mut chain,
            BotConfig::default(),
            settings(&dir, 10_000),
            IngestConfig::default(),
        )
        .unwrap();
        let stats = *bot.recovery_stats().expect("recovered");
        assert!(stats.snapshot_offset.is_none(), "genesis path: {stats}");
        // The genesis prefix carried the initial feed; the suffix carried
        // the drift. Both land in the reconstructed table.
        assert_eq!(bot.feed().len(), 3);
        let drifted = bot
            .feed()
            .iter()
            .find(|(token, _)| *token == t(1))
            .map(|(_, price)| price)
            .unwrap();
        assert_eq!(drifted.to_bits(), (10.2f64 + 0.05 * 2.0).to_bits());
    }

    #[test]
    fn checkpoints_compact_the_journal() {
        let dir = TestDir::new("compact");
        let mut chain = paper_chain();
        let whale = funded_whale(&mut chain);
        let mut bot = IngestBot::attach(
            &mut chain,
            &paper_feed(),
            BotConfig::default(),
            JournalSettings {
                checkpoint_every_events: 2,
                segment_max_bytes: 64, // force frequent segment rolls
                keep_snapshots: 2,
                ..JournalSettings::new(dir.path())
            },
            IngestConfig::default(),
        )
        .unwrap();
        drive(&mut chain, whale, 0..6, |chain, moves| {
            bot.step(chain, moves).unwrap()
        });
        assert!(bot.checkpoints_taken() >= 2);

        let snapshots = SnapshotStore::new(dir.path()).unwrap().list().unwrap();
        assert_eq!(snapshots.len(), 2, "pruning keeps the newest 2");
        let oldest_retained = snapshots[0].0;
        let (newest, newest_path) = &snapshots[1];

        // Compaction dropped segments below the *oldest retained*
        // snapshot — nothing below what any kept snapshot needs.
        let reader = JournalReader::open(dir.path()).unwrap();
        assert!(
            reader.base_offset() > 0,
            "fully-snapshotted segments should be gone"
        );
        assert!(
            reader.base_offset() <= oldest_retained,
            "compaction must not strand a retained snapshot (base {} > \
             oldest snapshot {oldest_retained})",
            reader.base_offset()
        );
        // And recovery still works over the compacted journal…
        let recovery = Recovery::new(dir.path(), pipeline_for(&BotConfig::default()), 4);
        let recovered = recovery.recover_journaled().unwrap();
        assert_eq!(recovered.stats.snapshot_offset, Some(*newest));
        // …including when the newest snapshot rots: the retained older
        // one must be genuinely usable, not stranded past compaction.
        fs::remove_file(newest_path).unwrap();
        let fallback = recovery.recover_journaled().unwrap();
        assert_eq!(fallback.stats.snapshot_offset, Some(oldest_retained));
    }

    #[test]
    fn attach_rejects_a_used_journal_directory() {
        let dir = TestDir::new("fresh");
        let mut chain = paper_chain();
        let bot = IngestBot::attach(
            &mut chain,
            &paper_feed(),
            BotConfig::default(),
            settings(&dir, 100),
            IngestConfig::default(),
        )
        .unwrap();
        drop(bot);
        let mut second = paper_chain();
        let err = IngestBot::attach(
            &mut second,
            &paper_feed(),
            BotConfig::default(),
            settings(&dir, 100),
            IngestConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, BotError::Journal(_)), "{err:?}");
        assert!(err.to_string().contains("fresh journal"), "{err}");
    }
}
