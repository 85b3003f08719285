//! The journaled side of [`ArbBot`]'s ingest path: one durable stream
//! for chain events **and** CEX price moves, periodic checkpoints, and
//! crash recovery from disk alone.
//!
//! A bot built by [`ArbBot::attach`] or [`ArbBot::recover`] steps
//! exactly like one built by [`ArbBot::new`], with a journal attached
//! to its [`arb_ingest::Ingestor`]:
//!
//! * every block's sealed feed moves and chain events are journaled
//!   **raw** before the driver applies them;
//! * every [`JournalSettings::checkpoint_every_events`] staged events, a
//!   checkpoint embeds the runtime, the price table and the per-source
//!   stream positions, old snapshots are pruned and fully-snapshotted
//!   segments compacted;
//! * [`ArbBot::recover`] rebuilds the runtime *and* the feed from disk
//!   alone — no live price feed is needed to resume;
//! * a runtime error surfaces as a [`BotError`] instead of the
//!   journal-less bot's rescan fallback: the journal, not chain state,
//!   is what a journaled bot rebuilds from ([`crate::SupervisedBot`]).

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use arb_cex::feed::PriceTable;
use arb_dexsim::chain::{Chain, EventCursor};
use arb_dexsim::state::AccountId;
use arb_ingest::{IngestConfig, Ingestor};
use arb_journal::{
    JournalConfig, JournalError, JournalWriter, Recovery, RecoveryStats, SnapshotStore,
};

use crate::bot::{pipeline_for, sorted_prices, ArbBot, MarketView};
use crate::config::BotConfig;
use crate::error::BotError;

/// Durability tuning for a journaled [`ArbBot`].
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

    fn open_writer(&self) -> Result<Arc<Mutex<JournalWriter>>, BotError> {
        let writer =
            JournalWriter::open(&self.dir, self.journal_config()).map_err(JournalError::from)?;
        Ok(Arc::new(Mutex::new(writer)))
    }
}

/// A bot's journal: the writer its ingestor appends to, the snapshot
/// store, and the checkpoint schedule.
#[derive(Debug)]
pub(crate) struct Journal {
    pub(crate) settings: JournalSettings,
    writer: Arc<Mutex<JournalWriter>>,
    store: SnapshotStore,
    events_since_checkpoint: usize,
    checkpoints_taken: usize,
    pub(crate) recovery: Option<RecoveryStats>,
}

impl Journal {
    fn new(
        settings: JournalSettings,
        writer: Arc<Mutex<JournalWriter>>,
        recovery: Option<RecoveryStats>,
    ) -> Result<Self, BotError> {
        let store = SnapshotStore::new(&settings.dir)?;
        Ok(Journal {
            settings,
            writer,
            store,
            events_since_checkpoint: 0,
            checkpoints_taken: 0,
            recovery,
        })
    }

    /// Counts a step's staged events; true once a checkpoint is due.
    pub(crate) fn checkpoint_due(&mut self, staged: usize) -> bool {
        self.events_since_checkpoint += staged;
        self.events_since_checkpoint >= self.settings.checkpoint_every_events
    }
}

impl ArbBot {
    /// Starts a journaled bot on a live chain. The journal directory
    /// must be fresh: ingest offsets count the *multiplexed* stream
    /// (feed moves included), so adopting a chain-only journal would
    /// silently misalign every snapshot. The initial feed and the
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
        let writer = settings.open_writer()?;
        if writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .next_offset()
            != 0
        {
            return Err(BotError::Journal(JournalError::Corrupt(
                "ingest attach requires a fresh journal directory (offsets count the \
                 multiplexed stream) — use ArbBot::recover to resume one"
                    .to_string(),
            )));
        }
        let ingestor = Ingestor::new(ingest).with_journal(writer.clone());
        let mut view = MarketView::from_chain(chain, feed.clone(), &config, ingestor)?;
        // Journal the genesis prefix: the full feed, then the chain's
        // event history. The view was built from *current* chain state;
        // the backfill block exists for recovery replay, not for
        // application.
        view.seal(&sorted_prices(feed), chain.event_log().decode_from(0))?;
        view.ingestor
            .handle()
            .try_pop()
            .expect("the backfill block was just sealed");
        let journal = Journal::new(settings, writer, None)?;
        Ok(ArbBot::assemble(
            chain.create_account(),
            config,
            ingest,
            view,
            Some(journal),
        ))
    }

    /// Rebuilds a journaled bot after a crash **from disk alone**: no
    /// live price feed is passed — the journal's inline `FeedPrice`
    /// stream and the snapshot's embedded price table reconstruct it.
    /// Chain events the chain emitted while the bot was down are
    /// ingested (journaled, sealed, applied) before this returns.
    ///
    /// # Errors
    ///
    /// See [`ArbBot::attach`]; additionally fails when recovery cannot
    /// bootstrap (no snapshot and no genesis prefix).
    pub fn recover(
        chain: &mut Chain,
        config: BotConfig,
        settings: JournalSettings,
        ingest: IngestConfig,
    ) -> Result<Self, BotError> {
        Self::recover_impl(chain, config, settings, ingest, None)
    }

    /// [`ArbBot::recover`], resuming the pre-crash bot's `account`
    /// instead of registering a fresh one.
    ///
    /// # Errors
    ///
    /// See [`ArbBot::recover`].
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
        let writer = settings.open_writer()?;
        let recovered =
            Recovery::new(&settings.dir, pipeline_for(&config), 1).recover_journaled()?;

        // Reconstruct per-source positions: the snapshot's recorded
        // counts (zeros on the genesis path) plus everything the replay
        // consumed on each source.
        let snapshot_positions = &recovered.source_positions;
        let feed_position = snapshot_positions.first().copied().unwrap_or(0)
            + recovered.feed_events_replayed as u64;
        let chain_position = snapshot_positions.get(1).copied().unwrap_or(0)
            + (recovered.genesis_bootstrap_events + recovered.chain_events_replayed) as u64;

        let mut view = MarketView::new(
            Ingestor::new(ingest).with_journal(writer.clone()),
            recovered.runtime,
            recovered.feed,
            EventCursor::at(chain_position as usize),
        );
        view.ingestor
            .restore_positions(&[feed_position, chain_position])?;
        // Catch up on blocks mined while the bot was down: journal and
        // apply them now so the first step sees a current runtime.
        let missed = chain.drain_events(&mut view.cursor);
        if !missed.is_empty() {
            view.seal(&[], missed)?;
            view.driver.drain()?;
        }
        let journal = Journal::new(settings, writer, Some(recovered.stats))?;
        Ok(ArbBot::assemble(
            account.unwrap_or_else(|| chain.create_account()),
            config,
            ingest,
            view,
            Some(journal),
        ))
    }

    /// The journal directory (`None` without a journal).
    pub fn journal_dir(&self) -> Option<&Path> {
        self.journal.as_ref().map(|j| j.settings.dir.as_path())
    }

    /// How the recovery that built this bot went (`None` unless built
    /// by [`ArbBot::recover`]).
    pub fn recovery_stats(&self) -> Option<&RecoveryStats> {
        self.journal.as_ref().and_then(|j| j.recovery.as_ref())
    }

    /// Checkpoints written since this bot was built.
    pub fn checkpoints_taken(&self) -> usize {
        self.journal.as_ref().map_or(0, |j| j.checkpoints_taken)
    }

    /// Writes a snapshot of the runtime — including the price table and
    /// per-source positions — at the journal's durable tail, prunes old
    /// snapshots, and compacts segments below the oldest retained one.
    /// Called automatically by [`ArbBot::step`]; public for shutdown
    /// hooks. A no-op without a journal.
    ///
    /// When the journal is running behind (events appended but not yet
    /// durably committed, e.g. while the writer is in degraded mode),
    /// the checkpoint is **deferred**: a snapshot taken now would claim
    /// the runtime's state is durable at an offset the disk has not
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
        let Some(journal) = &mut self.journal else {
            return Ok(());
        };
        let (offset, pending) = {
            let writer = journal
                .writer
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            (writer.durable_offset(), writer.pending_events())
        };
        if pending > 0 {
            return Ok(());
        }
        let mut checkpoint = self.view.driver.checkpoint();
        checkpoint.source_positions = self.view.ingestor.source_positions();
        journal.store.write(offset, &checkpoint)?;
        journal.store.prune(journal.settings.keep_snapshots)?;
        if let Some(oldest_retained) = journal.store.list()?.first().map(|(offset, _)| *offset) {
            journal
                .writer
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .compact_below(oldest_retained)
                .map_err(JournalError::from)?;
        }
        journal.checkpoints_taken += 1;
        journal.events_since_checkpoint = 0;
        Ok(())
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
        let mut oracle = ArbBot::attach(
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
        let mut bot = ArbBot::attach(
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
        let mut bot = ArbBot::recover_as(
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
        let mut bot = ArbBot::attach(
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

        let bot = ArbBot::recover(
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
        let mut bot = ArbBot::attach(
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
        let recovery = Recovery::new(dir.path(), pipeline_for(&BotConfig::default()), 1);
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
        let bot = ArbBot::attach(
            &mut chain,
            &paper_feed(),
            BotConfig::default(),
            settings(&dir, 100),
            IngestConfig::default(),
        )
        .unwrap();
        drop(bot);
        let mut second = paper_chain();
        let err = ArbBot::attach(
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
