//! The live path, driven through each layer's public API:
//! `Ingestor::offer*` → `Ingestor::seal_block` (journal append + commit)
//! → `IngestDriver::try_step` (route, screen, evaluate, rank, merge) →
//! `Publisher::publish_if_changed` → a probe `ServeHandle` that observes
//! the new revision. Checkpoints follow `IngestBot`'s recipe on a fixed
//! event cadence.

use std::error::Error;
use std::fs;
use std::hint::spin_loop;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use arb_amm::token::TokenId;
use arb_engine::{OpportunityPipeline, PipelineConfig, ShardedRuntime};
use arb_ingest::{IngestConfig, IngestDriver, IngestStats, Ingestor, SourceId};
use arb_journal::{JournalConfig, JournalWriter, SnapshotStore};
use arb_serve::{ClassLimit, ClientClass, GovernorConfig, Publisher, RankedSnapshot, ServeHandle};
use arb_workloads::{Scenario, TickBatch};

use crate::alloc::AllocCount;

pub type BenchResult<T> = Result<T, Box<dyn Error + Send + Sync>>;

/// Shards in the runtime: one per vCPU of the 2-vCPU host the bounds
/// were set on. Rebalancing stays off (the runtime's default).
pub const SHARDS: usize = 2;

/// Snapshots kept after each checkpoint, as `IngestBot` keeps them.
const KEEP_SNAPSHOTS: usize = 2;

/// The engine configuration every fleet, oracle and recovery uses.
pub fn pipeline() -> OpportunityPipeline {
    OpportunityPipeline::new(PipelineConfig::default())
}

/// Rate envelopes far above what one reader thread can issue, so
/// `reads_per_s` measures the serving path rather than the configured
/// rate (the default Interactive envelope is 100k/s).
pub fn unthrottled_governor() -> GovernorConfig {
    let open = ClassLimit {
        rate_per_sec: 1e9,
        burst: 1e9,
    };
    GovernorConfig {
        limits: [open; 3],
        max_concurrent: 1_024,
    }
}

/// Where a cold start spent its time.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Journal open, genesis feed sealed, `ShardedRuntime::new` (cycle
    /// enumeration).
    pub build: Duration,
    /// The cold `refresh` that ranks the whole universe.
    pub refresh: Duration,
    /// The first publish until the probe sees it.
    pub publish: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.build + self.refresh + self.publish
    }
}

/// One layer of the live path, in call order; the discriminant indexes
/// the per-layer arrays.
#[derive(Debug, Clone, Copy)]
pub enum Layer {
    Stage,
    Seal,
    Apply,
    Publish,
    Probe,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 5;

/// Benchmark-side timers and allocation counters around each layer call
/// of one tick. Marks are contiguous, so the layers tile the tick.
#[derive(Debug)]
pub struct Tracer {
    last: Instant,
    last_alloc: AllocCount,
    /// Nanoseconds and allocation counts per [`Layer`].
    pub nanos: [u64; LAYERS],
    pub allocs: [AllocCount; LAYERS],
}

impl Tracer {
    fn begin(start: Instant) -> Self {
        Tracer {
            last: start,
            last_alloc: AllocCount::now(),
            nanos: [0; LAYERS],
            allocs: [AllocCount::default(); LAYERS],
        }
    }

    fn mark(&mut self, layer: Layer) {
        let now = Instant::now();
        let alloc = AllocCount::now();
        self.nanos[layer as usize] = (now - self.last).as_nanos() as u64;
        self.allocs[layer as usize] = alloc.since(self.last_alloc);
        self.last = now;
        self.last_alloc = alloc;
    }
}

/// What one tick did.
#[derive(Debug)]
pub struct TickOutcome {
    /// First offer → probe sees the tick's revision.
    pub visible: Duration,
    /// Raw events offered (feed moves plus chain events).
    pub raw_events: usize,
    /// Whether the tick published a new revision.
    pub published: bool,
    /// Per-layer times, when traced.
    pub trace: Option<Tracer>,
}

/// What one checkpoint wrote.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointOutcome {
    pub elapsed: Duration,
    pub bytes: u64,
}

/// A fleet: journal, ingest front-end, sharded runtime, publisher and the
/// probe reader, over one journal directory.
#[derive(Debug)]
pub struct Fleet {
    dir: PathBuf,
    writer: Arc<Mutex<JournalWriter>>,
    ingestor: Ingestor,
    feed_source: SourceId,
    chain_source: SourceId,
    driver: IngestDriver,
    store: SnapshotStore,
    publisher: Publisher,
    probe: ServeHandle,
    checkpoint_every_events: usize,
    events_since_checkpoint: usize,
}

impl Fleet {
    /// Builds a fleet from empty in `dir` (which must not exist yet) and
    /// publishes its first ranking. The scenario's pools and prices are
    /// copied before the clock starts.
    pub fn cold_start(
        scenario: &Scenario,
        dir: PathBuf,
        checkpoint_every_events: usize,
    ) -> BenchResult<(Fleet, SetupTimes)> {
        let pools = scenario.pools.clone();
        let runtime_feed = scenario.feed.clone();
        let driver_feed = scenario.feed.clone();
        let mut genesis: Vec<(TokenId, f64)> = scenario.feed.iter().collect();
        genesis.sort_unstable_by_key(|(token, _)| token.index());

        let start = Instant::now();
        let writer = JournalWriter::open(
            &dir,
            JournalConfig {
                sync_on_commit: false,
                ..JournalConfig::default()
            },
        )?;
        let writer = Arc::new(Mutex::new(writer));
        let mut ingestor = Ingestor::new(IngestConfig::default()).with_journal(writer.clone());
        let feed_source = ingestor.register_source("cex-feed");
        let chain_source = ingestor.register_source("dexsim");
        // The genesis block journals the initial prices for recovery; the
        // runtime itself is built from the universe directly, so the
        // block is popped rather than applied (as `IngestBot` does).
        ingestor.offer_feed_moves(feed_source, &genesis)?;
        ingestor.seal_block()?;
        ingestor
            .handle()
            .try_pop()
            .ok_or("the genesis block was not queued")?;
        let mut runtime = ShardedRuntime::new(pipeline(), pools, SHARDS)?;
        let built = Instant::now();

        let report = runtime.refresh(&runtime_feed)?;
        let refreshed = Instant::now();

        let revision = runtime.standing_revision();
        let driver = IngestDriver::new(runtime, driver_feed, ingestor.handle());
        let store = SnapshotStore::new(&dir)?;
        let mut publisher = Publisher::new(unthrottled_governor());
        let probe = publisher.handle(ClientClass::Interactive);
        let target = publisher
            .publish_if_changed(revision, &report.opportunities)
            .ok_or("a fresh publisher skipped its first ranking")?;
        wait_for(&probe, target);
        let published = Instant::now();

        let times = SetupTimes {
            build: built - start,
            refresh: refreshed - built,
            publish: published - refreshed,
        };
        let fleet = Fleet {
            dir,
            writer,
            ingestor,
            feed_source,
            chain_source,
            driver,
            store,
            publisher,
            probe,
            checkpoint_every_events,
            events_since_checkpoint: 0,
        };
        Ok((fleet, times))
    }

    /// Replays one tick along the live path. Only the two tick-boundary
    /// timestamps are taken unless `traced`.
    pub fn tick(&mut self, batch: &TickBatch, traced: bool) -> BenchResult<TickOutcome> {
        let start = Instant::now();
        let mut trace = traced.then(|| Tracer::begin(start));
        let mut mark = |layer| {
            if let Some(t) = trace.as_mut() {
                t.mark(layer);
            }
        };
        self.ingestor
            .offer_feed_moves(self.feed_source, &batch.feed_moves)?;
        self.ingestor
            .offer(self.chain_source, batch.events.iter().copied())?;
        mark(Layer::Stage);
        self.ingestor.seal_block()?;
        mark(Layer::Seal);
        let report = self
            .driver
            .try_step()?
            .ok_or("the sealed block was not delivered")?;
        mark(Layer::Apply);
        let published = self.publisher.publish_if_changed(
            self.driver.runtime().standing_revision(),
            &report.opportunities,
        );
        let target = published.unwrap_or_else(|| self.publisher.revision());
        mark(Layer::Publish);
        wait_for(&self.probe, target);
        mark(Layer::Probe);
        let visible = start.elapsed();

        let raw_events = batch.feed_moves.len() + batch.events.len();
        self.events_since_checkpoint += raw_events;
        Ok(TickOutcome {
            visible,
            raw_events,
            published: published.is_some(),
            trace,
        })
    }

    /// Writes a checkpoint when the event cadence says one is due:
    /// snapshot at the durable tail (with prices and source positions),
    /// prune, and compact the journal below the oldest kept snapshot.
    pub fn checkpoint_if_due(&mut self) -> BenchResult<Option<CheckpointOutcome>> {
        if self.events_since_checkpoint < self.checkpoint_every_events {
            return Ok(None);
        }
        let start = Instant::now();
        let (offset, pending) = {
            let writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
            (writer.durable_offset(), writer.pending_events())
        };
        if pending > 0 {
            return Err("journal commit lagging on a fault-free run".into());
        }
        let mut checkpoint = self.driver.checkpoint();
        checkpoint.source_positions = self.ingestor.source_positions();
        let path = self.store.write(offset, &checkpoint)?;
        self.store.prune(KEEP_SNAPSHOTS)?;
        if let Some(&(oldest, _)) = self.store.list()?.first() {
            self.writer
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .compact_below(oldest)?;
        }
        let elapsed = start.elapsed();
        self.events_since_checkpoint = 0;
        Ok(Some(CheckpointOutcome {
            elapsed,
            bytes: fs::metadata(path)?.len(),
        }))
    }

    /// Whether half a checkpoint interval of events has been journaled
    /// since the last checkpoint (or since genesis).
    pub fn half_interval_journaled(&self) -> bool {
        2 * self.events_since_checkpoint >= self.checkpoint_every_events
    }

    /// The snapshot readers currently see.
    pub fn visible(&self) -> Arc<RankedSnapshot> {
        self.probe.load()
    }

    /// A governed reader endpoint for another thread.
    pub fn reader(&self) -> ServeHandle {
        self.publisher.handle(ClientClass::Interactive)
    }

    pub fn ingest_stats(&self) -> IngestStats {
        self.ingestor.stats()
    }

    pub fn runtime(&self) -> &ShardedRuntime {
        self.driver.runtime()
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Spins until the probe observes `revision`. The publisher installs
/// synchronously, so this is one load today; the loop keeps the metric
/// honest if publication ever becomes asynchronous.
fn wait_for(probe: &ServeHandle, revision: u64) {
    while probe.load().revision() != revision {
        spin_loop();
    }
}

/// Bytes of journal segments in `dir` (everything but snapshots).
pub fn segment_bytes(dir: &Path) -> BenchResult<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if !entry.file_name().to_string_lossy().starts_with("snapshot-") {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}
