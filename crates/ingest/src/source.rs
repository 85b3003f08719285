//! The producer half: source registration, multiplexing, sealing.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use arb_amm::token::TokenId;
use arb_dexsim::events::Event;
use arb_journal::{JournalError, JournalWriter};
use arb_obs::{Obs, SpanTimer};

use crate::coalesce::coalesce;
use crate::error::IngestError;
use crate::health::{HealthConfig, HealthMonitor, HealthState};
use crate::queue::{IngestBatch, QueueState, Shared, WaitOutcome};
use crate::stats::{IngestStats, StatsMirror};

/// Pre-resolved span timers over the sealing pipeline, one per stage
/// (`ingest.seal_ns` wraps the other three).
#[derive(Debug, Clone)]
struct SealSpans {
    seal: SpanTimer,
    journal: SpanTimer,
    coalesce: SpanTimer,
    queue: SpanTimer,
}

/// A registered event source. Registration order **is** priority:
/// within a sealed block, all of source 0's events precede all of
/// source 1's, and each source's own arrival order is preserved — the
/// deterministic total order the journal records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceId(u16);

impl SourceId {
    /// The source's registration index (= its priority, 0 highest).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What the producer does when the consumer lags and the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LagPolicy {
    /// Block [`Ingestor::seal_block`] until the consumer frees a slot;
    /// the stall time is surfaced in [`IngestStats::stall_nanos`]. The
    /// source sees backpressure, the engine sees every block.
    #[default]
    BlockSource,
    /// Degraded mode: merge the new block into the newest queued batch
    /// and coalesce across them, so the queue depth stays bounded while
    /// the per-batch coalescing works harder. The source never blocks;
    /// the engine sees fewer, denser batches.
    CoalesceHarder,
}

/// Front-end tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Queue bound, in sealed batches (minimum 1).
    pub queue_capacity: usize,
    /// Full-queue behavior.
    pub lag_policy: LagPolicy,
    /// Per-block last-write-wins coalescing ([`coalesce`]). Disable to
    /// deliver the raw multiplexed stream (the journal always records
    /// raw either way).
    pub coalesce: bool,
    /// Watchdog for [`LagPolicy::BlockSource`]: give up after this much
    /// blocked waiting, merge the sealed block into the queue tail
    /// (degraded coalescing, no data loss), and surface
    /// [`IngestError::StallTimeout`] plus a consumer health transition.
    /// `None` (the default) preserves the original block-forever
    /// behavior.
    pub max_stall: Option<Duration>,
    /// Thresholds for the per-site [`HealthMonitor`]s (sources, the
    /// journal, the consumer).
    pub health: HealthConfig,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            queue_capacity: 8,
            lag_policy: LagPolicy::BlockSource,
            coalesce: true,
            max_stall: None,
            health: HealthConfig::default(),
        }
    }
}

struct Source {
    name: String,
    staged: Vec<Event>,
    /// Cumulative events offered (the source's stream position).
    position: u64,
}

impl std::fmt::Debug for Source {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Source")
            .field("name", &self.name)
            .field("staged", &self.staged.len())
            .field("position", &self.position)
            .finish()
    }
}

/// The producer: stages per-source events, seals them into one
/// deterministically ordered block, journals the raw stream, coalesces,
/// and enqueues for the consumer under the configured lag policy.
#[derive(Debug)]
pub struct Ingestor {
    config: IngestConfig,
    shared: Arc<Shared>,
    sources: Vec<Source>,
    journal: Option<Arc<Mutex<JournalWriter>>>,
    /// Offset of the next raw event on the multiplexed stream (the
    /// journal coordinate space when a journal is attached).
    next_offset: u64,
    /// Seals performed so far — the deterministic clock driving the
    /// health state machines (no wall time, so reruns reproduce the
    /// exact transition sequence).
    seals: u64,
    /// Per-source health, parallel to `sources` (site
    /// `ingest.source.<name>`).
    source_health: Vec<HealthMonitor>,
    /// Journal commit health (site `journal.io`), driving the
    /// retry-with-backoff degraded mode.
    journal_health: HealthMonitor,
    /// Downstream consumer health (site `ingest.consumer`), driven by
    /// queue pressure and the `max_stall` watchdog.
    consumer_health: HealthMonitor,
    /// The most recent journal commit failure, held while the journal
    /// runs degraded (cleared by the recommit that drains the backlog).
    last_journal_error: Option<JournalError>,
    /// Sealing-stage span timers, when observability is attached.
    obs: Option<SealSpans>,
    /// The attached observability bundle, for wiring monitors created
    /// after `set_obs`.
    obs_handle: Option<Obs>,
}

impl Ingestor {
    /// A front-end with no journal attached.
    pub fn new(config: IngestConfig) -> Self {
        Ingestor {
            config,
            shared: Arc::new(Shared::new(config.queue_capacity)),
            sources: Vec::new(),
            journal: None,
            next_offset: 0,
            seals: 0,
            source_health: Vec::new(),
            journal_health: HealthMonitor::new("journal.io", config.health),
            consumer_health: HealthMonitor::new("ingest.consumer", config.health),
            last_journal_error: None,
            obs: None,
            obs_handle: None,
        }
    }

    /// Attaches observability: span timers over every sealing stage
    /// (`ingest.seal_ns` → `journal_ns`/`coalesce_ns`/`queue_ns`) and a
    /// registry mirror of [`IngestStats`] under `ingest.*`, updated
    /// under the queue lock so the registry and the legacy struct can
    /// never disagree. Totals are mirrored by delta, so an ingestor
    /// rebuilt on the same registry keeps its counters climbing; attach
    /// each ingestor once.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.obs = Some(SealSpans {
            seal: obs.span("ingest.seal_ns"),
            journal: obs.span("ingest.journal_ns"),
            coalesce: obs.span("ingest.coalesce_ns"),
            queue: obs.span("ingest.queue_ns"),
        });
        let mut guard = self.shared.lock();
        let mut mirror = StatsMirror::new(obs.registry());
        mirror.sync(&guard.stats);
        guard.obs = Some(mirror);
        drop(guard);
        for monitor in &mut self.source_health {
            monitor.set_obs(obs);
        }
        self.journal_health.set_obs(obs);
        self.consumer_health.set_obs(obs);
        self.obs_handle = Some(obs.clone());
    }

    /// Builder form of [`Ingestor::set_obs`].
    #[must_use]
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.set_obs(obs);
        self
    }

    /// Attaches a journal: every sealed block's **raw** multiplexed
    /// events are appended and committed before the batch is queued, so
    /// the durable stream is a full-fidelity record (coalescing is a
    /// delivery optimization, not a storage one). Adopts the writer's
    /// tail as the stream offset.
    #[must_use]
    pub fn with_journal(mut self, writer: Arc<Mutex<JournalWriter>>) -> Self {
        self.next_offset = writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .next_offset();
        self.journal = Some(writer);
        self
    }

    /// Registers a source. Registration order is merge priority — put
    /// the price feed before the chains to mirror the "feed updates
    /// apply before the block's events" convention used everywhere else
    /// in the workspace.
    pub fn register_source(&mut self, name: &str) -> SourceId {
        let id = SourceId(u16::try_from(self.sources.len()).expect("too many ingest sources"));
        self.sources.push(Source {
            name: name.to_string(),
            staged: Vec::new(),
            position: 0,
        });
        let mut monitor = HealthMonitor::new(format!("ingest.source.{name}"), self.config.health);
        if let Some(obs) = &self.obs_handle {
            monitor.set_obs(obs);
        }
        self.source_health.push(monitor);
        id
    }

    /// The registered source names, in priority order.
    pub fn source_names(&self) -> Vec<&str> {
        self.sources.iter().map(|s| s.name.as_str()).collect()
    }

    /// Per-source cumulative offered-event counts, in priority order.
    /// After a full drain these are the consumed positions a checkpoint
    /// should record (`RuntimeCheckpoint::source_positions`).
    pub fn source_positions(&self) -> Vec<u64> {
        self.sources.iter().map(|s| s.position).collect()
    }

    /// Restores per-source positions after a recovery, so positions
    /// keep counting from where the checkpointed process left off.
    ///
    /// # Errors
    ///
    /// Returns [`IngestError::UnknownSource`] when `positions` names
    /// more sources than are registered.
    pub fn restore_positions(&mut self, positions: &[u64]) -> Result<(), IngestError> {
        if positions.len() > self.sources.len() {
            return Err(IngestError::UnknownSource(positions.len() - 1));
        }
        for (source, &position) in self.sources.iter_mut().zip(positions) {
            source.position = position;
        }
        Ok(())
    }

    /// The consumer handle. Clone freely; handles stay valid after the
    /// ingestor closes (they drain the queue, then see end-of-stream).
    pub fn handle(&self) -> IngestHandle {
        IngestHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The stream offset the next sealed event will occupy.
    pub fn next_offset(&self) -> u64 {
        self.next_offset
    }

    /// A stats snapshot.
    pub fn stats(&self) -> IngestStats {
        self.shared.lock().stats
    }

    /// Seals performed so far — the tick coordinate the health state
    /// machines run on.
    pub fn seals(&self) -> u64 {
        self.seals
    }

    /// Health of one registered source (site `ingest.source.<name>`).
    pub fn source_health(&self, source: SourceId) -> Option<&HealthMonitor> {
        self.source_health.get(source.index())
    }

    /// Health of the attached journal's commit path (site
    /// `journal.io`). Stays Healthy when no journal is attached.
    pub fn journal_health(&self) -> &HealthMonitor {
        &self.journal_health
    }

    /// Health of the downstream consumer (site `ingest.consumer`),
    /// driven by backpressure and the `max_stall` watchdog.
    pub fn consumer_health(&self) -> &HealthMonitor {
        &self.consumer_health
    }

    /// Whether the stream is running journal-degraded: a commit failed
    /// and its batch is still pending retry, so the durable journal
    /// lags the applied stream. Serving continues; checkpoints should
    /// be deferred until this clears.
    pub fn journal_degraded(&self) -> bool {
        self.last_journal_error.is_some()
            || matches!(
                self.journal_health.state(),
                HealthState::Lagging | HealthState::Quarantined
            )
    }

    /// The journal failure currently holding the stream in degraded
    /// mode, if any (cleared by the recommit that drains the backlog).
    pub fn last_journal_error(&self) -> Option<&JournalError> {
        self.last_journal_error.as_ref()
    }

    /// Stages events from `source` for the next seal. Order within a
    /// source is preserved verbatim.
    ///
    /// # Errors
    ///
    /// Returns [`IngestError::UnknownSource`] for an id this ingestor
    /// did not issue.
    pub fn offer(
        &mut self,
        source: SourceId,
        events: impl IntoIterator<Item = Event>,
    ) -> Result<usize, IngestError> {
        let slot = self
            .sources
            .get_mut(source.index())
            .ok_or(IngestError::UnknownSource(source.index()))?;
        let before = slot.staged.len();
        slot.staged.extend(events);
        let added = slot.staged.len() - before;
        slot.position += added as u64;
        Ok(added)
    }

    /// Stages CEX feed moves as inline [`Event::FeedPrice`] events —
    /// the bridge that puts the price stream into the same journaled
    /// coordinate space as chain events.
    ///
    /// # Errors
    ///
    /// As [`Ingestor::offer`].
    pub fn offer_feed_moves(
        &mut self,
        source: SourceId,
        moves: &[(TokenId, f64)],
    ) -> Result<usize, IngestError> {
        self.offer(
            source,
            moves
                .iter()
                .map(|&(token, price)| Event::feed_price(token, price)),
        )
    }

    /// Seals the current block: multiplexes staged events in source
    /// priority order, journals the raw stream, coalesces, and enqueues
    /// one batch (always exactly one — an empty block still marks a
    /// tick boundary). Returns the stream offset after the seal.
    ///
    /// A journal commit failure does **not** abort the seal: the batch
    /// stays pending inside the writer, the block is still delivered,
    /// and later seals retry the commit under the journal health
    /// machine's bounded backoff ([`Ingestor::journal_degraded`] is
    /// true until the backlog drains). Serving keeps running on an
    /// unwritable disk; only durability lags.
    ///
    /// # Errors
    ///
    /// * [`IngestError::Closed`] — [`Ingestor::close`] was called.
    /// * [`IngestError::StallTimeout`] — the [`IngestConfig::max_stall`]
    ///   watchdog fired under [`LagPolicy::BlockSource`]; the block was
    ///   merged into the queue tail (no data loss).
    pub fn seal_block(&mut self) -> Result<u64, IngestError> {
        let _seal = self.obs.as_ref().map(|o| o.seal.start());
        let seal_tick = self.seals;
        self.seals += 1;
        let mut raw: Vec<Event> = Vec::new();
        let mut progressed = Vec::with_capacity(self.sources.len());
        for source in &mut self.sources {
            progressed.push(!source.staged.is_empty());
            raw.append(&mut source.staged);
        }
        // Silence only counts against a source when some peer moved
        // this seal; an all-quiet market penalizes nobody.
        if progressed.contains(&true) {
            for (monitor, moved) in self.source_health.iter_mut().zip(&progressed) {
                if *moved {
                    monitor.record_progress(seal_tick);
                } else {
                    monitor.record_idle(seal_tick);
                }
            }
        }
        let first_offset = self.next_offset;
        self.next_offset += raw.len() as u64;

        let mut journal_failed = false;
        let mut journal_recommitted = false;
        if let Some(journal) = &self.journal {
            let _journal = self.obs.as_ref().map(|o| o.journal.start());
            let mut writer = journal.lock().unwrap_or_else(PoisonError::into_inner);
            writer.append_batch(&raw);
            // Commit only when there is something at stake and (while
            // quarantined) the backoff window has elapsed — quiet seals
            // retry the failed backlog for free.
            if writer.pending_events() > 0 && self.journal_health.should_attempt(seal_tick) {
                match writer.commit() {
                    Ok(_) => {
                        journal_recommitted = self.last_journal_error.take().is_some();
                        self.journal_health.record_progress(seal_tick);
                    }
                    Err(error) => {
                        journal_failed = true;
                        self.last_journal_error = Some(JournalError::from(error));
                        self.journal_health.record_failure(seal_tick);
                    }
                }
            }
        }

        let events = if self.config.coalesce {
            let _coalesce = self.obs.as_ref().map(|o| o.coalesce.start());
            coalesce(&raw)
        } else {
            raw.clone()
        };
        let batch = IngestBatch {
            first_offset,
            raw_events: raw.len(),
            sealed_at: Instant::now(),
            events,
        };
        // The block's own ledger contribution, credited only once the
        // batch actually lands in the queue (same lock), so
        // `events_in == events_out + coalesced_away + queued` holds at
        // every enqueue/pop boundary — crediting before the enqueue
        // (the old order) let a consumer racing a stalled producer
        // observe a drifted ledger.
        let sealed_raw = raw.len() as u64;
        let block_coalesced = (raw.len() - batch.events.len()) as u64;

        let _queue = self.obs.as_ref().map(|o| o.queue.start());
        let mut guard = self.shared.lock();
        if guard.closed {
            return Err(IngestError::Closed);
        }
        // Journal counters ride the same lock as the flow-ledger
        // credits so the registry mirror sees one consistent snapshot.
        guard.stats.journal_write_failures += u64::from(journal_failed);
        guard.stats.journal_recommits += u64::from(journal_recommitted);
        if guard.queue.len() >= guard.capacity {
            match self.config.lag_policy {
                LagPolicy::BlockSource => {
                    let stalled = Instant::now();
                    if let Some(max_stall) = self.config.max_stall {
                        let (mut guard, outcome) =
                            self.shared.wait_not_full_deadline(guard, max_stall);
                        let waited = stalled.elapsed().as_nanos() as u64;
                        guard.stats.stall_nanos += waited;
                        match outcome {
                            WaitOutcome::Closed => {
                                guard.sync_obs();
                                return Err(IngestError::Closed);
                            }
                            WaitOutcome::TimedOut => {
                                // The watchdog fired: degrade exactly
                                // like CoalesceHarder (merge into the
                                // tail, nothing dropped) and surface a
                                // typed error instead of blocking the
                                // producer forever on a wedged
                                // consumer.
                                let squeezed =
                                    merge_into_tail(&mut guard, batch, self.config.coalesce);
                                guard.stats.events_in += sealed_raw;
                                guard.stats.coalesced_away += block_coalesced + squeezed;
                                guard.stats.batches_sealed += 1;
                                guard.stats.degraded_merges += 1;
                                guard.stats.stall_timeouts += 1;
                                guard.debug_check_ledger();
                                guard.sync_obs();
                                drop(guard);
                                self.consumer_health.record_failure(seal_tick);
                                return Err(IngestError::StallTimeout {
                                    waited_nanos: waited,
                                });
                            }
                            WaitOutcome::Open => {
                                guard.stats.events_in += sealed_raw;
                                guard.stats.coalesced_away += block_coalesced;
                                guard.stats.batches_sealed += 1;
                                self.shared.push(&mut guard, batch);
                                drop(guard);
                                self.consumer_health.record_progress(seal_tick);
                                return Ok(self.next_offset);
                            }
                        }
                    }
                    let (mut open_guard, open) = self.shared.wait_not_full(guard);
                    open_guard.stats.stall_nanos += stalled.elapsed().as_nanos() as u64;
                    if !open {
                        open_guard.sync_obs();
                        return Err(IngestError::Closed);
                    }
                    open_guard.stats.events_in += sealed_raw;
                    open_guard.stats.coalesced_away += block_coalesced;
                    open_guard.stats.batches_sealed += 1;
                    self.shared.push(&mut open_guard, batch);
                    drop(open_guard);
                    self.consumer_health.record_progress(seal_tick);
                    return Ok(self.next_offset);
                }
                LagPolicy::CoalesceHarder => {
                    let squeezed = merge_into_tail(&mut guard, batch, self.config.coalesce);
                    guard.stats.events_in += sealed_raw;
                    guard.stats.coalesced_away += block_coalesced + squeezed;
                    guard.stats.batches_sealed += 1;
                    guard.stats.degraded_merges += 1;
                    guard.debug_check_ledger();
                    guard.sync_obs();
                    drop(guard);
                    self.consumer_health.record_idle(seal_tick);
                    return Ok(self.next_offset);
                }
            }
        }
        guard.stats.events_in += sealed_raw;
        guard.stats.coalesced_away += block_coalesced;
        guard.stats.batches_sealed += 1;
        self.shared.push(&mut guard, batch);
        drop(guard);
        self.consumer_health.record_progress(seal_tick);
        Ok(self.next_offset)
    }

    /// Closes the stream: queued batches stay drainable, further seals
    /// and pops past the drain report end-of-stream.
    pub fn close(&self) {
        self.shared.close();
    }
}

/// Merges `batch` into the newest queued batch (degraded coalescing:
/// queue depth stays bounded, per-batch coalescing works harder).
/// Returns how many events the cross-batch coalesce squeezed out.
fn merge_into_tail(state: &mut QueueState, batch: IngestBatch, coalesce_on: bool) -> u64 {
    let tail = state.queue.back_mut().expect("full queue has a tail batch");
    let before = tail.events.len() + batch.events.len();
    let mut merged = Vec::with_capacity(before);
    merged.extend_from_slice(&tail.events);
    merged.extend_from_slice(&batch.events);
    tail.events = if coalesce_on {
        coalesce(&merged)
    } else {
        merged
    };
    tail.raw_events += batch.raw_events;
    (before - tail.events.len()) as u64
}

/// The consumer handle over the bounded queue.
#[derive(Debug, Clone)]
pub struct IngestHandle {
    shared: Arc<Shared>,
}

impl IngestHandle {
    /// Pops the oldest sealed batch, or `None` when the queue is empty.
    pub fn try_pop(&self) -> Option<IngestBatch> {
        self.shared.try_pop()
    }

    /// Blocks for the next batch; `None` once the stream is closed and
    /// fully drained.
    pub fn pop_blocking(&self) -> Option<IngestBatch> {
        self.shared.pop_blocking()
    }

    /// Batches currently queued.
    pub fn depth(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Whether the producer closed the stream (queued batches may still
    /// remain).
    pub fn is_closed(&self) -> bool {
        self.shared.lock().closed
    }

    /// A stats snapshot.
    pub fn stats(&self) -> IngestStats {
        self.shared.lock().stats
    }
}
