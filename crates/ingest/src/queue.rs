//! The bounded batch queue between sealer and engine.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use arb_dexsim::events::Event;

use crate::coalesce::coalesce;
use crate::stats::{IngestStats, StatsMirror};

/// One sealed block of the multiplexed stream, as delivered to the
/// consumer: coalesced events plus the bookkeeping needed for journal
/// alignment and end-to-end latency measurement.
#[derive(Debug, Clone)]
pub struct IngestBatch {
    /// Journal offset of this block's first **raw** event (the journal
    /// records the pre-coalesce multiplexed stream).
    pub first_offset: u64,
    /// The block's events after coalescing, in delivery order.
    pub events: Vec<Event>,
    /// Raw (pre-coalesce) events this batch subsumes; grows when blocks
    /// sealed against a full queue are merged in.
    pub raw_events: usize,
    /// When the earliest block folded into this batch was sealed — the
    /// "events in" end of the events-in → ranking-updated latency.
    pub sealed_at: Instant,
}

/// The queue plus the stats both halves update, shared by the
/// [`crate::Ingestor`] and its [`crate::IngestHandle`]s.
#[derive(Debug)]
pub(crate) struct Shared {
    state: Mutex<QueueState>,
}

#[derive(Debug)]
pub(crate) struct QueueState {
    queue: VecDeque<IngestBatch>,
    capacity: usize,
    pub stats: IngestStats,
    /// Registry instruments mirroring `stats`, when observability is
    /// attached (see `Ingestor::set_obs`).
    pub obs: Option<StatsMirror>,
}

impl QueueState {
    /// Batches currently queued.
    pub fn depth(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues a sealed block and credits its share of the flow ledger
    /// under the same lock, so `events_in == events_out +
    /// coalesced_away + queued` holds at every enqueue/pop boundary.
    ///
    /// A full queue never grows and never waits: the block merges into
    /// the newest queued batch and the merged events re-coalesce
    /// last-write-wins. Returns whether the block was merged.
    pub fn enqueue(&mut self, batch: IngestBatch) -> bool {
        self.stats.events_in += batch.raw_events as u64;
        self.stats.coalesced_away += (batch.raw_events - batch.events.len()) as u64;
        self.stats.batches_sealed += 1;
        let merged = self.queue.len() >= self.capacity;
        if merged {
            let tail = self.queue.back_mut().expect("capacity is at least 1");
            let before = tail.events.len() + batch.events.len();
            let mut joined = Vec::with_capacity(before);
            joined.extend_from_slice(&tail.events);
            joined.extend_from_slice(&batch.events);
            tail.events = coalesce(&joined);
            tail.raw_events += batch.raw_events;
            self.stats.coalesced_away += (before - tail.events.len()) as u64;
            self.stats.degraded_merges += 1;
        } else {
            self.queue.push_back(batch);
            self.stats.depth_high_water = self.stats.depth_high_water.max(self.queue.len());
        }
        self.debug_check_ledger();
        self.sync_obs();
        merged
    }

    /// Post-coalesce events currently queued — the in-flight leg of the
    /// flow ledger.
    fn queued_events(&self) -> u64 {
        self.queue.iter().map(|b| b.events.len() as u64).sum()
    }

    /// Debug invariant: the flow ledger balances at every enqueue/pop
    /// boundary (`events_in == events_out + coalesced_away + queued`).
    fn debug_check_ledger(&self) {
        debug_assert!(
            self.stats.ledger_balanced(self.queued_events()),
            "ingest flow ledger drifted: {:?} with {} queued",
            self.stats,
            self.queued_events(),
        );
    }

    /// Pushes the updated stats into the registry mirror, if attached.
    fn sync_obs(&mut self) {
        if let Some(mirror) = &mut self.obs {
            mirror.sync(&self.stats);
        }
    }
}

impl Shared {
    pub fn new(capacity: usize) -> Self {
        Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                capacity: capacity.max(1),
                stats: IngestStats::default(),
                obs: None,
            }),
        }
    }

    pub fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().expect("ingest queue poisoned")
    }

    /// Pops the oldest batch if one is queued, crediting delivery stats.
    pub fn try_pop(&self) -> Option<IngestBatch> {
        let mut guard = self.lock();
        let batch = guard.queue.pop_front()?;
        guard.stats.events_out += batch.events.len() as u64;
        guard.stats.batches_delivered += 1;
        guard.debug_check_ledger();
        guard.sync_obs();
        Some(batch)
    }
}
