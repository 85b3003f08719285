//! The bounded producer/consumer boundary between sealer and engine.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use arb_dexsim::events::Event;

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
    /// Raw (pre-coalesce) events this batch subsumes; grows when lagging
    /// blocks are merged in under `LagPolicy::CoalesceHarder`.
    pub raw_events: usize,
    /// When the earliest block folded into this batch was sealed — the
    /// "events in" end of the events-in → ranking-updated latency.
    pub sealed_at: Instant,
}

/// How a deadline-bounded producer wait ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WaitOutcome {
    /// Room opened up; the stream is still open.
    Open,
    /// The stream closed while waiting.
    Closed,
    /// The watchdog fired before the consumer freed space.
    TimedOut,
}

/// The shared half of the boundary: a bounded batch queue plus the
/// stats both sides update.
#[derive(Debug)]
pub(crate) struct Shared {
    state: Mutex<QueueState>,
    not_full: Condvar,
    not_empty: Condvar,
}

#[derive(Debug)]
pub(crate) struct QueueState {
    pub queue: VecDeque<IngestBatch>,
    pub capacity: usize,
    pub closed: bool,
    pub stats: IngestStats,
    /// Registry instruments mirroring `stats`, when observability is
    /// attached (see `Ingestor::set_obs`).
    pub obs: Option<StatsMirror>,
}

impl QueueState {
    /// Post-coalesce events currently queued — the in-flight leg of the
    /// flow ledger.
    pub fn queued_events(&self) -> u64 {
        self.queue.iter().map(|b| b.events.len() as u64).sum()
    }

    /// Debug invariant: the flow ledger balances at every enqueue/pop
    /// boundary (`events_in == events_out + coalesced_away + queued`).
    /// Stats crediting happens under the same lock as the queue
    /// mutation, so any drift here is a real accounting bug, not a
    /// race.
    pub fn debug_check_ledger(&self) {
        debug_assert!(
            self.stats.ledger_balanced(self.queued_events()),
            "ingest flow ledger drifted: {:?} with {} queued",
            self.stats,
            self.queued_events(),
        );
    }

    /// Pushes the updated stats into the registry mirror, if attached.
    pub fn sync_obs(&mut self) {
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
                closed: false,
                stats: IngestStats::default(),
                obs: None,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    pub fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().expect("ingest queue poisoned")
    }

    /// Parks the producer until the queue has room or the stream closes;
    /// returns the guard and whether the stream is still open.
    pub fn wait_not_full<'a>(
        &'a self,
        mut guard: MutexGuard<'a, QueueState>,
    ) -> (MutexGuard<'a, QueueState>, bool) {
        while guard.queue.len() >= guard.capacity && !guard.closed {
            guard = self.not_full.wait(guard).expect("ingest queue poisoned");
        }
        let open = !guard.closed;
        (guard, open)
    }

    /// [`Shared::wait_not_full`] with a watchdog: gives up after
    /// `max_stall` of cumulative waiting instead of parking forever on
    /// a wedged consumer.
    pub fn wait_not_full_deadline<'a>(
        &'a self,
        mut guard: MutexGuard<'a, QueueState>,
        max_stall: Duration,
    ) -> (MutexGuard<'a, QueueState>, WaitOutcome) {
        let deadline = Instant::now() + max_stall;
        while guard.queue.len() >= guard.capacity && !guard.closed {
            let Some(remaining) = deadline
                .checked_duration_since(Instant::now())
                .filter(|d| !d.is_zero())
            else {
                return (guard, WaitOutcome::TimedOut);
            };
            let (next, _timeout) = self
                .not_full
                .wait_timeout(guard, remaining)
                .expect("ingest queue poisoned");
            guard = next;
        }
        let outcome = if guard.closed {
            WaitOutcome::Closed
        } else {
            WaitOutcome::Open
        };
        (guard, outcome)
    }

    /// Pushes a sealed batch (caller must hold room) and wakes a
    /// consumer.
    pub fn push(&self, guard: &mut MutexGuard<'_, QueueState>, batch: IngestBatch) {
        guard.queue.push_back(batch);
        let depth = guard.queue.len();
        if depth > guard.stats.depth_high_water {
            guard.stats.depth_high_water = depth;
        }
        guard.debug_check_ledger();
        guard.sync_obs();
        self.not_empty.notify_one();
    }

    /// Pops the oldest batch if one is queued, crediting delivery stats
    /// and waking a blocked producer.
    pub fn try_pop(&self) -> Option<IngestBatch> {
        let mut guard = self.lock();
        let batch = guard.queue.pop_front()?;
        guard.stats.events_out += batch.events.len() as u64;
        guard.stats.batches_delivered += 1;
        guard.debug_check_ledger();
        guard.sync_obs();
        self.not_full.notify_one();
        Some(batch)
    }

    /// Blocks until a batch arrives; `None` once the stream is closed
    /// *and* drained.
    pub fn pop_blocking(&self) -> Option<IngestBatch> {
        let mut guard = self.lock();
        loop {
            if let Some(batch) = guard.queue.pop_front() {
                guard.stats.events_out += batch.events.len() as u64;
                guard.stats.batches_delivered += 1;
                guard.debug_check_ledger();
                guard.sync_obs();
                self.not_full.notify_one();
                return Some(batch);
            }
            if guard.closed {
                return None;
            }
            guard = self.not_empty.wait(guard).expect("ingest queue poisoned");
        }
    }

    /// Closes the stream: producers error out, consumers drain what is
    /// queued and then see end-of-stream.
    pub fn close(&self) {
        let mut guard = self.lock();
        guard.closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}
