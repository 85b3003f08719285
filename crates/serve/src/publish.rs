//! Lock-free snapshot publication: one writer, any number of wait-free
//! readers.
//!
//! The cell holds the current [`RankedSnapshot`] behind a raw
//! [`AtomicPtr`]. Publishing swaps the pointer; reading loads it and
//! bumps the underlying `Arc`'s strong count. The only hazard is the
//! window between a reader's pointer load and its refcount bump — the
//! writer must not release its own reference in that window. We close
//! it with epoch-based reclamation:
//!
//! * the cell carries a global epoch counter, bumped once per publish;
//! * each reader handle owns a **pin slot** (one per handle, and a
//!   handle is `Send + !Sync`, so one per thread of use): before
//!   loading the pointer it stores the epoch it observed, after the
//!   refcount bump it stores the `UNPINNED` sentinel;
//! * the writer retires the swapped-out pointer tagged with the
//!   **post-bump** epoch, and only releases retired references whose
//!   tag is `<=` the minimum pinned epoch across all slots.
//!
//! Safety argument (everything is `SeqCst`, so one total order): a
//! reader pinned at epoch `e` loads the pointer *after* its pin store.
//! A retired pointer tagged `r <= e` was swapped out *before* the epoch
//! reached `r`, hence before the reader's epoch load that returned
//! `e >= r`, hence before the reader's pointer load — the reader cannot
//! have loaded it. Conversely a reader whose pin was not yet visible to
//! the writer's scan stored its pin after the scan's read, hence loaded
//! the pointer after the writer's swap — it holds the new snapshot, not
//! the retired one. Either way releasing tagged-`<= min` retirees never
//! frees a pointer a reader is between loading and retaining.
//!
//! "Release" here only drops the cell's own `Arc` reference: a reader
//! that already bumped the count keeps its snapshot alive arbitrarily
//! long without ever blocking the writer.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use arb_engine::ArbitrageOpportunity;
use arb_obs::{Counter, Gauge, Obs, SpanTimer};

use crate::diff::{diff, RankingDelta};
use crate::error::ServeError;
use crate::governor::{ClientClass, Governor, GovernorConfig, GovernorStats, Permit};
use crate::snapshot::RankedSnapshot;

/// Slot value meaning "not inside a read": also the identity of `min`,
/// so unpinned slots never hold back reclamation.
const UNPINNED: u64 = u64::MAX;

/// Published deltas retained for subscribers before they must resync.
const DELTA_RING: usize = 64;

/// A reader's pin slot. Owned by exactly one [`ServeHandle`]; the cell
/// keeps a second `Arc` to scan it.
#[derive(Debug)]
struct ReaderSlot {
    pinned: AtomicU64,
}

/// A swapped-out snapshot pointer awaiting release. The pointer came
/// from `Arc::into_raw` and is released with `Arc::from_raw` exactly
/// once, on the writer thread — sending the bare pointer is safe
/// because `RankedSnapshot` is `Send + Sync`.
#[derive(Debug)]
struct RetiredPtr(*const RankedSnapshot);

// SAFETY: see `RetiredPtr` — ownership of one strong count moves with
// the struct; the pointee is `Send + Sync`.
unsafe impl Send for RetiredPtr {}

#[derive(Debug, Default)]
struct WriterState {
    /// `(retire_epoch, pointer)` pairs not yet proven unreachable.
    retired: Vec<(u64, RetiredPtr)>,
}

#[derive(Debug, Default)]
struct DeltaRing {
    deltas: VecDeque<Arc<RankingDelta>>,
}

/// The shared publication cell. Readers touch only `current`, `epoch`,
/// and their own slot — never a lock.
#[derive(Debug)]
pub(crate) struct SnapshotCell {
    current: AtomicPtr<RankedSnapshot>,
    epoch: AtomicU64,
    readers: Mutex<Vec<Arc<ReaderSlot>>>,
    writer: Mutex<WriterState>,
    /// Recent deltas for subscribers. Only subscribers lock this; the
    /// point-query path never does.
    ring: Mutex<DeltaRing>,
}

impl SnapshotCell {
    fn new(initial: Arc<RankedSnapshot>) -> Self {
        Self {
            current: AtomicPtr::new(Arc::into_raw(initial).cast_mut()),
            epoch: AtomicU64::new(0),
            readers: Mutex::new(Vec::new()),
            writer: Mutex::new(WriterState::default()),
            ring: Mutex::new(DeltaRing::default()),
        }
    }

    fn register(&self) -> Arc<ReaderSlot> {
        let slot = Arc::new(ReaderSlot {
            pinned: AtomicU64::new(UNPINNED),
        });
        self.readers
            .lock()
            .expect("reader registry lock")
            .push(Arc::clone(&slot));
        slot
    }

    /// The wait-free read: pin, load, retain, unpin. See the module
    /// docs for why the pin makes the load-to-retain window safe.
    fn load(&self, slot: &ReaderSlot) -> Arc<RankedSnapshot> {
        slot.pinned
            .store(self.epoch.load(Ordering::SeqCst), Ordering::SeqCst);
        let ptr = self.current.load(Ordering::SeqCst);
        // SAFETY: `ptr` came from `Arc::into_raw` and the pin protocol
        // guarantees the writer has not released its reference between
        // our load and this bump (module-level argument).
        let snapshot = unsafe {
            Arc::increment_strong_count(ptr);
            Arc::from_raw(ptr)
        };
        slot.pinned.store(UNPINNED, Ordering::SeqCst);
        snapshot
    }

    /// Writer side: swap in `next`, retire the old pointer, release
    /// every retiree no pinned reader can still reach.
    fn install(&self, next: Arc<RankedSnapshot>) {
        let old = self
            .current
            .swap(Arc::into_raw(next).cast_mut(), Ordering::SeqCst);
        let retire_epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let min_pinned = self
            .readers
            .lock()
            .expect("reader registry lock")
            .iter()
            .map(|slot| slot.pinned.load(Ordering::SeqCst))
            .min()
            .unwrap_or(UNPINNED);
        let mut writer = self.writer.lock().expect("writer state lock");
        writer.retired.push((retire_epoch, RetiredPtr(old)));
        writer.retired.retain(|(tag, ptr)| {
            if *tag <= min_pinned {
                // SAFETY: releases the single strong count carried by
                // the `RetiredPtr`; no reader can be mid-retain on it
                // (module-level argument).
                unsafe { drop(Arc::from_raw(ptr.0)) };
                false
            } else {
                true
            }
        });
    }

    fn push_delta(&self, delta: RankingDelta) {
        let mut ring = self.ring.lock().expect("delta ring lock");
        if ring.deltas.len() == DELTA_RING {
            ring.deltas.pop_front();
        }
        ring.deltas.push_back(Arc::new(delta));
    }
}

impl Drop for SnapshotCell {
    fn drop(&mut self) {
        // SAFETY: no readers remain (dropping the cell requires every
        // handle's `Arc<SnapshotCell>` to be gone); release the current
        // pointer and every still-retired one exactly once each.
        unsafe {
            drop(Arc::from_raw(self.current.load(Ordering::SeqCst)));
            for (_, ptr) in self
                .writer
                .lock()
                .expect("writer state lock")
                .retired
                .drain(..)
            {
                drop(Arc::from_raw(ptr.0));
            }
        }
    }
}

/// Cumulative publisher counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishStats {
    /// Snapshots actually published (source revision moved).
    pub publishes: u64,
    /// `publish_if_changed` calls skipped because the source revision
    /// had not moved.
    pub skipped: u64,
    /// Published deltas that carried no ranking change (revision moved
    /// but the order was bit-identical, e.g. after a restore).
    pub noop_deltas: u64,
}

/// Pre-resolved registry instruments for the publisher (see
/// [`Publisher::set_obs`]). The publisher is the single writer, so the
/// counters are absolute mirrors (`set_at_least`), not deltas.
#[derive(Debug)]
struct PublishObs {
    /// Wraps snapshot build + diff + pointer install.
    publish: SpanTimer,
    publishes: Counter,
    skipped: Counter,
    noop_deltas: Counter,
    revision: Gauge,
    admitted: Counter,
    denied_rate: Counter,
    denied_saturated: Counter,
}

impl PublishObs {
    fn new(obs: &Obs) -> Self {
        let registry = obs.registry();
        PublishObs {
            publish: obs.span("serve.publish_ns"),
            publishes: registry.counter("serve.publishes"),
            skipped: registry.counter("serve.skipped"),
            noop_deltas: registry.counter("serve.noop_deltas"),
            revision: registry.gauge("serve.revision"),
            admitted: registry.counter("serve.admitted"),
            denied_rate: registry.counter("serve.denied_rate"),
            denied_saturated: registry.counter("serve.denied_saturated"),
        }
    }

    fn sync(&self, stats: &PublishStats, revision: u64, governor: &GovernorStats) {
        self.publishes.set_at_least(stats.publishes);
        self.skipped.set_at_least(stats.skipped);
        self.noop_deltas.set_at_least(stats.noop_deltas);
        self.revision.set(revision as f64);
        self.admitted.set_at_least(governor.total_admitted());
        self.denied_rate.set_at_least(governor.total_denied_rate());
        self.denied_saturated
            .set_at_least(governor.denied_saturated);
    }
}

/// The single writer: owns revision numbering, diffing, and the cell.
///
/// Exactly one `Publisher` exists per serving runtime; it is `Send` but
/// deliberately not `Clone`. Readers attach through
/// [`Publisher::handle`] / [`Publisher::subscribe`] and stay valid for
/// the cell's lifetime, across rebuilds and checkpoint/restore.
#[derive(Debug)]
pub struct Publisher {
    cell: Arc<SnapshotCell>,
    governor: Arc<Governor>,
    /// Serve-side monotone revision (never resets, unlike the source
    /// runtime's counter across a restore).
    revision: u64,
    /// Last published ranking, kept for diffing.
    last: Arc<RankedSnapshot>,
    /// Source (`standing_revision`) value behind the last publish;
    /// `None` forces the next `publish_if_changed` through (fresh
    /// publisher, or re-anchored after a restore).
    last_source: Option<u64>,
    stats: PublishStats,
    obs: Option<PublishObs>,
}

impl Publisher {
    /// A publisher holding the empty revision-0 snapshot.
    #[must_use]
    pub fn new(governor: GovernorConfig) -> Self {
        Self::with_governor(Arc::new(Governor::new(governor)))
    }

    /// A publisher over a caller-built governor (injected clocks).
    #[must_use]
    pub fn with_governor(governor: Arc<Governor>) -> Self {
        let initial = Arc::new(RankedSnapshot::empty());
        Self {
            cell: Arc::new(SnapshotCell::new(Arc::clone(&initial))),
            governor,
            revision: 0,
            last: initial,
            last_source: None,
            stats: PublishStats::default(),
            obs: None,
        }
    }

    /// Attaches observability: a `serve.publish_ns` span per publish,
    /// `serve.*` counters mirroring [`PublishStats`] and the governor's
    /// admission totals, and a `serve.revision` gauge.
    pub fn set_obs(&mut self, obs: &Obs) {
        let publish_obs = PublishObs::new(obs);
        publish_obs.sync(&self.stats, self.revision, &self.governor.stats());
        self.obs = Some(publish_obs);
    }

    /// Publishes a new ranking unconditionally: builds the snapshot and
    /// its indexes, diffs against the previous revision, pushes the
    /// delta, and swaps the pointer. Returns the new serve revision.
    pub fn publish(&mut self, ranked: Vec<ArbitrageOpportunity>) -> u64 {
        let span = self.obs.as_ref().map(|o| o.publish.start());
        self.revision += 1;
        let next = Arc::new(RankedSnapshot::build(self.revision, ranked));
        let delta = diff(
            self.last.revision(),
            self.last.entries(),
            next.revision(),
            next.entries(),
        );
        if delta.is_noop() {
            self.stats.noop_deltas += 1;
        }
        self.cell.push_delta(delta);
        self.cell.install(Arc::clone(&next));
        self.last = next;
        self.stats.publishes += 1;
        drop(span);
        if let Some(obs) = &self.obs {
            obs.sync(&self.stats, self.revision, &self.governor.stats());
        }
        self.revision
    }

    /// Publishes only when the source revision moved since the last
    /// publish; the common per-tick call. Returns the serve revision
    /// when a publish happened.
    pub fn publish_if_changed(
        &mut self,
        source_revision: u64,
        ranked: &[ArbitrageOpportunity],
    ) -> Option<u64> {
        if self.last_source == Some(source_revision) {
            self.stats.skipped += 1;
            if let Some(obs) = &self.obs {
                obs.sync(&self.stats, self.revision, &self.governor.stats());
            }
            return None;
        }
        self.last_source = Some(source_revision);
        Some(self.publish(ranked.to_vec()))
    }

    /// Forgets the source anchor so the next `publish_if_changed` goes
    /// through regardless of the revision it reports. Call after
    /// swapping the underlying runtime (checkpoint/restore), whose
    /// revision counter restarts.
    pub fn reanchor(&mut self) {
        self.last_source = None;
    }

    /// The serve revision of the currently published snapshot.
    #[must_use]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Cumulative publish counters.
    #[must_use]
    pub fn stats(&self) -> PublishStats {
        self.stats
    }

    /// Admission counters from the shared governor.
    #[must_use]
    pub fn governor_stats(&self) -> GovernorStats {
        self.governor.stats()
    }

    /// A new reader handle in `class`. Cheap; create one per reader
    /// thread (the handle is `Send` but not `Sync`).
    #[must_use]
    pub fn handle(&self, class: ClientClass) -> ServeHandle {
        ServeHandle {
            cell: Arc::clone(&self.cell),
            slot: self.cell.register(),
            governor: Arc::clone(&self.governor),
            class,
            _not_sync: PhantomData,
        }
    }

    /// A delta subscription. The first [`Subscription::poll`] resyncs
    /// to the current snapshot; later polls return contiguous deltas.
    #[must_use]
    pub fn subscribe(&self) -> Subscription {
        Subscription {
            cell: Arc::clone(&self.cell),
            slot: self.cell.register(),
            seen: None,
        }
    }
}

/// A per-thread reader endpoint: wait-free loads, governed queries.
///
/// `Send` (move it into a reader thread) but **not** `Sync` — the pin
/// protocol requires the slot to be used from one thread at a time, so
/// sharing a handle is rejected at compile time. [`ServeHandle::clone`]
/// registers a fresh slot for the new owner.
#[derive(Debug)]
pub struct ServeHandle {
    cell: Arc<SnapshotCell>,
    slot: Arc<ReaderSlot>,
    governor: Arc<Governor>,
    class: ClientClass,
    /// `Cell<()>` is `Send + !Sync`; inherit exactly that.
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

impl Clone for ServeHandle {
    fn clone(&self) -> Self {
        Self {
            cell: Arc::clone(&self.cell),
            slot: self.cell.register(),
            governor: Arc::clone(&self.governor),
            class: self.class,
            _not_sync: PhantomData,
        }
    }
}

impl ServeHandle {
    /// The reader's class.
    #[must_use]
    pub fn class(&self) -> ClientClass {
        self.class
    }

    /// Wait-free, ungoverned load of the current snapshot — no locks,
    /// no allocation beyond the `Arc` bump. Telemetry and internal
    /// consumers; external readers should go through
    /// [`ServeHandle::query`].
    #[must_use]
    pub fn load(&self) -> Arc<RankedSnapshot> {
        self.cell.load(&self.slot)
    }

    /// The governed read: admission first (token bucket + concurrency
    /// budget), then the same wait-free load. The returned guard pins
    /// the concurrency budget until dropped.
    ///
    /// # Errors
    ///
    /// [`ServeError`] when admission is denied; the snapshot is not
    /// loaded in that case.
    pub fn query(&self) -> Result<ReadGuard, ServeError> {
        let permit = self.governor.admit(self.class)?;
        Ok(ReadGuard {
            snapshot: self.cell.load(&self.slot),
            _permit: permit,
        })
    }
}

/// An admitted read: the snapshot plus the concurrency permit keeping
/// the budget honest while the caller holds results.
#[derive(Debug)]
pub struct ReadGuard {
    snapshot: Arc<RankedSnapshot>,
    _permit: Permit,
}

impl ReadGuard {
    /// The snapshot, detached from the permit (drops the budget hold).
    #[must_use]
    pub fn into_snapshot(self) -> Arc<RankedSnapshot> {
        self.snapshot
    }
}

impl std::ops::Deref for ReadGuard {
    type Target = RankedSnapshot;

    fn deref(&self) -> &RankedSnapshot {
        &self.snapshot
    }
}

/// What a [`Subscription::poll`] observed.
#[derive(Debug)]
pub enum SubscriptionUpdate {
    /// Nothing published since the last poll.
    Current,
    /// Contiguous deltas from the subscriber's revision to the latest.
    Deltas(Vec<Arc<RankingDelta>>),
    /// The chain broke (first poll, or the ring outran the subscriber):
    /// adopt this snapshot wholesale and continue from its revision.
    Resync(Arc<RankedSnapshot>),
}

/// A pull-based delta stream over the publisher's ring.
#[derive(Debug)]
pub struct Subscription {
    cell: Arc<SnapshotCell>,
    slot: Arc<ReaderSlot>,
    /// Last revision the subscriber has fully applied; `None` before
    /// the first resync.
    seen: Option<u64>,
}

impl Subscription {
    /// Drains everything published since the last poll. Locks only the
    /// delta ring (never the snapshot path) for the copy-out.
    pub fn poll(&mut self) -> SubscriptionUpdate {
        let Some(seen) = self.seen else {
            return self.resync();
        };
        let pending: Vec<Arc<RankingDelta>> = {
            let ring = self.cell.ring.lock().expect("delta ring lock");
            ring.deltas
                .iter()
                .filter(|delta| delta.from_revision >= seen)
                .cloned()
                .collect()
        };
        match pending.first() {
            None => {
                // Nothing newer in the ring; confirm we are current.
                if self.cell.load(&self.slot).revision() == seen {
                    SubscriptionUpdate::Current
                } else {
                    self.resync()
                }
            }
            Some(first) if first.from_revision == seen => {
                let mut chain = Vec::with_capacity(pending.len());
                let mut at = seen;
                for delta in pending {
                    if delta.from_revision != at {
                        return self.resync();
                    }
                    at = delta.to_revision;
                    chain.push(delta);
                }
                self.seen = Some(at);
                SubscriptionUpdate::Deltas(chain)
            }
            Some(_) => self.resync(),
        }
    }

    /// The revision the subscriber has applied up to, if anchored.
    #[must_use]
    pub fn seen_revision(&self) -> Option<u64> {
        self.seen
    }

    fn resync(&mut self) -> SubscriptionUpdate {
        let snapshot = self.cell.load(&self.slot);
        self.seen = Some(snapshot.revision());
        SubscriptionUpdate::Resync(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send<T: Send>() {}

    #[test]
    fn handle_is_send() {
        assert_send::<ServeHandle>();
        assert_send::<Subscription>();
        assert_send::<Publisher>();
    }

    #[test]
    fn publish_skip_and_reanchor() {
        let mut publisher = Publisher::new(GovernorConfig::default());
        assert_eq!(publisher.publish_if_changed(5, &[]), Some(1));
        assert_eq!(publisher.publish_if_changed(5, &[]), None);
        assert_eq!(publisher.publish_if_changed(6, &[]), Some(2));
        publisher.reanchor();
        assert_eq!(publisher.publish_if_changed(6, &[]), Some(3));
        let stats = publisher.stats();
        assert_eq!(stats.publishes, 3);
        assert_eq!(stats.skipped, 1);
        assert_eq!(stats.noop_deltas, 3, "empty rankings diff to noops");
    }

    #[test]
    fn obs_mirrors_publish_stats() {
        let obs = Obs::default();
        let mut publisher = Publisher::new(GovernorConfig::default());
        publisher.set_obs(&obs);
        publisher.publish_if_changed(5, &[]);
        publisher.publish_if_changed(5, &[]);
        publisher.publish_if_changed(6, &[]);
        let snapshot = obs.snapshot();
        assert_eq!(snapshot.counter("serve.publishes"), Some(2));
        assert_eq!(snapshot.counter("serve.skipped"), Some(1));
        assert_eq!(snapshot.gauge("serve.revision"), Some(2.0));
        let publish_ns = snapshot
            .histogram("serve.publish_ns")
            .expect("publish span registered");
        assert_eq!(publish_ns.count, 2);
    }

    #[test]
    fn subscription_resyncs_then_streams() {
        let mut publisher = Publisher::new(GovernorConfig::default());
        publisher.publish(Vec::new());
        let mut sub = publisher.subscribe();
        let SubscriptionUpdate::Resync(snap) = sub.poll() else {
            panic!("first poll must resync");
        };
        assert_eq!(snap.revision(), 1);
        assert!(matches!(sub.poll(), SubscriptionUpdate::Current));
        publisher.publish(Vec::new());
        publisher.publish(Vec::new());
        let SubscriptionUpdate::Deltas(chain) = sub.poll() else {
            panic!("expected deltas");
        };
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].from_revision, 1);
        assert_eq!(chain[1].to_revision, 3);
        assert_eq!(sub.seen_revision(), Some(3));
    }

    #[test]
    fn subscription_resyncs_after_ring_overflow() {
        let mut publisher = Publisher::new(GovernorConfig::default());
        publisher.publish(Vec::new());
        let mut sub = publisher.subscribe();
        sub.poll();
        for _ in 0..(DELTA_RING + 8) {
            publisher.publish(Vec::new());
        }
        assert!(matches!(sub.poll(), SubscriptionUpdate::Resync(_)));
        assert!(matches!(sub.poll(), SubscriptionUpdate::Current));
    }

    #[test]
    fn load_tracks_latest_publish() {
        let mut publisher = Publisher::new(GovernorConfig::default());
        let handle = publisher.handle(ClientClass::Interactive);
        assert_eq!(handle.load().revision(), 0);
        publisher.publish(Vec::new());
        assert_eq!(handle.load().revision(), 1);
        let held = handle.load();
        for _ in 0..100 {
            publisher.publish(Vec::new());
        }
        // The held snapshot outlives any number of later publishes.
        assert_eq!(held.revision(), 1);
        assert_eq!(handle.load().revision(), 101);
    }
}
