//! Snapshot publication: one writer, any number of readers.
//!
//! The cell holds the current [`RankedSnapshot`] behind a mutex, plus an
//! atomic copy of its revision. Publishing swaps the `Arc` and stores
//! the revision (`Release`) while holding the lock. Each
//! [`ServeHandle`] caches the last `Arc` it loaded; a read compares the
//! `Acquire`-loaded revision with the cached snapshot's and takes the
//! lock only when they differ — at most once per publish per handle.
//! A steady-state read is therefore one atomic load and one refcount
//! bump, and the writer holds the lock only for the swap.
//!
//! Serve revisions never repeat (the [`Publisher`] numbers them), so an
//! equal revision means the cached snapshot *is* the current one. A
//! reader that already holds a snapshot keeps it alive arbitrarily long
//! without ever blocking the writer.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use arb_engine::ArbitrageOpportunity;
use arb_obs::{Counter, Gauge, Obs, SpanTimer};

use crate::diff::{diff, RankingDelta};
use crate::error::ServeError;
use crate::governor::{ClientClass, Governor, GovernorConfig, GovernorStats, Permit};
use crate::snapshot::RankedSnapshot;

/// Published deltas retained for subscribers before they must resync.
const DELTA_RING: usize = 64;

/// The shared publication cell.
#[derive(Debug)]
struct SnapshotCell {
    current: Mutex<Arc<RankedSnapshot>>,
    /// `current`'s revision, readable without the lock. Stored
    /// (`Release`) only while `current` is locked, so a reader whose
    /// `Acquire` load sees it move and then locks gets that snapshot or
    /// a newer one, and sees the delta pushed before it.
    revision: AtomicU64,
    /// Recent deltas for subscribers. Only subscribers lock this; the
    /// point-query path never does.
    ring: Mutex<VecDeque<Arc<RankingDelta>>>,
}

impl SnapshotCell {
    fn new(initial: Arc<RankedSnapshot>) -> Self {
        Self {
            revision: AtomicU64::new(initial.revision()),
            current: Mutex::new(initial),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// The revision of the current snapshot.
    fn revision(&self) -> u64 {
        self.revision.load(Ordering::Acquire)
    }

    /// The current snapshot, under the lock.
    fn current(&self) -> Arc<RankedSnapshot> {
        Arc::clone(&self.current.lock().expect("snapshot cell lock"))
    }

    /// Writer side: swap in `next` and advertise its revision.
    fn install(&self, next: Arc<RankedSnapshot>) {
        let mut current = self.current.lock().expect("snapshot cell lock");
        self.revision.store(next.revision(), Ordering::Release);
        *current = next;
    }

    fn push_delta(&self, delta: RankingDelta) {
        let mut ring = self.ring.lock().expect("delta ring lock");
        if ring.len() == DELTA_RING {
            ring.pop_front();
        }
        ring.push_back(Arc::new(delta));
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
    /// Wraps snapshot build + diff + install.
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
    /// delta, and swaps the snapshot in. Returns the new serve revision.
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
            cached: RefCell::new(Arc::clone(&self.last)),
            governor: Arc::clone(&self.governor),
            class,
        }
    }

    /// A delta subscription. The first [`Subscription::poll`] resyncs
    /// to the current snapshot; later polls return contiguous deltas.
    #[must_use]
    pub fn subscribe(&self) -> Subscription {
        Subscription {
            cell: Arc::clone(&self.cell),
            seen: None,
        }
    }
}

/// A per-thread reader endpoint: cached loads, governed queries.
///
/// The handle caches the last snapshot it loaded and refreshes it only
/// when the published revision moves. So an idle handle keeps **at most
/// one superseded snapshot** alive, until its next load or its drop.
///
/// `Send` (move it into a reader thread) but **not** `Sync`: the cache
/// is a `RefCell`, so sharing a handle is rejected at compile time.
/// A clone starts from the original's cached snapshot and refreshes
/// independently of it.
#[derive(Debug, Clone)]
pub struct ServeHandle {
    cell: Arc<SnapshotCell>,
    cached: RefCell<Arc<RankedSnapshot>>,
    governor: Arc<Governor>,
    class: ClientClass,
}

impl ServeHandle {
    /// The reader's class.
    #[must_use]
    pub fn class(&self) -> ClientClass {
        self.class
    }

    /// Ungoverned load of the current snapshot: one atomic load and an
    /// `Arc` bump, plus one lock the first time after each publish. No
    /// allocation. Telemetry and internal consumers; external readers
    /// should go through [`ServeHandle::query`].
    #[must_use]
    pub fn load(&self) -> Arc<RankedSnapshot> {
        let mut cached = self.cached.borrow_mut();
        if self.cell.revision() != cached.revision() {
            *cached = self.cell.current();
        }
        Arc::clone(&cached)
    }

    /// The governed read: admission first (token bucket + concurrency
    /// budget), then the same cached load. The returned guard pins
    /// the concurrency budget until dropped.
    ///
    /// # Errors
    ///
    /// [`ServeError`] when admission is denied; the snapshot is not
    /// loaded in that case.
    pub fn query(&self) -> Result<ReadGuard, ServeError> {
        let permit = self.governor.admit(self.class)?;
        Ok(ReadGuard {
            snapshot: self.load(),
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
    /// Last revision the subscriber has fully applied; `None` before
    /// the first resync.
    seen: Option<u64>,
}

impl Subscription {
    /// Drains everything published since the last poll. Locks the
    /// delta ring for the copy-out, and the snapshot cell only to
    /// resync.
    pub fn poll(&mut self) -> SubscriptionUpdate {
        let Some(seen) = self.seen else {
            return self.resync();
        };
        let pending: Vec<Arc<RankingDelta>> = {
            let ring = self.cell.ring.lock().expect("delta ring lock");
            ring.iter()
                .filter(|delta| delta.from_revision >= seen)
                .cloned()
                .collect()
        };
        match pending.first() {
            None => {
                // Nothing newer in the ring; confirm we are current.
                if self.cell.revision() == seen {
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
        let snapshot = self.cell.current();
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
        // The held snapshot outlives any number of later publishes, and
        // the handle, idle through them all, loads the latest.
        assert_eq!(held.revision(), 1);
        assert_eq!(handle.load().revision(), publisher.revision());
        assert_eq!(publisher.revision(), 101);
        // Once the handle has refreshed, the caller's is the last
        // reference to the held snapshot, and it still reads.
        assert_eq!(Arc::strong_count(&held), 1);
        assert_eq!(held.revision(), 1);
        assert!(held.entries().is_empty());
    }

    #[test]
    fn cloned_handle_refreshes_independently() {
        let mut publisher = Publisher::new(GovernorConfig::default());
        let original = publisher.handle(ClientClass::Analytics);
        publisher.publish(Vec::new());
        assert_eq!(original.load().revision(), 1);
        let clone = original.clone();
        assert_eq!(clone.class(), ClientClass::Analytics);

        publisher.publish(Vec::new());
        assert_eq!(clone.load().revision(), 2);
        // The clone's refresh left the original's cache alone.
        assert_eq!(original.cached.borrow().revision(), 1);

        publisher.publish(Vec::new());
        assert_eq!(original.load().revision(), 3);
        assert_eq!(clone.cached.borrow().revision(), 2);
        assert_eq!(clone.load().revision(), 3);
    }

    #[test]
    fn idle_handle_keeps_at_most_one_superseded_snapshot() {
        let mut publisher = Publisher::new(GovernorConfig::default());
        let idle = publisher.handle(ClientClass::Bulk);
        let probe = publisher.handle(ClientClass::Bulk);
        publisher.publish(Vec::new());
        let first = idle.load();
        let mut superseded = Vec::new();
        for _ in 0..100 {
            publisher.publish(Vec::new());
            superseded.push(Arc::downgrade(&probe.load()));
        }
        // Only the idle handle's cache still holds revision 1 besides
        // the test's own reference.
        assert_eq!(Arc::strong_count(&first), 2);
        // Every later revision but the current one is gone.
        let latest = superseded.pop().expect("100 publishes");
        assert!(superseded.iter().all(|weak| weak.strong_count() == 0));
        assert!(latest.strong_count() > 0);
        // The idle handle's next load releases revision 1.
        assert_eq!(idle.load().revision(), 101);
        assert_eq!(Arc::strong_count(&first), 1);
    }
}
