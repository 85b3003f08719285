//! Snapshot publication: one writer, any number of readers.
//!
//! The cell holds the current [`RankedSnapshot`] behind a mutex, plus an
//! atomic copy of its revision. Publishing builds the snapshot, then
//! swaps the `Arc` and stores the revision (`Release`) while holding the
//! lock; it diffs nothing and keeps no history, because each
//! [`Subscription`] diffs for itself when it polls. Each [`ServeHandle`]
//! caches the last `Arc` it loaded; a read compares the `Acquire`-loaded
//! revision with the cached snapshot's and takes the lock only when they
//! differ — at most once per publish per handle. A steady-state read is
//! therefore one atomic load and one refcount bump, and the writer holds
//! the lock only for the swap.
//!
//! Serve revisions never repeat (the [`Publisher`] numbers them), so an
//! equal revision means the cached snapshot *is* the current one. A
//! reader that already holds a snapshot keeps it alive arbitrarily long
//! without ever blocking the writer.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use arb_engine::ArbitrageOpportunity;
use arb_obs::{Counter, Gauge, Obs, SpanTimer};

use crate::diff::{diff, RankingDelta};
use crate::error::ServeError;
use crate::governor::{ClientClass, Governor, GovernorConfig, GovernorStats, Permit};
use crate::snapshot::RankedSnapshot;

/// The shared publication cell.
#[derive(Debug)]
struct SnapshotCell {
    current: Mutex<Arc<RankedSnapshot>>,
    /// `current`'s revision, readable without the lock. Stored
    /// (`Release`) only while `current` is locked, so a reader whose
    /// `Acquire` load sees it move and then locks gets that snapshot or
    /// a newer one.
    revision: AtomicU64,
}

impl SnapshotCell {
    fn new(initial: Arc<RankedSnapshot>) -> Self {
        Self {
            revision: AtomicU64::new(initial.revision()),
            current: Mutex::new(initial),
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

    /// Writer side: swap in `next` and advertise its revision. Returns
    /// the superseded snapshot, so the caller frees it after the lock.
    fn install(&self, next: Arc<RankedSnapshot>) -> Arc<RankedSnapshot> {
        let mut current = self.current.lock().expect("snapshot cell lock");
        self.revision.store(next.revision(), Ordering::Release);
        std::mem::replace(&mut *current, next)
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
}

/// Pre-resolved registry instruments for the publisher (see
/// [`Publisher::set_obs`]). The publisher is the single writer, so the
/// counters are absolute mirrors (`set_at_least`), not deltas.
#[derive(Debug)]
struct PublishObs {
    /// Wraps snapshot build + install.
    publish: SpanTimer,
    publishes: Counter,
    skipped: Counter,
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
            revision: registry.gauge("serve.revision"),
            admitted: registry.counter("serve.admitted"),
            denied_rate: registry.counter("serve.denied_rate"),
            denied_saturated: registry.counter("serve.denied_saturated"),
        }
    }

    fn sync(&self, stats: &PublishStats, revision: u64, governor: &GovernorStats) {
        self.publishes.set_at_least(stats.publishes);
        self.skipped.set_at_least(stats.skipped);
        self.revision.set(revision as f64);
        self.admitted.set_at_least(governor.total_admitted());
        self.denied_rate.set_at_least(governor.total_denied_rate());
        self.denied_saturated
            .set_at_least(governor.denied_saturated);
    }
}

/// The single writer: owns revision numbering and the cell.
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
        Self {
            cell: Arc::new(SnapshotCell::new(Arc::new(RankedSnapshot::empty()))),
            governor,
            revision: 0,
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
    /// its indexes and swaps it in. Returns the new serve revision.
    pub fn publish(&mut self, ranked: Vec<ArbitrageOpportunity>) -> u64 {
        let span = self.obs.as_ref().map(|o| o.publish.start());
        self.revision += 1;
        self.cell
            .install(Arc::new(RankedSnapshot::build(self.revision, ranked)));
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
            cached: RefCell::new(self.cell.current()),
            governor: Arc::clone(&self.governor),
            class,
        }
    }

    /// A delta subscription. The first [`Subscription::poll`] resyncs
    /// to the current snapshot; each later poll returns one delta
    /// covering everything published since the previous poll.
    #[must_use]
    pub fn subscribe(&self) -> Subscription {
        Subscription {
            cell: Arc::clone(&self.cell),
            base: None,
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
    /// Everything published since the last poll, as one delta from the
    /// subscriber's revision to the latest.
    Delta(RankingDelta),
    /// The first poll: adopt this snapshot wholesale and continue from
    /// its revision.
    Resync(Arc<RankedSnapshot>),
}

/// A pull-based delta stream: each poll diffs the subscriber's base
/// (the snapshot it last saw) against the current one. A subscriber
///
/// * gets **one** delta covering everything since its last poll, never
///   a chain, and is never resynced for falling behind;
/// * pays for the diff on its own thread, not the publisher's;
/// * keeps its base snapshot alive until it polls again.
#[derive(Debug)]
pub struct Subscription {
    cell: Arc<SnapshotCell>,
    /// The snapshot the subscriber's view equals; `None` before the
    /// first poll.
    base: Option<Arc<RankedSnapshot>>,
}

impl Subscription {
    /// Brings the subscriber up to the latest snapshot: a resync on the
    /// first call, then `Current` or one delta. Locks the snapshot cell
    /// only when the revision moved.
    pub fn poll(&mut self) -> SubscriptionUpdate {
        let Some(base) = &self.base else {
            let snapshot = self.cell.current();
            self.base = Some(Arc::clone(&snapshot));
            return SubscriptionUpdate::Resync(snapshot);
        };
        if self.cell.revision() == base.revision() {
            return SubscriptionUpdate::Current;
        }
        let next = self.cell.current();
        let delta = diff(
            base.revision(),
            base.entries(),
            next.revision(),
            next.entries(),
        );
        self.base = Some(next);
        SubscriptionUpdate::Delta(delta)
    }

    /// The revision the subscriber has applied up to, if anchored.
    #[must_use]
    pub fn seen_revision(&self) -> Option<u64> {
        self.base.as_ref().map(|base| base.revision())
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
        let SubscriptionUpdate::Delta(delta) = sub.poll() else {
            panic!("expected a delta");
        };
        assert_eq!((delta.from_revision, delta.to_revision), (1, 3));
        assert!(delta.is_noop(), "empty rankings diff to a noop");
        assert_eq!(sub.seen_revision(), Some(3));
        assert!(matches!(sub.poll(), SubscriptionUpdate::Current));
    }

    #[test]
    fn idle_subscriber_gets_one_delta_across_100_publishes() {
        let mut publisher = Publisher::new(GovernorConfig::default());
        publisher.publish(Vec::new());
        let mut sub = publisher.subscribe();
        assert!(matches!(sub.poll(), SubscriptionUpdate::Resync(_)));
        for _ in 0..100 {
            publisher.publish(Vec::new());
        }
        let SubscriptionUpdate::Delta(delta) = sub.poll() else {
            panic!("falling behind must not resync");
        };
        assert_eq!((delta.from_revision, delta.to_revision), (1, 101));
        assert_eq!(sub.seen_revision(), Some(101));
        assert!(matches!(sub.poll(), SubscriptionUpdate::Current));
    }

    #[test]
    fn idle_subscription_keeps_only_its_base_alive() {
        let mut publisher = Publisher::new(GovernorConfig::default());
        let probe = publisher.handle(ClientClass::Bulk);
        publisher.publish(Vec::new());
        let mut sub = publisher.subscribe();
        let SubscriptionUpdate::Resync(first) = sub.poll() else {
            panic!("first poll must resync");
        };
        let mut superseded = Vec::new();
        for _ in 0..100 {
            publisher.publish(Vec::new());
            superseded.push(Arc::downgrade(&probe.load()));
        }
        // Only the subscription's base still holds revision 1 besides
        // the test's own reference.
        assert_eq!(Arc::strong_count(&first), 2);
        // Every later revision but the current one is gone.
        let latest = superseded.pop().expect("100 publishes");
        assert!(superseded.iter().all(|weak| weak.strong_count() == 0));
        assert!(latest.strong_count() > 0);
        // The next poll moves the base and releases revision 1.
        assert!(matches!(sub.poll(), SubscriptionUpdate::Delta(_)));
        assert_eq!(Arc::strong_count(&first), 1);
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
