//! Ingestion counters: what the front-end absorbed, dropped via
//! coalescing, and how often a full queue forced a merge.

use std::fmt;

use arb_obs::{Counter, Gauge, Registry};

/// Cumulative front-end counters, snapshot via
/// [`crate::Ingestor::stats`] / [`crate::IngestHandle::stats`].
///
/// The flow invariant on a fully drained stream is
/// `events_in == events_out + coalesced_away`: every multiplexed event
/// is either delivered to the consumer or provably subsumed by a later
/// one (last-write-wins per pool / per token).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Raw events accepted across all sources (pre-coalescing).
    pub events_in: u64,
    /// Events actually delivered to the consumer (post-coalescing).
    pub events_out: u64,
    /// Events discharged by coalescing (within a block, plus across
    /// blocks merged into a full queue's tail).
    pub coalesced_away: u64,
    /// Blocks sealed by the producer.
    pub batches_sealed: u64,
    /// Batches popped by the consumer.
    pub batches_delivered: u64,
    /// Blocks merged into an already-queued batch because the queue was
    /// full.
    pub degraded_merges: u64,
    /// Highest queue depth (in batches) ever observed.
    pub depth_high_water: usize,
    /// Journal commits that failed and were left pending for retry
    /// (the stream kept flowing in degraded, journal-lagging mode).
    pub journal_write_failures: u64,
    /// Journal commits that succeeded after at least one failure —
    /// each one drains the pending backlog and ends a degraded window.
    pub journal_recommits: u64,
}

impl IngestStats {
    /// Raw-to-delivered compression: `events_in / events_out`. `1.0`
    /// means coalescing discharged nothing; `2.0` means the engine saw
    /// half the raw traffic. Counts only delivered events, so read it
    /// after draining. Returns 1.0 before anything was delivered.
    pub fn coalesce_ratio(&self) -> f64 {
        if self.events_out == 0 {
            1.0
        } else {
            self.events_in as f64 / self.events_out as f64
        }
    }

    /// The flow-ledger invariant: every absorbed event is delivered,
    /// coalesced away, or still queued (`queued_events`). On a fully
    /// drained stream `queued_events` is 0 and this reduces to
    /// `events_in == events_out + coalesced_away`. The queue asserts
    /// this (debug builds) every time a batch is enqueued or popped.
    pub fn ledger_balanced(&self, queued_events: u64) -> bool {
        self.events_in == self.events_out + self.coalesced_away + queued_events
    }
}

/// Pre-resolved registry instruments mirroring [`IngestStats`] — the
/// flow ledger exposed through `arb-obs` under `ingest.*`. `sync` is
/// called with the stats already updated (under the queue lock), so
/// the registry and the legacy struct can never drift apart. Totals
/// are mirrored by delta, so an ingestor rebuilt on the same registry
/// (recovery, a bot rebuilding from chain) adds to its predecessor's.
#[derive(Debug, Clone)]
pub(crate) struct StatsMirror {
    events_in: Counter,
    events_out: Counter,
    coalesced_away: Counter,
    batches_sealed: Counter,
    batches_delivered: Counter,
    degraded_merges: Counter,
    depth_high_water: Counter,
    journal_write_failures: Counter,
    journal_recommits: Counter,
    coalesce_ratio: Gauge,
    /// The stats value last pushed to the registry; the next sync adds
    /// only the field-wise delta beyond this.
    mirrored: IngestStats,
}

impl StatsMirror {
    pub fn new(registry: &Registry) -> Self {
        StatsMirror {
            events_in: registry.counter("ingest.events_in"),
            events_out: registry.counter("ingest.events_out"),
            coalesced_away: registry.counter("ingest.coalesced_away"),
            batches_sealed: registry.counter("ingest.batches_sealed"),
            batches_delivered: registry.counter("ingest.batches_delivered"),
            degraded_merges: registry.counter("ingest.degraded_merges"),
            depth_high_water: registry.counter("ingest.depth_high_water"),
            journal_write_failures: registry.counter("ingest.journal_write_failures"),
            journal_recommits: registry.counter("ingest.journal_recommits"),
            coalesce_ratio: registry.gauge("ingest.coalesce_ratio"),
            mirrored: IngestStats::default(),
        }
    }

    /// Pushes the delta between `stats` and the last sync into the
    /// registry. Every total is monotone over one ingestor's lifetime,
    /// so the deltas are never negative. The queue's high-water mark is
    /// a maximum, not a total, so it is mirrored as a maximum.
    pub fn sync(&mut self, stats: &IngestStats) {
        let m = &self.mirrored;
        self.events_in.add(stats.events_in - m.events_in);
        self.events_out.add(stats.events_out - m.events_out);
        self.coalesced_away
            .add(stats.coalesced_away - m.coalesced_away);
        self.batches_sealed
            .add(stats.batches_sealed - m.batches_sealed);
        self.batches_delivered
            .add(stats.batches_delivered - m.batches_delivered);
        self.degraded_merges
            .add(stats.degraded_merges - m.degraded_merges);
        self.depth_high_water
            .set_at_least(stats.depth_high_water as u64);
        self.journal_write_failures
            .add(stats.journal_write_failures - m.journal_write_failures);
        self.journal_recommits
            .add(stats.journal_recommits - m.journal_recommits);
        self.coalesce_ratio.set(stats.coalesce_ratio());
        self.mirrored = *stats;
    }
}

impl fmt::Display for IngestStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} in / {} out ({:.2}x coalesce), {} sealed / {} delivered \
             ({} degraded merges), depth hw {}, journal {} failed / \
             {} recommitted",
            self.events_in,
            self.events_out,
            self.coalesce_ratio(),
            self.batches_sealed,
            self.batches_delivered,
            self.degraded_merges,
            self.depth_high_water,
            self.journal_write_failures,
            self.journal_recommits,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_balances_on_a_drained_stream() {
        // Drained: everything in was either delivered or coalesced.
        let stats = IngestStats {
            events_in: 10,
            events_out: 6,
            coalesced_away: 4,
            ..IngestStats::default()
        };
        assert!(stats.ledger_balanced(0));
        // Mid-stream: two events still queued.
        let stats = IngestStats {
            events_in: 10,
            events_out: 4,
            coalesced_away: 4,
            ..IngestStats::default()
        };
        assert!(stats.ledger_balanced(2));
        assert!(!stats.ledger_balanced(0));
    }

    #[test]
    fn mirror_tracks_stats_and_ratio() {
        let registry = Registry::new();
        let mut mirror = StatsMirror::new(&registry);
        let stats = IngestStats {
            events_in: 10,
            events_out: 4,
            coalesced_away: 6,
            batches_sealed: 3,
            batches_delivered: 2,
            degraded_merges: 1,
            depth_high_water: 5,
            journal_write_failures: 4,
            journal_recommits: 3,
        };
        mirror.sync(&stats);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("ingest.events_in"), Some(10));
        assert_eq!(snap.counter("ingest.events_out"), Some(4));
        assert_eq!(snap.counter("ingest.coalesced_away"), Some(6));
        assert_eq!(snap.counter("ingest.batches_sealed"), Some(3));
        assert_eq!(snap.counter("ingest.batches_delivered"), Some(2));
        assert_eq!(snap.counter("ingest.degraded_merges"), Some(1));
        assert_eq!(snap.counter("ingest.depth_high_water"), Some(5));
        assert_eq!(snap.counter("ingest.journal_write_failures"), Some(4));
        assert_eq!(snap.counter("ingest.journal_recommits"), Some(3));
        assert_eq!(snap.gauge("ingest.coalesce_ratio"), Some(2.5));
    }

    #[test]
    fn rebuilt_ingestor_keeps_the_registry_counting() {
        use arb_amm::token::TokenId;
        use arb_obs::Obs;

        use crate::{IngestConfig, Ingestor};

        let obs = Obs::default();
        let offer = |events: u32| {
            let mut ingestor = Ingestor::new(IngestConfig::default()).with_obs(&obs);
            let source = ingestor.register_source("feed");
            let moves: Vec<(TokenId, f64)> = (0..events)
                .map(|i| (TokenId::new(i), f64::from(i) + 1.0))
                .collect();
            ingestor.offer_feed_moves(source, &moves).expect("offer");
            ingestor.seal_block().expect("seal");
        };
        offer(5);
        // The rebuilt ingestor restarts its own totals at zero; the
        // registry keeps counting from where the first one left off.
        offer(3);
        let snapshot = obs.snapshot();
        assert_eq!(snapshot.counter("ingest.events_in"), Some(8));
        assert_eq!(snapshot.counter("ingest.batches_sealed"), Some(2));
        assert_eq!(snapshot.counter("ingest.depth_high_water"), Some(1));
    }

    #[test]
    fn ratio_handles_the_empty_stream() {
        assert_eq!(IngestStats::default().coalesce_ratio(), 1.0);
        let stats = IngestStats {
            events_in: 10,
            events_out: 4,
            coalesced_away: 6,
            ..IngestStats::default()
        };
        assert!((stats.coalesce_ratio() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn display_is_a_one_liner() {
        let line = IngestStats::default().to_string();
        assert!(!line.contains('\n'), "{line}");
        assert!(line.contains("coalesce"), "{line}");
    }
}
