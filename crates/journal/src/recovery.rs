//! Crash recovery: newest valid snapshot + journal suffix replay.

use std::fmt;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use arb_amm::pool::Pool;
use arb_amm::token::TokenId;
use arb_cex::feed::PriceTable;
use arb_dexsim::events::Event;
use arb_dexsim::units::to_display;
use arb_engine::{OpportunityPipeline, ShardedRuntime};

use crate::error::JournalError;
use crate::reader::JournalReader;
use crate::snapshot::SnapshotStore;

/// What one recovery did: where it restarted from, how much it replayed,
/// and how long it took. Formatted as a one-line operator log via
/// [`fmt::Display`], in the same style as the engine's `RuntimeStats` /
/// `PipelineStats` lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Journal offset of the snapshot restored (`None` = genesis replay,
    /// no usable snapshot).
    pub snapshot_offset: Option<u64>,
    /// Events replayed through the engine after the restore point.
    pub events_replayed: usize,
    /// The journal's durable tail at recovery time.
    pub journal_tail: u64,
    /// Wall-clock time of restore + replay.
    pub wall: Duration,
}

impl RecoveryStats {
    /// Reports this recovery into an observability registry under
    /// `journal.*`: bumps the recovery counter, accumulates replayed
    /// events, records the wall time in the `journal.recovery.wall_ns`
    /// histogram, and sets the tail/snapshot gauges. Call once per
    /// recovery; repeated recoveries in one process accumulate.
    pub fn record(&self, obs: &arb_obs::Obs) {
        let registry = obs.registry();
        registry.counter("journal.recoveries").inc();
        registry
            .counter("journal.recovery.events_replayed")
            .add(self.events_replayed as u64);
        registry
            .histogram("journal.recovery.wall_ns")
            .record(self.wall.as_nanos() as u64);
        registry
            .gauge("journal.recovery.journal_tail")
            .set(self.journal_tail as f64);
        registry
            .gauge("journal.recovery.from_snapshot")
            .set(if self.snapshot_offset.is_some() {
                1.0
            } else {
                0.0
            });
    }
}

impl fmt::Display for RecoveryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.snapshot_offset {
            Some(offset) => write!(
                f,
                "recovered from snapshot@{offset}, {} events replayed to tail {}, {:.3}ms wall",
                self.events_replayed,
                self.journal_tail,
                self.wall.as_secs_f64() * 1e3
            ),
            None => write!(
                f,
                "recovered from genesis, {} events replayed to tail {}, {:.3}ms wall",
                self.events_replayed,
                self.journal_tail,
                self.wall.as_secs_f64() * 1e3
            ),
        }
    }
}

/// The result of a [`Recovery::recover_journaled`] run: the runtime **and**
/// the price table, both brought to the journal's durable tail. Over a
/// journal whose stream carries [`Event::FeedPrice`] updates inline (the
/// `arb-ingest` multiplexed stream) both come from disk alone — no live
/// feed required.
#[derive(Debug)]
pub struct RecoveredStream {
    /// The restored runtime, refreshed under the recovered feed.
    pub runtime: ShardedRuntime,
    /// The price table at the journal's durable tail: the snapshot's
    /// feed section (over any genesis feed) overlaid with every
    /// `FeedPrice` replayed from the suffix.
    pub feed: PriceTable,
    /// The snapshot's recorded per-source consumed counts (empty when
    /// recovery bootstrapped from genesis or the snapshot predates the
    /// ingest front-end). The replay counts below are *not* folded in.
    pub source_positions: Vec<u64>,
    /// `FeedPrice` events replayed from the journal suffix.
    pub feed_events_replayed: usize,
    /// Chain events replayed from the journal suffix (post-bootstrap).
    pub chain_events_replayed: usize,
    /// Chain events consumed to *build* the genesis universe (the
    /// leading `PoolCreated` prefix; zero on the snapshot path). Callers
    /// tracking per-source stream positions must count these too.
    pub genesis_bootstrap_events: usize,
    /// What the recovery did.
    pub stats: RecoveryStats,
}

/// The recovery driver: restores the newest valid snapshot from a
/// journal directory and replays the journal suffix through the engine.
///
/// Selection rules (each step falls back to the next):
///
/// 1. the newest snapshot that validates (magic/version/CRC) **and**
///    whose offset is at or below the journal's durable tail;
/// 2. any older snapshot meeting the same conditions;
/// 3. genesis: an engine built from the configured genesis pools (or,
///    when none are given, from the journal's leading `PoolCreated`
///    prefix) with the entire journal replayed.
///
/// Replay applies the suffix as one batch and refreshes under the price
/// table rebuilt from the genesis feed, the snapshot's feed section and
/// every replayed `FeedPrice`, so the recovered standing ranking is
/// bit-identical to an uninterrupted engine at the same (state, feed)
/// point — evaluation is a pure function of reserves and prices. A
/// journal that carries no prices of its own (chain events only) is
/// recovered under the caller's prices by passing them to
/// [`Recovery::with_genesis_feed`].
#[derive(Debug, Clone)]
pub struct Recovery {
    dir: PathBuf,
    pipeline: OpportunityPipeline,
    genesis_pools: Vec<Pool>,
    genesis_feed: PriceTable,
}

impl Recovery {
    /// A driver over the journal in `dir`, restoring a runtime
    /// configured like `pipeline`. The third argument is ignored (it once
    /// capped a shard count) and kept so existing callers still compile.
    pub fn new(dir: impl Into<PathBuf>, pipeline: OpportunityPipeline, _ignored: usize) -> Self {
        Recovery {
            dir: dir.into(),
            pipeline,
            genesis_pools: Vec::new(),
            genesis_feed: PriceTable::new(),
        }
    }

    /// Sets the initial pool universe for the genesis fallback — the
    /// pools that existed before the journal's first event (a journal
    /// attached from chain genesis needs none: its leading
    /// `PoolCreated` events carry the universe).
    #[must_use]
    pub fn with_genesis_pools(mut self, pools: Vec<Pool>) -> Self {
        self.genesis_pools = pools;
        self
    }

    /// Sets the price-table base for [`Recovery::recover_journaled`] —
    /// the prices that were known before the journal's first event. A
    /// journal whose stream carries the full initial feed as a leading
    /// `FeedPrice` prefix (the `arb-ingest` attach path) needs none; a
    /// chain-only journal gets all of its prices from here.
    #[must_use]
    pub fn with_genesis_feed(mut self, feed: PriceTable) -> Self {
        self.genesis_feed = feed;
        self
    }

    /// Runs the recovery: restore the newest valid snapshot (including
    /// its feed section), replay the suffix with [`Event::FeedPrice`]
    /// updates routed to the price table and chain events to the runtime,
    /// and refresh under the reconstructed table. Over the `arb-ingest`
    /// multiplexed stream no live feed is needed — the journal and
    /// snapshots alone reproduce the decisions.
    ///
    /// Applying all replayed feed updates before the single batch
    /// refresh is sound for the same reason suffix batching is: the
    /// standing ranking is a pure function of final reserves and the
    /// final price per token (feed application is last-write-wins).
    ///
    /// # Errors
    ///
    /// * [`JournalError::Io`] / [`JournalError::Corrupt`] — the journal
    ///   itself cannot be read (tail corruption is healed by truncation,
    ///   not reported).
    /// * [`JournalError::NoBootstrap`] — no usable snapshot, no genesis
    ///   pools, and no leading `PoolCreated` prefix to build from
    ///   (`FeedPrice` events interleaved with that prefix are fine: the
    ///   ingest attach path journals the initial feed first).
    /// * [`JournalError::Engine`] — restore or replay failed in the
    ///   engine.
    pub fn recover_journaled(&self) -> Result<RecoveredStream, JournalError> {
        let start = Instant::now();
        let reader = JournalReader::open(&self.dir)?;
        let tail = reader.tail_offset();
        let store = SnapshotStore::new(&self.dir)?;

        let mut feed = self.genesis_feed.clone();
        let (restored, snapshot_offset, source_positions, raw_events) =
            match store.newest_valid(reader.base_offset(), tail)? {
                Some((offset, checkpoint)) => {
                    for &(token, price_bits) in &checkpoint.feed {
                        feed.set(TokenId::new(token), f64::from_bits(price_bits));
                    }
                    let runtime = ShardedRuntime::restore(self.pipeline.clone(), &checkpoint)?;
                    (
                        Some(runtime),
                        Some(offset),
                        checkpoint.source_positions,
                        reader.read_from(offset)?,
                    )
                }
                None => {
                    if reader.base_offset() > 0 {
                        // Compaction removed the genesis prefix, which is only
                        // sound while a snapshot covers it — with every
                        // snapshot unusable, a partial replay would produce
                        // silently wrong state.
                        return Err(JournalError::NoBootstrap(
                            "no usable snapshot and the journal's genesis prefix \
                             was compacted away",
                        ));
                    }
                    (None, None, Vec::new(), reader.read_from(0)?)
                }
            };

        // Route the suffix: feed updates into the table (last-write-wins,
        // so order relative to chain events is immaterial before the one
        // final refresh), everything else to the runtime.
        let mut chain_events = Vec::with_capacity(raw_events.len());
        let mut feed_events_replayed = 0usize;
        for event in raw_events {
            match event.as_feed_price() {
                Some((token, price)) => {
                    feed.set(token, price);
                    feed_events_replayed += 1;
                }
                None => chain_events.push(event),
            }
        }
        let before_bootstrap = chain_events.len();
        let mut runtime = match restored {
            Some(runtime) => runtime,
            None => {
                let (runtime, rest) = self.bootstrap_genesis(chain_events)?;
                chain_events = rest;
                runtime
            }
        };
        let genesis_bootstrap_events = before_bootstrap - chain_events.len();
        let chain_events_replayed = chain_events.len();
        runtime.apply_events(&chain_events, &feed)?;
        Ok(RecoveredStream {
            runtime,
            feed,
            source_positions,
            feed_events_replayed,
            chain_events_replayed,
            genesis_bootstrap_events,
            stats: RecoveryStats {
                snapshot_offset,
                events_replayed: feed_events_replayed + chain_events_replayed,
                journal_tail: tail,
                wall: start.elapsed(),
            },
        })
    }

    /// Builds a cold runtime for the genesis path: from the configured
    /// genesis pools, or from the journal's leading `PoolCreated` prefix
    /// when none were configured. Returns the runtime plus the events
    /// still to replay through it.
    fn bootstrap_genesis(
        &self,
        mut events: Vec<Event>,
    ) -> Result<(ShardedRuntime, Vec<Event>), JournalError> {
        let pools = if self.genesis_pools.is_empty() {
            let prefix = events
                .iter()
                .take_while(|event| matches!(event, Event::PoolCreated { .. }))
                .count();
            if prefix == 0 {
                return Err(JournalError::NoBootstrap(
                    "no snapshot, no genesis pools, and the journal does not \
                     start with PoolCreated events",
                ));
            }
            let pools = events[..prefix]
                .iter()
                .map(|event| match *event {
                    Event::PoolCreated {
                        token_a,
                        token_b,
                        reserve_a,
                        reserve_b,
                        fee,
                        ..
                    } => Pool::new(
                        token_a,
                        token_b,
                        to_display(reserve_a),
                        to_display(reserve_b),
                        fee,
                    )
                    .map_err(|e| JournalError::Corrupt(format!("genesis pool invalid: {e}"))),
                    // The prefix was selected by `take_while(PoolCreated)`,
                    // so this arm is unreachable today — but recovery code
                    // propagates instead of panicking on principle.
                    _ => Err(JournalError::Corrupt(
                        "genesis prefix held a non-PoolCreated event".to_string(),
                    )),
                })
                .collect::<Result<Vec<_>, _>>()?;
            events.drain(..prefix);
            pools
        } else {
            self.genesis_pools.clone()
        };
        let runtime = ShardedRuntime::new(self.pipeline.clone(), pools, 1)?;
        Ok((runtime, events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_stats_report_into_the_registry() {
        let obs = arb_obs::Obs::default();
        let stats = RecoveryStats {
            snapshot_offset: Some(128),
            events_replayed: 42,
            journal_tail: 200,
            wall: Duration::from_micros(750),
        };
        stats.record(&obs);
        stats.record(&obs);
        let snapshot = obs.snapshot();
        assert_eq!(snapshot.counter("journal.recoveries"), Some(2));
        assert_eq!(
            snapshot.counter("journal.recovery.events_replayed"),
            Some(84)
        );
        assert_eq!(snapshot.gauge("journal.recovery.journal_tail"), Some(200.0));
        assert_eq!(snapshot.gauge("journal.recovery.from_snapshot"), Some(1.0));
        let wall = snapshot
            .histogram("journal.recovery.wall_ns")
            .expect("wall histogram registered");
        assert_eq!(wall.count, 2);
    }
}
