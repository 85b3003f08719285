//! The consumer half: drains sealed batches into a [`ShardedRuntime`].

use arb_amm::token::TokenId;
use arb_cex::feed::PriceTable;
use arb_dexsim::events::Event;
use arb_engine::{OpportunityPipeline, RuntimeCheckpoint, RuntimeReport, ShardedRuntime};
use arb_obs::{Counter, Histogram, Marker, Obs, SpanTimer};

use crate::error::IngestError;
use crate::queue::IngestBatch;
use crate::source::IngestHandle;

/// Pre-resolved apply-side instruments (see [`IngestDriver::set_obs`]).
#[derive(Debug, Clone)]
struct DriverObs {
    /// Wraps feed routing + `apply_events` for one batch.
    apply: SpanTimer,
    /// Seal → ranking-updated latency per batch.
    e2e_ns: Histogram,
    /// Flight-recorder tick mark; the value is the zero-based index of
    /// the batch just applied, so a post-mortem dump shows exactly
    /// which tick the process died on.
    tick: Marker,
    chain_events_applied: Counter,
    feed_updates_applied: Counter,
    raw_events_applied: Counter,
}

impl DriverObs {
    /// Adds one batch's (or a fresh attachment's) counts. Added, not
    /// mirrored as this driver's totals, so several drivers sharing one
    /// registry over a process's life sum up.
    fn count(&self, chain_events: u64, feed_updates: u64, raw_events: u64) {
        self.chain_events_applied.add(chain_events);
        self.feed_updates_applied.add(feed_updates);
        self.raw_events_applied.add(raw_events);
    }
}

/// Consumes [`IngestBatch`]es from an [`IngestHandle`] and applies them
/// to a [`ShardedRuntime`], splitting inline [`Event::FeedPrice`]
/// updates into the owned [`PriceTable`] so the batch's chain events are
/// evaluated under the batch's final prices — the same "feed first,
/// then events" order a directly-fed runtime sees each tick.
#[derive(Debug)]
pub struct IngestDriver {
    runtime: ShardedRuntime,
    feed: PriceTable,
    handle: IngestHandle,
    scratch: Vec<Event>,
    chain_events_applied: u64,
    feed_updates_applied: u64,
    raw_events_applied: u64,
    last_latency_nanos: u64,
    batches_applied: u64,
    obs: Option<DriverObs>,
}

impl IngestDriver {
    /// Wraps an already-current runtime and feed around `handle`.
    pub fn new(runtime: ShardedRuntime, feed: PriceTable, handle: IngestHandle) -> Self {
        IngestDriver {
            runtime,
            feed,
            handle,
            scratch: Vec::new(),
            chain_events_applied: 0,
            feed_updates_applied: 0,
            raw_events_applied: 0,
            last_latency_nanos: 0,
            batches_applied: 0,
            obs: None,
        }
    }

    /// Attaches observability to the apply side — an `ingest.apply_ns`
    /// span per batch, the `ingest.e2e_ns` seal-to-ranking latency
    /// histogram, an `ingest.tick` flight mark per batch — and forwards
    /// the handle to the wrapped runtime so engine refresh/merge spans
    /// land in the same registry. The `ingest.*_applied` counters gain
    /// this driver's totals so far, then each batch's counts, so a
    /// driver rebuilt on the same `Obs` keeps them counting.
    pub fn set_obs(&mut self, obs: &Obs) {
        let registry = obs.registry();
        let driver_obs = DriverObs {
            apply: obs.span("ingest.apply_ns"),
            e2e_ns: registry.histogram("ingest.e2e_ns"),
            tick: obs.marker("ingest.tick"),
            chain_events_applied: registry.counter("ingest.chain_events_applied"),
            feed_updates_applied: registry.counter("ingest.feed_updates_applied"),
            raw_events_applied: registry.counter("ingest.raw_events_applied"),
        };
        driver_obs.count(
            self.chain_events_applied,
            self.feed_updates_applied,
            self.raw_events_applied,
        );
        self.obs = Some(driver_obs);
        self.runtime.set_obs(obs);
    }

    /// Applies the next queued batch if one is ready. `Ok(None)` means
    /// the queue was empty (closed or not — check
    /// [`IngestHandle::is_closed`] to tell the cases apart).
    ///
    /// # Errors
    ///
    /// [`IngestError::Engine`] when the runtime rejects the batch.
    pub fn try_step(&mut self) -> Result<Option<RuntimeReport>, IngestError> {
        match self.handle.try_pop() {
            Some(batch) => self.apply(batch).map(Some),
            None => Ok(None),
        }
    }

    /// Blocks for the next batch and applies it; `Ok(None)` once the
    /// stream is closed and fully drained.
    ///
    /// # Errors
    ///
    /// As [`IngestDriver::try_step`].
    pub fn step_blocking(&mut self) -> Result<Option<RuntimeReport>, IngestError> {
        match self.handle.pop_blocking() {
            Some(batch) => self.apply(batch).map(Some),
            None => Ok(None),
        }
    }

    /// Drains every currently queued batch and returns the report from
    /// the last one applied (`None` when nothing was queued).
    ///
    /// # Errors
    ///
    /// As [`IngestDriver::try_step`].
    pub fn drain(&mut self) -> Result<Option<RuntimeReport>, IngestError> {
        let mut last = None;
        while let Some(batch) = self.handle.try_pop() {
            last = Some(self.apply(batch)?);
        }
        Ok(last)
    }

    fn apply(&mut self, batch: IngestBatch) -> Result<RuntimeReport, IngestError> {
        let apply_span = self.obs.as_ref().map(|o| o.apply.start());
        self.scratch.clear();
        let mut feed_updates = 0;
        for event in &batch.events {
            if let Some((token, price)) = event.as_feed_price() {
                self.feed.set(token, price);
                feed_updates += 1;
            } else {
                self.scratch.push(*event);
            }
        }
        let chain_events = self.scratch.len() as u64;
        let raw_events = batch.raw_events as u64;
        self.chain_events_applied += chain_events;
        self.feed_updates_applied += feed_updates;
        self.raw_events_applied += raw_events;
        if let Some(obs) = &self.obs {
            obs.count(chain_events, feed_updates, raw_events);
        }
        let report = self.runtime.apply_events(&self.scratch, &self.feed)?;
        self.last_latency_nanos = batch.sealed_at.elapsed().as_nanos() as u64;
        drop(apply_span);
        if let Some(obs) = &self.obs {
            obs.e2e_ns.record(self.last_latency_nanos);
            obs.tick.mark(self.batches_applied);
        }
        self.batches_applied += 1;
        Ok(report)
    }

    /// Captures runtime state *plus* the current price table (sorted by
    /// token id, so the snapshot bytes are deterministic), making the
    /// checkpoint self-contained: recovery needs no live feed. The
    /// caller owns [`RuntimeCheckpoint::source_positions`].
    pub fn checkpoint(&self) -> RuntimeCheckpoint {
        let mut checkpoint = self.runtime.checkpoint();
        let mut feed: Vec<(u32, u64)> = self
            .feed
            .iter()
            .map(|(token, price)| (token.index() as u32, price.to_bits()))
            .collect();
        feed.sort_unstable_by_key(|&(token, _)| token);
        checkpoint.feed = feed;
        checkpoint
    }

    /// Rebuilds a driver from a checkpoint: the runtime restores
    /// exactly and the price table is reloaded from the checkpoint's
    /// feed section.
    ///
    /// # Errors
    ///
    /// [`IngestError::Engine`] when the runtime checkpoint fails
    /// validation.
    pub fn restore(
        pipeline: OpportunityPipeline,
        checkpoint: &RuntimeCheckpoint,
        handle: IngestHandle,
    ) -> Result<Self, IngestError> {
        let runtime = ShardedRuntime::restore(pipeline, checkpoint)?;
        let mut feed = PriceTable::new();
        for &(token, bits) in &checkpoint.feed {
            feed.set(TokenId::new(token), f64::from_bits(bits));
        }
        Ok(IngestDriver::new(runtime, feed, handle))
    }

    /// The wrapped runtime.
    pub fn runtime(&self) -> &ShardedRuntime {
        &self.runtime
    }

    /// Mutable access to the driven runtime — for installing hooks
    /// ([`arb_engine::TickHook`]) or observability on an already-wired
    /// driver. Structural mutation (rebuilds, checkpoint restores) stays
    /// the driver's job; callers should limit themselves to attachments.
    pub fn runtime_mut(&mut self) -> &mut ShardedRuntime {
        &mut self.runtime
    }

    /// The owned price table (current as of the last applied batch).
    pub fn feed(&self) -> &PriceTable {
        &self.feed
    }

    /// The consumer handle this driver drains.
    pub fn handle(&self) -> &IngestHandle {
        &self.handle
    }

    /// Chain (non-feed) events handed to the runtime so far.
    pub fn chain_events_applied(&self) -> u64 {
        self.chain_events_applied
    }

    /// Inline feed updates absorbed into the price table so far.
    pub fn feed_updates_applied(&self) -> u64 {
        self.feed_updates_applied
    }

    /// Raw (pre-coalesce) events the applied batches subsumed.
    pub fn raw_events_applied(&self) -> u64 {
        self.raw_events_applied
    }

    /// Sealed batches applied to the runtime so far. The `ingest.tick`
    /// flight-recorder mark carries the zero-based index, so after `n`
    /// applied batches the newest mark reads `n - 1`.
    pub fn batches_applied(&self) -> u64 {
        self.batches_applied
    }

    /// Seal-to-ranking latency of the most recent batch, in nanoseconds.
    pub fn last_latency_nanos(&self) -> u64 {
        self.last_latency_nanos
    }
}

#[cfg(test)]
mod tests {
    use arb_amm::fee::FeeRate;
    use arb_amm::pool::Pool;
    use arb_obs::Obs;

    use super::*;
    use crate::{IngestConfig, Ingestor};

    #[test]
    fn rebuilt_driver_keeps_the_registry_counting() {
        let obs = Obs::default();
        let absorb = |moves: u32| {
            let mut ingestor = Ingestor::new(IngestConfig::default());
            let source = ingestor.register_source("feed");
            let pool = Pool::new(
                TokenId::new(0),
                TokenId::new(1),
                100.0,
                120.0,
                FeeRate::UNISWAP_V2,
            )
            .expect("pool");
            let runtime = ShardedRuntime::new(OpportunityPipeline::default(), vec![pool], 1)
                .expect("runtime");
            let mut driver = IngestDriver::new(runtime, PriceTable::new(), ingestor.handle());
            driver.set_obs(&obs);
            let moves: Vec<(TokenId, f64)> = (0..moves)
                .map(|i| (TokenId::new(i), f64::from(i) + 1.0))
                .collect();
            ingestor.offer_feed_moves(source, &moves).expect("offer");
            ingestor.seal_block().expect("seal");
            driver.try_step().expect("apply").expect("a sealed batch");
            assert_eq!(driver.feed_updates_applied(), moves.len() as u64);
        };
        absorb(5);
        // The rebuilt driver restarts its own totals at zero; the
        // registry keeps counting from where the first one left off.
        absorb(3);
        let snapshot = obs.snapshot();
        assert_eq!(snapshot.counter("ingest.feed_updates_applied"), Some(8));
        assert_eq!(snapshot.counter("ingest.raw_events_applied"), Some(8));
        assert_eq!(snapshot.counter("ingest.chain_events_applied"), Some(0));
    }
}
