//! The staged ingestion front-end between event sources and engines.
//!
//! The engines in `arb-engine` used to be fed directly from
//! `Chain::drain_events` — one source, no batching discipline, no
//! bound on how far behind a slow consumer could fall, and the CEX
//! price feed living entirely outside the journaled stream. The
//! paper's profit races are races against staleness (Milionis et al.,
//! arXiv:2305.14604) and against *ordering* between venues
//! (arXiv:2410.11552), so this crate makes the ingestion boundary a
//! first-class, measured subsystem:
//!
//! ```text
//!  chain A ──offer──▶ ┌──────────┐   seal_block()
//!  chain B ──offer──▶ │ Ingestor │ ── multiplex ──▶ journal (raw)
//!  CEX feed ─offer──▶ └──────────┘         │
//!                                      coalesce (LWW per pool/token,
//!                                       PoolCreated = barrier)
//!                                          │
//!                               bounded queue (full: merge
//!                               into the tail, re-coalesce)
//!                                          │
//!  IngestHandle ──pop──▶ IngestDriver ──▶ ShardedRuntime + PriceTable
//!                                          │
//!                                   ranked opportunities
//! ```
//!
//! * **Multiplexing** ([`Ingestor`]) — several sources (dexsim chains,
//!   the CEX feed) merge into one deterministically ordered stream:
//!   within a sealed block, events are ordered by source registration
//!   priority, then by per-source arrival order. The merged *raw*
//!   stream is journaled (feed updates travel inline as
//!   [`arb_dexsim::events::Event::FeedPrice`]), so one journal replays
//!   the whole market without a live feed.
//! * **Coalescing** ([`mod@coalesce`]) — bursty per-pool `Sync`s collapse
//!   last-write-wins before the engine sees them; `PoolCreated` is a
//!   barrier. Sound because the graph's `apply_sync` is itself
//!   last-write-wins over absolute reserves (see the module docs of
//!   [`mod@crate::coalesce`] for the commutation argument, and the
//!   crate's proptests for the proof harness).
//! * **Bounded queue** ([`IngestConfig::queue_capacity`]) — a seal
//!   never waits on the consumer: when the consumer has fallen
//!   `queue_capacity` batches behind, the new block merges into the
//!   queue tail and the merged events re-coalesce.
//!   Nothing is dropped and per-source order is preserved.
//!   [`IngestStats`] surfaces events in/out, the coalesce ratio, queue
//!   depth high-water, and the count of such degraded merges.
//!
//! [`IngestDriver`] is the consumer half: it pops sealed batches,
//! routes feed updates into its [`arb_cex::feed::PriceTable`], applies
//! chain events to a [`arb_engine::ShardedRuntime`], and stamps
//! end-to-end (seal → ranking updated) latency. Its checkpoints carry
//! the feed, so restore needs no price source either.

//!
//! **Degradation** ([`mod@health`]) — every site (each source, the
//! journal, the consumer) carries a deterministic [`HealthMonitor`]
//! (Healthy → Lagging → Quarantined → Recovered). A journal commit
//! failure no longer aborts the seal: the batch stays pending, serving
//! continues journal-degraded, and later seals retry under bounded
//! backoff. A seal that finds the queue full records the consumer site
//! as idle.

pub mod coalesce;
pub mod driver;
pub mod error;
pub mod health;
mod queue;
pub mod source;
pub mod stats;

pub use coalesce::coalesce;
pub use driver::IngestDriver;
pub use error::IngestError;
pub use health::{HealthConfig, HealthMonitor, HealthState};
pub use queue::IngestBatch;
pub use source::{IngestConfig, IngestHandle, Ingestor, SourceId};
pub use stats::IngestStats;
