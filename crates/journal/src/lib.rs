//! Durable event journal, engine snapshots, and deterministic recovery.
//!
//! The streaming engines in `arb-engine` hold their market view — graph,
//! cycle index, standing rankings — entirely in memory; a crash used to
//! mean a cold full rescan. This crate makes the discovery → evaluation
//! state **restartable**:
//!
//! ```text
//!  chain events ──▶ JournalWriter ──▶ segment-….seg  (len|crc32|frame)*
//!       │                │
//!       ▼                └─ fsync per batch, truncate-at-corruption tail
//!  ShardedRuntime ──▶ checkpoint() ──▶ SnapshotStore ──▶ snapshot-….ckpt
//!                                        (tmp + rename, CRC-32 guarded)
//!  crash ▸ Recovery: newest valid snapshot + replay journal suffix
//!          = rankings bit-identical to a process that never crashed
//! ```
//!
//! * [`JournalWriter`] — append-only segmented log of
//!   [`arb_dexsim::events::Event`]s reusing the chain's own binary codec,
//!   with length-prefixed CRC-32-checksummed records, one fsync per
//!   batch, and corruption-tolerant tail recovery on reopen.
//! * [`JournalReader`] / [`JournalCursor`] — offset-addressed reads
//!   mirroring the chain's `EventCursor` API.
//! * [`SnapshotStore`] — atomic, checksummed persistence of
//!   [`arb_engine::RuntimeCheckpoint`]s tied to journal offsets, with
//!   newest-valid selection (a snapshot past the durable tail falls back
//!   to its predecessor) and pruning; pair with
//!   [`JournalWriter::compact_below`] to drop fully-snapshotted segments.
//! * [`Recovery`] — restores the newest valid snapshot, replays the
//!   suffix through the engine (price moves journaled inline update the
//!   recovered price table), and reports a [`RecoveryStats`] line.
//!
//! Because engine evaluation is a pure function of (reserves, feed), the
//! recovered standing ranking is **bit-identical** to an uninterrupted
//! run's — `tests/journal_recovery.rs` at the workspace root enforces
//! this across the whole workload catalog at randomized crash offsets.
//! The same recorded stream also enables offline replay studies: run one
//! tick history under different fee or ranking policies (Milionis et
//! al.; Silva & Livshits) without re-simulating the market.
//!
//! # Example: journal, crash, recover
//!
//! ```
//! use arb_amm::{fee::FeeRate, pool::Pool, token::TokenId};
//! use arb_cex::feed::PriceTable;
//! use arb_dexsim::{events::Event, units::to_raw};
//! use arb_engine::{OpportunityPipeline, ShardedRuntime};
//! use arb_journal::{JournalConfig, JournalWriter, Recovery, SnapshotStore};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join(format!("arbj-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let t = TokenId::new;
//! let fee = FeeRate::UNISWAP_V2;
//! let pools = vec![
//!     Pool::new(t(0), t(1), 100.0, 200.0, fee)?,
//!     Pool::new(t(1), t(2), 300.0, 200.0, fee)?,
//!     Pool::new(t(2), t(0), 200.0, 400.0, fee)?,
//! ];
//! let feed: PriceTable = [(t(0), 2.0), (t(1), 10.2), (t(2), 20.0)]
//!     .into_iter()
//!     .collect();
//!
//! // Live process: journal events, checkpoint the runtime.
//! let mut writer = JournalWriter::open(&dir, JournalConfig::default())?;
//! let mut runtime = ShardedRuntime::new(OpportunityPipeline::default(), pools.clone(), 1)?;
//! let tick = [Event::Sync {
//!     pool: arb_amm::pool::PoolId::new(0),
//!     reserve_a: to_raw(101.0),
//!     reserve_b: to_raw(199.0),
//! }];
//! writer.append_batch(&tick);
//! writer.commit()?;
//! let live = runtime.apply_events(&tick, &feed)?;
//! SnapshotStore::new(&dir)?.write(writer.durable_offset(), &runtime.checkpoint())?;
//! drop((writer, runtime)); // 💥 crash
//!
//! // New process: restore + replay = the same ranking, bit for bit.
//! let mut recovered = Recovery::new(&dir, OpportunityPipeline::default(), 1)
//!     .with_genesis_pools(pools)
//!     .with_genesis_feed(feed.clone())
//!     .recover_journaled()?;
//! println!("{}", recovered.stats); // "recovered from snapshot@1, …"
//! let restored = recovered.runtime.refresh(&feed)?;
//! assert_eq!(restored.opportunities.len(), live.opportunities.len());
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```

pub mod crc;
pub mod error;
pub mod io;
mod names;
pub mod reader;
pub mod recovery;
mod segment;
pub mod snapshot;
pub mod writer;

pub use error::JournalError;
pub use io::{IoShim, WriteVerdict};
pub use reader::{JournalCursor, JournalReader};
pub use recovery::{RecoveredStream, Recovery, RecoveryStats};
pub use snapshot::SnapshotStore;
pub use writer::{JournalConfig, JournalWriter};
