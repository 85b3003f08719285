//! An end-to-end arbitrage bot over the simulated chain.
//!
//! This crate closes the loop the paper describes: every block, rank the
//! arbitrage loops, evaluate the profit-maximization strategies, and
//! execute the best plan atomically via a flash bundle. There is one
//! bot, [`ArbBot`], with one market view and one step loop:
//!
//! ```text
//!  CEX feed moves ──offer──▶ ┌──────────┐ seal  ┌──────────────┐
//!  chain events   ──offer──▶ │ Ingestor │ ────▶ │ IngestDriver │
//!                            └──────────┘  │    └──────┬───────┘
//!                        journal (attach / │           │ apply
//!                        recover only) ◀───┘           ▼
//!                                            ShardedRuntime ── ranking ──▶ serve
//!                                                      │
//!      chain ◀── flash bundle (submit_best) ◀──────────┘
//!                        (pnl ledger)
//! ```
//!
//! * [`bot`] — [`ArbBot`]: the per-block step (stage, seal, apply,
//!   rank, execute), serving and observability;
//! * [`ingest_bot`] — the journal a bot is built with by
//!   [`ArbBot::attach`] / [`ArbBot::recover`]: every sealed block
//!   journaled raw, periodic runtime checkpoints, feed-free crash
//!   recovery via `arb-journal`. [`ArbBot::new`] builds the same bot
//!   without one;
//! * [`supervisor`] — panic supervision over a journaled bot: catch a
//!   mid-tick panic, dump the flight recorder, let the bot rebuild
//!   itself from the journal, retry, bounded by a recovery budget;
//! * [`scanner`] — chain state → token graph → engine discovery run (the
//!   view's cold build, and a journal-less bot's rescan fallback);
//! * [`execution`] — engine opportunity → integer-exact flash bundle;
//! * [`pnl`] — balance accounting and monetized PnL series;
//! * [`sim`] — a deterministic market harness (noise traders + LPs + CEX
//!   price drift + the bot) used by examples, tests, and benches.
//!
//! # Quickstart
//!
//! ```
//! use arb_bot::sim::{MarketSim, MarketSimConfig};
//!
//! let mut sim = MarketSim::new(MarketSimConfig {
//!     num_tokens: 5,
//!     num_pools: 8,
//!     seed: 7,
//!     ..MarketSimConfig::default()
//! }).unwrap();
//! sim.run_blocks(20).unwrap();
//! // Flash-bundle atomicity makes the bot risk-free: token balances
//! // never decrease.
//! assert!(sim.bot_pnl().value() >= 0.0);
//! ```

pub mod bot;
pub mod config;
pub mod error;
pub mod execution;
pub mod ingest_bot;
pub mod obs;
pub mod pnl;
pub mod scanner;
pub mod sim;
pub mod supervisor;

#[cfg(test)]
mod testkit;

pub use bot::{pipeline_for, ArbBot, BotAction, ServeTelemetry};
pub use config::{BotConfig, StrategyChoice};
pub use error::BotError;
pub use ingest_bot::JournalSettings;
pub use obs::{ExportSink, ObsConfig};
pub use supervisor::SupervisedBot;
