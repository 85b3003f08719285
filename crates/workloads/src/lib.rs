//! Deterministic workload scenarios for engines, benches, and the bot.
//!
//! Scale work needs scenario diversity: a runtime that only ever sees
//! steady sparse deltas looks fast until a whale burst, a fee-regime
//! shift, or a pool-churn storm hits. This crate is the catalog of those
//! shapes — a **seeded, fully deterministic** generator that materializes
//! a market (a multi-domain pool universe plus CEX prices) and a tick
//! stream of chain events + feed moves:
//!
//! * [`catalog()`](catalog::catalog) — the named workload entries
//!   ([`WorkloadSpec`]):
//!   `steady-sparse`, `whale-bursts`, `fee-regime-shift`, `pool-churn`,
//!   `degenerate-flood`. The fee-regime entry follows Milionis et
//!   al. ("Automated Market Making and Arbitrage Profits in the Presence
//!   of Fees"): profitability regimes shift with the fee tier, move size,
//!   and trade-arrival intensity, so the scenario sweeps all three.
//! * [`scenario::Scenario`] — the materialized run: initial pools, an
//!   initial price table, and per-tick [`scenario::TickBatch`]es ready to
//!   feed `arb_engine::StreamingEngine::apply_events` or
//!   `arb_engine::ShardedRuntime::apply_events`.
//!
//! Universes are generated as `domains` disconnected islands (per the
//! shared-sequencer motivation: concurrent execution domains whose pools
//! never share a cycle). Everything is a pure function of
//! [`scenario::ScenarioConfig`] — two calls with the same config produce
//! bit-identical scenarios, which is what lets
//! `tests/runtime_equivalence.rs` replay one stream into two engines and
//! demand bit-identical output.
//!
//! # Quickstart
//!
//! ```
//! use arb_workloads::{catalog, ScenarioConfig};
//!
//! let spec = arb_workloads::find("steady-sparse").expect("in catalog");
//! let scenario = spec.scenario(&ScenarioConfig::default()).expect("generates");
//! assert_eq!(scenario.ticks.len(), ScenarioConfig::default().ticks);
//! assert!(catalog().len() >= 5);
//! ```

pub mod catalog;
pub mod error;
pub mod scenario;
pub mod storm;

pub use catalog::{catalog, find, SimProfile, WorkloadKind, WorkloadSpec};
pub use error::WorkloadError;
pub use scenario::{Scenario, ScenarioConfig, TickBatch};
pub use storm::{QueryOp, ReadStormProfile, ReaderPlan};
