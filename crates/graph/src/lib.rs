//! Token exchange graph and arbitrage-loop discovery.
//!
//! The paper's empirical section builds a *token graph* from Uniswap V2
//! state: nodes are tokens, edges are liquidity pools, and arbitrage loops
//! are directed cycles whose product of relative prices exceeds 1
//! (equivalently, whose sum of log-rates is positive). This crate provides
//! that substrate plus the three cycle-discovery algorithms the surrounding
//! literature uses:
//!
//! * [`token_graph`] — the multigraph (parallel pools between a token pair
//!   are distinct edges) with adjacency queries;
//! * [`cycles`] — bounded-length enumeration of directed simple cycles
//!   (the paper "traverses all token loops with 3 tokens");
//! * [`johnson`] — Johnson's algorithm for *all* elementary cycles, as used
//!   by McLaughlin et al. (USENIX Sec '23);
//! * [`bellman_ford`] — Bellman–Ford–Moore negative-cycle detection on
//!   `−log(rate)` weights, as used by Zhou et al. (S&P '21);
//! * [`tarjan`] — strongly connected components for search pruning;
//! * [`cycle_index`] — the persistent pool → cycle index the streaming
//!   engine in `arb-engine` re-evaluates from.
//!
//! # Quickstart
//!
//! ```
//! use arb_amm::{fee::FeeRate, pool::Pool, token::TokenId};
//! use arb_graph::TokenGraph;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let t = |i| TokenId::new(i);
//! let fee = FeeRate::UNISWAP_V2;
//! let graph = TokenGraph::new(vec![
//!     Pool::new(t(0), t(1), 100.0, 200.0, fee)?,
//!     Pool::new(t(1), t(2), 300.0, 200.0, fee)?,
//!     Pool::new(t(2), t(0), 200.0, 400.0, fee)?,
//! ])?;
//! let loops = graph.arbitrage_loops(3)?;
//! assert_eq!(loops.len(), 1); // exactly one profitable direction
//! # Ok(())
//! # }
//! ```

pub mod bellman_ford;
pub mod cycle_index;
pub mod cycles;
pub mod error;
pub mod johnson;
pub mod tarjan;
pub mod token_graph;

pub use cycle_index::{CycleId, CycleIndex, PoolCycleRef, ScreenUpdate};
pub use cycles::Cycle;
pub use error::GraphError;
pub use token_graph::{LoopScan, SyncOutcome, TokenGraph};
