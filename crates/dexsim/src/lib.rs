//! A deterministic DEX chain simulator — the Ethereum + Uniswap V2 stand-in.
//!
//! The paper's strategies ultimately execute on-chain: the three swaps of a
//! loop are bundled into one atomic transaction ("it is better to implement
//! these three exchanges in the same transaction by applying flash loan").
//! This crate provides the execution substrate with the semantics that
//! matter for arbitrage:
//!
//! * [`state`] — integer-exact pools ([`arb_amm::exact::RawPool`]), account
//!   balances, and LP shares;
//! * [`tx`] — transactions: swaps with slippage bounds, liquidity
//!   provision/removal, transfers, and atomic [`tx::Transaction::FlashBundle`]s
//!   that may run transiently negative but must settle non-negative
//!   (flash-loan semantics);
//! * [`executor`] — journaled execution with full rollback on revert;
//! * [`chain`] — mempool, gas-limited block mining, receipts, and a
//!   deterministic state digest;
//! * [`events`] — Uniswap-style `Sync`/`Swap` events with a compact binary
//!   codec;
//! * [`agents`] — random traders and liquidity providers that perturb
//!   reserves between blocks, regenerating arbitrage opportunities.
//!
//! Determinism: equal seeds and equal transaction orderings produce
//! identical state digests.
//!
//! # Quickstart
//!
//! ```
//! use arb_dexsim::chain::Chain;
//! use arb_dexsim::units::to_raw;
//! use arb_dexsim::tx::Transaction;
//! use arb_amm::{fee::FeeRate, token::TokenId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut chain = Chain::new();
//! let (x, y) = (TokenId::new(0), TokenId::new(1));
//! let pool = chain.add_pool(x, y, to_raw(1000.0), to_raw(2000.0), FeeRate::UNISWAP_V2)?;
//! let alice = chain.create_account();
//! chain.mint(alice, x, to_raw(10.0));
//! chain.submit(Transaction::Swap {
//!     account: alice,
//!     pool,
//!     token_in: x,
//!     amount_in: to_raw(10.0),
//!     min_out: 0,
//! });
//! let block = chain.mine_block();
//! assert!(block.receipts[0].success);
//! # Ok(())
//! # }
//! ```

pub mod agents;
pub mod chain;
pub mod error;
pub mod events;
pub mod executor;
pub mod state;
pub mod tx;
pub mod units;

pub use chain::{Block, Chain, EventCursor, Receipt};
pub use error::TxError;
pub use events::Event;
pub use state::{AccountId, ChainState, OnChainPool};
pub use tx::Transaction;
