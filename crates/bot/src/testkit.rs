//! Shared fixtures for this crate's unit tests: the paper's triangle
//! market, a whale-perturbed block driver, and self-removing journal
//! directories.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use arb_amm::fee::FeeRate;
use arb_amm::pool::PoolId;
use arb_amm::token::TokenId;
use arb_cex::feed::PriceTable;
use arb_dexsim::chain::Chain;
use arb_dexsim::state::AccountId;
use arb_dexsim::tx::Transaction;
use arb_dexsim::units::to_raw;

use crate::bot::BotAction;

pub(crate) fn t(i: u32) -> TokenId {
    TokenId::new(i)
}

/// The paper's §V triangle: X/Y 100/200, Y/Z 300/200, Z/X 200/400.
pub(crate) fn paper_chain() -> Chain {
    let mut chain = Chain::new();
    let fee = FeeRate::UNISWAP_V2;
    chain
        .add_pool(t(0), t(1), to_raw(100.0), to_raw(200.0), fee)
        .unwrap();
    chain
        .add_pool(t(1), t(2), to_raw(300.0), to_raw(200.0), fee)
        .unwrap();
    chain
        .add_pool(t(2), t(0), to_raw(200.0), to_raw(400.0), fee)
        .unwrap();
    chain
}

/// The paper's CEX prices for X, Y, Z.
pub(crate) fn paper_feed() -> PriceTable {
    [(t(0), 2.0), (t(1), 10.2), (t(2), 20.0)]
        .into_iter()
        .collect()
}

/// A fresh account holding 1000 X, to perturb pool 0 between bot steps.
pub(crate) fn funded_whale(chain: &mut Chain) -> AccountId {
    let whale = chain.create_account();
    chain.mint(whale, t(0), to_raw(1_000.0));
    whale
}

/// Per-block feed drift, a pure function of the global block index so
/// a split run sees exactly what a continuous one did.
pub(crate) fn moves_for(block: usize) -> Vec<(TokenId, f64)> {
    vec![(t(1), 10.2 + 0.05 * block as f64)]
}

/// Drives whale-perturbed blocks (sized by their global block index, so
/// a split run perturbs exactly like a continuous one) through a
/// stepper, mining the bot's submissions, and returns the decision
/// trace as `(expected profit bits, hops)` per submitting block.
pub(crate) fn drive<S: FnMut(&mut Chain, &[(TokenId, f64)]) -> BotAction>(
    chain: &mut Chain,
    whale: AccountId,
    blocks: Range<usize>,
    mut stepper: S,
) -> Vec<Option<(u64, usize)>> {
    blocks
        .map(|i| {
            chain.submit(Transaction::Swap {
                account: whale,
                pool: PoolId::new(0),
                token_in: t(0),
                amount_in: to_raw(2.0 + i as f64),
                min_out: 0,
            });
            chain.mine_block();
            let action = stepper(chain, &moves_for(i));
            chain.mine_block();
            match action {
                BotAction::Idle => None,
                BotAction::Submitted { expected, hops } => Some((expected.value().to_bits(), hops)),
            }
        })
        .collect()
}

/// A temporary directory unique to this process and this instance (pid
/// plus a process-wide counter, so concurrently running tests never
/// share one), removed on drop.
pub(crate) struct TestDir(PathBuf);

impl TestDir {
    pub(crate) fn new(tag: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("arbloops-bot-{}-{n}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TestDir(dir)
    }

    pub(crate) fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
