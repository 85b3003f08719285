//! The chain: mempool, gas-limited blocks, receipts, digests.

use std::collections::VecDeque;

use arb_amm::fee::FeeRate;
use arb_amm::pool::PoolId;
use arb_amm::token::TokenId;

use crate::error::TxError;
use crate::events::{Event, EventLog};
use crate::executor;
use crate::state::{AccountId, ChainState};
use crate::tx::Transaction;

/// Block production parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockConfig {
    /// Gas budget per block (default: Ethereum's 30M).
    pub gas_limit: u64,
}

impl Default for BlockConfig {
    fn default() -> Self {
        BlockConfig {
            gas_limit: 30_000_000,
        }
    }
}

/// The outcome of one transaction inside a block.
#[derive(Debug, Clone, PartialEq)]
pub struct Receipt {
    /// Position within the block.
    pub index: usize,
    /// Whether the transaction succeeded (reverted txs still consume gas).
    pub success: bool,
    /// Gas consumed.
    pub gas_used: u64,
    /// Revert reason, when `success` is false.
    pub error: Option<TxError>,
    /// Events emitted (empty for reverted txs).
    pub events: Vec<Event>,
}

/// A mined block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Height (genesis state is height 0; the first block is 1).
    pub height: u64,
    /// Per-transaction outcomes in execution order.
    pub receipts: Vec<Receipt>,
    /// Total gas consumed.
    pub gas_used: u64,
    /// Deterministic digest of post-block state.
    pub state_digest: u64,
}

/// A subscriber's position in the chain's event log. Create one with
/// [`Chain::subscribe`] (from "now"), [`EventCursor::genesis`] (replay
/// everything), or [`EventCursor::at`] (resume from a recovered offset),
/// then advance it with [`Chain::drain_events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventCursor {
    next: usize,
}

impl EventCursor {
    /// A cursor that replays the log from the very first event.
    pub const fn genesis() -> Self {
        EventCursor { next: 0 }
    }

    /// A cursor positioned at an explicit sequence number — the resume
    /// point of a consumer that already recovered the log prefix from a
    /// durable journal.
    pub const fn at(position: usize) -> Self {
        EventCursor { next: position }
    }

    /// The sequence number of the next event this cursor will yield.
    pub const fn position(self) -> usize {
        self.next
    }
}

/// The simulated chain: state + mempool + history.
#[derive(Debug, Clone, Default)]
pub struct Chain {
    state: ChainState,
    mempool: VecDeque<Transaction>,
    blocks: Vec<Block>,
    log: EventLog,
    config: BlockConfig,
}

impl Chain {
    /// A chain with default block parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// A chain with custom block parameters.
    pub fn with_config(config: BlockConfig) -> Self {
        Chain {
            config,
            ..Self::default()
        }
    }

    /// Read access to current state.
    pub fn state(&self) -> &ChainState {
        &self.state
    }

    /// Current block height.
    pub fn height(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// All mined blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The global event log across all blocks.
    pub fn event_log(&self) -> &EventLog {
        &self.log
    }

    /// A cursor positioned at the *current* end of the event log: it will
    /// yield only events emitted after this call. Use
    /// [`EventCursor::genesis`] to replay history instead.
    pub fn subscribe(&self) -> EventCursor {
        EventCursor {
            next: self.log.len(),
        }
    }

    /// Decodes and returns every event the cursor has not yet seen,
    /// advancing it to the end of the log. Streaming consumers call this
    /// once per block (or batch of blocks) and apply the deltas.
    pub fn drain_events(&self, cursor: &mut EventCursor) -> Vec<Event> {
        let events = self.log.decode_from(cursor.next);
        cursor.next = self.log.len();
        events
    }

    /// Number of pending transactions.
    pub fn pending(&self) -> usize {
        self.mempool.len()
    }

    /// Deploys a pool directly into state (genesis-style, not a tx) and
    /// logs a [`Event::PoolCreated`] so streaming subscribers can extend
    /// their graph without re-snapshotting the chain.
    ///
    /// # Errors
    ///
    /// Forwards validation failures from the state layer.
    pub fn add_pool(
        &mut self,
        token_a: TokenId,
        token_b: TokenId,
        reserve_a: u128,
        reserve_b: u128,
        fee: FeeRate,
    ) -> Result<PoolId, TxError> {
        let pool = self
            .state
            .add_pool(token_a, token_b, reserve_a, reserve_b, fee)?;
        self.log.push(Event::PoolCreated {
            pool,
            token_a,
            token_b,
            reserve_a,
            reserve_b,
            fee,
        });
        Ok(pool)
    }

    /// Registers an account.
    pub fn create_account(&mut self) -> AccountId {
        self.state.create_account()
    }

    /// Faucet-credits a balance (genesis-style, not a tx).
    pub fn mint(&mut self, account: AccountId, token: TokenId, amount: u128) {
        self.state.mint(account, token, amount);
    }

    /// Queues a transaction.
    pub fn submit(&mut self, tx: Transaction) {
        self.mempool.push_back(tx);
    }

    /// Mines the next block: executes pending transactions FIFO until the
    /// gas limit is reached (remaining txs stay pending). Reverted
    /// transactions consume their gas and record their revert reason.
    pub fn mine_block(&mut self) -> &Block {
        let mut receipts = Vec::new();
        let mut gas_used: u64 = 0;
        while let Some(tx) = self.mempool.front() {
            let gas = tx.gas();
            if gas_used + gas > self.config.gas_limit {
                break;
            }
            let tx = self.mempool.pop_front().expect("front checked");
            let index = receipts.len();
            match executor::execute(&mut self.state, &tx) {
                Ok(events) => {
                    for e in &events {
                        self.log.push(*e);
                    }
                    receipts.push(Receipt {
                        index,
                        success: true,
                        gas_used: gas,
                        error: None,
                        events,
                    });
                }
                Err(e) => receipts.push(Receipt {
                    index,
                    success: false,
                    gas_used: gas,
                    error: Some(e),
                    events: Vec::new(),
                }),
            }
            gas_used += gas;
        }
        let block = Block {
            height: self.blocks.len() as u64 + 1,
            receipts,
            gas_used,
            state_digest: self.state.digest(),
        };
        self.blocks.push(block);
        self.blocks.last().expect("just pushed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::to_raw;

    fn t(i: u32) -> TokenId {
        TokenId::new(i)
    }

    fn setup() -> (Chain, AccountId, PoolId) {
        let mut chain = Chain::new();
        let pool = chain
            .add_pool(
                t(0),
                t(1),
                to_raw(1_000.0),
                to_raw(1_000.0),
                FeeRate::UNISWAP_V2,
            )
            .unwrap();
        let alice = chain.create_account();
        chain.mint(alice, t(0), to_raw(100.0));
        (chain, alice, pool)
    }

    #[test]
    fn mining_executes_fifo_and_records_receipts() {
        let (mut chain, alice, pool) = setup();
        chain.submit(Transaction::Swap {
            account: alice,
            pool,
            token_in: t(0),
            amount_in: to_raw(1.0),
            min_out: 0,
        });
        chain.submit(Transaction::Swap {
            account: alice,
            pool,
            token_in: t(0),
            amount_in: to_raw(1.0),
            min_out: u128::MAX, // will revert
        });
        let block = chain.mine_block();
        assert_eq!(block.height, 1);
        assert_eq!(block.receipts.len(), 2);
        assert!(block.receipts[0].success);
        assert!(!block.receipts[1].success);
        assert_eq!(block.receipts[1].error, Some(TxError::SlippageExceeded));
        assert!(block.gas_used > 0);
        assert_eq!(chain.pending(), 0);
    }

    #[test]
    fn gas_limit_defers_transactions() {
        let mut chain = Chain::with_config(BlockConfig { gas_limit: 100_000 });
        let pool = chain
            .add_pool(t(0), t(1), to_raw(10.0), to_raw(10.0), FeeRate::UNISWAP_V2)
            .unwrap();
        let alice = chain.create_account();
        chain.mint(alice, t(0), to_raw(5.0));
        for _ in 0..3 {
            chain.submit(Transaction::Swap {
                account: alice,
                pool,
                token_in: t(0),
                amount_in: to_raw(0.1),
                min_out: 0,
            });
        }
        // Each swap = 81k gas; only one fits per 100k block.
        let block = chain.mine_block();
        assert_eq!(block.receipts.len(), 1);
        assert_eq!(chain.pending(), 2);
        chain.mine_block();
        chain.mine_block();
        assert_eq!(chain.pending(), 0);
        assert_eq!(chain.height(), 3);
    }

    #[test]
    fn digests_are_deterministic_across_runs() {
        let run = || {
            let (mut chain, alice, pool) = setup();
            chain.submit(Transaction::Swap {
                account: alice,
                pool,
                token_in: t(0),
                amount_in: to_raw(2.5),
                min_out: 0,
            });
            chain.mine_block().state_digest
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn event_log_accumulates_across_blocks() {
        let (mut chain, alice, pool) = setup();
        for _ in 0..3 {
            chain.submit(Transaction::Swap {
                account: alice,
                pool,
                token_in: t(0),
                amount_in: to_raw(0.5),
                min_out: 0,
            });
            chain.mine_block();
        }
        // Genesis PoolCreated + (Swap + Sync) per successful swap.
        assert_eq!(chain.event_log().len(), 7);
        assert_eq!(chain.event_log().decode_all().len(), 7);
    }

    #[test]
    fn add_pool_logs_pool_created() {
        let (chain, _, pool) = setup();
        let events = chain.event_log().decode_all();
        assert_eq!(events.len(), 1);
        let Event::PoolCreated {
            pool: created,
            token_a,
            reserve_a,
            ..
        } = events[0]
        else {
            panic!("expected PoolCreated, got {:?}", events[0]);
        };
        assert_eq!(created, pool);
        assert_eq!(token_a, t(0));
        assert_eq!(reserve_a, to_raw(1_000.0));
    }

    #[test]
    fn subscribe_and_drain_sees_only_new_events() {
        let (mut chain, alice, pool) = setup();
        // A subscription opened now skips the genesis PoolCreated…
        let mut cursor = chain.subscribe();
        assert!(chain.drain_events(&mut cursor).is_empty());

        chain.submit(Transaction::Swap {
            account: alice,
            pool,
            token_in: t(0),
            amount_in: to_raw(1.0),
            min_out: 0,
        });
        chain.mine_block();
        let events = chain.drain_events(&mut cursor);
        assert_eq!(events.len(), 2, "Swap + Sync");
        assert!(matches!(events[0], Event::Swap { .. }));
        assert!(matches!(events[1], Event::Sync { .. }));
        // Draining again yields nothing until new blocks land.
        assert!(chain.drain_events(&mut cursor).is_empty());

        // …while a genesis cursor replays everything, including setup.
        let mut replay = EventCursor::genesis();
        let all = chain.drain_events(&mut replay);
        assert_eq!(all.len(), 3);
        assert!(matches!(all[0], Event::PoolCreated { .. }));
        assert_eq!(replay.position(), chain.event_log().len());
    }

    #[test]
    fn cursor_at_resumes_from_explicit_offset() {
        let (mut chain, alice, pool) = setup();
        chain.submit(Transaction::Swap {
            account: alice,
            pool,
            token_in: t(0),
            amount_in: to_raw(1.0),
            min_out: 0,
        });
        chain.mine_block();
        let all = chain.event_log().len();
        // Resume one event before the end: exactly that suffix drains.
        let mut cursor = EventCursor::at(all - 1);
        assert_eq!(cursor.position(), all - 1);
        let events = chain.drain_events(&mut cursor);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0], chain.event_log().get(all - 1).unwrap());
    }

    #[test]
    fn empty_block_is_fine() {
        let (mut chain, _, _) = setup();
        let digest_before = chain.state().digest();
        let block = chain.mine_block();
        assert!(block.receipts.is_empty());
        assert_eq!(block.state_digest, digest_before);
    }
}
