//! Plain-data checkpoints of engine state, for durable snapshots.
//!
//! A [`crate::StreamingEngine`] (and the [`crate::ShardedRuntime`]
//! around it) is a deterministic function of the event stream it
//! consumed: evaluation is pure in (reserves, feed), so any copy of the
//! graph + cycle index resumes to the exact same standing ranking. These
//! types capture that state as plain data — no I/O, no encoding — so a
//! persistence layer (`arb-journal`) can serialize them however it likes
//! and tie them to a journal offset.
//!
//! What is captured, and why it suffices:
//!
//! * **Pool slots** ([`PoolSlot`]) — every slot's token pair, reserves,
//!   fee, and liveness. Retired slots keep their last valid state, so the
//!   restored graph has the same id space and the same revive behavior.
//! * **Cycle index arena** — the cycle slots and free list
//!   ([`arb_graph::CycleIndex::to_parts`]), so restored `CycleId`s and
//!   future slot recycling match the checkpointed engine exactly and the
//!   exponential enumeration is *not* re-run at recovery time.
//! * **`standing_revision`** — restored so external caches keyed on the
//!   revision stay monotone across a restart.
//!
//! The standing opportunity *values* are deliberately **not** captured:
//! restore marks every live cycle dirty and the first refresh recomputes
//! them bit-identically. Cumulative counters ([`crate::StreamStats`],
//! [`crate::RuntimeStats`]) restart from zero — they describe a process
//! lifetime, not market state.

use arb_amm::fee::FeeRate;
use arb_amm::pool::Pool;
use arb_amm::pool::PoolId;
use arb_amm::token::TokenId;
use arb_graph::{Cycle, GraphError, TokenGraph};

/// One pool slot's full state: enough to rebuild the slot (live or
/// retired) bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSlot {
    /// First token of the pair.
    pub token_a: u32,
    /// Second token of the pair.
    pub token_b: u32,
    /// Reserve of token A (the last *valid* state for retired slots).
    pub reserve_a: f64,
    /// Reserve of token B (the last *valid* state for retired slots).
    pub reserve_b: f64,
    /// Swap fee in parts-per-million.
    pub fee_ppm: u32,
    /// Whether the slot is live (false = retired, revivable by a `Sync`).
    pub live: bool,
}

impl PoolSlot {
    /// Captures one slot of `graph`.
    pub(crate) fn capture(graph: &TokenGraph, id: PoolId) -> Self {
        let pool = &graph.pools()[id.index()];
        PoolSlot {
            token_a: pool.token_a().index() as u32,
            token_b: pool.token_b().index() as u32,
            reserve_a: pool.reserve_a(),
            reserve_b: pool.reserve_b(),
            fee_ppm: pool.fee().ppm(),
            live: graph.is_live(id),
        }
    }

    /// Rebuilds the slot's [`Pool`] value.
    fn to_pool(&self) -> Result<Pool, GraphError> {
        let fee = FeeRate::from_ppm(self.fee_ppm).map_err(GraphError::from)?;
        Pool::new(
            TokenId::new(self.token_a),
            TokenId::new(self.token_b),
            self.reserve_a,
            self.reserve_b,
            fee,
        )
        .map_err(GraphError::from)
    }
}

/// A checkpoint of one [`crate::StreamingEngine`]: graph slots, cycle
/// index arena, and standing revision. Produce with
/// [`crate::StreamingEngine::checkpoint`], consume with
/// [`crate::StreamingEngine::restore`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineCheckpoint {
    /// Shortest indexed cycle length (must match the restoring
    /// pipeline's config).
    pub min_cycle_len: usize,
    /// Longest indexed cycle length.
    pub max_cycle_len: usize,
    /// Every pool slot, in `PoolId` order.
    pub slots: Vec<PoolSlot>,
    /// The cycle arena (`None` = tombstoned slot awaiting recycling).
    pub arena: Vec<Option<Cycle>>,
    /// Tombstoned arena slots in recycling order.
    pub free: Vec<u32>,
    /// The engine's standing revision at checkpoint time.
    pub standing_revision: u64,
}

impl EngineCheckpoint {
    /// Rebuilds the checkpointed graph: all slots with their last valid
    /// state, retired slots re-retired.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] when a slot no longer constructs (which
    /// indicates a corrupted checkpoint, since every captured slot was a
    /// valid pool once).
    pub fn build_graph(&self) -> Result<TokenGraph, GraphError> {
        let pools = self
            .slots
            .iter()
            .map(PoolSlot::to_pool)
            .collect::<Result<Vec<_>, _>>()?;
        let mut graph = TokenGraph::new(pools)?;
        for (index, slot) in self.slots.iter().enumerate() {
            if !slot.live {
                graph.remove_pool(PoolId::new(index as u32))?;
            }
        }
        Ok(graph)
    }
}

/// A checkpoint of a whole [`crate::ShardedRuntime`]: its engine's
/// [`EngineCheckpoint`] plus what the ingestion front-end needs to
/// resume. Produce with [`crate::ShardedRuntime::checkpoint`], consume
/// with [`crate::ShardedRuntime::restore`].
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeCheckpoint {
    /// The engine's checkpoint.
    pub engine: EngineCheckpoint,
    /// The price feed at checkpoint time as `(token index, f64 bits)`
    /// entries sorted by token — filled by the ingestion front-end
    /// (`arb-ingest`), whose journaled stream carries feed updates
    /// inline, so recovery reproduces rankings without a live feed.
    /// Empty when the checkpoint was taken by a consumer that sources
    /// prices externally; [`crate::ShardedRuntime::restore`] ignores it.
    pub feed: Vec<(u32, u64)>,
    /// Per-ingest-source consumed-event counts at checkpoint time,
    /// in source registration order. Opaque to the engine (restore
    /// ignores it); the ingestion front-end uses it to resume each
    /// source's cursor after recovery. Empty outside ingest mode.
    pub source_positions: Vec<u64>,
}
