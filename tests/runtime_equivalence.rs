//! The runtime's correctness oracle.
//!
//! For every workload in the catalog, one [`StreamingEngine`] and one
//! [`ShardedRuntime`] consume the **same** seeded event stream under the
//! same drifting feed. After every tick the runtime's ranking must be
//! **bit-identical** to the single engine's: same cycles, same winning
//! strategies, same gross/net profits, same order. Halfway through each
//! stream the runtime is also checkpointed and restored into a fresh
//! runtime, which must stay bit-identical to the single engine on every
//! later tick. The replay itself lives in `support/replay.rs`.

use arbloops::prelude::*;

#[path = "support/replay.rs"]
mod replay;

use replay::{replay, small_config};

#[test]
fn steady_sparse_is_bit_identical() {
    replay(
        "steady-sparse",
        &small_config(101),
        PipelineConfig::default(),
    );
}

#[test]
fn whale_bursts_is_bit_identical() {
    replay(
        "whale-bursts",
        &small_config(202),
        PipelineConfig::default(),
    );
}

#[test]
fn fee_regime_shift_is_bit_identical() {
    // Longer loops: regime shifts matter most when 4-hop loops can route
    // around the new fee tiers.
    let config = PipelineConfig {
        max_cycle_len: 4,
        ..PipelineConfig::default()
    };
    replay("fee-regime-shift", &small_config(303), config);
}

#[test]
fn pool_churn_is_bit_identical_through_rebuilds() {
    replay("pool-churn", &small_config(404), PipelineConfig::default());
}

#[test]
fn degenerate_flood_is_bit_identical() {
    replay(
        "degenerate-flood",
        &small_config(505),
        PipelineConfig::default(),
    );
}

#[test]
fn top_k_cut_is_bit_identical() {
    // The runtime must reproduce the engine's top-k cut exactly.
    let config = PipelineConfig {
        top_k: Some(3),
        ..PipelineConfig::default()
    };
    replay("whale-bursts", &small_config(606), config);
}
