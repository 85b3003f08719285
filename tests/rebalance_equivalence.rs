//! A second set of seeded universes for the runtime's equivalence oracle.
//!
//! For every workload in the catalog this file replays one seeded stream
//! (seeds 711–755) over a 40-pool universe into a [`ShardedRuntime`]
//! and that runtime restored from a mid-stream checkpoint, and demands
//! after every tick a ranking bit-identical to a batch rescan of the
//! runtime's graph, and the restored runtime's identical to the live
//! one's (see `support/replay.rs`). The seeds differ from
//! `runtime_equivalence`'s, so the two files cover ten universes between
//! them. The test names keep the `rebalanced` form they had when the
//! runtime sharded the universe and could rebalance it.

use arbloops::prelude::*;

#[path = "support/ranking.rs"]
mod ranking;
#[path = "support/replay.rs"]
mod replay;

use replay::{replay, small_config};

#[test]
fn steady_sparse_rebalanced_is_bit_identical() {
    replay(
        "steady-sparse",
        &small_config(711),
        PipelineConfig::default(),
    );
}

#[test]
fn whale_bursts_rebalanced_is_bit_identical() {
    replay(
        "whale-bursts",
        &small_config(722),
        PipelineConfig::default(),
    );
}

#[test]
fn fee_regime_shift_rebalanced_is_bit_identical() {
    replay(
        "fee-regime-shift",
        &small_config(733),
        PipelineConfig::default(),
    );
}

#[test]
fn pool_churn_rebalanced_is_bit_identical_through_rebuilds() {
    replay("pool-churn", &small_config(744), PipelineConfig::default());
}

#[test]
fn degenerate_flood_rebalanced_is_bit_identical() {
    replay(
        "degenerate-flood",
        &small_config(755),
        PipelineConfig::default(),
    );
}
