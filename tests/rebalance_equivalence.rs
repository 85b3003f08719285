//! Checkpoint/restore equivalence of the sharded runtime on small,
//! densely sharded universes.
//!
//! For every workload in the catalog this file replays one seeded stream
//! over a 40-pool universe three ways —
//!
//! * a single [`StreamingEngine`] (the oracle),
//! * a four-shard [`ShardedRuntime`],
//! * the same runtime checkpointed mid-stream and restored into a fresh
//!   fleet, which re-derives its placement from the checkpoint,
//!
//! — and demands bit-identical rankings after every tick. Placement is
//! static (whole components, largest first); the fleet is replaced only
//! by a cross-shard `PoolCreated` rebuild or by the restore. The test
//! names keep the `rebalanced` form they had when this file also drove an
//! adaptive rebalancer; what they check is the live and the restored
//! fleet against the oracle.

use arbloops::prelude::*;
use arbloops::workloads::ScenarioConfig;

fn small_config(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        domains: 4,
        num_tokens: 20,
        num_pools: 40,
        ticks: 24,
        intensity: 1.0,
    }
}

fn assert_identical(
    workload: &str,
    tick: usize,
    label: &str,
    got: &[ArbitrageOpportunity],
    expected: &[ArbitrageOpportunity],
) {
    assert_eq!(
        got.len(),
        expected.len(),
        "{workload} tick {tick} ({label}): opportunity counts diverged"
    );
    for (position, (g, e)) in got.iter().zip(expected).enumerate() {
        let context = format!("{workload} tick {tick} position {position} ({label})");
        assert_eq!(g.cycle.tokens(), e.cycle.tokens(), "{context}: tokens");
        assert_eq!(g.cycle.pools(), e.cycle.pools(), "{context}: pools");
        assert_eq!(g.strategy, e.strategy, "{context}: strategy");
        assert_eq!(
            g.net_profit.value().to_bits(),
            e.net_profit.value().to_bits(),
            "{context}: net profit"
        );
    }
}

/// Replays one workload into the single-engine oracle and a four-shard
/// runtime (checkpoint/restoring the runtime at mid-stream), comparing
/// both sharded views against the oracle after every tick.
fn replay(workload: &'static str, config: &ScenarioConfig) {
    let spec = arbloops::workloads::find(workload).expect("workload in catalog");
    let scenario = spec.scenario(config).expect("scenario generates");
    let mut feed = scenario.feed.clone();
    let halfway = scenario.ticks.len() / 2;

    let mut single = StreamingEngine::new(OpportunityPipeline::default(), scenario.pools.clone())
        .expect("single engine");
    let mut runtime =
        ShardedRuntime::new(OpportunityPipeline::default(), scenario.pools.clone(), 4)
            .expect("sharded runtime");

    single.refresh(&feed).expect("single cold start");
    runtime.refresh(&feed).expect("sharded cold start");
    let mut restored: Option<ShardedRuntime> = None;
    let mut nonempty_ticks = 0usize;

    for (tick, batch) in scenario.ticks.iter().enumerate() {
        if tick == halfway {
            let checkpoint = runtime.checkpoint();
            let fresh = ShardedRuntime::restore(OpportunityPipeline::default(), &checkpoint)
                .expect("restore");
            restored = Some(fresh);
        }
        batch.apply_feed(&mut feed);
        let expected = single
            .apply_events(&batch.events, &feed)
            .expect("single tick");
        let merged = runtime
            .apply_events(&batch.events, &feed)
            .expect("sharded tick");
        assert_identical(
            workload,
            tick,
            "live",
            &merged.opportunities,
            &expected.opportunities,
        );
        if let Some(fresh) = restored.as_mut() {
            let back = fresh
                .apply_events(&batch.events, &feed)
                .expect("restored tick");
            assert_identical(
                workload,
                tick,
                "restored",
                &back.opportunities,
                &expected.opportunities,
            );
        }
        if !merged.opportunities.is_empty() {
            nonempty_ticks += 1;
        }
    }
    assert!(
        restored.is_some(),
        "{workload}: the stream ended before the mid-stream restore"
    );
    assert!(
        nonempty_ticks > 0,
        "{workload}: the scenario never produced an opportunity — the \
         equivalence would be vacuous"
    );
}

#[test]
fn steady_sparse_rebalanced_is_bit_identical() {
    replay("steady-sparse", &small_config(711));
}

#[test]
fn whale_bursts_rebalanced_is_bit_identical() {
    replay("whale-bursts", &small_config(722));
}

#[test]
fn fee_regime_shift_rebalanced_is_bit_identical() {
    replay("fee-regime-shift", &small_config(733));
}

#[test]
fn pool_churn_rebalanced_is_bit_identical_through_rebuilds() {
    replay("pool-churn", &small_config(744));
}

#[test]
fn degenerate_flood_rebalanced_is_bit_identical() {
    replay("degenerate-flood", &small_config(755));
}
