//! The sharded runtime's correctness oracle.
//!
//! For every workload in the catalog, one [`StreamingEngine`] and one
//! [`ShardedRuntime`] consume the **same** seeded event stream under the
//! same drifting feed. After every tick the runtime's merged global
//! ranking must be **bit-identical** to the single engine's: same cycles,
//! same winning strategies, same gross/net profits, same order. Sharding
//! is an execution strategy — routing, per-shard engines, broadcasts,
//! rebuilds, and the k-way merge may never change a single bit of output.
//! Halfway through each stream the runtime is also checkpointed and
//! restored into a fresh fleet, which must stay bit-identical to the
//! single engine on every later tick.

use arbloops::prelude::*;
use arbloops::workloads::ScenarioConfig;

/// Asserts merged-output equality, bit for bit, position by position.
fn assert_reports_identical(
    workload: &str,
    tick: usize,
    merged: &[ArbitrageOpportunity],
    expected: &[ArbitrageOpportunity],
) {
    assert_eq!(
        merged.len(),
        expected.len(),
        "{workload} tick {tick}: opportunity counts diverged"
    );
    for (position, (m, e)) in merged.iter().zip(expected).enumerate() {
        let context = format!("{workload} tick {tick} position {position}");
        assert_eq!(m.cycle.tokens(), e.cycle.tokens(), "{context}: tokens");
        assert_eq!(m.cycle.pools(), e.cycle.pools(), "{context}: pools");
        assert_eq!(m.strategy, e.strategy, "{context}: strategy");
        assert_eq!(
            m.gross_profit.value().to_bits(),
            e.gross_profit.value().to_bits(),
            "{context}: gross profit"
        );
        assert_eq!(
            m.net_profit.value().to_bits(),
            e.net_profit.value().to_bits(),
            "{context}: net profit"
        );
        assert_eq!(
            m.optimal_inputs.len(),
            e.optimal_inputs.len(),
            "{context}: input vector shape"
        );
    }
}

/// Replays one workload into both engines, comparing after every tick,
/// and from mid-stream on into a fleet restored from the runtime's
/// checkpoint.
fn replay(workload: &'static str, config: &ScenarioConfig, pipeline_config: PipelineConfig) {
    let spec = arbloops::workloads::find(workload).expect("workload in catalog");
    let scenario = spec.scenario(config).expect("scenario generates");
    let mut feed = scenario.feed.clone();
    let halfway = scenario.ticks.len() / 2;

    let mut single = StreamingEngine::new(
        OpportunityPipeline::new(pipeline_config),
        scenario.pools.clone(),
    )
    .expect("single engine");
    let mut runtime = ShardedRuntime::new(
        OpportunityPipeline::new(pipeline_config),
        scenario.pools.clone(),
        4,
    )
    .expect("sharded runtime");
    assert!(
        runtime.shard_count() > 1,
        "{workload}: multi-domain universe must actually shard"
    );

    // Cold start.
    let cold_single = single.refresh(&feed).expect("single cold start");
    let cold_merged = runtime.refresh(&feed).expect("sharded cold start");
    assert_reports_identical(
        workload,
        0,
        &cold_merged.opportunities,
        &cold_single.opportunities,
    );

    let mut restored: Option<ShardedRuntime> = None;
    let mut nonempty_ticks = 0usize;
    for (tick, batch) in scenario.ticks.iter().enumerate() {
        if tick == halfway {
            let checkpoint = runtime.checkpoint();
            restored = Some(
                ShardedRuntime::restore(OpportunityPipeline::new(pipeline_config), &checkpoint)
                    .expect("restore"),
            );
        }
        batch.apply_feed(&mut feed);
        let expected = single
            .apply_events(&batch.events, &feed)
            .expect("single engine tick");
        let merged = runtime
            .apply_events(&batch.events, &feed)
            .expect("sharded runtime tick");
        assert_reports_identical(
            workload,
            tick + 1,
            &merged.opportunities,
            &expected.opportunities,
        );
        if let Some(fleet) = restored.as_mut() {
            let back = fleet
                .apply_events(&batch.events, &feed)
                .expect("restored runtime tick");
            assert_reports_identical(
                &format!("{workload} (restored)"),
                tick + 1,
                &back.opportunities,
                &expected.opportunities,
            );
        }
        if !merged.opportunities.is_empty() {
            nonempty_ticks += 1;
        }
    }
    assert!(
        nonempty_ticks > 0,
        "{workload}: the scenario never produced an opportunity — the \
         equivalence would be vacuous"
    );
}

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
    // The merge must reproduce the global top-k from per-shard top-k
    // lists exactly.
    let config = PipelineConfig {
        top_k: Some(3),
        ..PipelineConfig::default()
    };
    replay("whale-bursts", &small_config(606), config);
}

#[test]
fn churn_scenarios_actually_exercise_rebuild_and_broadcast() {
    // Guard against the equivalence being vacuous: at least one catalog
    // entry must drive the runtime through PoolCreated broadcasts, and
    // the pool-churn entry through a cross-domain rebuild.
    let spec = arbloops::workloads::find("pool-churn").expect("in catalog");
    let config = ScenarioConfig {
        ticks: 48,
        ..small_config(404)
    };
    let scenario = spec.scenario(&config).expect("scenario");
    let mut feed = scenario.feed.clone();
    let mut runtime =
        ShardedRuntime::new(OpportunityPipeline::default(), scenario.pools.clone(), 4)
            .expect("runtime");
    for batch in &scenario.ticks {
        batch.apply_feed(&mut feed);
        runtime.apply_events(&batch.events, &feed).expect("tick");
    }
    let stats = runtime.stats();
    assert!(stats.broadcasts > 0, "no PoolCreated broadcast: {stats}");
    assert!(
        stats.rebuilds > 0,
        "no cross-domain bridge triggered a rebuild: {stats}"
    );
}
