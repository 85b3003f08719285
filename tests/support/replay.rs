//! The replay oracle shared by the runtime equivalence suites.
//!
//! [`replay`] feeds one seeded catalog workload to a single
//! [`StreamingEngine`] and to a [`ShardedRuntime`] under the same drifting
//! feed, and demands bit-identical rankings after every tick. Halfway
//! through the stream the runtime is checkpointed and restored into a
//! fresh runtime, which must match the single engine on every later tick.

use arbloops::prelude::*;
use arbloops::workloads::ScenarioConfig;

/// Asserts merged-output equality, bit for bit, position by position.
pub fn assert_reports_identical(
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
/// and from mid-stream on into a runtime restored from the runtime's
/// checkpoint.
pub fn replay(workload: &'static str, config: &ScenarioConfig, pipeline_config: PipelineConfig) {
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
        1,
    )
    .expect("runtime");

    // Cold start.
    let cold_single = single.refresh(&feed).expect("single cold start");
    let cold_merged = runtime.refresh(&feed).expect("runtime cold start");
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
            .expect("runtime tick");
        assert_reports_identical(
            workload,
            tick + 1,
            &merged.opportunities,
            &expected.opportunities,
        );
        if let Some(restored) = restored.as_mut() {
            let back = restored
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
        restored.is_some(),
        "{workload}: the stream ended before the mid-stream restore"
    );
    assert!(
        nonempty_ticks > 0,
        "{workload}: the scenario never produced an opportunity — the \
         equivalence would be vacuous"
    );
}

/// A seeded 40-pool, 24-tick universe over four token domains.
pub fn small_config(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        domains: 4,
        num_tokens: 20,
        num_pools: 40,
        ticks: 24,
        intensity: 1.0,
    }
}
