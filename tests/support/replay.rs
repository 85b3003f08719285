//! The replay oracle shared by the runtime equivalence suites.
//!
//! [`replay`] feeds one seeded catalog workload to a [`ShardedRuntime`]
//! under a drifting feed and, after every tick, demands a ranking
//! bit-identical to a batch [`OpportunityPipeline::run_graph`] over the
//! runtime's graph under the same feed — a full rescan that shares none
//! of the incremental state. Halfway through the stream the runtime is
//! checkpointed and restored into a fresh runtime, which must match the
//! uninterrupted runtime on every later tick.

use arbloops::prelude::*;
use arbloops::workloads::ScenarioConfig;

use crate::ranking::assert_rankings_identical;

/// Replays one workload into a runtime, comparing it with a batch rescan
/// after every tick, and from mid-stream on into a runtime restored from
/// its checkpoint, compared with the uninterrupted runtime.
pub fn replay(workload: &'static str, config: &ScenarioConfig, pipeline_config: PipelineConfig) {
    let spec = arbloops::workloads::find(workload).expect("workload in catalog");
    let scenario = spec.scenario(config).expect("scenario generates");
    let mut feed = scenario.feed.clone();
    let halfway = scenario.ticks.len() / 2;

    let reference = OpportunityPipeline::new(pipeline_config);
    let rescan = |runtime: &ShardedRuntime, feed: &PriceTable| {
        reference
            .run_graph(runtime.graph(), feed)
            .expect("batch rescan")
            .opportunities
    };
    let mut runtime = ShardedRuntime::new(
        OpportunityPipeline::new(pipeline_config),
        scenario.pools.clone(),
        1,
    )
    .expect("runtime");

    // Cold start.
    let cold = runtime.refresh(&feed).expect("runtime cold start");
    assert_rankings_identical(
        &format!("{workload} tick 0"),
        &cold.opportunities,
        &rescan(&runtime, &feed),
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
        let merged = runtime
            .apply_events(&batch.events, &feed)
            .expect("runtime tick");
        assert_rankings_identical(
            &format!("{workload} tick {}", tick + 1),
            &merged.opportunities,
            &rescan(&runtime, &feed),
        );
        if let Some(restored) = restored.as_mut() {
            let back = restored
                .apply_events(&batch.events, &feed)
                .expect("restored runtime tick");
            assert_rankings_identical(
                &format!("{workload} (restored) tick {}", tick + 1),
                &back.opportunities,
                &merged.opportunities,
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
