//! The profitability screen's correctness oracle.
//!
//! For every workload in the catalog, three consumers replay the **same**
//! seeded event stream under the same drifting feed:
//!
//! * a screened [`StreamingEngine`] (`PipelineConfig::screen = true`,
//!   the default) — log-sum screen, floor screen, scratch-arena fan-out;
//! * an unscreened engine (`screen = false`) — the pre-screen behavior,
//!   every dirty cycle fully prepared and evaluated;
//! * a screened [`ShardedRuntime`], the runtime the live layers drive.
//!
//! After every tick all rankings must be **bit-identical**: the screen
//! is an optimization, never an approximation — a screened-out cycle is
//! exactly one the full evaluation would have dropped. Mid-stream, the
//! screened engine is checkpointed and restored, and the restored copy
//! (whose log-sums are rebuilt deterministically, not round-tripped)
//! must agree with the live one for the rest of the stream. Floor-config
//! variants exercise the feed-priced profit-bound screen the same way.

use arbloops::prelude::*;
use arbloops::workloads::ScenarioConfig;

fn assert_identical(
    context: &str,
    actual: &[ArbitrageOpportunity],
    expected: &[ArbitrageOpportunity],
) {
    assert_eq!(
        actual.len(),
        expected.len(),
        "{context}: opportunity counts diverged"
    );
    for (position, (a, e)) in actual.iter().zip(expected).enumerate() {
        let context = format!("{context} position {position}");
        assert_eq!(a.cycle.tokens(), e.cycle.tokens(), "{context}: tokens");
        assert_eq!(a.cycle.pools(), e.cycle.pools(), "{context}: pools");
        assert_eq!(a.strategy, e.strategy, "{context}: strategy");
        assert_eq!(
            a.gross_profit.value().to_bits(),
            e.gross_profit.value().to_bits(),
            "{context}: gross profit"
        );
        assert_eq!(
            a.net_profit.value().to_bits(),
            e.net_profit.value().to_bits(),
            "{context}: net profit"
        );
    }
}

/// Replays one workload into the three consumers (plus, from mid-stream,
/// a restored copy), comparing after every tick.
fn replay(workload: &'static str, config: &ScenarioConfig, pipeline_config: PipelineConfig) {
    assert!(pipeline_config.screen, "the oracle screens by default");
    let spec = arbloops::workloads::find(workload).expect("workload in catalog");
    let scenario = spec.scenario(config).expect("scenario generates");
    let mut feed = scenario.feed.clone();
    let unscreened_config = PipelineConfig {
        screen: false,
        ..pipeline_config
    };

    let mut screened = StreamingEngine::new(
        OpportunityPipeline::new(pipeline_config),
        scenario.pools.clone(),
    )
    .expect("screened engine");
    let mut unscreened = StreamingEngine::new(
        OpportunityPipeline::new(unscreened_config),
        scenario.pools.clone(),
    )
    .expect("unscreened engine");
    let mut runtime = ShardedRuntime::new(
        OpportunityPipeline::new(pipeline_config),
        scenario.pools.clone(),
        1,
    )
    .expect("runtime");
    let mut restored: Option<StreamingEngine> = None;
    let restore_at = scenario.ticks.len() / 2;

    let cold_expected = unscreened.refresh(&feed).expect("unscreened cold start");
    let cold_screened = screened.refresh(&feed).expect("screened cold start");
    let cold_runtime = runtime.refresh(&feed).expect("runtime cold start");
    assert_identical(
        &format!("{workload} cold start (screened)"),
        &cold_screened.opportunities,
        &cold_expected.opportunities,
    );
    assert_identical(
        &format!("{workload} cold start (runtime)"),
        &cold_runtime.opportunities,
        &cold_expected.opportunities,
    );

    let mut nonempty_ticks = 0usize;
    for (tick, batch) in scenario.ticks.iter().enumerate() {
        batch.apply_feed(&mut feed);
        let expected = unscreened
            .apply_events(&batch.events, &feed)
            .expect("unscreened tick");
        let got = screened
            .apply_events(&batch.events, &feed)
            .expect("screened tick");
        let ranked = runtime
            .apply_events(&batch.events, &feed)
            .expect("runtime tick");
        assert_identical(
            &format!("{workload} tick {tick} (screened)"),
            &got.opportunities,
            &expected.opportunities,
        );
        assert_identical(
            &format!("{workload} tick {tick} (runtime)"),
            &ranked.opportunities,
            &expected.opportunities,
        );
        if let Some(engine) = restored.as_mut() {
            let back = engine
                .apply_events(&batch.events, &feed)
                .expect("restored tick");
            assert_identical(
                &format!("{workload} tick {tick} (restored)"),
                &back.opportunities,
                &expected.opportunities,
            );
        }
        if tick + 1 == restore_at {
            // Checkpoint the screened engine mid-stream; the restored
            // copy rebuilds its log-sums deterministically from the
            // restored graph and must track the live engine (and the
            // unscreened oracle) for every remaining tick.
            let checkpoint = screened.checkpoint();
            let mut engine =
                StreamingEngine::restore(OpportunityPipeline::new(pipeline_config), &checkpoint)
                    .expect("restore");
            let report = engine.refresh(&feed).expect("post-restore refresh");
            assert_identical(
                &format!("{workload} post-restore refresh"),
                &report.opportunities,
                &expected.opportunities,
            );
            restored = Some(engine);
        }
        if !expected.opportunities.is_empty() {
            nonempty_ticks += 1;
        }
    }
    assert!(
        nonempty_ticks > 0,
        "{workload}: the scenario never produced an opportunity — the \
         equivalence would be vacuous"
    );
    assert!(
        screened.stats().cycles_screened_out > 0,
        "{workload}: the screen never fired — the comparison would be \
         vacuous: {}",
        screened.stats()
    );
    assert_eq!(
        unscreened.stats().cycles_screened_out,
        0,
        "{workload}: screen=false must disable the screen"
    );
    if pipeline_config.execution_cost_usd + pipeline_config.min_net_profit_usd > 0.0 {
        assert!(
            screened.stats().cycles_floor_screened > 0,
            "{workload}: floor config never exercised the profit-bound \
             screen: {}",
            screened.stats()
        );
        assert!(
            screened.stats().strategy_evaluations < unscreened.stats().strategy_evaluations,
            "{workload}: the floor screen must save strategy work \
             ({} vs {})",
            screened.stats().strategy_evaluations,
            unscreened.stats().strategy_evaluations
        );
    }
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

/// Execution cost + floor: the configuration under which the feed-priced
/// profit-bound screen can discharge marginal loops without evaluating
/// them.
fn floor_config() -> PipelineConfig {
    PipelineConfig {
        execution_cost_usd: 3.0,
        min_net_profit_usd: 1.0,
        ..PipelineConfig::default()
    }
}

#[test]
fn steady_sparse_screened_is_bit_identical() {
    replay(
        "steady-sparse",
        &small_config(1_101),
        PipelineConfig::default(),
    );
}

#[test]
fn whale_bursts_screened_is_bit_identical() {
    replay(
        "whale-bursts",
        &small_config(1_202),
        PipelineConfig::default(),
    );
}

#[test]
fn whale_bursts_floor_screen_is_bit_identical() {
    replay("whale-bursts", &small_config(1_212), floor_config());
}

#[test]
fn fee_regime_shift_screened_is_bit_identical() {
    let config = PipelineConfig {
        max_cycle_len: 4,
        ..PipelineConfig::default()
    };
    replay("fee-regime-shift", &small_config(1_303), config);
}

#[test]
fn fee_regime_shift_floor_screen_is_bit_identical() {
    let config = PipelineConfig {
        max_cycle_len: 4,
        ..floor_config()
    };
    replay("fee-regime-shift", &small_config(1_313), config);
}

#[test]
fn pool_churn_screened_is_bit_identical() {
    replay(
        "pool-churn",
        &small_config(1_404),
        PipelineConfig::default(),
    );
}

#[test]
fn degenerate_flood_screened_is_bit_identical() {
    replay(
        "degenerate-flood",
        &small_config(1_505),
        PipelineConfig::default(),
    );
}
