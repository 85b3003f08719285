//! 10k-pool soak: batch cold-start screening + the streaming runtime.
//!
//! The workload is the catalog's `whale-bursts` entry sized to 10,000
//! pools through the shared [`ScenarioConfig::sized`] knob — the 10k–100k
//! operating range the roadmap's scale item targets. Two passes:
//!
//! * **cold start**: one `OpportunityPipeline::run_graph` over the whole
//!   universe, screened vs unscreened under the same gross floor. The
//!   pass asserts the rankings are **bit-identical** and that batch
//!   screening (log-sum + pool/per-hop floor bounds) classifies **≥ 50%
//!   fewer cycles** than the unscreened path.
//! * **stream**: the full tick stream through one `StreamingEngine` and
//!   through the `ShardedRuntime` the live layers drive. Final rankings
//!   must be bit-identical; the runtime's per-tick latencies feed the
//!   `tick_p99_ns` counter CI's trend gate watches (> 20% regression
//!   fails the build).
//!
//! The JSON line goes to `BENCH_soak.json` via the workflow's tee+grep.

use arb_bench::json::JsonLine;
use arb_bench::percentile_ns;
use arb_engine::{
    ArbitrageOpportunity, OpportunityPipeline, PipelineConfig, ShardedRuntime, StreamingEngine,
};
use arb_graph::TokenGraph;
use arb_workloads::{find, Scenario, ScenarioConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;

const POOLS: usize = 10_000;
const TICKS: usize = 24;

fn scenario() -> Scenario {
    find("whale-bursts")
        .expect("whale-bursts in catalog")
        .scenario(&ScenarioConfig {
            seed: 10_001,
            ticks: TICKS,
            intensity: 2.0,
            ..ScenarioConfig::sized(POOLS)
        })
        .expect("soak scenario generates")
}

/// The shared configuration: a realistic gross floor so the bound
/// screens have something to discharge against, `top_k` execution
/// sizing, and the screen toggled per path.
fn config(screen: bool) -> PipelineConfig {
    PipelineConfig {
        execution_cost_usd: 50.0,
        min_net_profit_usd: 10.0,
        top_k: Some(16),
        screen,
        ..PipelineConfig::default()
    }
}

fn assert_identical(label: &str, a: &[ArbitrageOpportunity], b: &[ArbitrageOpportunity]) {
    assert_eq!(a.len(), b.len(), "{label}: ranking sizes diverged");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.cycle.tokens(), y.cycle.tokens());
        assert_eq!(x.cycle.pools(), y.cycle.pools());
        assert_eq!(x.strategy, y.strategy);
        assert_eq!(
            x.net_profit.value().to_bits(),
            y.net_profit.value().to_bits()
        );
    }
}

fn soak(_c: &mut Criterion) {
    let scenario = scenario();

    // --- Cold start: batch screening vs the unscreened pipeline. ---
    let graph = TokenGraph::new(scenario.pools.clone()).expect("graph");
    let cold_start = Instant::now();
    let screened = OpportunityPipeline::new(config(true))
        .run_graph(&graph, &scenario.feed)
        .expect("screened cold start");
    let cold_screened_ns = cold_start.elapsed().as_nanos() as u64;
    let cold_start = Instant::now();
    let unscreened = OpportunityPipeline::new(config(false))
        .run_graph(&graph, &scenario.feed)
        .expect("unscreened cold start");
    let cold_unscreened_ns = cold_start.elapsed().as_nanos() as u64;
    assert_identical(
        "cold start",
        &screened.opportunities,
        &unscreened.opportunities,
    );
    let classification_reduction = 1.0
        - screened.stats.cycles_classified as f64
            / unscreened.stats.cycles_classified.max(1) as f64;

    // --- Stream: single engine vs the runtime. ---
    let mut feed = scenario.feed.clone();
    let mut single = StreamingEngine::new(
        OpportunityPipeline::new(config(true)),
        scenario.pools.clone(),
    )
    .expect("engine");
    single.refresh(&feed).expect("cold start");
    let single_start = Instant::now();
    let mut last_single = Vec::new();
    for batch in &scenario.ticks {
        batch.apply_feed(&mut feed);
        last_single = single
            .apply_events(&batch.events, &feed)
            .expect("single tick")
            .opportunities;
    }
    let single_total_ns = single_start.elapsed().as_nanos() as u64;

    let mut feed = scenario.feed.clone();
    let mut runtime = ShardedRuntime::new(
        OpportunityPipeline::new(config(true)),
        scenario.pools.clone(),
        1,
    )
    .expect("runtime");
    runtime.refresh(&feed).expect("cold start");
    let mut tick_ns = Vec::with_capacity(TICKS);
    let mut last_runtime = Vec::new();
    for batch in &scenario.ticks {
        batch.apply_feed(&mut feed);
        let start = Instant::now();
        last_runtime = runtime
            .apply_events(&batch.events, &feed)
            .expect("runtime tick")
            .opportunities;
        tick_ns.push(start.elapsed().as_nanos() as u64);
    }
    assert_identical("stream", &last_runtime, &last_single);

    let screen = runtime.screen_totals();
    let tick_p99_ns = percentile_ns(&tick_ns, 0.99);
    let tick_median_ns = percentile_ns(&tick_ns, 0.50);
    JsonLine::bench("soak_10k")
        .count("pools", POOLS)
        .count("ticks", TICKS)
        .int("tick_p99_ns", tick_p99_ns)
        .int("tick_median_ns", tick_median_ns)
        .int("single_total_ns", single_total_ns)
        .int("runtime_total_ns", tick_ns.iter().sum::<u64>())
        .int("cold_start_ns_screened", cold_screened_ns)
        .int("cold_start_ns_unscreened", cold_unscreened_ns)
        .count("cold_classified_screened", screened.stats.cycles_classified)
        .count(
            "cold_classified_unscreened",
            unscreened.stats.cycles_classified,
        )
        .fixed("classification_reduction", classification_reduction, 4)
        .count("cold_screened_out", screened.stats.cycles_screened_out)
        .count("cold_floor_screened", screened.stats.cycles_floor_screened)
        .count("cold_hop_screened", screened.stats.cycles_hop_screened)
        .count("stream_screened_out", screen.cycles_screened_out)
        .count("stream_floor_screened", screen.cycles_floor_screened)
        .count("stream_hop_screened", screen.cycles_hop_screened)
        .emit();

    assert!(
        classification_reduction >= 0.50,
        "batch screening must discharge >=50% of cold-start cycle \
         classifications at 10k pools, measured {:.1}% ({} vs {})",
        classification_reduction * 100.0,
        screened.stats.cycles_classified,
        unscreened.stats.cycles_classified
    );
    assert!(
        screened.stats.cycles_floor_screened > 0,
        "the floor bounds never fired on the 10k cold start"
    );
}

criterion_group!(benches, soak);
criterion_main!(benches);
