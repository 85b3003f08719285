//! What does observability *cost* on the hot path?
//!
//! The `arb-obs` design claim is that instrumentation is cheap enough
//! to leave on in production: counters are single relaxed RMWs, span
//! timers are two `Instant` reads plus three histogram RMWs, and the
//! flight recorder is a fixed ring with no allocation on the record
//! path. This bench measures the claim end to end on the whale-bursts
//! workload at the soak operating point (600 pools, intensity 2.0):
//! the identical tick stream is replayed through the ingest front-end +
//! runtime twice per round — once bare, once with the full
//! observability layer wired (`Ingestor::set_obs` +
//! `IngestDriver::set_obs`, which cascades into the engine) —
//! and the per-tick seal→rankings-updated latency is sampled.
//!
//! Legs alternate within each round so thermal drift and cache state
//! cannot systematically favor one side, and round 0 is a discarded
//! warm-up. Because both legs replay the *identical* tick stream, the
//! quantiles are computed over per-tick minima across rounds: the min
//! filters scheduler and allocator noise (which is one-sided) while
//! any real instrumentation cost persists in every round, so it
//! survives the filter. The pass **asserts** bit-identical final
//! rankings between the legs (instrumentation is a pure observer) and
//! that the instrumented registry agrees with the legacy
//! `IngestStats` display.
//! The JSON line feeds `BENCH_obs.json`; CI gates `overhead_ratio`
//! (instrumented p99 / bare p99) at 5% over the committed baseline of
//! 1.00, and uploads a sample flight-recorder dump (written when
//! `OBS_FLIGHT_SAMPLE` names a path) as a build artifact.

use std::time::Instant;

use arb_bench::json::JsonLine;
use arb_bench::percentile_ns;
use arb_engine::{OpportunityPipeline, PipelineConfig, RuntimeReport, ShardedRuntime};
use arb_ingest::{IngestConfig, IngestDriver, Ingestor};
use arb_obs::{Obs, ObsOptions};
use arb_workloads::{find, Scenario, ScenarioConfig};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const POOLS: usize = 600;
const TICKS: usize = 48;
/// Rounds per leg; round 0 is warm-up and contributes no samples.
const ROUNDS: usize = 6;

fn scenario(seed: u64) -> Scenario {
    find("whale-bursts")
        .expect("workload in catalog")
        .scenario(&ScenarioConfig {
            seed,
            ticks: TICKS,
            intensity: 2.0,
            ..ScenarioConfig::sized(POOLS)
        })
        .expect("scenario generates")
}

fn runtime(scenario: &Scenario) -> ShardedRuntime {
    ShardedRuntime::new(
        OpportunityPipeline::new(PipelineConfig::default()),
        scenario.pools.clone(),
        1,
    )
    .expect("runtime")
}

struct Leg {
    tick_ns: Vec<u64>,
    report: RuntimeReport,
    stats: arb_ingest::IngestStats,
    batches: u64,
}

/// One replay of the full tick stream through the front-end, with or
/// without the observability layer attached. No journal: the disk is
/// the one component whose jitter would drown the signal this bench
/// exists to measure.
fn run_leg(scenario: &Scenario, obs: Option<&Obs>) -> Leg {
    let mut ingestor = Ingestor::new(IngestConfig::default());
    let feed_source = ingestor.register_source("cex-feed");
    let chain_source = ingestor.register_source("dexsim");
    let mut driver = IngestDriver::new(runtime(scenario), scenario.feed.clone(), ingestor.handle());
    if let Some(obs) = obs {
        ingestor.set_obs(obs);
        driver.set_obs(obs);
    }

    ingestor.seal_block().expect("cold seal");
    let mut report = driver
        .try_step()
        .expect("cold apply")
        .expect("cold batch queued");

    let mut tick_ns = Vec::with_capacity(scenario.ticks.len());
    for batch in &scenario.ticks {
        ingestor
            .offer_feed_moves(feed_source, &batch.feed_moves)
            .expect("feed staged");
        ingestor
            .offer(chain_source, batch.events.iter().copied())
            .expect("chain staged");
        let start = Instant::now();
        ingestor.seal_block().expect("seal");
        report = driver
            .try_step()
            .expect("tick applies")
            .expect("one batch per tick");
        tick_ns.push(start.elapsed().as_nanos() as u64);
        black_box(report.opportunities.len());
    }
    Leg {
        tick_ns,
        report,
        stats: ingestor.stats(),
        batches: driver.batches_applied(),
    }
}

/// Per-tick minimum across rounds: `rounds[r][i]` is tick `i`'s
/// latency in round `r`; the result has one (noise-filtered) sample
/// per tick.
fn per_tick_min(rounds: &[Vec<u64>]) -> Vec<u64> {
    let ticks = rounds.first().map_or(0, Vec::len);
    (0..ticks)
        .map(|i| rounds.iter().map(|round| round[i]).min().expect("rounds"))
        .collect()
}

fn assert_final_identical(got: &RuntimeReport, expected: &RuntimeReport) {
    assert_eq!(
        got.opportunities.len(),
        expected.opportunities.len(),
        "instrumented leg: opportunity counts diverged"
    );
    for (position, (g, e)) in got
        .opportunities
        .iter()
        .zip(&expected.opportunities)
        .enumerate()
    {
        assert_eq!(g.cycle.pools(), e.cycle.pools(), "#{position}: pools");
        assert_eq!(g.strategy, e.strategy, "#{position}: strategy");
        assert_eq!(
            g.net_profit.value().to_bits(),
            e.net_profit.value().to_bits(),
            "#{position}: net profit"
        );
    }
}

fn obs_pass(_c: &mut Criterion) {
    let scenario = scenario(17_001);
    let mut bare_rounds: Vec<Vec<u64>> = Vec::new();
    let mut instrumented_rounds: Vec<Vec<u64>> = Vec::new();
    let mut last_bare = None;
    let mut last_instrumented = None;
    let mut last_obs = None;

    for round in 0..ROUNDS {
        // Alternate which leg goes first so neither systematically
        // inherits the other's warmed caches.
        let instrumented_first = round % 2 == 1;
        for leg_index in 0..2 {
            let instrumented = (leg_index == 1) != instrumented_first;
            if instrumented {
                let obs = Obs::new(ObsOptions::default());
                let leg = run_leg(&scenario, Some(&obs));
                if round > 0 {
                    instrumented_rounds.push(leg.tick_ns.clone());
                }
                last_instrumented = Some(leg);
                last_obs = Some(obs);
            } else {
                let leg = run_leg(&scenario, None);
                if round > 0 {
                    bare_rounds.push(leg.tick_ns.clone());
                }
                last_bare = Some(leg);
            }
        }
    }

    let bare = last_bare.expect("bare leg ran");
    let instrumented = last_instrumented.expect("instrumented leg ran");
    let obs = last_obs.expect("instrumented leg kept its handle");

    // Instrumentation is a pure observer: identical rankings, identical
    // front-end behavior.
    assert_final_identical(&instrumented.report, &bare.report);
    assert_eq!(instrumented.stats, bare.stats, "stats diverged");
    assert_eq!(instrumented.batches, bare.batches);

    // The registry mirrors the legacy display, and every applied batch
    // timed its spans.
    let snapshot = obs.snapshot();
    assert_eq!(
        snapshot.counter("ingest.events_in"),
        Some(instrumented.stats.events_in)
    );
    assert_eq!(
        snapshot.counter("ingest.batches_delivered"),
        Some(instrumented.stats.batches_delivered)
    );
    assert_eq!(
        snapshot
            .histogram("ingest.apply_ns")
            .expect("apply span")
            .count,
        instrumented.batches
    );
    assert_eq!(
        snapshot
            .histogram("ingest.e2e_ns")
            .expect("e2e histogram")
            .count,
        instrumented.batches
    );

    // A sample post-mortem for the CI artifact: the flight ring after a
    // full replay, dumped as JSON-lines.
    if let Ok(path) = std::env::var("OBS_FLIGHT_SAMPLE") {
        obs.dump_flight_to(std::path::Path::new(&path))
            .expect("flight sample written");
    }

    let bare_ns = per_tick_min(&bare_rounds);
    let instrumented_ns = per_tick_min(&instrumented_rounds);
    let bare_p50 = percentile_ns(&bare_ns, 0.50);
    let bare_p99 = percentile_ns(&bare_ns, 0.99);
    let on_p50 = percentile_ns(&instrumented_ns, 0.50);
    let on_p99 = percentile_ns(&instrumented_ns, 0.99);
    let overhead_ratio = on_p99 as f64 / bare_p99.max(1) as f64;

    JsonLine::bench("obs_overhead")
        .text("workload", "whale-bursts")
        .count("pools", POOLS)
        .count("ticks", TICKS)
        .count("rounds", ROUNDS - 1)
        .int("bare_p50_ns", bare_p50)
        .int("bare_p99_ns", bare_p99)
        .int("instrumented_p50_ns", on_p50)
        .int("instrumented_p99_ns", on_p99)
        .fixed("overhead_ratio", overhead_ratio, 3)
        .emit();

    // The CI gate holds the ratio to 5% over the committed baseline;
    // in-bench, only rule out a catastrophic regression so local runs
    // on noisy boxes don't flake.
    assert!(
        overhead_ratio < 1.5,
        "instrumentation overhead blew up: instrumented p99 {on_p99}ns \
         vs bare p99 {bare_p99}ns ({overhead_ratio:.3}x)"
    );
}

criterion_group!(benches, obs_pass);
criterion_main!(benches);
