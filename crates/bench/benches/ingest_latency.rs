//! Ingest latency: events-in → ranking-updated through the front-end.
//!
//! The question this bench answers: what does putting the `arb-ingest`
//! stage pipeline (stage → seal → journal → coalesce → bounded queue →
//! apply) between the event sources and the engine *cost*, and
//! what does coalescing *buy*? Two catalog workloads at the soak
//! operating point (600 pools, intensity 2.0):
//!
//! * `degenerate-flood` — the coalescer's best case: floods of per-pool
//!   `Sync` rewrites where last-write-wins discharges most of the tick
//!   before the engine sees it;
//! * `whale-bursts` — the general case: bursty but low-redundancy
//!   traffic where coalescing is nearly a no-op and the measured number
//!   is pure pipeline overhead.
//!
//! Each workload runs three legs over the identical tick stream:
//!
//! 1. **direct** — `ShardedRuntime::apply_events` with no front-end;
//!    the correctness oracle for the final rankings;
//! 2. **live ingest** — journaled (`sync_on_commit: false`), coalescing,
//!    drained every tick. The measured latency spans `seal_block` (which
//!    journals the raw batch) through the driver's applied report — the
//!    full events-in → ranking-updated path;
//! 3. **lagged ingest** — capacity-1 queue, `CoalesceHarder`, drained
//!    every fourth tick: the degraded mode, where cross-tick merging
//!    must bound both queue depth and the engine's applied-event count.
//!
//! The pass **asserts** final-ranking bit-identity for both ingest legs
//! against the direct leg, and that the lagged leg on `degenerate-flood`
//! applies **≥2× fewer** events than arrived raw. The JSON lines feed
//! `BENCH_ingest.json`; CI's trend gate fails the build when
//! `e2e_p99_ns` grows or `coalesce_ratio` drops more than 20% against
//! the committed baseline on the flood workload.

use std::time::Instant;

use arb_bench::json::JsonLine;
use arb_bench::percentile_ns;
use arb_engine::{OpportunityPipeline, PipelineConfig, RuntimeReport, ShardedRuntime};
use arb_ingest::{IngestConfig, IngestDriver, Ingestor, LagPolicy};
use arb_journal::{JournalConfig, JournalWriter};
use arb_workloads::{find, Scenario, ScenarioConfig};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const POOLS: usize = 600;
const TICKS: usize = 48;
/// The lagged leg drains once per this many sealed blocks. Eight ticks
/// spans several of the flood's drain→revive cycles (two ticks apart),
/// so most park/revive pairs coalesce inside one merge window instead
/// of straddling a drain boundary.
const DRAIN_EVERY: usize = 8;

fn scenario(workload: &str, seed: u64) -> Scenario {
    find(workload)
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

/// A scratch journal directory, removed on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("arbloops-ingest-bench-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The direct-path oracle: final report after replaying every tick.
fn direct_final(scenario: &Scenario) -> RuntimeReport {
    let mut feed = scenario.feed.clone();
    let mut runtime = runtime(scenario);
    let mut report = runtime.refresh(&feed).expect("cold start");
    for batch in &scenario.ticks {
        batch.apply_feed(&mut feed);
        report = runtime.apply_events(&batch.events, &feed).expect("tick");
    }
    report
}

/// Bit-exact final-ranking comparison (the same oracle shape as
/// `tests/ingest_equivalence.rs`, condensed to the final tick).
fn assert_final_identical(leg: &str, got: &RuntimeReport, expected: &RuntimeReport) {
    assert_eq!(
        got.opportunities.len(),
        expected.opportunities.len(),
        "{leg}: opportunity counts diverged"
    );
    for (position, (g, e)) in got
        .opportunities
        .iter()
        .zip(&expected.opportunities)
        .enumerate()
    {
        assert_eq!(g.cycle.pools(), e.cycle.pools(), "{leg} #{position}: pools");
        assert_eq!(g.strategy, e.strategy, "{leg} #{position}: strategy");
        assert_eq!(
            g.net_profit.value().to_bits(),
            e.net_profit.value().to_bits(),
            "{leg} #{position}: net profit"
        );
    }
}

struct LiveLeg {
    e2e_ns: Vec<u64>,
    report: RuntimeReport,
    stats: arb_ingest::IngestStats,
    raw_applied: u64,
    engine_applied: u64,
}

/// The live leg: journaled, coalescing, drained every tick. Latency is
/// measured from the instant the tick's events are fully staged to the
/// driver returning the updated rankings — seal, journal append+commit,
/// coalesce, queue hop, and engine apply all inside the window.
fn run_live(scenario: &Scenario, tag: &str) -> LiveLeg {
    let scratch = Scratch::new(tag);
    let writer = JournalWriter::open(
        &scratch.0,
        JournalConfig {
            sync_on_commit: false,
            ..JournalConfig::default()
        },
    )
    .expect("journal opens");
    let mut ingestor = Ingestor::new(IngestConfig::default())
        .with_journal(std::sync::Arc::new(std::sync::Mutex::new(writer)));
    let feed_source = ingestor.register_source("cex-feed");
    let chain_source = ingestor.register_source("dexsim");
    let mut driver = IngestDriver::new(runtime(scenario), scenario.feed.clone(), ingestor.handle());

    ingestor.seal_block().expect("cold seal");
    let mut report = driver
        .try_step()
        .expect("cold apply")
        .expect("cold batch queued");

    let mut e2e_ns = Vec::with_capacity(scenario.ticks.len());
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
        e2e_ns.push(start.elapsed().as_nanos() as u64);
        black_box(report.opportunities.len());
    }
    LiveLeg {
        e2e_ns,
        report,
        stats: ingestor.stats(),
        raw_applied: driver.raw_events_applied(),
        engine_applied: driver.chain_events_applied() + driver.feed_updates_applied(),
    }
}

struct LaggedLeg {
    report: RuntimeReport,
    stats: arb_ingest::IngestStats,
    raw_applied: u64,
    engine_applied: u64,
}

/// The degraded-mode leg: capacity 1 + `CoalesceHarder`, consumer four
/// ticks behind. No journal — this leg isolates what cross-tick merging
/// saves the engine.
fn run_lagged(scenario: &Scenario) -> LaggedLeg {
    let mut ingestor = Ingestor::new(IngestConfig {
        queue_capacity: 1,
        lag_policy: LagPolicy::CoalesceHarder,
        coalesce: true,
        ..IngestConfig::default()
    });
    let feed_source = ingestor.register_source("cex-feed");
    let chain_source = ingestor.register_source("dexsim");
    let mut driver = IngestDriver::new(runtime(scenario), scenario.feed.clone(), ingestor.handle());

    ingestor.seal_block().expect("cold seal");
    let mut report = driver.drain().expect("cold apply");
    for (tick, batch) in scenario.ticks.iter().enumerate() {
        ingestor
            .offer_feed_moves(feed_source, &batch.feed_moves)
            .expect("feed staged");
        ingestor
            .offer(chain_source, batch.events.iter().copied())
            .expect("chain staged");
        ingestor.seal_block().expect("degraded seal never blocks");
        if tick % DRAIN_EVERY == DRAIN_EVERY - 1 {
            if let Some(r) = driver.drain().expect("merged batches apply") {
                report = Some(r);
            }
        }
    }
    ingestor.close();
    if let Some(r) = driver.drain().expect("tail applies") {
        report = Some(r);
    }
    LaggedLeg {
        report: report.expect("at least one applied batch"),
        stats: ingestor.stats(),
        raw_applied: driver.raw_events_applied(),
        engine_applied: driver.chain_events_applied() + driver.feed_updates_applied(),
    }
}

fn run_workload(workload: &'static str, seed: u64) {
    let scenario = scenario(workload, seed);
    let expected = direct_final(&scenario);
    let live = run_live(&scenario, workload);
    let lagged = run_lagged(&scenario);

    assert_final_identical(&format!("{workload}/live"), &live.report, &expected);
    assert_final_identical(&format!("{workload}/lagged"), &lagged.report, &expected);

    // Flow conservation on both legs: nothing dropped, only coalesced.
    for (leg, stats) in [("live", &live.stats), ("lagged", &lagged.stats)] {
        assert_eq!(
            stats.events_in,
            stats.events_out + stats.coalesced_away,
            "{workload}/{leg}: flow conservation: {stats}"
        );
    }

    let e2e_p50 = percentile_ns(&live.e2e_ns, 0.50);
    let e2e_p99 = percentile_ns(&live.e2e_ns, 0.99);
    // What degraded-mode coalescing saves the engine: raw events that
    // arrived vs events the engine actually applied.
    let coalesce_ratio = lagged.raw_applied as f64 / lagged.engine_applied.max(1) as f64;
    let live_ratio = live.raw_applied as f64 / live.engine_applied.max(1) as f64;

    JsonLine::bench("ingest_latency")
        .text("workload", workload)
        .count("pools", POOLS)
        .count("ticks", TICKS)
        .int("e2e_p50_ns", e2e_p50)
        .int("e2e_p99_ns", e2e_p99)
        .int("events_in", live.stats.events_in)
        .int("events_applied_live", live.engine_applied)
        .int("events_applied_lagged", lagged.engine_applied)
        .fixed("live_coalesce_ratio", live_ratio, 2)
        .fixed("coalesce_ratio", coalesce_ratio, 2)
        .count("depth_high_water", lagged.stats.depth_high_water)
        .int("degraded_merges", lagged.stats.degraded_merges)
        .emit();

    if workload == "degenerate-flood" {
        assert!(
            coalesce_ratio >= 2.0,
            "{workload}: degraded-mode coalescing must apply >=2x fewer \
             events than arrived raw, measured {coalesce_ratio:.2}x \
             ({} raw vs {} applied)",
            lagged.raw_applied,
            lagged.engine_applied
        );
    }
}

/// The asserted pass over both workloads (JSON lines + gates).
fn ingest_pass(_c: &mut Criterion) {
    run_workload("degenerate-flood", 13_001);
    run_workload("whale-bursts", 13_002);
}

/// Wall-clock criterion group for the seal hot path alone (stage +
/// coalesce + enqueue, no journal, no engine) on a flood-shaped tick.
fn bench_seal_path(c: &mut Criterion) {
    let scenario = scenario("degenerate-flood", 13_003);
    let batch = &scenario.ticks[0];
    let mut group = c.benchmark_group("ingest_latency/seal");
    group.bench_function("stage_seal_pop", |b| {
        let mut ingestor = Ingestor::new(IngestConfig::default());
        let feed_source = ingestor.register_source("cex-feed");
        let chain_source = ingestor.register_source("dexsim");
        let handle = ingestor.handle();
        b.iter(|| {
            ingestor
                .offer_feed_moves(feed_source, &batch.feed_moves)
                .expect("feed staged");
            ingestor
                .offer(chain_source, batch.events.iter().copied())
                .expect("chain staged");
            ingestor.seal_block().expect("seal");
            black_box(handle.try_pop().expect("sealed batch").events.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_seal_path, ingest_pass);
criterion_main!(benches);
