//! Serve storm: snapshot serving under whale-burst write load.
//!
//! The workload is the catalog's `whale-bursts` entry at 600 pools,
//! streamed through a [`ShardedRuntime`] whose rankings a [`Publisher`]
//! publishes whenever they move, while governed reader threads hammer
//! the published [`RankedSnapshot`]s with the deterministic query plans
//! from [`ReadStormProfile`]. Two measured phases replay the identical tick
//! stream (whale-bursts emits only absolute syncs + feed moves, so
//! cycling epochs is state-safe):
//!
//! * **quiet**: the serving runtime ticks with zero readers — the
//!   baseline per-tick latency including publication;
//! * **storm**: four reader threads run their query cycles flat out,
//!   throttled only by the admission governor (64k admissions/s per
//!   class, 192k/s aggregate); denied readers sleep on the retry hint.
//!
//! A read checks the published revision against the reader's cached
//! snapshot and locks the cell only after a publish, then queries frozen
//! indexes — so the storm must not disturb the event path. The pass
//! **asserts**:
//!
//! * sustained admitted reads ≥ 100k/s across ≥ 4 reader threads (the
//!   governed rate is wall-clock anchored, so this holds on any host
//!   that schedules the readers at all);
//! * storm-phase tick p99 within **+20%** of the quiet-phase tick p99
//!   (readers must not contend with the writer);
//! * the governor actually throttled (otherwise the storm measured an
//!   open door, not admission control).
//!
//! The JSON line feeds `BENCH_serve.json`; CI's trend gate fails the
//! build when `reads_per_sec` drops or `read_p99_ns` grows more than
//! 20% against the committed baseline.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use arb_bench::json::JsonLine;
use arb_bench::percentile_ns;
use arb_cex::feed::PriceTable;
use arb_dexsim::events::Event;
use arb_engine::{OpportunityPipeline, PipelineConfig, ShardedRuntime};
use arb_serve::{
    ClassLimit, ClientClass, GovernorConfig, Publisher, RankedSnapshot, ServeError, ServeHandle,
};
use arb_workloads::{find, QueryOp, ReadStormProfile, ReaderPlan, Scenario, ScenarioConfig};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const POOLS: usize = 600;
const TICKS: usize = 48;
const READERS: usize = 4;
/// Full tick-stream replays per measured phase.
const EPOCHS: usize = 2;
/// The storm keeps cycling epochs until this much wall clock has
/// elapsed, so reads/s is measured over a scheduler-stable window.
const MIN_STORM: Duration = Duration::from_millis(1500);
/// Per-class sustained admission rate: 3 classes × 64k = 192k/s
/// aggregate, comfortably above the 100k/s acceptance floor.
const CLASS_RATE: f64 = 64_000.0;

fn scenario() -> Scenario {
    find("whale-bursts")
        .expect("whale-bursts in catalog")
        .scenario(&ScenarioConfig {
            seed: 11_001,
            ticks: TICKS,
            intensity: 2.0,
            ..ScenarioConfig::sized(POOLS)
        })
        .expect("storm scenario generates")
}

fn governor() -> GovernorConfig {
    GovernorConfig {
        limits: [ClassLimit {
            rate_per_sec: CLASS_RATE,
            // Thousands of tokens of burst headroom amortize the coarse
            // reader sleeps (~2ms) without letting a reader run far
            // ahead of its sustained rate.
            burst: 8_192.0,
        }; 3],
        max_concurrent: 64,
    }
}

/// The runtime and the publisher serving its rankings.
struct Serving {
    runtime: ShardedRuntime,
    publisher: Publisher,
}

impl Serving {
    /// A cold-started runtime with its first ranking published.
    fn new(scenario: &Scenario, governor: GovernorConfig) -> Self {
        let pipeline = OpportunityPipeline::new(PipelineConfig {
            top_k: Some(16),
            ..PipelineConfig::default()
        });
        let runtime = ShardedRuntime::new(pipeline, scenario.pools.clone(), 1).expect("runtime");
        let mut serving = Serving {
            runtime,
            publisher: Publisher::new(governor),
        };
        serving.tick(&[], &scenario.feed);
        serving
    }

    /// Applies one event batch and publishes the ranking if it moved.
    fn tick(&mut self, events: &[Event], feed: &PriceTable) -> usize {
        let report = self.runtime.apply_events(events, feed).expect("tick");
        self.publisher
            .publish_if_changed(self.runtime.standing_revision(), &report.opportunities);
        report.opportunities.len()
    }
}

/// One governed reader's tally after the storm.
struct ReaderReport {
    reads: u64,
    rate_limited: u64,
    saturated: u64,
    read_ns: Vec<u64>,
}

/// Answers one query against a loaded snapshot, returning a size the
/// optimizer cannot discard.
fn touch(snapshot: &RankedSnapshot, op: QueryOp) -> usize {
    match op {
        QueryOp::TopK(k) => snapshot.top_k(k).len(),
        QueryOp::ByToken(token) => snapshot.by_token(token).count(),
        QueryOp::ByPool(pool) => snapshot.by_pool(pool).count(),
        QueryOp::MinNetProfit(floor) => snapshot.min_net_profit(floor).count(),
    }
}

/// The reader loop: governed query, execute the plan's next op, sleep
/// out rate denials. Read latency covers admission + load + query —
/// the full client-visible path.
fn run_reader(handle: ServeHandle, plan: ReaderPlan, done: Arc<AtomicBool>) -> ReaderReport {
    let mut report = ReaderReport {
        reads: 0,
        rate_limited: 0,
        saturated: 0,
        read_ns: Vec::with_capacity(1 << 16),
    };
    let mut cursor = 0usize;
    while !done.load(Ordering::Relaxed) {
        let start = Instant::now();
        match handle.query() {
            Ok(guard) => {
                black_box(touch(&guard, plan.ops[cursor % plan.ops.len()]));
                report.read_ns.push(start.elapsed().as_nanos() as u64);
                report.reads += 1;
                cursor += 1;
            }
            Err(ServeError::RateLimited { retry_nanos, .. }) => {
                report.rate_limited += 1;
                // Sleeping well past the hint batches the next burst of
                // admissions, keeping reader wakeups rare enough that
                // they cannot perturb the writer's tick latency.
                std::thread::sleep(Duration::from_nanos(retry_nanos.max(2_000_000)));
            }
            Err(ServeError::Saturated { .. }) => {
                report.saturated += 1;
                std::thread::yield_now();
            }
        }
    }
    report
}

/// Replays one full tick-stream epoch, pushing per-tick latencies.
fn replay_epoch(serve: &mut Serving, scenario: &Scenario, tick_ns: &mut Vec<u64>) {
    let mut feed = scenario.feed.clone();
    for batch in &scenario.ticks {
        batch.apply_feed(&mut feed);
        let start = Instant::now();
        black_box(serve.tick(&batch.events, &feed));
        tick_ns.push(start.elapsed().as_nanos() as u64);
    }
}

/// The asserted storm pass: quiet baseline, then the governed read
/// storm, then the reads/s, tick-overhead, and throttling gates.
fn storm_pass(_c: &mut Criterion) {
    let scenario = scenario();
    let mut serve = Serving::new(&scenario, governor());

    // --- Quiet phase: the event path with zero readers attached. ---
    let mut quiet_tick_ns = Vec::with_capacity(EPOCHS * TICKS);
    for _ in 0..EPOCHS {
        replay_epoch(&mut serve, &scenario, &mut quiet_tick_ns);
    }

    // --- Storm phase: governed readers race the same tick stream. ---
    let profile = ReadStormProfile {
        readers: READERS,
        ..ReadStormProfile::default()
    };
    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<std::thread::JoinHandle<ReaderReport>> = profile
        .plans(scenario.feed.len(), scenario.pools.len())
        .into_iter()
        .map(|plan| {
            let handle = serve.publisher.handle(ClientClass::ALL[plan.class_index]);
            let done = Arc::clone(&done);
            std::thread::spawn(move || run_reader(handle, plan, done))
        })
        .collect();

    let mut storm_tick_ns = Vec::with_capacity(EPOCHS * TICKS);
    let storm_start = Instant::now();
    while storm_tick_ns.len() < EPOCHS * TICKS || storm_start.elapsed() < MIN_STORM {
        replay_epoch(&mut serve, &scenario, &mut storm_tick_ns);
    }
    let storm_elapsed = storm_start.elapsed();
    done.store(true, Ordering::Relaxed);

    let mut reads_total = 0u64;
    let mut rate_limited = 0u64;
    let mut saturated = 0u64;
    let mut read_ns = Vec::new();
    for reader in readers {
        let report = reader.join().expect("reader panicked");
        assert!(report.reads > 0, "a reader never completed a read");
        reads_total += report.reads;
        rate_limited += report.rate_limited;
        saturated += report.saturated;
        read_ns.extend(report.read_ns);
    }

    let reads_per_sec = reads_total as f64 / storm_elapsed.as_secs_f64();
    let read_p99_ns = percentile_ns(&read_ns, 0.99);
    let read_median_ns = percentile_ns(&read_ns, 0.50);
    let quiet_p99 = percentile_ns(&quiet_tick_ns, 0.99);
    let storm_p99 = percentile_ns(&storm_tick_ns, 0.99);
    let tick_overhead = storm_p99 as f64 / quiet_p99.max(1) as f64;
    let publish = serve.publisher.stats();
    let admission = serve.publisher.governor_stats();

    JsonLine::bench("serve_storm")
        .count("pools", POOLS)
        .count("readers", READERS)
        .count("quiet_ticks", quiet_tick_ns.len())
        .count("storm_ticks", storm_tick_ns.len())
        .int("storm_elapsed_ms", storm_elapsed.as_millis() as u64)
        .int("reads_total", reads_total)
        .int("reads_per_sec", reads_per_sec as u64)
        .int("read_p99_ns", read_p99_ns)
        .int("read_median_ns", read_median_ns)
        .int("tick_p99_quiet_ns", quiet_p99)
        .int("tick_p99_storm_ns", storm_p99)
        .fixed("tick_overhead_ratio", tick_overhead, 3)
        .int("rate_limited", rate_limited)
        .int("saturated", saturated)
        .int("admitted", admission.total_admitted())
        .int("publishes", publish.publishes)
        .int("revision_final", serve.publisher.revision())
        .emit();

    assert!(
        reads_per_sec >= 100_000.0,
        "the storm must sustain >=100k admitted reads/s across \
         {READERS} readers, measured {reads_per_sec:.0}/s"
    );
    assert!(
        tick_overhead <= 1.20,
        "the read storm must not add more than 20% to tick p99: \
         quiet {quiet_p99}ns vs storm {storm_p99}ns ({tick_overhead:.3}x)"
    );
    assert!(
        rate_limited > 0,
        "the governor never throttled — the storm ran an open door, \
         not admission control"
    );
    assert!(
        publish.publishes > 1,
        "the tick stream never republished; readers raced a static snapshot"
    );
}

/// Wall-clock criterion group for the raw read path: the ungoverned
/// cached load (revision check, refcount bump) and one governed query
/// end to end.
fn bench_read_path(c: &mut Criterion) {
    let scenario = scenario();
    // Criterion iterates far past any storm envelope; open the governor
    // so the governed sample times admission + load, not the deny path.
    let serve = Serving::new(
        &scenario,
        GovernorConfig {
            limits: [ClassLimit {
                rate_per_sec: 1e9,
                burst: 1e9,
            }; 3],
            max_concurrent: 64,
        },
    );
    let mut group = c.benchmark_group("serve_storm/read");
    let handle = serve.publisher.handle(ClientClass::Interactive);
    group.bench_function("ungoverned_load", |b| {
        b.iter(|| black_box(handle.load().revision()))
    });
    group.bench_function("governed_top_k", |b| {
        b.iter(|| match handle.query() {
            Ok(guard) => black_box(guard.top_k(8).len()),
            Err(_) => 0,
        })
    });
    group.finish();
}

criterion_group!(benches, bench_read_path, storm_pass);
criterion_main!(benches);
