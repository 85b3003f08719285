//! End-to-end benchmark: reserve update in → re-ranked opportunity
//! visible to a reader, with per-layer timings from a separate traced
//! run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload whale --seed 1 --seconds 20 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads, every metric, and how
//! the numbers are kept steady on a small shared host.

mod alloc;
mod host;
mod live;
mod oracle;
mod pass;
mod reader;
mod stats;

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use arb_journal::Recovery;
use arb_workloads::{find, ReadStormProfile, ScenarioConfig};

use crate::live::{pipeline, BenchResult, CheckpointOutcome, Layer, SetupTimes, LAYERS, SHARDS};
use crate::oracle::{fingerprint, Oracle};
use crate::pass::{run_pass, Crash, Pass, PassTrace, Universe};
use crate::stats::{highest_supported, per_index_median, percentile};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// One benchmark workload: a catalog scenario at a fixed size.
struct Workload {
    name: &'static str,
    catalog: &'static str,
    pools: usize,
    /// Independent pool islands. More islands average the per-seed
    /// universe over more independent draws.
    domains: usize,
    intensity: f64,
}

const WORKLOADS: [Workload; 3] = [
    // Evaluation-heavy: every 8th tick re-ranks a large slice of the
    // universe through MaxMax + ConvexOpt, which the screen cannot skip;
    // ingest and journal sit idle. Sixteen islands keep the seed-to-seed
    // spread of evaluation work near 8% (four islands: ~15%).
    Workload {
        name: "whale",
        catalog: "whale-bursts",
        pools: 800,
        domains: 16,
        intensity: 1.0,
    },
    // Event-heavy: hundreds of events per tick through coalescing,
    // journaling and retire/revive; most dirty cycles are screened out
    // before evaluation, so it bypasses what `whale` stresses.
    Workload {
        name: "flood",
        catalog: "degenerate-flood",
        pools: 1_200,
        domains: 4,
        intensity: 4.0,
    },
    // Fixed per-tick cost: about three structural events per tick, so
    // shard fan-out, merge and the full-snapshot publish dominate.
    // Sixteen islands would make cross-island bridge rebuilds common
    // enough to own p99; four keep them rare.
    Workload {
        name: "churn",
        catalog: "pool-churn",
        pools: 1_200,
        domains: 4,
        intensity: 1.0,
    },
];

/// Pool universes sampled from the seed per run. Work per tick tracks
/// the universe's cycle structure, which varies widely from one draw to
/// the next; replaying several draws makes a run describe the workload
/// rather than one universe.
const UNIVERSES: usize = 8;
/// Ticks per universe: 8 × 125 = 1000 ticks per pass, the fewest that
/// leave ten ticks beyond p99.
const TICKS_PER_UNIVERSE: usize = 125;
/// Raw events between checkpoints.
const CHECKPOINT_EVERY_EVENTS: usize = 4_096;
/// Fewest passes per timing class: per-tick medians need three.
const MIN_PASSES: usize = 3;

/// No pass starts after this long, whatever `--seconds` says, so a run
/// ends inside its time limit on a slow host.
const PASS_DEADLINE: Duration = Duration::from_secs(100);
/// In the traced run the per-layer medians must add up to the traced
/// tick's median within this share.
const LAYER_SUM_SLACK: f64 = 0.05;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let found = WORKLOADS.iter().find(|w| w.name == value);
                workload = Some(found.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let scratch = ScratchDir::new();
    let outcome = run(&args, &scratch.0);
    drop(scratch);
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::from(2)
        }
    }
}

/// The run's journals, inside the checkout, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> Self {
        let dir = Path::new(".bench_build").join(format!("perfbench-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Recovery timings and checks over the run's journals.
#[derive(Default)]
struct Recoveries {
    /// Per pass, the recovery time of each universe's crash journal.
    seconds: Vec<Vec<f64>>,
    mismatches: usize,
    replayed_events: Vec<f64>,
}

impl Recoveries {
    /// Recovers every crash journal of one pass; each recovered ranking
    /// must equal the live one at the crash tick.
    fn measure(&mut self, crashes: &[Crash], universes: &[Universe]) -> BenchResult<()> {
        let mut seconds = Vec::with_capacity(crashes.len());
        for crash in crashes {
            let pools = universes[crash.universe].scenario.pools.clone();
            let recovery = Recovery::new(&crash.dir, pipeline(), SHARDS).with_genesis_pools(pools);
            let start = Instant::now();
            let recovered = recovery.recover_journaled()?;
            seconds.push(start.elapsed().as_secs_f64());
            self.replayed_events
                .push(recovered.stats.events_replayed as f64);
            let mut runtime = recovered.runtime;
            let ranking = runtime.refresh(&recovered.feed)?.opportunities;
            self.mismatches += usize::from(fingerprint(&ranking) != crash.expected);
        }
        self.seconds.push(seconds);
        Ok(())
    }

    /// Each universe's recovery time as its median over the passes (so a
    /// host stall in one pass drops out), averaged over the universes (so
    /// no single universe sets the figure).
    fn typical_seconds(&self) -> f64 {
        mean(&per_index_median(
            &self.seconds.iter().map(Vec::as_slice).collect::<Vec<_>>(),
        ))
    }
}

fn run(args: &Args, scratch: &Path) -> BenchResult<bool> {
    let workload = args.workload;
    let spec = find(workload.catalog).ok_or("workload missing from the catalog")?;
    let universes = (0..UNIVERSES as u64)
        .map(|index| {
            let scenario = spec.scenario(&ScenarioConfig {
                seed: universe_seed(args.seed, index),
                domains: workload.domains,
                ticks: TICKS_PER_UNIVERSE,
                intensity: workload.intensity,
                ..ScenarioConfig::sized(workload.pools)
            })?;
            let oracle = Oracle::run(&scenario)?;
            Ok(Universe { scenario, oracle })
        })
        .collect::<BenchResult<Vec<_>>>()?;
    let first = &universes[0].scenario;
    let plans = ReadStormProfile {
        seed: args.seed,
        readers: 1,
        ..ReadStormProfile::default()
    }
    .plans(first.feed.iter().count(), first.pools.len());
    let ops = &plans.first().ok_or("empty read plan")?.ops;
    if args.trace {
        alloc::enable();
    }

    // A warm-up pass brings caches, allocator arenas and page tables to
    // steady state before anything is timed. It is checked like the rest.
    let warmup_dir = scratch.join("warmup");
    let warmup = run_pass(&universes, ops, &warmup_dir, CHECKPOINT_EVERY_EVENTS, false)?;
    fs::remove_dir_all(&warmup_dir)?;

    let jiffies_before = host::cpu_jiffies();
    let calibration_ms = host::calibration_ms();
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let classes = if args.trace { 2 } else { 1 };
    let mut recoveries = Recoveries::default();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    for index in 0.. {
        let passes = plain.len() + traced.len();
        let elapsed = started.elapsed();
        if passes >= MIN_PASSES * classes && (elapsed >= budget || elapsed >= PASS_DEADLINE) {
            break;
        }
        // Untraced and traced passes alternate when tracing, so the
        // overhead compares like with like.
        let trace_this = args.trace && plain.len() > traced.len();
        let dir = scratch.join(format!("pass-{index}"));
        let pass = run_pass(&universes, ops, &dir, CHECKPOINT_EVERY_EVENTS, trace_this)?;
        // Every universe's crash journal is recovered after every pass.
        recoveries.measure(&pass.crashes, &universes)?;
        fs::remove_dir_all(&dir)?;
        if trace_this {
            traced.push(pass);
        } else {
            plain.push(pass);
        }
    }
    let measured = started.elapsed();
    let steal = host::steal_share(jiffies_before, host::cpu_jiffies()).unwrap_or(0.0);

    let all: Vec<&Pass> = [&warmup].into_iter().chain(&plain).chain(&traced).collect();
    let tick_mismatches: usize = all.iter().map(|p| p.mismatches).sum();
    let profit_mismatches: usize = all.iter().map(|p| p.profit_mismatches).sum();
    let quoted_profit: f64 = universes.iter().map(|u| u.oracle.quoted_profit).sum();
    let coherence_checks: u64 = all.iter().map(|p| p.reads.coherence_checks).sum();
    let mut correct = tick_mismatches == 0 && profit_mismatches == 0 && recoveries.mismatches == 0;

    let reads_refused: u64 = all.iter().map(|p| p.reads.refused).sum();
    let reads_attempted: u64 = all.iter().map(|p| p.reads.admitted).sum::<u64>() + reads_refused;
    let ticks_per_pass = UNIVERSES * TICKS_PER_UNIVERSE;
    let attempted = (all.len() * ticks_per_pass) as u64 + reads_attempted;
    let plain_refs: Vec<&Pass> = plain.iter().collect();
    let visible = medians(&plain_refs, |p| &p.visible_us);

    let metrics = if args.trace {
        let setups: Vec<SetupTimes> = plain
            .iter()
            .chain(&traced)
            .flat_map(|p| p.setups.iter().copied())
            .collect();
        let (mut metrics, layer_sum_frac) =
            per_layer(&plain_refs, &traced, &setups, &recoveries, quoted_profit)?;
        metrics.push(metric("host.steal_frac", steal, "fraction"));
        metrics.push(metric("host.calib_ms", calibration_ms, "ms"));
        if (layer_sum_frac - 1.0).abs() > LAYER_SUM_SLACK {
            eprintln!(
                "perfbench: per-layer medians add up to {layer_sum_frac:.4} of the traced tick, \
                 outside the {LAYER_SUM_SLACK} slack"
            );
            correct = false;
        }
        metrics
    } else {
        end_to_end(&plain_refs, &visible, &recoveries)?
    };

    println!(
        "{{\"diagnostics\": {{\"workload\": \"{}\", \"seed\": {}, \"passes_untraced\": {}, \
         \"passes_traced\": {}, \"ticks_per_pass\": {}, \"measured_s\": {:.3}, \
         \"highest_supported_tick_quantile\": {}, \"host_steal_frac\": {:.5}, \
         \"host_calib_ms\": {:.3}, \"tick_mismatches\": {}, \"profit_mismatches\": {}, \
         \"recovery_mismatches\": {}, \"coherence_checks\": {}, \"quoted_profit_usd\": {:?}}}}}",
        workload.name,
        args.seed,
        plain.len(),
        traced.len(),
        ticks_per_pass,
        measured.as_secs_f64(),
        highest_supported(visible.len()).unwrap_or(0.0),
        steal,
        calibration_ms,
        tick_mismatches,
        profit_mismatches,
        recoveries.mismatches,
        coherence_checks,
        quoted_profit,
    );
    println!(
        "{}",
        result_line(correct, attempted, reads_refused, &metrics)?
    );
    Ok(correct)
}

/// The seed of universe `index` of a run: a splitmix64 mix, because the
/// scenario generator XORs the seed with the island index, so seeds that
/// differ only in their low bits would share islands.
fn universe_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.rotate_right(17);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A named metric with its unit, printed in the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `percentile`, failing the run when the samples cannot support `q`.
fn quantile(samples: &[f64], q: f64, what: &str) -> BenchResult<f64> {
    percentile(samples, q).ok_or_else(|| format!("too few samples for {what} at q={q}").into())
}

fn sum(values: &[f64]) -> f64 {
    values.iter().sum()
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

fn mean(values: &[f64]) -> f64 {
    ratio(sum(values), values.len() as f64)
}

/// Per-tick medians of one per-tick series across passes.
fn medians(passes: &[&Pass], series: fn(&Pass) -> &Vec<f64>) -> Vec<f64> {
    per_index_median(
        &passes
            .iter()
            .map(|p| series(p).as_slice())
            .collect::<Vec<_>>(),
    )
}

/// The end-to-end metrics, from untraced passes only.
fn end_to_end(
    plain: &[&Pass],
    visible: &[f64],
    recoveries: &Recoveries,
) -> BenchResult<Vec<Metric>> {
    let busy = medians(plain, |p| &p.busy_us);
    let raw_events = plain.first().map_or(0, |p| p.raw_events) as f64;
    let admitted: u64 = plain.iter().map(|p| p.reads.admitted).sum();
    let reader_s: f64 = plain.iter().map(|p| p.reads.elapsed.as_secs_f64()).sum();
    let setup_s: Vec<f64> = plain
        .iter()
        .flat_map(|p| &p.setups)
        .map(|t| t.total().as_secs_f64())
        .collect();
    Ok(vec![
        metric("visible_p50_us", quantile(visible, 0.5, "visible")?, "us"),
        metric("visible_p99_us", quantile(visible, 0.99, "visible")?, "us"),
        metric("events_per_s", raw_events / (sum(&busy) * 1e-6), "1/s"),
        metric("reads_per_s", admitted as f64 / reader_s, "1/s"),
        metric("recover_s", recoveries.typical_seconds(), "s"),
        metric(
            "peak_rss_mb",
            host::peak_rss_mb().ok_or("VmHWM unavailable")?,
            "MB",
        ),
        metric("setup_s", quantile(&setup_s, 0.5, "setup")?, "s"),
    ])
}

/// The per-layer metrics of a traced run, and the share of the traced
/// tick that the per-layer medians add up to.
fn per_layer(
    plain: &[&Pass],
    traced: &[Pass],
    setups: &[SetupTimes],
    recoveries: &Recoveries,
    quoted_profit: f64,
) -> BenchResult<(Vec<Metric>, f64)> {
    let traces: Vec<&PassTrace> = traced.iter().filter_map(|p| p.trace.as_ref()).collect();
    let traced_refs: Vec<&Pass> = traced.iter().collect();
    let passes = traces.len() as f64;
    let ticks = traced.first().map_or(0, |p| p.visible_us.len()) as f64;
    let layer: Vec<Vec<f64>> = (0..LAYERS)
        .map(|i| {
            per_index_median(
                &traces
                    .iter()
                    .map(|t| t.layer_us[i].as_slice())
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let traced_visible = medians(&traced_refs, |p| &p.visible_us);
    let plain_visible = medians(plain, |p| &p.visible_us);
    let layer_sum_frac = layer.iter().map(|l| sum(l)).sum::<f64>() / sum(&traced_visible);
    let overhead_frac = sum(&traced_visible) / sum(&plain_visible) - 1.0;

    let [stage, seal, apply, publish, probe] = [
        Layer::Stage,
        Layer::Seal,
        Layer::Apply,
        Layer::Publish,
        Layer::Probe,
    ]
    .map(|l| layer[l as usize].as_slice());
    let allocs = |layer: Layer| {
        traces
            .iter()
            .map(|t| t.layer_allocs[layer as usize])
            .sum::<u64>() as f64
            / passes
    };
    let per_pass =
        |f: &dyn Fn(&PassTrace) -> f64| traces.iter().map(|t| f(t)).sum::<f64>() / passes;
    let checkpoints: Vec<&CheckpointOutcome> = traces.iter().flat_map(|t| &t.checkpoints).collect();
    let checkpoint_us: Vec<f64> = checkpoints
        .iter()
        .map(|c| c.elapsed.as_secs_f64() * 1e6)
        .collect();
    let checkpoint_bytes: Vec<f64> = checkpoints.iter().map(|c| c.bytes as f64).collect();
    let merge_us = per_index_median(
        &traces
            .iter()
            .map(|t| t.merge_us.as_slice())
            .collect::<Vec<_>>(),
    );
    let snapshot_len: Vec<f64> = traces
        .iter()
        .flat_map(|t| t.snapshot_len.iter().copied())
        .collect();
    let read_ns: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.reads.read_ns.iter().copied())
        .collect();
    let setup_ms = |part: fn(&SetupTimes) -> Duration| {
        let samples: Vec<f64> = setups.iter().map(|t| part(t).as_secs_f64() * 1e3).collect();
        quantile(&samples, 0.5, "setup")
    };

    let metrics = vec![
        metric("ingest.stage_us_p50", quantile(stage, 0.5, "stage")?, "us"),
        metric("ingest.seal_us_p50", quantile(seal, 0.5, "seal")?, "us"),
        metric("ingest.seal_us_p99", quantile(seal, 0.99, "seal")?, "us"),
        metric(
            "ingest.events_in_per_tick",
            per_pass(&|t| t.events_in as f64) / ticks,
            "count",
        ),
        metric(
            "ingest.coalesced_frac",
            ratio(
                per_pass(&|t| t.coalesced_away as f64),
                per_pass(&|t| t.events_in as f64),
            ),
            "fraction",
        ),
        metric(
            "ingest.allocs_per_tick",
            (allocs(Layer::Stage) + allocs(Layer::Seal)) / ticks,
            "count",
        ),
        metric(
            "journal.bytes_per_tick",
            per_pass(&|t| t.journal_bytes as f64) / ticks,
            "B",
        ),
        metric("journal.checkpoint_us", mean(&checkpoint_us), "us"),
        metric("journal.checkpoint_bytes", mean(&checkpoint_bytes), "B"),
        metric(
            "journal.checkpoints_per_pass",
            checkpoints.len() as f64 / passes,
            "count",
        ),
        metric(
            "journal.replayed_events",
            mean(&recoveries.replayed_events),
            "count",
        ),
        metric("runtime.apply_us_p50", quantile(apply, 0.5, "apply")?, "us"),
        metric(
            "runtime.apply_us_p99",
            quantile(apply, 0.99, "apply")?,
            "us",
        ),
        metric(
            "runtime.merge_us_p50",
            quantile(&merge_us, 0.5, "merge")?,
            "us",
        ),
        metric(
            "runtime.rebuilds",
            per_pass(&|t| t.rebuilds as f64),
            "count",
        ),
        metric(
            "runtime.allocs_per_tick",
            allocs(Layer::Apply) / ticks,
            "count",
        ),
        metric(
            "engine.evals_per_tick",
            per_pass(&|t| t.strategy_evaluations as f64) / ticks,
            "count",
        ),
        metric(
            "engine.screened_frac",
            ratio(
                per_pass(&|t| t.screened_cycles as f64),
                per_pass(&|t| t.dirty_cycles as f64),
            ),
            "fraction",
        ),
        metric(
            "serve.publish_us_p50",
            quantile(publish, 0.5, "publish")?,
            "us",
        ),
        metric(
            "serve.publish_us_p99",
            quantile(publish, 0.99, "publish")?,
            "us",
        ),
        metric("serve.probe_us_p50", quantile(probe, 0.5, "probe")?, "us"),
        metric(
            "serve.allocs_per_publish",
            ratio(allocs(Layer::Publish), per_pass(&|t| t.publishes as f64)),
            "count",
        ),
        metric("serve.snapshot_len", mean(&snapshot_len), "count"),
        metric("serve.read_ns_p50", quantile(&read_ns, 0.5, "read")?, "ns"),
        metric(
            "serve.reads_refused",
            traced.iter().map(|p| p.reads.refused).sum::<u64>() as f64,
            "count",
        ),
        metric("serve.quoted_profit_usd", quoted_profit, "usd"),
        metric("setup.build_ms", setup_ms(|t| t.build)?, "ms"),
        metric("setup.refresh_ms", setup_ms(|t| t.refresh)?, "ms"),
        metric("setup.publish_ms", setup_ms(|t| t.publish)?, "ms"),
        metric("trace.layer_sum_frac", layer_sum_frac, "fraction"),
        metric("trace.overhead_frac", overhead_frac, "fraction"),
    ];
    Ok((metrics, layer_sum_frac))
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> BenchResult<String> {
    let mut line =
        format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name).into());
        }
        let separator = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{separator}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    line.push_str("}}");
    Ok(line)
}
