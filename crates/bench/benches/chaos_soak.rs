//! Chaos-soak pass: the five catalog workloads driven through the full
//! journaled ingest pipeline under the standard all-sites fault plan
//! (source outages, garbage feed data, journal write/fsync/torn/ENOSPC
//! failures, a slow tick, one mid-tick panic per run).
//!
//! The pass **asserts** that every workload reconverges — the post-fault
//! final ranking is bit-identical to a never-faulted oracle's — and
//! that the quiet tail drains the journal backlog to zero. What it
//! *measures* is the cost of a supervised recovery: the wall time from
//! catching a mid-tick panic to the rebuilt pipeline being live again
//! (journal backlog flush + snapshot restore + replay + rewire).
//!
//! The JSON lines feed `BENCH_chaos.json`; CI's trend gate fails the
//! build when the aggregate `recovery_p99_ns` on the `workload=all` row
//! grows more than 50% over the committed baseline.

use std::path::PathBuf;

use arb_bench::json::JsonLine;
use arb_bench::percentile_ns;
use arb_chaos::{run_soak, standard_plan, SoakConfig, SoakOutcome};
use arb_workloads::{find, ScenarioConfig};
use criterion::{criterion_group, criterion_main, Criterion};

const POOLS: usize = 40;
const TOKENS: usize = 20;
const DOMAINS: usize = 4;
const TICKS: usize = 32;
/// Seeds per workload: more supervised recoveries per run means a less
/// noisy p99 for the trend gate.
const SEEDS_PER_WORKLOAD: u64 = 3;

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("arbloops-chaos-bench-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn soak(workload: &str, seed: u64) -> SoakOutcome {
    let spec = find(workload).expect("workload in catalog");
    let scratch = Scratch::new(&format!("{workload}-{seed}"));
    let config = SoakConfig {
        scenario: ScenarioConfig {
            seed,
            domains: DOMAINS,
            num_tokens: TOKENS,
            num_pools: POOLS,
            ticks: TICKS,
            intensity: 1.0,
        },
        ..SoakConfig::new(&scratch.0)
    };
    let plan = standard_plan(seed, TICKS as u64);
    run_soak(spec, &config, plan, None).expect("soak completes")
}

/// The asserted pass over the whole catalog (JSON lines + gates).
fn chaos_pass(_c: &mut Criterion) {
    let workloads = [
        ("steady-sparse", 21_001u64),
        ("whale-bursts", 21_002),
        ("fee-regime-shift", 21_003),
        ("pool-churn", 21_004),
        ("degenerate-flood", 21_005),
    ];

    let mut all_recovery_ns: Vec<u64> = Vec::new();
    let mut total_faults = 0usize;
    let mut total_recoveries = 0u64;

    for (workload, seed_base) in workloads {
        let mut workload_recovery_ns: Vec<u64> = Vec::new();
        let mut faults = 0usize;
        let mut recoveries = 0u64;
        for run in 0..SEEDS_PER_WORKLOAD {
            let outcome = soak(workload, seed_base + run);
            assert!(
                outcome.reconverged(),
                "{workload} seed {}: post-fault ranking diverged from the \
                 never-faulted oracle ({:#018x} vs {:#018x})",
                seed_base + run,
                outcome.fingerprint,
                outcome.oracle_fingerprint,
            );
            assert!(
                outcome.recoveries >= 1,
                "{workload} seed {}: the panic window must force a recovery",
                seed_base + run,
            );
            assert_eq!(
                outcome.journal_pending_at_end,
                0,
                "{workload} seed {}: the quiet tail must drain the journal",
                seed_base + run,
            );
            faults += outcome.faults.len();
            recoveries += u64::from(outcome.recoveries);
            workload_recovery_ns.extend(&outcome.recovery_wall_ns);
        }

        JsonLine::bench("chaos_soak")
            .text("workload", workload)
            .count("pools", POOLS)
            .count("ticks", TICKS)
            .count("runs", SEEDS_PER_WORKLOAD as usize)
            .count("faults", faults)
            .int("recoveries", recoveries)
            .int(
                "recovery_p50_ns",
                percentile_ns(&workload_recovery_ns, 0.50),
            )
            .int(
                "recovery_p99_ns",
                percentile_ns(&workload_recovery_ns, 0.99),
            )
            .text("reconverged", "true")
            .emit();

        total_faults += faults;
        total_recoveries += recoveries;
        all_recovery_ns.extend(workload_recovery_ns);
    }

    // The aggregate row CI gates on: recovery p99 across the catalog.
    JsonLine::bench("chaos_soak")
        .text("workload", "all")
        .count("pools", POOLS)
        .count("ticks", TICKS)
        .count("runs", workloads.len() * SEEDS_PER_WORKLOAD as usize)
        .count("faults", total_faults)
        .int("recoveries", total_recoveries)
        .int("recovery_p50_ns", percentile_ns(&all_recovery_ns, 0.50))
        .int("recovery_p99_ns", percentile_ns(&all_recovery_ns, 0.99))
        .text("reconverged", "true")
        .emit();
}

criterion_group!(benches, chaos_pass);
criterion_main!(benches);
