//! The chaos soak: every workload in the catalog, driven through the
//! full journaled ingest pipeline under the standard all-sites fault
//! plan (source outages, bad feed data, journal write/fsync/torn/ENOSPC
//! failures, a slow tick, one mid-tick panic), must **reconverge**: the
//! post-fault final ranking is bit-identical to a never-faulted oracle's.
//!
//! Also proved here: same-seed reruns reproduce the identical fault
//! schedule and final fingerprint (the plan is a pure function of
//! `(seed, site, tick)`), and a soak with observability attached leaves
//! `chaos.*` / `health.*` metrics plus a flight-recorder dump behind.

mod support;

use std::path::PathBuf;

use arbloops::chaos::harness::FLIGHT_DUMP;
use arbloops::prelude::*;
use arbloops::workloads;
use support::TestDir;

fn soak_config(dir: PathBuf, seed: u64) -> SoakConfig {
    SoakConfig {
        scenario: ScenarioConfig {
            seed,
            domains: 4,
            num_tokens: 20,
            num_pools: 40,
            ticks: 32,
            intensity: 1.0,
        },
        ..SoakConfig::new(dir)
    }
}

fn soak(workload: &str, seed: u64, obs: Option<&Obs>) -> SoakOutcome {
    let spec = workloads::find(workload).expect("workload in catalog");
    let dir = TestDir::new(workload);
    let config = soak_config(dir.path().to_path_buf(), seed);
    let plan = standard_plan(seed, config.scenario.ticks as u64);
    arbloops::chaos::run_soak(spec, &config, plan, obs).expect("soak completes")
}

fn assert_reconverged(outcome: &SoakOutcome) {
    assert!(
        !outcome.faults.is_empty(),
        "{}: the plan must actually inject faults",
        outcome.workload
    );
    assert!(
        outcome.recoveries >= 1,
        "{}: the panic window must force at least one supervised recovery",
        outcome.workload
    );
    assert!(
        outcome.final_opportunities > 0,
        "{}: an empty final ranking would make the equality vacuous",
        outcome.workload
    );
    assert_eq!(
        outcome.journal_pending_at_end, 0,
        "{}: the quiet tail must drain the journal backlog",
        outcome.workload
    );
    assert!(
        outcome.reconverged(),
        "{}: post-fault ranking diverged from the never-faulted oracle \
         (soak {:#018x} vs oracle {:#018x}; {} faults, {} recoveries)",
        outcome.workload,
        outcome.fingerprint,
        outcome.oracle_fingerprint,
        outcome.faults.len(),
        outcome.recoveries,
    );
}

#[test]
fn steady_sparse_reconverges_after_faults() {
    assert_reconverged(&soak("steady-sparse", 1_101, None));
}

#[test]
fn whale_bursts_reconverges_after_faults() {
    assert_reconverged(&soak("whale-bursts", 1_202, None));
}

#[test]
fn fee_regime_shift_reconverges_after_faults() {
    assert_reconverged(&soak("fee-regime-shift", 1_303, None));
}

#[test]
fn pool_churn_reconverges_after_faults() {
    assert_reconverged(&soak("pool-churn", 1_404, None));
}

#[test]
fn degenerate_flood_reconverges_after_faults() {
    assert_reconverged(&soak("degenerate-flood", 1_505, None));
}

/// Determinism: the fault schedule, the recovery count, and the final
/// fingerprint are all pure functions of the seed.
#[test]
fn same_seed_reruns_reproduce_the_fault_schedule_and_the_outcome() {
    let first = soak("steady-sparse", 9_000, None);
    let second = soak("steady-sparse", 9_000, None);
    assert_eq!(first.faults, second.faults, "fault logs must be identical");
    assert_eq!(first.recoveries, second.recoveries);
    assert_eq!(first.fingerprint, second.fingerprint);

    let other_seed = soak("steady-sparse", 9_001, None);
    assert_ne!(
        first.faults, other_seed.faults,
        "a different seed must shuffle the schedule"
    );
}

/// With observability attached, a soak leaves the promised trail:
/// `chaos.*` counters, `health.*` gauges, and a flight-recorder dump
/// written by the supervisor on recovery.
#[test]
fn soak_mirrors_chaos_and_health_telemetry() {
    let spec = workloads::find("whale-bursts").expect("in catalog");
    let dir = TestDir::new("telemetry");
    let config = soak_config(dir.path().to_path_buf(), 7_707);
    let plan = standard_plan(7_707, config.scenario.ticks as u64);
    let obs = Obs::default();
    let outcome =
        arbloops::chaos::run_soak(spec, &config, plan, Some(&obs)).expect("soak completes");
    assert_reconverged(&outcome);

    let snapshot = obs.registry().snapshot();
    let injected = snapshot.counter("chaos.injected").unwrap_or(0);
    assert_eq!(
        injected as usize,
        outcome.faults.len(),
        "every injected fault is counted"
    );
    assert!(
        snapshot.counter("chaos.injected.panic-tick").unwrap_or(0) >= 1,
        "the per-kind counter tracks the panic"
    );
    assert_eq!(
        snapshot.counter("chaos.recoveries"),
        Some(u64::from(outcome.recoveries)),
        "supervised recoveries are counted"
    );
    assert!(
        snapshot.gauge("health.journal.io.state").is_some(),
        "the journal health gauge is exported"
    );
    assert!(
        snapshot.gauge("health.ingest.source.feed.state").is_some(),
        "per-source health gauges are exported"
    );
    assert_eq!(
        snapshot.gauge("chaos.reconverged"),
        Some(1.0),
        "the reconvergence verdict is exported"
    );
    assert!(
        dir.path().join(FLIGHT_DUMP).is_file(),
        "the supervisor dumps the flight recorder on recovery"
    );
}
