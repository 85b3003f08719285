//! Journal durability costs at the roadmap's 600-pool operating point.
//!
//! Two numbers matter for running the journal on the hot path:
//!
//! * **append throughput** — events/s through `append_batch` + `commit`
//!   (one fsync-equivalent flush per tick batch; `sync_on_commit` is
//!   off so the bench measures the journal's own framing + write cost,
//!   not the device's fsync latency);
//! * **recovery time** — wall clock for `Recovery` to restore the
//!   mid-stream snapshot and replay the journal suffix back to a
//!   standing ranking, versus replaying the whole stream from genesis.
//!
//! The harness replays the `whale-bursts` workload at 600 pools,
//! snapshots halfway, crashes, and recovers — asserting the
//! recovered ranking is bit-identical to the uninterrupted run and that
//! the snapshot path replays strictly fewer events than genesis. The
//! JSON counter line feeds the `BENCH_journal.json` trend artifact.

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use arb_engine::{ArbitrageOpportunity, OpportunityPipeline, PipelineConfig, ShardedRuntime};
use arb_journal::{JournalConfig, JournalWriter, Recovery, SnapshotStore};
use arb_workloads::{find, Scenario, ScenarioConfig};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

const POOLS: usize = 600;
const TOKENS: usize = 240;
const DOMAINS: usize = 4;
const TICKS: usize = 48;

fn scenario() -> Scenario {
    find("whale-bursts")
        .expect("whale-bursts in catalog")
        .scenario(&ScenarioConfig {
            seed: 71_002,
            domains: DOMAINS,
            num_tokens: TOKENS,
            num_pools: POOLS,
            ticks: TICKS,
            intensity: 2.0,
        })
        .expect("journal scenario generates")
}

fn pipeline() -> OpportunityPipeline {
    OpportunityPipeline::new(PipelineConfig {
        top_k: Some(16),
        parallel: false,
        ..PipelineConfig::default()
    })
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "arbloops-journal-bench-{}-{name}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn journal_config() -> JournalConfig {
    JournalConfig {
        sync_on_commit: false,
        ..JournalConfig::default()
    }
}

/// Criterion wall-clock for appending + committing one tick batch.
fn bench_append(c: &mut Criterion) {
    let scenario = scenario();
    let dir = scratch("append");
    let mut writer = JournalWriter::open(&dir, journal_config()).expect("writer");
    let mut group = c.benchmark_group("journal/append");
    group.sample_size(20);
    let mut tick = 0usize;
    group.bench_with_input(BenchmarkId::new("tick_batch", POOLS), &(), |b, ()| {
        b.iter(|| {
            let batch = &scenario.ticks[tick % TICKS];
            tick += 1;
            writer.append_batch(&batch.events);
            black_box(writer.commit().expect("commit"));
        })
    });
    group.finish();
    let _ = fs::remove_dir_all(&dir);
}

fn assert_identical(recovered: &[ArbitrageOpportunity], expected: &[ArbitrageOpportunity]) {
    assert_eq!(recovered.len(), expected.len(), "ranking sizes diverged");
    for (r, e) in recovered.iter().zip(expected) {
        assert_eq!(r.cycle.tokens(), e.cycle.tokens());
        assert_eq!(r.cycle.pools(), e.cycle.pools());
        assert_eq!(
            r.net_profit.value().to_bits(),
            e.net_profit.value().to_bits()
        );
    }
}

/// The asserted pass: journal the full stream (snapshot at half), crash,
/// recover, compare; print the JSON counter line.
fn journal_counters(_c: &mut Criterion) {
    let scenario = scenario();
    let total_events = scenario.total_events();
    let dir = scratch("counters");

    // Live run: journal everything, checkpoint at the halfway tick.
    let mut writer = JournalWriter::open(&dir, journal_config()).expect("writer");
    let store = SnapshotStore::new(&dir).expect("store");
    let mut runtime = ShardedRuntime::new(pipeline(), scenario.pools.clone(), 1).expect("runtime");
    let mut feed = scenario.feed.clone();
    let mut last_live = Vec::new();
    let mut snapshot_offset = 0u64;
    let append_start = Instant::now();
    let mut append_ns = 0u64;
    for (index, batch) in scenario.ticks.iter().enumerate() {
        batch.apply_feed(&mut feed);
        let t0 = Instant::now();
        writer.append_batch(&batch.events);
        writer.commit().expect("commit");
        append_ns += t0.elapsed().as_nanos() as u64;
        last_live = runtime
            .apply_events(&batch.events, &feed)
            .expect("live tick")
            .opportunities;
        if index == TICKS / 2 {
            snapshot_offset = writer.durable_offset();
            store
                .write(snapshot_offset, &runtime.checkpoint())
                .expect("snapshot");
        }
    }
    let wall_ns = append_start.elapsed().as_nanos() as u64;
    drop(runtime); // 💥 crash

    // Snapshot recovery.
    let recovery_start = Instant::now();
    let recovered = Recovery::new(&dir, pipeline(), 1)
        .with_genesis_pools(scenario.pools.clone())
        .with_genesis_feed(feed.clone())
        .recover_journaled()
        .expect("recover");
    let recovery_ns = recovery_start.elapsed().as_nanos() as u64;
    let stats = recovered.stats;
    assert_eq!(stats.snapshot_offset, Some(snapshot_offset));
    assert!(
        stats.events_replayed < total_events,
        "snapshot replay must beat genesis: {stats}"
    );
    let mut recovered_runtime = recovered.runtime;
    let restored = recovered_runtime.refresh(&feed).expect("refresh");
    assert_identical(&restored.opportunities, &last_live);

    // Genesis recovery for comparison (snapshots removed).
    for (_, path) in store.list().expect("list") {
        fs::remove_file(path).expect("remove snapshot");
    }
    let genesis_start = Instant::now();
    let genesis = Recovery::new(&dir, pipeline(), 1)
        .with_genesis_pools(scenario.pools.clone())
        .with_genesis_feed(feed.clone())
        .recover_journaled()
        .expect("genesis recover");
    let genesis_ns = genesis_start.elapsed().as_nanos() as u64;
    assert_eq!(genesis.stats.snapshot_offset, None);
    assert_eq!(genesis.stats.events_replayed, total_events);
    let mut genesis_runtime = genesis.runtime;
    let genesis_report = genesis_runtime.refresh(&feed).expect("refresh");
    assert_identical(&genesis_report.opportunities, &last_live);

    let append_events_per_s = total_events as f64 / (append_ns.max(1) as f64 / 1e9);
    println!(
        "{{\"bench\":\"journal\",\"pools\":{},\"ticks\":{},\
         \"events\":{},\"append_ns\":{},\"append_events_per_s\":{:.0},\
         \"wall_ns\":{},\"snapshot_offset\":{},\"events_replayed\":{},\
         \"recovery_ns\":{},\"genesis_events_replayed\":{},\"genesis_ns\":{}}}",
        POOLS,
        TICKS,
        total_events,
        append_ns,
        append_events_per_s,
        wall_ns,
        snapshot_offset,
        stats.events_replayed,
        recovery_ns,
        genesis.stats.events_replayed,
        genesis_ns,
    );
    let _ = fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_append, journal_counters);
criterion_main!(benches);
