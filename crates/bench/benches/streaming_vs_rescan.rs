//! Streaming vs. full-rescan reaction cost on a sparse-delta workload.
//!
//! The workload models a live market tick: a universe of hundreds of
//! pools where each block moves the reserves of only a handful. The
//! batch path pays graph construction + full cycle enumeration + full
//! re-evaluation every tick; the streaming path applies the deltas to a
//! persistent graph and re-evaluates only the cycles the touched pools
//! participate in.
//!
//! Besides wall-clock numbers, the harness runs a smoke pass that
//! *asserts* the streaming path evaluates strictly fewer cycles than a
//! full rescan would and prints the evaluations-saved counter as a JSON
//! line, so CI bench logs (`BENCH_*.json`) record the perf trajectory.

use arb_cex::feed::PriceTable;
use arb_dexsim::events::Event;
use arb_dexsim::units::to_raw;
use arb_engine::{OpportunityPipeline, PipelineConfig, ShardedRuntime};
use arb_snapshot::{Generator, Snapshot, SnapshotConfig};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

/// Pools touched per simulated tick — sparse relative to the universe.
const DELTA_POOLS: usize = 4;
/// Distinct precomputed tick batches the benches cycle through.
const TICKS: usize = 64;

fn universe(num_pools: usize) -> (Snapshot, PriceTable) {
    let config = SnapshotConfig {
        seed: 77,
        num_tokens: (num_pools / 3).max(12),
        num_pools,
        ..SnapshotConfig::default()
    };
    let snapshot = Generator::new(config).generate().expect("snapshot");
    let mut feed = PriceTable::new();
    for (i, meta) in snapshot.tokens().iter().enumerate() {
        feed.set(arb_amm::token::TokenId::new(i as u32), meta.usd_price);
    }
    (snapshot, feed)
}

/// Deterministic sparse tick batches: each tick nudges `DELTA_POOLS`
/// pools around their base reserves (absolute `Sync` values, so state
/// oscillates instead of drifting as benches loop).
fn tick_batches(snapshot: &Snapshot) -> Vec<Vec<Event>> {
    let pools = snapshot.pools();
    (0..TICKS)
        .map(|tick| {
            (0..DELTA_POOLS)
                .map(|k| {
                    let index = (tick * 7919 + k * 104_729) % pools.len();
                    let pool = &pools[index];
                    let wobble = 1.0 + 0.015 * (((tick + k) % 5) as f64 - 2.0);
                    Event::Sync {
                        pool: arb_amm::pool::PoolId::new(index as u32),
                        reserve_a: to_raw(pool.reserve_a() * wobble),
                        reserve_b: to_raw(pool.reserve_b() / wobble),
                    }
                })
                .collect()
        })
        .collect()
}

fn pipeline() -> OpportunityPipeline {
    OpportunityPipeline::new(PipelineConfig::default())
}

fn bench_tick_reaction(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming_vs_rescan/tick");
    group.sample_size(10);
    for num_pools in [100usize, 300] {
        let (snapshot, feed) = universe(num_pools);
        let batches = tick_batches(&snapshot);

        // Full rescan: every tick rebuilds graph + cycles + evaluations
        // (the snapshot itself is the tick's market state — rebuild cost
        // is identical whichever few pools moved).
        let rescan_pipeline = pipeline();
        group.bench_with_input(
            BenchmarkId::new("rescan_full", num_pools),
            &snapshot,
            |b, snap| {
                b.iter(|| {
                    black_box(
                        rescan_pipeline
                            .run(snap.pools().to_vec(), &feed)
                            .unwrap()
                            .opportunities
                            .len(),
                    )
                })
            },
        );

        // Streaming: one cold build outside the timed region, then each
        // iteration reacts to one sparse tick.
        let mut engine =
            ShardedRuntime::new(pipeline(), snapshot.pools().to_vec(), 1).expect("engine");
        engine.refresh(&feed).expect("cold start");
        let mut tick = 0usize;
        group.bench_with_input(
            BenchmarkId::new("streaming_delta", num_pools),
            &snapshot,
            |b, _| {
                b.iter(|| {
                    let batch = &batches[tick % TICKS];
                    tick += 1;
                    black_box(
                        engine
                            .apply_events(batch, &feed)
                            .unwrap()
                            .opportunities
                            .len(),
                    )
                })
            },
        );
    }
    group.finish();
}

/// The asserted smoke pass: on a sparse-delta workload the streaming
/// engine must evaluate strictly fewer cycles than a rescan-per-tick
/// would, and the counters land in the bench output for trend tracking.
fn smoke_assert_evaluations_saved(_c: &mut Criterion) {
    let (snapshot, feed) = universe(300);
    let batches = tick_batches(&snapshot);
    let mut engine = ShardedRuntime::new(pipeline(), snapshot.pools().to_vec(), 1).expect("engine");
    engine.refresh(&feed).expect("cold start");
    let cold = *engine.stats();

    for batch in &batches {
        engine.apply_events(batch, &feed).expect("tick");
    }
    let stats = *engine.stats();
    let live_cycles = engine.live_cycles();
    let streamed = stats.cycles_evaluated - cold.cycles_evaluated;
    let rescan_equivalent = live_cycles * TICKS;
    assert!(
        streamed < rescan_equivalent,
        "streaming must evaluate strictly fewer cycles than {TICKS} full \
         rescans: {streamed} vs {rescan_equivalent}"
    );
    let saved = stats.evaluations_saved - cold.evaluations_saved;
    println!(
        "{{\"bench\":\"streaming_vs_rescan\",\"pools\":{},\"live_cycles\":{},\
         \"ticks\":{},\"rescan_evaluations\":{},\"streaming_evaluations\":{},\
         \"evaluations_saved\":{},\"reduction\":{:.4}}}",
        snapshot.pools().len(),
        live_cycles,
        TICKS,
        rescan_equivalent,
        streamed,
        saved,
        1.0 - streamed as f64 / rescan_equivalent as f64,
    );
}

criterion_group!(benches, bench_tick_reaction, smoke_assert_evaluations_saved);
criterion_main!(benches);
