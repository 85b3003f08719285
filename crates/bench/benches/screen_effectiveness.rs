//! Screen effectiveness: the incremental log-space profitability screen
//! against the unscreened (PR-4 behavior) dirty-refresh path.
//!
//! Two engines replay identical seeded tick streams at 600 pools — the
//! roadmap's scale operating point — over the two bursty catalog entries
//! (`whale-bursts`, and `fee-regime-shift` per Milionis et al.):
//!
//! * **screened** (`PipelineConfig::screen = true`): dirty cycles whose
//!   maintained `Σ log p` is provably ≤ 0 are dropped in O(1); survivors
//!   whose pool-potential profit bound cannot clear the gross floor
//!   (execution cost + net-profit floor) skip strategy work too.
//! * **unscreened** (`screen = false`): every dirty cycle is fully
//!   prepared and strategy-evaluated, exactly as before this screen
//!   existed.
//!
//! Both run serial per-engine evaluation so the comparison isolates the
//! screen (work *avoided*, not parallelism), and both use the same
//! scratch-arena fan-out. The harness asserts, on `fee-regime-shift`:
//!
//! * final rankings **bit-identical** (the per-tick oracle lives in
//!   `tests/screen_equivalence.rs`);
//! * ≥ 2× median dirty-refresh (per-tick) speedup;
//! * ≥ 80% fewer strategy evaluations;
//! * zero scratch-arena growth after warmup (the fan-out scratch path
//!   allocates nothing in the steady state).
//!
//! `whale-bursts` is replayed with the same harness but reported only:
//! its arbitrage population is dominated by genuinely profitable
//! whale-displaced loops (gross profits in the thousands), and a *sound*
//! screen must evaluate every loop the full path would rank — no correct
//! screen can skip them. The log-sum screen still discharges the
//! log-negative majority there; the eval-heavy regime where the floor
//! screen shines is exactly the Milionis et al. fee-regime sweep, whose
//! low-fee phase floods the engine with barely-positive marginal loops.
//!
//! The JSON counter lines feed `BENCH_screen.json`; CI's trend gate
//! fails the build when the screened median dirty-refresh latency
//! regresses more than 20% against the committed baseline speedup.

use arb_bench::json::JsonLine;
use arb_engine::{ArbitrageOpportunity, OpportunityPipeline, PipelineConfig, ShardedRuntime};
use arb_workloads::{find, Scenario, ScenarioConfig};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Instant;

const POOLS: usize = 600;
const TICKS: usize = 48;
/// Ticks treated as warmup before the scratch arena must stop growing.
const WARMUP_TICKS: usize = 8;

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

/// The shared engine configuration: a realistic gas cost + profit floor
/// (so the feed-priced profit-bound screen has a floor to discharge
/// against — baseline ~1-2% mispricings bound out around $5-20 per
/// cycle, whale-displaced cycles in the hundreds), serial evaluation to
/// isolate work reduction, and the screen toggled per path.
fn config(screen: bool) -> PipelineConfig {
    PipelineConfig {
        execution_cost_usd: 50.0,
        min_net_profit_usd: 10.0,
        parallel: false,
        top_k: Some(16),
        screen,
        ..PipelineConfig::default()
    }
}

fn assert_identical(workload: &str, a: &[ArbitrageOpportunity], b: &[ArbitrageOpportunity]) {
    assert_eq!(a.len(), b.len(), "{workload}: ranking sizes diverged");
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

struct Replay {
    per_tick_ns: Vec<u64>,
    final_ranking: Vec<ArbitrageOpportunity>,
    strategy_evaluations: usize,
    screened_out: usize,
    floor_screened: usize,
    screen_delta_updates: usize,
    screen_resummations: usize,
    scratch_grows_warm: usize,
}

/// Replays the full stream through one engine, timing each
/// `apply_events` (the dirty-refresh reaction) individually.
fn replay(scenario: &Scenario, screen: bool) -> Replay {
    let mut feed = scenario.feed.clone();
    let mut engine = ShardedRuntime::new(
        OpportunityPipeline::new(config(screen)),
        scenario.pools.clone(),
        1,
    )
    .expect("engine");
    engine.refresh(&feed).expect("cold start");
    let mut per_tick_ns = Vec::with_capacity(scenario.ticks.len());
    let mut final_ranking = Vec::new();
    let mut grows_at_warmup = 0usize;
    for (tick, batch) in scenario.ticks.iter().enumerate() {
        batch.apply_feed(&mut feed);
        let start = Instant::now();
        final_ranking = engine
            .apply_events(&batch.events, &feed)
            .expect("tick")
            .opportunities;
        per_tick_ns.push(start.elapsed().as_nanos() as u64);
        if tick + 1 == WARMUP_TICKS {
            grows_at_warmup = engine.stats().scratch_grow_events;
        }
    }
    let stats = *engine.stats();
    Replay {
        per_tick_ns,
        final_ranking,
        strategy_evaluations: stats.strategy_evaluations,
        screened_out: stats.cycles_screened_out,
        floor_screened: stats.cycles_floor_screened,
        screen_delta_updates: stats.screen_delta_updates,
        screen_resummations: stats.screen_resummations,
        scratch_grows_warm: stats.scratch_grow_events - grows_at_warmup,
    }
}

fn median_ns(samples: &[u64]) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

/// The asserted effectiveness pass for one workload. The speedup and
/// eval-reduction gates apply to `fee-regime-shift` (whale-bursts is
/// reported for the trend artifact — see the module docs for why its
/// monsters are unskippable); the zero-allocation gate applies to
/// `whale-bursts`, whose fixed universe and recurring burst shape *is* a
/// steady state (fee-regime-shift changes regime mid-run, so later
/// phases legitimately set new scratch high-water marks).
fn effectiveness(workload: &'static str, seed: u64, gate: bool) {
    let scenario = scenario(workload, seed);
    let screened = replay(&scenario, true);
    let unscreened = replay(&scenario, false);
    assert_identical(workload, &screened.final_ranking, &unscreened.final_ranking);

    let median_screened = median_ns(&screened.per_tick_ns);
    let median_unscreened = median_ns(&unscreened.per_tick_ns);
    let speedup = median_unscreened as f64 / median_screened.max(1) as f64;
    let evals_avoided = screened.screened_out + screened.floor_screened;
    let eval_reduction =
        1.0 - screened.strategy_evaluations as f64 / unscreened.strategy_evaluations.max(1) as f64;

    JsonLine::bench("screen_effectiveness")
        .text("workload", workload)
        .count("pools", POOLS)
        .count("ticks", TICKS)
        .int("median_dirty_refresh_ns_screened", median_screened)
        .int("median_dirty_refresh_ns_unscreened", median_unscreened)
        .fixed("speedup", speedup, 3)
        .count("evals_avoided", evals_avoided)
        .count("screened_out", screened.screened_out)
        .count("floor_screened", screened.floor_screened)
        .count("screen_updates", screened.screen_delta_updates)
        .count("screen_resummations", screened.screen_resummations)
        .count("strategy_evals_screened", screened.strategy_evaluations)
        .count("strategy_evals_unscreened", unscreened.strategy_evaluations)
        .fixed("eval_reduction", eval_reduction, 4)
        .count("scratch_grows_after_warmup", screened.scratch_grows_warm)
        .emit();

    if !gate {
        assert_eq!(
            screened.scratch_grows_warm, 0,
            "{workload}: the refresh fan-out scratch path must not \
             allocate after warmup"
        );
    }
    assert!(
        evals_avoided > 0,
        "{workload}: the screen never fired — effectiveness is vacuous"
    );
    if gate {
        assert!(
            speedup >= 2.0,
            "{workload}: screened median dirty-refresh must be >=2x \
             faster, measured {speedup:.3}x \
             ({median_screened}ns vs {median_unscreened}ns)"
        );
        assert!(
            eval_reduction >= 0.80,
            "{workload}: the screen must avoid >=80% of strategy \
             evaluations, measured {:.1}% ({} vs {})",
            eval_reduction * 100.0,
            screened.strategy_evaluations,
            unscreened.strategy_evaluations
        );
    }
}

fn screen_effectiveness_pass(_c: &mut Criterion) {
    effectiveness("fee-regime-shift", 77_002, true);
    effectiveness("whale-bursts", 77_001, false);
}

/// Wall-clock criterion group for the per-tick reaction, cycling the
/// whale-bursts stream (it emits only absolute syncs + feed moves, so
/// replaying is state-safe; fee-regime-shift deploys pools and cannot be
/// cycled).
fn bench_dirty_refresh(c: &mut Criterion) {
    let scenario = scenario("whale-bursts", 77_001);
    let mut group = c.benchmark_group("screen_effectiveness/dirty_refresh");
    group.sample_size(10);
    for (label, screen) in [("screened", true), ("unscreened", false)] {
        let mut feed = scenario.feed.clone();
        let mut engine = ShardedRuntime::new(
            OpportunityPipeline::new(config(screen)),
            scenario.pools.clone(),
            1,
        )
        .expect("engine");
        engine.refresh(&feed).expect("cold start");
        let mut tick = 0usize;
        group.bench_with_input(BenchmarkId::new(label, POOLS), &(), |b, ()| {
            b.iter(|| {
                let batch = &scenario.ticks[tick % TICKS];
                tick += 1;
                batch.apply_feed(&mut feed);
                black_box(
                    engine
                        .apply_events(&batch.events, &feed)
                        .unwrap()
                        .opportunities
                        .len(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dirty_refresh, screen_effectiveness_pass);
criterion_main!(benches);
