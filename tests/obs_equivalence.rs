//! The observability layer's correctness oracle: instrumentation must
//! be a pure observer.
//!
//! Two runs of the same seeded scenario — one with `arb-obs` wired in,
//! one without — must make bit-identical decisions and report identical
//! legacy stats, for a bot with and without a journal. And the
//! instrumented run's exported registry snapshot must reproduce the
//! legacy `RuntimeStats` / `IngestStats` displays counter for counter:
//! the migration kept the old structs as the source of truth, so the
//! registry is a mirror, never a fork.

mod support;

use arbloops::bot::BotAction;
use arbloops::prelude::*;
use support::TestDir;

fn t(i: u32) -> TokenId {
    TokenId::new(i)
}

fn paper_chain() -> Chain {
    let mut chain = Chain::new();
    let fee = FeeRate::UNISWAP_V2;
    chain
        .add_pool(t(0), t(1), to_raw(100.0), to_raw(200.0), fee)
        .unwrap();
    chain
        .add_pool(t(1), t(2), to_raw(300.0), to_raw(200.0), fee)
        .unwrap();
    chain
        .add_pool(t(2), t(0), to_raw(200.0), to_raw(400.0), fee)
        .unwrap();
    chain
}

fn paper_feed() -> PriceTable {
    [(t(0), 2.0), (t(1), 10.2), (t(2), 20.0)]
        .into_iter()
        .collect()
}

/// One whale-perturbed block: deterministic swap, mine, decide, mine.
/// Returns the decision reduced to comparable bits.
fn perturb_and_mine(chain: &mut Chain, whale: AccountId, block: usize) {
    chain.submit(Transaction::Swap {
        account: whale,
        pool: PoolId::new(0),
        token_in: t(0),
        amount_in: to_raw(2.0 + block as f64),
        min_out: 0,
    });
    chain.mine_block();
}

type AccountId = arbloops::dexsim::state::AccountId;

fn action_bits(action: &BotAction) -> Option<(u64, usize)> {
    match action {
        BotAction::Idle => None,
        BotAction::Submitted { expected, hops } => Some((expected.value().to_bits(), *hops)),
    }
}

const BLOCKS: usize = 8;

/// The counters of `stats`, with the wall-clock fields zeroed so two
/// runs compare equal.
fn runtime_counters(stats: &RuntimeStats) -> RuntimeStats {
    RuntimeStats {
        last_merge_nanos: 0,
        total_merge_nanos: 0,
        last_tick_nanos: 0,
        total_tick_nanos: 0,
        ..*stats
    }
}

/// Asserts every `runtime.*` instrument in `snapshot` equals its
/// `RuntimeStats` source field.
fn assert_runtime_stats_mirrored(snapshot: &RegistrySnapshot, stats: &RuntimeStats) {
    assert_eq!(
        snapshot.counter("runtime.ticks"),
        Some(stats.ticks as u64),
        "runtime.ticks diverged from RuntimeStats"
    );
    assert_eq!(
        snapshot.gauge("runtime.merged_opportunities"),
        Some(stats.merged_opportunities as f64)
    );
}

/// Asserts every `ingest.*` instrument in `snapshot` equals its
/// `IngestStats` source field.
fn assert_ingest_stats_mirrored(snapshot: &RegistrySnapshot, stats: &IngestStats) {
    let expected: [(&str, u64); 7] = [
        ("ingest.events_in", stats.events_in),
        ("ingest.events_out", stats.events_out),
        ("ingest.coalesced_away", stats.coalesced_away),
        ("ingest.batches_sealed", stats.batches_sealed),
        ("ingest.batches_delivered", stats.batches_delivered),
        ("ingest.degraded_merges", stats.degraded_merges),
        ("ingest.depth_high_water", stats.depth_high_water as u64),
    ];
    for (metric, legacy) in expected {
        assert_eq!(
            snapshot.counter(metric),
            Some(legacy),
            "{metric} diverged from IngestStats"
        );
    }
    assert_eq!(
        snapshot.gauge("ingest.coalesce_ratio"),
        Some(stats.coalesce_ratio())
    );
}

#[test]
fn bot_obs_mirrors_runtime_and_ingest_stats_without_perturbing_decisions() {
    let run = |instrument: bool| {
        let mut chain = paper_chain();
        let mut bot = ArbBot::new(&mut chain, &paper_feed(), BotConfig::default()).unwrap();
        let whale = chain.create_account();
        chain.mint(whale, t(0), to_raw(1_000.0));
        if instrument {
            bot.enable_observability(ObsConfig::default());
        }
        let mut actions = Vec::new();
        for block in 0..BLOCKS {
            perturb_and_mine(&mut chain, whale, block);
            let action = bot
                .step(&mut chain, &[(t(1), 10.2 + 0.05 * block as f64)])
                .unwrap();
            actions.push(action_bits(&action));
            chain.mine_block();
        }
        let runtime = *bot.runtime().stats();
        let screen = bot.runtime().screen_totals();
        let ingest = bot.ingest_stats();
        let snapshot = bot.obs().map(|obs| obs.snapshot());
        let metrics = bot.metrics();
        (actions, runtime, screen, ingest, snapshot, metrics)
    };

    let (plain_actions, plain_runtime, plain_screen, plain_ingest, none_snapshot, none_metrics) =
        run(false);
    assert!(none_snapshot.is_none() && none_metrics.is_none());
    let (obs_actions, obs_runtime, obs_screen, obs_ingest, snapshot, metrics) = run(true);

    // The observer observed: decisions and legacy stats are untouched.
    assert_eq!(
        plain_actions, obs_actions,
        "instrumentation changed decisions"
    );
    assert_eq!(
        runtime_counters(&plain_runtime),
        runtime_counters(&obs_runtime),
        "instrumentation changed RuntimeStats"
    );
    assert_eq!(
        plain_screen, obs_screen,
        "instrumentation changed ScreenTotals"
    );
    assert_eq!(
        plain_ingest, obs_ingest,
        "instrumentation changed IngestStats"
    );
    assert_eq!(obs_runtime.ticks, BLOCKS, "one sealed block per step");
    assert!(obs_screen.strategy_evaluations > 0);

    // One exported snapshot reproduces the legacy displays.
    let snapshot = snapshot.unwrap();
    assert_runtime_stats_mirrored(&snapshot, &obs_runtime);
    assert_ingest_stats_mirrored(&snapshot, &obs_ingest);
    assert_eq!(
        snapshot.counter("engine.strategy_evaluations"),
        Some(obs_screen.strategy_evaluations as u64),
        "engine.* mirrors the engine"
    );
    assert_eq!(
        snapshot.histogram("runtime.tick_ns").unwrap().count,
        BLOCKS as u64,
        "one tick span per step"
    );
    assert_eq!(snapshot.counter("bot.steps"), Some(BLOCKS as u64));

    // And the pull surface renders the same numbers.
    let metrics = metrics.unwrap();
    assert!(metrics.contains(&format!("runtime_ticks {BLOCKS}\n")));
    assert!(metrics.contains(&format!("bot_steps {BLOCKS}\n")));
}

#[test]
fn ingest_bot_registry_reproduces_ingest_stats_without_perturbing_decisions() {
    let run = |instrument: bool, scratch: &TestDir| {
        let mut chain = paper_chain();
        let whale = chain.create_account();
        chain.mint(whale, t(0), to_raw(1_000.0));
        let mut bot = ArbBot::attach(
            &mut chain,
            &paper_feed(),
            BotConfig::default(),
            JournalSettings::new(scratch.path()),
            IngestConfig::default(),
        )
        .unwrap();
        if instrument {
            bot.enable_observability(ObsConfig {
                // Keep this run's hook out of the process: hooks are
                // global and another test binary owns that behavior.
                panic_dump_dir: Some(scratch.path().join("unused-dump-dir")),
                ..ObsConfig::default()
            });
        }
        let mut actions = Vec::new();
        for block in 0..BLOCKS {
            perturb_and_mine(&mut chain, whale, block);
            let action = bot
                .step(&mut chain, &[(t(1), 10.2 + 0.05 * block as f64)])
                .unwrap();
            actions.push(action_bits(&action));
            chain.mine_block();
        }
        let stats = bot.ingest_stats();
        let batches = bot.driver().batches_applied();
        let snapshot = bot.obs().map(|obs| obs.snapshot());
        (actions, stats, batches, snapshot)
    };

    let plain_scratch = TestDir::new("plain");
    let obs_scratch = TestDir::new("obs");
    let (plain_actions, plain_stats, plain_batches, _) = run(false, &plain_scratch);
    let (obs_actions, obs_stats, obs_batches, snapshot) = run(true, &obs_scratch);

    assert_eq!(
        plain_actions, obs_actions,
        "instrumentation changed decisions"
    );
    assert_eq!(
        plain_stats, obs_stats,
        "instrumentation changed IngestStats"
    );
    assert_eq!(plain_batches, obs_batches);
    assert!(obs_stats.events_in > 0, "scenario exercised the front-end");

    let snapshot = snapshot.unwrap();
    assert_ingest_stats_mirrored(&snapshot, &obs_stats);
    // Every applied batch timed one apply span and one e2e latency.
    assert_eq!(
        snapshot.histogram("ingest.apply_ns").unwrap().count,
        obs_batches
    );
    assert_eq!(
        snapshot.histogram("ingest.e2e_ns").unwrap().count,
        obs_batches
    );
}
