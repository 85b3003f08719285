//! The durability subsystem's correctness oracle.
//!
//! For every workload in the catalog, a journaled runtime is
//! crash-killed mid-stream at a seeded random event offset: events up to
//! the kill are durably journaled (with periodic snapshots + segment
//! compaction, exactly like the production loop), and the in-memory
//! runtime is then dropped. Recovery must rebuild a runtime whose ranked
//! output is **bit-identical** to an uninterrupted run at the same
//! point, must keep agreeing tick by tick through the rest of the
//! scenario, and must have replayed strictly fewer events than a genesis
//! replay would (the snapshot actually paid for itself) — asserted via
//! `RecoveryStats`.

mod support;

use arbloops::prelude::*;
use arbloops::workloads::ScenarioConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use support::TestDir;

/// Asserts ranked-output equality, bit for bit, position by position.
fn assert_reports_identical(
    context: &str,
    recovered: &[ArbitrageOpportunity],
    expected: &[ArbitrageOpportunity],
) {
    assert_eq!(
        recovered.len(),
        expected.len(),
        "{context}: opportunity counts diverged"
    );
    for (position, (r, e)) in recovered.iter().zip(expected).enumerate() {
        let context = format!("{context} position {position}");
        assert_eq!(r.cycle.tokens(), e.cycle.tokens(), "{context}: tokens");
        assert_eq!(r.cycle.pools(), e.cycle.pools(), "{context}: pools");
        assert_eq!(r.strategy, e.strategy, "{context}: strategy");
        assert_eq!(
            r.gross_profit.value().to_bits(),
            e.gross_profit.value().to_bits(),
            "{context}: gross profit"
        );
        assert_eq!(
            r.net_profit.value().to_bits(),
            e.net_profit.value().to_bits(),
            "{context}: net profit"
        );
    }
}

/// Journals one workload up to a seeded kill offset (checkpointing and
/// compacting along the way), crashes, recovers, and holds recovery to
/// the uninterrupted run — at the kill point and through every
/// remaining tick.
fn crash_and_recover(workload: &'static str, seed: u64) {
    let config = ScenarioConfig {
        seed,
        domains: 4,
        num_tokens: 20,
        num_pools: 40,
        ticks: 24,
        intensity: 1.0,
    };
    let spec = arbloops::workloads::find(workload).expect("workload in catalog");
    let scenario = spec.scenario(&config).expect("scenario generates");
    let total = scenario.total_events();
    assert!(total >= 12, "{workload}: scenario too small to crash-test");

    // The seeded kill offset: late enough that a checkpoint exists,
    // strictly inside the stream so the crash interrupts real work.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6a6f_7572);
    let kill = rng.gen_range(total / 3..total);
    let checkpoint_every = (total / 6).max(1);

    let scratch = TestDir::new(workload);
    let pipeline = OpportunityPipeline::default;

    // --- the doomed process: journal + checkpoint until the kill -------
    let mut writer = JournalWriter::open(scratch.path(), JournalConfig::default()).unwrap();
    let store = SnapshotStore::new(scratch.path()).unwrap();
    let mut doomed = ShardedRuntime::new(pipeline(), scenario.pools.clone(), 4).unwrap();
    let mut feed = scenario.feed.clone();
    let mut written = 0usize;
    let mut since_checkpoint = 0usize;
    let mut checkpoints = 0usize;
    for batch in &scenario.ticks {
        batch.apply_feed(&mut feed);
        if written + batch.events.len() >= kill {
            // The crash lands inside this tick: only the events below
            // the kill offset reach the (durable) journal; the engine
            // state is about to be lost anyway.
            writer.append_batch(&batch.events[..kill - written]);
            writer.commit().unwrap();
            break;
        }
        writer.append_batch(&batch.events);
        writer.commit().unwrap();
        written += batch.events.len();
        doomed.apply_events(&batch.events, &feed).unwrap();
        since_checkpoint += batch.events.len();
        if since_checkpoint >= checkpoint_every {
            store.write(written as u64, &doomed.checkpoint()).unwrap();
            writer.compact_below(written as u64).unwrap();
            since_checkpoint = 0;
            checkpoints += 1;
        }
    }
    assert!(
        checkpoints > 0,
        "{workload}: no checkpoint before the kill — recovery would be \
         vacuous (kill {kill}, every {checkpoint_every})"
    );
    drop(writer);
    drop(doomed); // 💥 crash: all in-memory engine state is gone

    // --- recovery ------------------------------------------------------
    let recovered = Recovery::new(scratch.path(), pipeline(), 4)
        .with_genesis_pools(scenario.pools.clone())
        .with_genesis_feed(feed.clone())
        .recover_journaled()
        .unwrap();
    let stats = recovered.stats;
    assert_eq!(stats.journal_tail, kill as u64, "{workload}");
    let snapshot_offset = stats.snapshot_offset.expect("checkpoint existed") as usize;
    assert_eq!(
        snapshot_offset + stats.events_replayed,
        kill,
        "{workload}: replay must cover exactly snapshot..kill"
    );
    assert!(
        stats.events_replayed < kill,
        "{workload}: snapshot recovery must replay strictly fewer events \
         than a genesis replay ({stats})"
    );
    let line = stats.to_string();
    assert!(line.contains("snapshot@"), "{line}");

    // --- the uninterrupted oracle at the kill point --------------------
    // Standing rankings are a pure function of (state, feed) after a
    // refresh, so the oracle may replay the prefix under the kill-time
    // feed in one batch.
    let flat: Vec<Event> = scenario
        .ticks
        .iter()
        .flat_map(|t| t.events.iter().copied())
        .take(kill)
        .collect();
    let mut oracle = ShardedRuntime::new(pipeline(), scenario.pools.clone(), 4).unwrap();
    let expected = oracle.apply_events(&flat, &feed).unwrap();
    let mut recovered_runtime = recovered.runtime;
    let restored = recovered_runtime.refresh(&feed).unwrap();
    assert_reports_identical(
        &format!("{workload} @kill {kill}"),
        &restored.opportunities,
        &expected.opportunities,
    );

    // --- and they stay identical for the rest of the scenario ----------
    let kill_tick = {
        let mut consumed = 0usize;
        scenario
            .ticks
            .iter()
            .position(|batch| {
                consumed += batch.events.len();
                consumed >= kill
            })
            .unwrap_or(scenario.ticks.len())
    };
    let before_kill_tick: usize = scenario.ticks[..kill_tick]
        .iter()
        .map(|t| t.events.len())
        .sum();
    let mut nonempty_ticks = 0usize;
    let mut consumed = kill;
    for (index, batch) in scenario.ticks.iter().enumerate().skip(kill_tick) {
        let events: &[Event] = if index == kill_tick {
            // Feed moves for this tick were applied pre-crash; serve the
            // events the crash cut off.
            &batch.events[kill - before_kill_tick..]
        } else {
            batch.apply_feed(&mut feed);
            &batch.events
        };
        consumed += events.len();
        let expected = oracle.apply_events(events, &feed).unwrap();
        let got = recovered_runtime.apply_events(events, &feed).unwrap();
        assert_reports_identical(
            &format!("{workload} tick {index}"),
            &got.opportunities,
            &expected.opportunities,
        );
        if !got.opportunities.is_empty() {
            nonempty_ticks += 1;
        }
    }
    assert_eq!(consumed, total, "{workload}: every event was replayed");
    assert!(
        nonempty_ticks > 0 || !restored.opportunities.is_empty(),
        "{workload}: the equivalence never saw a standing opportunity — vacuous"
    );
}

#[test]
fn steady_sparse_recovers_bit_identically() {
    crash_and_recover("steady-sparse", 1_101);
}

#[test]
fn whale_bursts_recovers_bit_identically() {
    crash_and_recover("whale-bursts", 2_202);
}

#[test]
fn fee_regime_shift_recovers_bit_identically() {
    crash_and_recover("fee-regime-shift", 3_303);
}

#[test]
fn pool_churn_recovers_bit_identically() {
    crash_and_recover("pool-churn", 4_404);
}

#[test]
fn degenerate_flood_recovers_bit_identically() {
    crash_and_recover("degenerate-flood", 5_505);
}
