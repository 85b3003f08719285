//! Diff-stream reconstruction oracle.
//!
//! A subscriber that attaches mid-run and applies every delta it polls
//! must hold, after each poll, a ranking bit-identical to the latest
//! published [`RankedSnapshot`] — whether it polls every tick or only
//! every few ticks, and including across pool creation and a
//! checkpoint/restore (the runtime's revision counter restarts, the
//! publisher re-anchors, readers and subscriptions stay attached).

use arbloops::prelude::*;
use arbloops::serve::{apply, GovernorConfig, Publisher, Subscription, SubscriptionUpdate};
use arbloops::workloads::ScenarioConfig;

type Fingerprint = Vec<(Vec<PoolId>, String, u64)>;

fn fingerprint(entries: &[ArbitrageOpportunity]) -> Fingerprint {
    entries
        .iter()
        .map(|opp| {
            (
                opp.cycle.pools().to_vec(),
                opp.strategy.to_string(),
                opp.net_profit.value().to_bits(),
            )
        })
        .collect()
}

/// Applies one event batch and publishes the ranking if the runtime's
/// standing revision moved.
fn step(
    runtime: &mut ShardedRuntime,
    publisher: &mut Publisher,
    events: &[Event],
    feed: &PriceTable,
) -> RuntimeReport {
    let report = runtime.apply_events(events, feed).expect("tick");
    publisher.publish_if_changed(runtime.standing_revision(), &report.opportunities);
    report
}

fn config(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        domains: 4,
        num_tokens: 20,
        num_pools: 40,
        ticks: 24,
        intensity: 1.0,
    }
}

/// Ticks between polls of the slow subscriber in [`replay`].
const SLOW_POLL: usize = 5;

/// What one [`replay`] streamed.
#[derive(Default)]
struct Streamed {
    /// Deltas applied by either subscriber.
    deltas: usize,
    /// Deltas that spanned more than one publish.
    spanning: usize,
}

/// Drives one workload through a serving runtime with two mid-run
/// subscribers, one polling every tick and one every [`SLOW_POLL`]th
/// tick, and checkpoint/restores at `restore_at`.
fn replay(workload: &'static str, config: &ScenarioConfig) -> Streamed {
    let spec = arbloops::workloads::find(workload).expect("workload in catalog");
    let scenario = spec.scenario(config).expect("scenario generates");
    let mut feed = scenario.feed.clone();
    let subscribe_at = scenario.ticks.len() / 4;
    let restore_at = scenario.ticks.len() / 2;

    let mut runtime =
        ShardedRuntime::new(OpportunityPipeline::default(), scenario.pools.clone(), 4)
            .expect("runtime");
    let mut publisher = Publisher::new(GovernorConfig::default());
    step(&mut runtime, &mut publisher, &[], &feed);

    let handle = publisher.handle(arbloops::serve::ClientClass::Analytics);
    // (subscription, its view, ticks between its polls)
    let mut subscribers: Vec<(Subscription, Vec<ArbitrageOpportunity>, usize)> = Vec::new();
    let mut streamed = Streamed::default();

    for (tick, batch) in scenario.ticks.iter().enumerate() {
        if tick == subscribe_at {
            // Attach mid-run: the first poll resyncs to the current
            // snapshot, from which deltas alone must suffice.
            for every in [1, SLOW_POLL] {
                let mut sub = publisher.subscribe();
                let SubscriptionUpdate::Resync(base) = sub.poll() else {
                    panic!("first poll must resync");
                };
                subscribers.push((sub, base.entries().to_vec(), every));
            }
        }
        if tick == restore_at {
            // Checkpoint/restore the compute side; the serving side
            // (cell, handles, subscriptions) survives the swap.
            let checkpoint = runtime.checkpoint();
            runtime = ShardedRuntime::restore(OpportunityPipeline::default(), &checkpoint)
                .expect("restore");
            publisher.reanchor();
        }
        batch.apply_feed(&mut feed);
        step(&mut runtime, &mut publisher, &batch.events, &feed);

        for (sub, view, every) in &mut subscribers {
            if !(tick - subscribe_at).is_multiple_of(*every) {
                continue;
            }
            match sub.poll() {
                SubscriptionUpdate::Current => {}
                SubscriptionUpdate::Delta(delta) => {
                    *view = apply(view, &delta).expect("delta applies");
                    streamed.deltas += 1;
                    streamed.spanning += usize::from(delta.to_revision > delta.from_revision + 1);
                }
                SubscriptionUpdate::Resync(_) => {
                    panic!("{workload} tick {tick}: only the first poll may resync")
                }
            }
            // The reconstructed view is bit-identical to the latest
            // published snapshot on every tick the subscriber polls.
            let published = handle.load();
            assert_eq!(
                fingerprint(view),
                fingerprint(published.entries()),
                "{workload} tick {tick}: delta reconstruction diverged (polling every {every})"
            );
            assert_eq!(sub.seen_revision(), Some(published.revision()));
        }
    }

    streamed
}

#[test]
fn deltas_reconstruct_across_rebuild_and_restore() {
    let mut total = Streamed::default();
    for (i, spec) in arbloops::workloads::catalog().iter().enumerate() {
        let mut config = config(4_242 + i as u64);
        if spec.name == "pool-churn" {
            // Bridge pools arrive late in the churn stream: run long
            // enough to apply them.
            config.ticks = 48;
        }
        let streamed = replay(spec.name, &config);
        total.deltas += streamed.deltas;
        total.spanning += streamed.spanning;
    }
    assert!(
        total.deltas > 0,
        "no deltas ever streamed — the reconstruction claim is vacuous"
    );
    assert!(
        total.spanning > 0,
        "no delta spanned several publishes — the slow subscriber is vacuous"
    );
}

/// The restore must also hold when the subscriber attaches *before* the
/// checkpoint and the ranking is actively changing around it: the
/// publisher re-anchor forces a publish whose delta is usually a noop
/// (the restored runtime reproduces the ranking bit-for-bit).
#[test]
fn restore_publishes_a_noop_delta_when_ranking_is_stable() {
    let spec = arbloops::workloads::find("steady-sparse").expect("in catalog");
    let scenario = spec.scenario(&config(7_777)).expect("scenario");
    let mut feed = scenario.feed.clone();
    let mut runtime =
        ShardedRuntime::new(OpportunityPipeline::default(), scenario.pools.clone(), 4)
            .expect("runtime");
    let mut publisher = Publisher::new(GovernorConfig::default());
    step(&mut runtime, &mut publisher, &[], &feed);
    let revision_before = publisher.revision();

    // Restore with no intervening events: the refresh after restore
    // must re-publish (re-anchored) and the delta must be a noop.
    let checkpoint = runtime.checkpoint();
    let mut runtime =
        ShardedRuntime::restore(OpportunityPipeline::default(), &checkpoint).expect("restore");
    publisher.reanchor();
    let mut sub = publisher.subscribe();
    let SubscriptionUpdate::Resync(base) = sub.poll() else {
        panic!("first poll must resync");
    };
    step(&mut runtime, &mut publisher, &[], &feed);
    assert_eq!(publisher.revision(), revision_before + 1);
    let SubscriptionUpdate::Delta(delta) = sub.poll() else {
        panic!("the re-anchor publish must stream to subscribers");
    };
    assert_eq!(delta.to_revision, delta.from_revision + 1);
    assert!(
        delta.is_noop(),
        "a bit-identical restore must publish a noop delta"
    );
    let view = apply(base.entries(), &delta).expect("noop applies");
    assert_eq!(fingerprint(&view), fingerprint(base.entries()));

    // And ticking on from the restored runtime keeps streaming real deltas.
    let mut moved = false;
    let mut view = view;
    for batch in &scenario.ticks {
        batch.apply_feed(&mut feed);
        step(&mut runtime, &mut publisher, &batch.events, &feed);
        if let SubscriptionUpdate::Delta(delta) = sub.poll() {
            moved |= !delta.is_noop();
            view = apply(&view, &delta).expect("delta applies");
        }
    }
    let final_snapshot = publisher.handle(arbloops::serve::ClientClass::Bulk).load();
    assert_eq!(fingerprint(&view), fingerprint(final_snapshot.entries()));
    assert!(moved, "the tick stream never produced a real delta");
}

/// Opportunities are shared immutable handles, so they may cross the
/// serve layer's reader threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ArbitrageOpportunity>();
};

/// A tick whose events touch only the top entry's pools leaves every
/// entry on other pools shared, not copied: the ranking carries the very
/// same handles as the previous tick's, and the published delta
/// re-ships none of them.
#[test]
fn untouched_shards_share_their_entries_across_a_tick() {
    let spec = arbloops::workloads::find("steady-sparse").expect("in catalog");
    let scenario = spec.scenario(&config(9_191)).expect("scenario");
    let feed = scenario.feed.clone();
    let mut runtime =
        ShardedRuntime::new(OpportunityPipeline::default(), scenario.pools.clone(), 4)
            .expect("runtime");
    let mut publisher = Publisher::new(GovernorConfig::default());
    let before = step(&mut runtime, &mut publisher, &[], &feed).opportunities;
    let touched: Vec<PoolId> = before
        .first()
        .expect("a ranked opportunity")
        .cycle
        .pools()
        .to_vec();
    let touches =
        |opp: &ArbitrageOpportunity| opp.cycle.pools().iter().any(|pool| touched.contains(pool));

    // Reserve updates from the scenario, kept only for the top entry's
    // pools; the feed stays put, so no other cycle is dirtied.
    let events: Vec<Event> = scenario
        .ticks
        .iter()
        .flat_map(|batch| &batch.events)
        .filter(|event| matches!(event, Event::Sync { pool, .. } if touched.contains(pool)))
        .cloned()
        .collect();
    assert!(
        !events.is_empty(),
        "the top entry's pools saw no reserve updates"
    );

    let handle = publisher.handle(arbloops::serve::ClientClass::Bulk);
    let base = handle.load();
    let after = step(&mut runtime, &mut publisher, &events, &feed).opportunities;
    let next = handle.load();
    assert!(
        next.revision() > base.revision(),
        "the touched entries' ranking never moved"
    );

    let untouched: Vec<&ArbitrageOpportunity> = after.iter().filter(|opp| !touches(opp)).collect();
    assert!(!untouched.is_empty(), "no untouched entry ranks");
    for opp in &untouched {
        let prev = before
            .iter()
            .find(|prev| prev.cycle == opp.cycle)
            .expect("an untouched entry stays ranked");
        assert!(
            ArbitrageOpportunity::ptr_eq(prev, opp),
            "an untouched entry was copied instead of shared"
        );
    }

    let delta = arbloops::serve::diff(
        base.revision(),
        base.entries(),
        next.revision(),
        next.entries(),
    );
    assert!(
        delta.upserts.iter().all(|(_, opp)| touches(opp)),
        "the delta re-ships an untouched entry"
    );
    assert_eq!(
        fingerprint(&apply(base.entries(), &delta).expect("delta applies")),
        fingerprint(next.entries())
    );
}
