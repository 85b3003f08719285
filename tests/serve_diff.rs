//! Diff-stream reconstruction oracle.
//!
//! A subscriber that attaches mid-run and applies every delta it is
//! pushed must hold, at all times, a ranking bit-identical to the
//! latest published [`RankedSnapshot`] — including across pool
//! creation and a checkpoint/restore (the runtime's revision counter restarts, the
//! publisher re-anchors, readers and subscriptions stay attached).

use arbloops::prelude::*;
use arbloops::serve::{apply, GovernorConfig, Publisher, SubscriptionUpdate};
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

/// Drives one workload through a serving runtime with a mid-run
/// subscriber, applying deltas every tick and checkpoint/restoring at
/// `restore_at`. Returns the number of deltas applied.
fn replay(workload: &'static str, config: &ScenarioConfig) -> usize {
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
    let mut subscription = None;
    let mut view: Vec<ArbitrageOpportunity> = Vec::new();
    let mut deltas_applied = 0usize;

    for (tick, batch) in scenario.ticks.iter().enumerate() {
        if tick == subscribe_at {
            // Attach mid-run: the first poll resyncs to the current
            // snapshot, from which deltas alone must suffice.
            let mut sub = publisher.subscribe();
            let SubscriptionUpdate::Resync(base) = sub.poll() else {
                panic!("first poll must resync");
            };
            view = base.entries().to_vec();
            subscription = Some(sub);
        }
        if tick == restore_at {
            // Checkpoint/restore the compute side; the serving side
            // (cell, handles, subscription) survives the swap.
            let checkpoint = runtime.checkpoint();
            runtime = ShardedRuntime::restore(OpportunityPipeline::default(), &checkpoint)
                .expect("restore");
            publisher.reanchor();
        }
        batch.apply_feed(&mut feed);
        step(&mut runtime, &mut publisher, &batch.events, &feed);

        if let Some(sub) = subscription.as_mut() {
            match sub.poll() {
                SubscriptionUpdate::Current => {}
                SubscriptionUpdate::Deltas(chain) => {
                    for delta in chain {
                        view = apply(&view, &delta).expect("delta applies");
                        deltas_applied += 1;
                    }
                }
                SubscriptionUpdate::Resync(_) => {
                    panic!("{workload} tick {tick}: per-tick polling must never fall behind")
                }
            }
            // The reconstructed view is bit-identical to the latest
            // published snapshot, every tick.
            let published = handle.load();
            assert_eq!(
                fingerprint(&view),
                fingerprint(published.entries()),
                "{workload} tick {tick}: delta reconstruction diverged"
            );
            assert_eq!(sub.seen_revision(), Some(published.revision()));
        }
    }

    deltas_applied
}

#[test]
fn deltas_reconstruct_across_rebuild_and_restore() {
    let mut total_deltas = 0usize;
    for (i, spec) in arbloops::workloads::catalog().iter().enumerate() {
        let mut config = config(4_242 + i as u64);
        if spec.name == "pool-churn" {
            // Bridge pools arrive late in the churn stream: run long
            // enough to apply them.
            config.ticks = 48;
        }
        total_deltas += replay(spec.name, &config);
    }
    assert!(
        total_deltas > 0,
        "no deltas ever streamed — the reconstruction claim is vacuous"
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
    let noops_before = publisher.stats().noop_deltas;
    step(&mut runtime, &mut publisher, &[], &feed);
    assert_eq!(publisher.revision(), revision_before + 1);
    assert_eq!(
        publisher.stats().noop_deltas,
        noops_before + 1,
        "a bit-identical restore must publish a noop delta"
    );
    let SubscriptionUpdate::Deltas(chain) = sub.poll() else {
        panic!("the re-anchor publish must stream to subscribers");
    };
    assert_eq!(chain.len(), 1);
    assert!(chain[0].is_noop());
    let view = apply(base.entries(), &chain[0]).expect("noop applies");
    assert_eq!(fingerprint(&view), fingerprint(base.entries()));

    // And ticking on from the restored runtime keeps streaming real deltas.
    let mut moved = false;
    let mut view = view;
    for batch in &scenario.ticks {
        batch.apply_feed(&mut feed);
        step(&mut runtime, &mut publisher, &batch.events, &feed);
        if let SubscriptionUpdate::Deltas(chain) = sub.poll() {
            for delta in chain {
                moved |= !delta.is_noop();
                view = apply(&view, &delta).expect("delta applies");
            }
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
