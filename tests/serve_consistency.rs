//! Concurrent snapshot-consistency oracle for the serving layer.
//!
//! Reader threads race a publishing runtime across every workload in
//! the catalog and must only ever observe:
//!
//! * **complete snapshots** — coherent indexes, every query answerable
//!   from the frozen ranking (torn reads are impossible by
//!   construction; this verifies it);
//! * **monotonically non-decreasing revisions** — a reader never
//!   travels back in time;
//! * **bit-identical rankings** — at every revision, the published
//!   entries match the single-engine oracle fingerprint recorded for
//!   that revision before it was swapped in, and every point query
//!   (`top_k`, `by_token`, `by_pool`, `min_net_profit`) agrees with a
//!   brute-force scan of those entries.
//!
//! The writer drives the runtime tick by tick, checks it
//! against a single [`StreamingEngine`], records the fingerprint the
//! next serve revision must carry, and only then publishes — so any
//! reader observing revision `r` can demand the recorded fingerprint.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use arbloops::prelude::*;
use arbloops::serve::{ClassLimit, GovernorConfig, Publisher, RankedSnapshot};
use arbloops::workloads::{QueryOp, ReadStormProfile, ScenarioConfig};

const READERS: usize = 3;

/// A thread-portable bit-exact digest of one ranking.
type Fingerprint = Vec<(Vec<TokenId>, Vec<PoolId>, String, u64, u64)>;

fn fingerprint(entries: &[ArbitrageOpportunity]) -> Fingerprint {
    entries
        .iter()
        .map(|opp| {
            (
                opp.cycle.tokens().to_vec(),
                opp.cycle.pools().to_vec(),
                opp.strategy.to_string(),
                opp.gross_profit.value().to_bits(),
                opp.net_profit.value().to_bits(),
            )
        })
        .collect()
}

/// Every point query must agree with a brute-force scan of the
/// snapshot's own entries — the queries are views, never recomputations.
fn check_queries(snapshot: &RankedSnapshot, ops: &[QueryOp]) {
    let entries = snapshot.entries();
    for op in ops {
        match *op {
            QueryOp::TopK(k) => {
                assert_eq!(snapshot.top_k(k).len(), k.min(entries.len()));
                for (a, b) in snapshot.top_k(k).iter().zip(entries) {
                    assert_eq!(
                        a.net_profit.value().to_bits(),
                        b.net_profit.value().to_bits(),
                        "top_k must be a ranking prefix"
                    );
                }
            }
            QueryOp::ByToken(token) => {
                let got: Vec<&ArbitrageOpportunity> = snapshot.by_token(token).collect();
                let expected: Vec<&ArbitrageOpportunity> = entries
                    .iter()
                    .filter(|opp| opp.cycle.tokens().contains(&token))
                    .collect();
                assert_eq!(got.len(), expected.len());
                for (a, b) in got.iter().zip(&expected) {
                    assert_eq!(a.cycle.pools(), b.cycle.pools());
                }
            }
            QueryOp::ByPool(pool) => {
                let got: Vec<&ArbitrageOpportunity> = snapshot.by_pool(pool).collect();
                let expected: Vec<&ArbitrageOpportunity> = entries
                    .iter()
                    .filter(|opp| opp.cycle.pools().contains(&pool))
                    .collect();
                assert_eq!(got.len(), expected.len());
                for (a, b) in got.iter().zip(&expected) {
                    assert_eq!(a.cycle.tokens(), b.cycle.tokens());
                }
            }
            QueryOp::MinNetProfit(floor) => {
                let got: Vec<&ArbitrageOpportunity> = snapshot.min_net_profit(floor).collect();
                assert_eq!(
                    got.len(),
                    entries
                        .iter()
                        .filter(|opp| opp.net_profit.value() >= floor)
                        .count()
                );
                for pair in got.windows(2) {
                    assert!(
                        pair[0].net_profit.value() >= pair[1].net_profit.value(),
                        "min_net_profit must yield descending net profit"
                    );
                }
            }
        }
    }
}

fn storm_config(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        domains: 4,
        num_tokens: 20,
        num_pools: 40,
        ticks: 16,
        intensity: 1.0,
    }
}

/// Rates high enough that the governed path never starves the test,
/// while still exercising admission accounting on every read.
fn open_governor() -> GovernorConfig {
    GovernorConfig {
        limits: [ClassLimit {
            rate_per_sec: 50_000_000.0,
            burst: 1_000_000.0,
        }; 3],
        max_concurrent: 64,
    }
}

fn race(workload: &'static str, seed: u64) {
    let spec = arbloops::workloads::find(workload).expect("workload in catalog");
    let scenario = spec.scenario(&storm_config(seed)).expect("scenario");
    let profile = ReadStormProfile {
        seed: seed ^ 0xbeef,
        readers: READERS,
        ops_per_reader: 64,
        ..ReadStormProfile::default()
    };
    let plans = profile.plans(storm_config(seed).num_tokens, storm_config(seed).num_pools);

    let mut publisher = Publisher::new(open_governor());
    let oracle: Arc<Mutex<HashMap<u64, Fingerprint>>> = Arc::new(Mutex::new(HashMap::new()));
    oracle.lock().unwrap().insert(0, Vec::new());
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<std::thread::JoinHandle<(u64, u64)>> = plans
        .into_iter()
        .map(|plan| {
            let handle = publisher.handle(arbloops::serve::ClientClass::ALL[plan.class_index]);
            let oracle = Arc::clone(&oracle);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut last_revision = 0u64;
                let mut reads = 0u64;
                let mut op_cursor = 0usize;
                loop {
                    let finishing = done.load(Ordering::SeqCst);
                    let snapshot = match handle.query() {
                        Ok(guard) => guard.into_snapshot(),
                        Err(_) => {
                            std::thread::yield_now();
                            continue;
                        }
                    };
                    assert!(
                        snapshot.revision() >= last_revision,
                        "revision went backwards: {} -> {}",
                        last_revision,
                        snapshot.revision()
                    );
                    last_revision = snapshot.revision();
                    let expected = oracle
                        .lock()
                        .unwrap()
                        .get(&snapshot.revision())
                        .cloned()
                        .unwrap_or_else(|| {
                            panic!(
                                "revision {} published without an oracle",
                                snapshot.revision()
                            )
                        });
                    assert_eq!(
                        fingerprint(snapshot.entries()),
                        expected,
                        "published ranking diverged from the oracle at revision {}",
                        snapshot.revision()
                    );
                    snapshot.assert_coherent();
                    check_queries(&snapshot, plan_ops(&plan.ops, &mut op_cursor));
                    reads += 1;
                    if finishing {
                        return (last_revision, reads);
                    }
                    std::thread::yield_now();
                }
            })
        })
        .collect();

    // Writer: tick the runtime, verify against the
    // single-engine oracle, record the fingerprint, publish.
    let mut feed = scenario.feed.clone();
    let mut single = StreamingEngine::new(OpportunityPipeline::default(), scenario.pools.clone())
        .expect("single engine");
    let mut runtime =
        ShardedRuntime::new(OpportunityPipeline::default(), scenario.pools.clone(), 1)
            .expect("runtime");
    single.refresh(&feed).expect("single cold start");
    let mut last_source = None;
    let mut publish =
        |runtime: &ShardedRuntime, publisher: &mut Publisher, ranked: &[ArbitrageOpportunity]| {
            let source = runtime.standing_revision();
            if last_source != Some(source) {
                last_source = Some(source);
                oracle
                    .lock()
                    .unwrap()
                    .insert(publisher.revision() + 1, fingerprint(ranked));
            }
            publisher.publish_if_changed(source, ranked);
        };
    let cold = runtime.refresh(&feed).expect("cold ranking");
    publish(&runtime, &mut publisher, &cold.opportunities);
    for (tick, batch) in scenario.ticks.iter().enumerate() {
        batch.apply_feed(&mut feed);
        let expected = single
            .apply_events(&batch.events, &feed)
            .expect("single tick");
        let merged = runtime
            .apply_events(&batch.events, &feed)
            .expect("runtime tick");
        assert_eq!(
            fingerprint(&merged.opportunities),
            fingerprint(&expected.opportunities),
            "{workload} tick {tick}: runtime ranking diverged from the single engine"
        );
        publish(&runtime, &mut publisher, &merged.opportunities);
    }
    done.store(true, Ordering::SeqCst);

    let final_revision = publisher.revision();
    assert!(final_revision > 0, "{workload}: nothing was ever published");
    for reader in readers {
        let (last_revision, reads) = reader.join().expect("reader panicked");
        assert!(reads > 0, "{workload}: a reader never completed a read");
        assert_eq!(
            last_revision, final_revision,
            "{workload}: a reader's final read missed the final revision"
        );
    }
}

/// The next slice of a reader's deterministic query cycle.
fn plan_ops<'a>(ops: &'a [QueryOp], cursor: &mut usize) -> &'a [QueryOp] {
    let start = *cursor % ops.len();
    let end = (start + 8).min(ops.len());
    *cursor = end % ops.len();
    &ops[start..end]
}

#[test]
fn steady_sparse_readers_see_consistent_snapshots() {
    race("steady-sparse", 9_101);
}

#[test]
fn whale_bursts_readers_see_consistent_snapshots() {
    race("whale-bursts", 9_202);
}

#[test]
fn fee_regime_shift_readers_see_consistent_snapshots() {
    race("fee-regime-shift", 9_303);
}

#[test]
fn pool_churn_readers_see_consistent_snapshots() {
    race("pool-churn", 9_404);
}

#[test]
fn degenerate_flood_readers_see_consistent_snapshots() {
    race("degenerate-flood", 9_505);
}
