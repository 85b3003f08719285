//! The ingestion front-end's correctness oracle.
//!
//! Routing a workload's ticks through [`Ingestor`] → bounded queue →
//! [`IngestDriver`] must be **invisible** to the rankings: for every
//! workload in the catalog, the ingest path's merged opportunity set is
//! bit-identical to feeding the same [`ShardedRuntime`] directly, after
//! every tick. This holds even though the front-end coalesces events
//! (last-write-wins per pool / per token) and carries CEX price moves
//! inline as [`Event::FeedPrice`] — coalescing only discharges writes
//! that were provably unobservable, and the driver replays feed updates
//! into its own table before applying the tick's chain events, the same
//! "feed first" order the direct path uses.
//!
//! A mid-stream checkpoint/restore leg proves the driver's checkpoint is
//! self-contained (the price table rides inside it — no live feed needed
//! to resume), and a lagged capacity-1 leg proves that merging into a
//! full queue's tail still converges to the direct path's final
//! rankings.

use arbloops::prelude::*;
use arbloops::workloads::ScenarioConfig;

#[path = "support/ranking.rs"]
mod ranking;

use ranking::assert_rankings_identical;

fn small_config(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        domains: 4,
        num_tokens: 20,
        num_pools: 40,
        ticks: 24,
        intensity: 1.0,
    }
}

/// Drives one workload down both paths, comparing after every tick, and
/// checkpoint/restores the ingest path halfway through.
fn replay(workload: &'static str, config: &ScenarioConfig, pipeline_config: PipelineConfig) {
    let spec = arbloops::workloads::find(workload).expect("workload in catalog");
    let scenario = spec.scenario(config).expect("scenario generates");

    // Direct path: the oracle.
    let mut direct_feed = scenario.feed.clone();
    let mut direct = ShardedRuntime::new(
        OpportunityPipeline::new(pipeline_config),
        scenario.pools.clone(),
        4,
    )
    .expect("direct runtime");

    // Ingest path: feed source first (prices apply before chain events,
    // matching `TickBatch::apply_feed` on the direct path), then chain.
    let mut ingestor = Ingestor::new(IngestConfig::default());
    let feed_source = ingestor.register_source("cex-feed");
    let chain_source = ingestor.register_source("dexsim");
    let runtime = ShardedRuntime::new(
        OpportunityPipeline::new(pipeline_config),
        scenario.pools.clone(),
        4,
    )
    .expect("ingest runtime");
    let mut driver = IngestDriver::new(runtime, scenario.feed.clone(), ingestor.handle());

    // Cold start.
    let cold_expected = direct.refresh(&direct_feed).expect("direct cold start");
    ingestor.seal_block().expect("empty seal");
    let cold_ingest = driver
        .try_step()
        .expect("empty batch applies")
        .expect("a sealed batch was queued");
    assert_rankings_identical(
        &format!("{workload} tick 0"),
        &cold_ingest.opportunities,
        &cold_expected.opportunities,
    );

    let restore_at = scenario.ticks.len() / 2;
    let mut resumed: Option<(Ingestor, IngestDriver, SourceId, SourceId)> = None;
    let mut nonempty_ticks = 0usize;

    for (tick, batch) in scenario.ticks.iter().enumerate() {
        batch.apply_feed(&mut direct_feed);
        let expected = direct
            .apply_events(&batch.events, &direct_feed)
            .expect("direct tick");

        let report = {
            let (ingestor, driver, feed_source, chain_source) = match &mut resumed {
                Some((i, d, f, c)) => (i, d, *f, *c),
                None => (&mut ingestor, &mut driver, feed_source, chain_source),
            };
            ingestor
                .offer_feed_moves(feed_source, &batch.feed_moves)
                .expect("feed source registered");
            ingestor
                .offer(chain_source, batch.events.iter().copied())
                .expect("chain source registered");
            ingestor.seal_block().expect("seal");
            driver
                .try_step()
                .expect("batch applies")
                .expect("one batch per tick")
        };
        assert_rankings_identical(
            &format!("{workload} tick {}", tick + 1),
            &report.opportunities,
            &expected.opportunities,
        );
        if !report.opportunities.is_empty() {
            nonempty_ticks += 1;
        }

        // Mid-stream: capture the driver's self-contained checkpoint and
        // resume into a *fresh* ingestor + driver. The price table must
        // ride inside the checkpoint — nothing else carries it over.
        if tick + 1 == restore_at {
            let mut checkpoint = driver.checkpoint();
            checkpoint.source_positions = ingestor.source_positions();
            assert!(
                !checkpoint.feed.is_empty(),
                "{workload}: the checkpoint must embed the price table"
            );

            let mut fresh = Ingestor::new(IngestConfig::default());
            let f = fresh.register_source("cex-feed");
            let c = fresh.register_source("dexsim");
            fresh
                .restore_positions(&checkpoint.source_positions)
                .expect("positions fit");
            assert_eq!(fresh.source_positions(), ingestor.source_positions());
            let restored = IngestDriver::restore(
                OpportunityPipeline::new(pipeline_config),
                &checkpoint,
                fresh.handle(),
            )
            .expect("checkpoint restores");
            resumed = Some((fresh, restored, f, c));
        }
    }
    assert!(
        nonempty_ticks > 0,
        "{workload}: the scenario never produced an opportunity — the \
         equivalence would be vacuous"
    );
    let (ingestor, driver) = match &resumed {
        Some((i, d, _, _)) => (i, d),
        None => (&ingestor, &driver),
    };
    let stats = ingestor.stats();
    assert_eq!(
        stats.events_in,
        stats.events_out + stats.coalesced_away,
        "{workload}: flow conservation on the drained stream: {stats}"
    );
    assert_eq!(driver.handle().depth(), 0, "{workload}: fully drained");
}

#[test]
fn steady_sparse_matches_direct_feeding() {
    replay(
        "steady-sparse",
        &small_config(101),
        PipelineConfig::default(),
    );
}

#[test]
fn whale_bursts_matches_direct_feeding() {
    replay(
        "whale-bursts",
        &small_config(202),
        PipelineConfig::default(),
    );
}

#[test]
fn fee_regime_shift_matches_direct_feeding() {
    let config = PipelineConfig {
        max_cycle_len: 4,
        ..PipelineConfig::default()
    };
    replay("fee-regime-shift", &small_config(303), config);
}

#[test]
fn pool_churn_matches_direct_feeding_through_rebuilds() {
    replay("pool-churn", &small_config(404), PipelineConfig::default());
}

#[test]
fn degenerate_flood_matches_direct_feeding() {
    replay(
        "degenerate-flood",
        &small_config(505),
        PipelineConfig::default(),
    );
}

/// A consumer that drains only every fourth tick under capacity 1
/// forces cross-tick merges, yet the final rankings
/// must still land exactly on the direct path's.
#[test]
fn lagged_consumer_in_degraded_mode_converges_to_direct_final_state() {
    let config = small_config(707);
    let spec = arbloops::workloads::find("degenerate-flood").expect("in catalog");
    let scenario = spec.scenario(&config).expect("scenario generates");

    let mut direct_feed = scenario.feed.clone();
    let mut direct = ShardedRuntime::new(OpportunityPipeline::default(), scenario.pools.clone(), 4)
        .expect("direct runtime");
    let mut final_expected = direct.refresh(&direct_feed).expect("cold start");

    let mut ingestor = Ingestor::new(IngestConfig {
        queue_capacity: 1,
        ..IngestConfig::default()
    });
    let feed_source = ingestor.register_source("cex-feed");
    let chain_source = ingestor.register_source("dexsim");
    let runtime = ShardedRuntime::new(OpportunityPipeline::default(), scenario.pools.clone(), 4)
        .expect("ingest runtime");
    let mut driver = IngestDriver::new(runtime, scenario.feed.clone(), ingestor.handle());

    let mut last_ingest = None;
    for (tick, batch) in scenario.ticks.iter().enumerate() {
        batch.apply_feed(&mut direct_feed);
        final_expected = direct
            .apply_events(&batch.events, &direct_feed)
            .expect("direct tick");

        ingestor
            .offer_feed_moves(feed_source, &batch.feed_moves)
            .expect("registered");
        ingestor
            .offer(chain_source, batch.events.iter().copied())
            .expect("registered");
        ingestor
            .seal_block()
            .expect("a full queue merges instead of blocking");
        if tick % 4 == 3 {
            if let Some(report) = driver.drain().expect("merged batches apply") {
                last_ingest = Some(report);
            }
        }
    }
    if let Some(report) = driver.drain().expect("tail batches apply") {
        last_ingest = Some(report);
    }
    let final_ingest = last_ingest.expect("the lagged run applied at least one batch");

    assert_rankings_identical(
        &format!("degenerate-flood/lagged tick {}", scenario.ticks.len()),
        &final_ingest.opportunities,
        &final_expected.opportunities,
    );
    let stats = ingestor.stats();
    assert!(
        stats.degraded_merges > 0,
        "capacity 1 with a lagging consumer must merge: {stats}"
    );
    assert!(
        stats.coalesce_ratio() > 1.0,
        "degenerate-flood must coalesce: {stats}"
    );
    assert_eq!(stats.events_in, stats.events_out + stats.coalesced_away);
}
