//! The incremental runtime's correctness oracle.
//!
//! After *any* sequence of chain events — swaps, liquidity churn, new
//! pools — the [`ShardedRuntime`]'s standing opportunity set must be
//! **bit-identical** to a fresh [`OpportunityPipeline`] run on the
//! resulting state under the same price feed: same cycles, same winning
//! strategies, same gross/net profits. The incremental path is an
//! optimization, never an approximation.

use arbloops::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Asserts ranked-output equality between the runtime's ranking and a
/// from-scratch batch run (default config) on the runtime's live pool
/// set.
fn assert_stream_equals_batch(
    engine: &ShardedRuntime,
    streamed: &[ArbitrageOpportunity],
    feed: &PriceTable,
) {
    let pools: Vec<Pool> = engine.graph().live_pools().map(|(_, p)| *p).collect();
    let fresh = OpportunityPipeline::new(PipelineConfig::default())
        .run(pools, feed)
        .expect("batch oracle");
    assert_eq!(
        streamed.len(),
        fresh.opportunities.len(),
        "opportunity counts diverged"
    );
    for (s, f) in streamed.iter().zip(&fresh.opportunities) {
        assert_eq!(s.cycle.tokens(), f.cycle.tokens(), "cycle tokens diverged");
        assert_eq!(s.cycle.pools(), f.cycle.pools(), "cycle pools diverged");
        assert_eq!(s.strategy, f.strategy, "winning strategy diverged");
        assert_eq!(
            s.gross_profit.value().to_bits(),
            f.gross_profit.value().to_bits(),
            "gross profit diverged on {}",
            s.cycle
        );
        assert_eq!(
            s.net_profit.value().to_bits(),
            f.net_profit.value().to_bits(),
            "net profit diverged on {}",
            s.cycle
        );
    }
}

/// The runtime's graph must also mirror the chain's pool reserves exactly
/// (same `to_display` of the same raw words).
fn assert_graph_mirrors_chain(engine: &ShardedRuntime, chain: &Chain) {
    assert_eq!(engine.graph().pool_count(), chain.state().pool_count());
    for (i, on_chain) in chain.state().pools().iter().enumerate() {
        let mirrored = &engine.graph().pools()[i];
        let expected = on_chain.to_analysis_pool().expect("representable");
        assert_eq!(mirrored.reserve_a(), expected.reserve_a(), "pool {i}");
        assert_eq!(mirrored.reserve_b(), expected.reserve_b(), "pool {i}");
    }
}

fn seeded_market(seed: u64, num_tokens: usize, num_pools: usize) -> (Chain, PriceTable) {
    let config = SnapshotConfig {
        seed,
        num_tokens,
        num_pools,
        ..SnapshotConfig::default()
    };
    let snapshot = Generator::new(config).generate().expect("snapshot");
    let mut chain = Chain::new();
    for pool in snapshot.pools() {
        chain
            .add_pool(
                pool.token_a(),
                pool.token_b(),
                to_raw(pool.reserve_a()),
                to_raw(pool.reserve_b()),
                pool.fee(),
            )
            .expect("seed pool");
    }
    let mut feed = PriceTable::new();
    for i in 0..snapshot.token_count() as u32 {
        let t = TokenId::new(i);
        feed.set(t, snapshot.usd_price(t).expect("priced"));
    }
    (chain, feed)
}

#[test]
fn arbitrary_event_sequences_match_full_pipeline_runs() {
    let (mut chain, feed) = seeded_market(31, 10, 20);
    let mut rng = StdRng::seed_from_u64(0xfeed_beef);

    // Traders with inventory in every token.
    let traders: Vec<_> = (0..3).map(|_| chain.create_account()).collect();
    for trader in &traders {
        for i in 0..10u32 {
            chain.mint(*trader, TokenId::new(i), to_raw(10_000.0));
        }
    }

    let engine_pipeline = OpportunityPipeline::new(PipelineConfig::default());
    let pools: Vec<Pool> = chain
        .state()
        .pools()
        .iter()
        .map(|p| p.to_analysis_pool().expect("representable"))
        .collect();
    let mut engine = ShardedRuntime::new(engine_pipeline, pools, 1).expect("engine");
    let mut cursor = chain.subscribe();
    let cold = engine.refresh(&feed).expect("cold start");
    assert_stream_equals_batch(&engine, &cold.opportunities, &feed);

    for round in 0..12 {
        // A burst of random swaps against random pools.
        for _ in 0..rng.gen_range(1usize..6) {
            let pool_index = rng.gen_range(0u32..chain.state().pool_count() as u32);
            let pool_id = PoolId::new(pool_index);
            let pool = chain.state().pool(pool_id).expect("pool");
            let token_in = if rng.gen_bool(0.5) {
                pool.token_a()
            } else {
                pool.token_b()
            };
            let trader = traders[rng.gen_range(0usize..traders.len())];
            chain.submit(Transaction::Swap {
                account: trader,
                pool: pool_id,
                token_in,
                amount_in: to_raw(rng.gen_range(0.1f64..200.0)),
                min_out: 0,
            });
        }
        // Mid-sequence, grow the universe: new pools must flow through
        // `PoolCreated` events, not a re-snapshot.
        if round == 5 || round == 9 {
            let a = rng.gen_range(0u32..10);
            let b = (a + 1 + rng.gen_range(0u32..9)) % 10;
            chain
                .add_pool(
                    TokenId::new(a),
                    TokenId::new(b),
                    to_raw(rng.gen_range(500.0f64..2_000.0)),
                    to_raw(rng.gen_range(500.0f64..2_000.0)),
                    FeeRate::UNISWAP_V2,
                )
                .expect("new pool");
        }
        chain.mine_block();

        let events = chain.drain_events(&mut cursor);
        let report = engine.apply_events(&events, &feed).expect("apply batch");
        assert_graph_mirrors_chain(&engine, &chain);
        assert_stream_equals_batch(&engine, &report.opportunities, &feed);
    }

    let stats = engine.stats();
    assert!(stats.events_applied > 0);
    assert!(stats.pools_added == 2, "{stats}");
    assert!(
        stats.evaluations_saved > 0,
        "sparse deltas must save work: {stats}"
    );
}

#[test]
fn equivalence_survives_feed_moves_without_manual_dirtying() {
    let (mut chain, mut feed) = seeded_market(7, 8, 14);
    let trader = chain.create_account();
    for i in 0..8u32 {
        chain.mint(trader, TokenId::new(i), to_raw(5_000.0));
    }
    let pools: Vec<Pool> = chain
        .state()
        .pools()
        .iter()
        .map(|p| p.to_analysis_pool().expect("representable"))
        .collect();
    let mut engine = ShardedRuntime::new(
        OpportunityPipeline::new(PipelineConfig::default()),
        pools,
        1,
    )
    .expect("engine");
    let mut cursor = chain.subscribe();
    engine.refresh(&feed).expect("cold start");

    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..6 {
        chain.submit(Transaction::Swap {
            account: trader,
            pool: PoolId::new(rng.gen_range(0u32..chain.state().pool_count() as u32)),
            token_in: TokenId::new(rng.gen_range(0u32..8)),
            amount_in: to_raw(rng.gen_range(1.0f64..50.0)),
            min_out: 0,
        });
        chain.mine_block();

        // The CEX moves every block. Refresh diffs the feed itself and
        // dirties the affected cycles, so no manual dirtying is needed
        // for exact batch equality under the new feed.
        for i in 0..8u32 {
            let t = TokenId::new(i);
            let price = feed.usd_price(t).expect("priced");
            feed.set(t, price * rng.gen_range(0.98f64..1.02));
        }
        let events = chain.drain_events(&mut cursor);
        let report = engine.apply_events(&events, &feed).expect("apply");
        assert_stream_equals_batch(&engine, &report.opportunities, &feed);
    }
}
