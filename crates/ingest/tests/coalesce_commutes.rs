//! Property test: [`coalesce`] commutes with `TokenGraph::apply_sync` /
//! `PriceTable::set` — applying a coalesced stream leaves every
//! *observable* piece of state (live flags, live reserves, log-rates,
//! pool count, price table) bit-identical to applying the raw stream,
//! across random interleavings of `Sync`s, `PoolCreated` barriers, and
//! retire/revive transitions. The one deliberately unobservable
//! difference — the "last valid reserves" remembered inside a slot that
//! is retired at end of stream — is pinned by the convergence half: a
//! reviving `Sync` overwrites it absolutely, after which the graphs
//! agree everywhere.

use arb_amm::fee::FeeRate;
use arb_amm::pool::{Pool, PoolId};
use arb_amm::token::TokenId;
use arb_cex::feed::PriceTable;
use arb_dexsim::events::Event;
use arb_dexsim::units::{to_display, to_raw};
use arb_graph::TokenGraph;
use arb_ingest::coalesce;
use proptest::prelude::*;

const TOKENS: u32 = 4;
const BASE_POOLS: u32 = 4;

fn base_graph() -> TokenGraph {
    let pools = (0..BASE_POOLS)
        .map(|i| {
            Pool::new(
                TokenId::new(i % TOKENS),
                TokenId::new((i + 1) % TOKENS),
                100.0 + f64::from(i),
                120.0 + f64::from(i),
                FeeRate::UNISWAP_V2,
            )
            .expect("valid base pool")
        })
        .collect();
    TokenGraph::new(pools).expect("valid base graph")
}

/// Decodes one fuzzed command byte pair into an event against the
/// current slot count. Roughly half the syncs are degenerate (zero
/// reserves) so retire/revive transitions are exercised constantly.
fn build_event(op: u8, value: u8, slots: &mut u32) -> Event {
    match op % 8 {
        // Barrier: create a pool on the next slot.
        0 => {
            let pool = PoolId::new(*slots);
            *slots += 1;
            Event::PoolCreated {
                pool,
                token_a: TokenId::new(u32::from(value) % TOKENS),
                token_b: TokenId::new((u32::from(value) + 1) % TOKENS),
                reserve_a: to_raw(50.0 + f64::from(value)),
                reserve_b: to_raw(60.0 + f64::from(value)),
                fee: FeeRate::UNISWAP_V2,
            }
        }
        // Degenerate sync: retires the pool (reserve 0).
        1 | 2 => Event::Sync {
            pool: PoolId::new(u32::from(value) % *slots),
            reserve_a: 0,
            reserve_b: to_raw(10.0),
        },
        // Feed price move.
        3 => Event::feed_price(
            TokenId::new(u32::from(value) % TOKENS),
            1.0 + f64::from(value) / 7.0,
        ),
        // Valid sync: updates or revives.
        _ => Event::Sync {
            pool: PoolId::new(u32::from(value) % *slots),
            reserve_a: to_raw(5.0 + f64::from(op) + f64::from(value)),
            reserve_b: to_raw(9.0 + f64::from(value)),
        },
    }
}

fn apply(graph: &mut TokenGraph, feed: &mut PriceTable, events: &[Event]) {
    for event in events {
        match *event {
            Event::Sync {
                pool,
                reserve_a,
                reserve_b,
            } => {
                graph
                    .apply_sync(pool, to_display(reserve_a), to_display(reserve_b))
                    .expect("sync targets an allocated slot");
            }
            Event::PoolCreated {
                token_a,
                token_b,
                reserve_a,
                reserve_b,
                fee,
                ..
            } => {
                let pool = Pool::new(
                    token_a,
                    token_b,
                    to_display(reserve_a),
                    to_display(reserve_b),
                    fee,
                )
                .expect("created pools carry valid reserves");
                graph.add_pool(pool);
            }
            Event::FeedPrice { token, price_bits } => {
                feed.set(token, f64::from_bits(price_bits));
            }
            _ => {}
        }
    }
}

fn assert_live_state_identical(raw: &TokenGraph, merged: &TokenGraph) {
    assert_eq!(raw.pool_count(), merged.pool_count());
    assert_eq!(raw.live_pool_count(), merged.live_pool_count());
    for index in 0..raw.pool_count() {
        let id = PoolId::new(index as u32);
        assert_eq!(raw.is_live(id), merged.is_live(id), "liveness of {id}");
        if raw.is_live(id) {
            let (a, b) = (raw.pool(id).unwrap(), merged.pool(id).unwrap());
            assert_eq!(a.reserve_a().to_bits(), b.reserve_a().to_bits(), "{id}");
            assert_eq!(a.reserve_b().to_bits(), b.reserve_b().to_bits(), "{id}");
            let (ra, rb) = (raw.pool_log_rates(id), merged.pool_log_rates(id));
            assert_eq!(ra[0].to_bits(), rb[0].to_bits(), "log rate of {id}");
            assert_eq!(ra[1].to_bits(), rb[1].to_bits(), "log rate of {id}");
        }
    }
}

fn assert_feeds_identical(raw: &PriceTable, merged: &PriceTable) {
    assert_eq!(raw.len(), merged.len());
    let collect = |table: &PriceTable| {
        let mut entries: Vec<(usize, u64)> = table
            .iter()
            .map(|(token, price)| (token.index(), price.to_bits()))
            .collect();
        entries.sort_unstable();
        entries
    };
    assert_eq!(collect(raw), collect(merged));
}

proptest! {
    #[test]
    fn coalesced_stream_yields_identical_observable_state(
        ops in proptest::collection::vec((0u8..255, 0u8..255), 0..48),
    ) {
        let mut slots = BASE_POOLS;
        let events: Vec<Event> = ops
            .iter()
            .map(|&(op, value)| build_event(op, value, &mut slots))
            .collect();
        let coalesced_events = coalesce(&events);
        prop_assert!(coalesced_events.len() <= events.len());

        let (mut raw_graph, mut raw_feed) = (base_graph(), PriceTable::new());
        let (mut coalesced_graph, mut coalesced_feed) = (base_graph(), PriceTable::new());
        apply(&mut raw_graph, &mut raw_feed, &events);
        apply(&mut coalesced_graph, &mut coalesced_feed, &coalesced_events);
        assert_live_state_identical(&raw_graph, &coalesced_graph);
        assert_feeds_identical(&raw_feed, &coalesced_feed);

        // Convergence: revive every slot that ended retired. The reviving
        // sync is absolute, so after it the two graphs must agree on
        // retired slots too — the only state coalescing was allowed to
        // diverge on is unobservable and overwritten here.
        let revive: Vec<Event> = (0..raw_graph.pool_count() as u32)
            .filter(|&i| !raw_graph.is_live(PoolId::new(i)))
            .map(|i| Event::Sync {
                pool: PoolId::new(i),
                reserve_a: to_raw(77.0 + f64::from(i)),
                reserve_b: to_raw(88.0),
            })
            .collect();
        apply(&mut raw_graph, &mut raw_feed, &revive);
        apply(&mut coalesced_graph, &mut coalesced_feed, &revive);
        prop_assert_eq!(raw_graph.live_pool_count(), raw_graph.pool_count());
        assert_live_state_identical(&raw_graph, &coalesced_graph);
    }

    #[test]
    fn coalescing_is_idempotent(
        ops in proptest::collection::vec((0u8..255, 0u8..255), 0..48),
    ) {
        let mut slots = BASE_POOLS;
        let events: Vec<Event> = ops
            .iter()
            .map(|&(op, value)| build_event(op, value, &mut slots))
            .collect();
        let once = coalesce(&events);
        prop_assert_eq!(coalesce(&once), once.clone());
    }
}
