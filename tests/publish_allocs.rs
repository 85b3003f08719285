//! Publishing costs a fixed number of allocations, whatever the ranking's
//! length: entries are shared handles (freezing a ranking copies
//! pointers) and the snapshot indexes are flat arrays sized up front;
//! publishing computes no delta (subscribers diff on poll). Counted with
//! a thread-local counting allocator, so the number is the same on
//! every machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use arbloops::engine::EvaluatedOpportunity;
use arbloops::graph::Cycle;
use arbloops::prelude::*;
use arbloops::serve::{GovernorConfig, Publisher};
use arbloops::strategies::Usd;

/// Wraps [`System`], counting allocations (a reallocation counts as one)
/// made on a thread while that thread's counter is switched on.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn record() {
    let _ = ALLOCS.try_with(|count| {
        if let Some(n) = count.get() {
            count.set(Some(n + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; `record` neither allocates nor touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on the calling thread.
fn allocations(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|count| count.set(Some(0)));
    f();
    ALLOCS
        .with(|count| count.replace(None))
        .expect("counting was on")
}

/// Ranked entry `i`: a triangle over its own tokens and pools.
fn entry(i: u32, net: f64) -> ArbitrageOpportunity {
    let tokens: Vec<TokenId> = (3 * i..3 * i + 3).map(TokenId::new).collect();
    let pools = (3 * i..3 * i + 3).map(PoolId::new).collect();
    let hops = (0..3)
        .map(|_| SwapCurve::new(100.0, 100.0, FeeRate::UNISWAP_V2).unwrap())
        .collect();
    ArbitrageOpportunity::new(EvaluatedOpportunity {
        cycle: Cycle::new(tokens.clone(), pools).unwrap(),
        loop_: ArbLoop::new(hops, tokens).unwrap(),
        prices: vec![1.0; 3],
        strategy: "maxmax",
        optimal_inputs: vec![1.0, 0.0, 0.0],
        token_profits: vec![net, 0.0, 0.0],
        gross_profit: Usd::new(net + 1.0),
        net_profit: Usd::new(net),
    })
}

/// Allocations of one steady-state publish over an `n`-entry ranking:
/// the previous revision shares most entries, one entry is re-evaluated
/// to the same bits (a fresh handle), one to a new profit, and one cycle
/// is swapped for another.
fn publish_allocations(n: u32) -> u64 {
    let mut publisher = Publisher::new(GovernorConfig::default());
    let base: Vec<ArbitrageOpportunity> = (0..n).map(|i| entry(i, f64::from(n - i))).collect();
    publisher.publish_if_changed(1, &base);

    let mut next = base.clone();
    next[0] = entry(0, f64::from(n));
    next[1] = entry(1, f64::from(n) - 0.5);
    next[2] = entry(n, f64::from(n - 2));
    // Warm once on the same shape so one-off growth is not counted.
    publisher.publish_if_changed(2, &next);
    publisher.publish_if_changed(3, &base);

    let publishes = publisher.stats().publishes;
    let count = allocations(|| {
        publisher.publish_if_changed(4, &next);
    });
    assert_eq!(publisher.stats().publishes, publishes + 1);
    count
}

#[test]
fn publish_allocations_do_not_grow_with_the_ranking() {
    let small = publish_allocations(50);
    let large = publish_allocations(500);
    assert!(
        large <= small,
        "publishing 500 entries took {large} allocations against {small} for 50"
    );
}
