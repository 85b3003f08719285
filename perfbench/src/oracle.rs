//! The reference the live path is checked against: the same ticks fed
//! straight into `ShardedRuntime::apply_events`, no front-end, no
//! journal, no publisher.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

use arb_engine::{ArbitrageOpportunity, ShardedRuntime};
use arb_workloads::Scenario;

use crate::live::{pipeline, BenchResult, SHARDS};

/// A digest of a ranking: every entry's pools, strategy and net-profit
/// bits, in rank order. Equal digests mean bit-identical rankings for
/// every field a reader acts on.
pub fn fingerprint(ranking: &[ArbitrageOpportunity]) -> u64 {
    let mut hasher = DefaultHasher::new();
    hasher.write_usize(ranking.len());
    for opportunity in ranking {
        for pool in opportunity.cycle.pools() {
            hasher.write_usize(pool.index());
        }
        hasher.write(opportunity.strategy.as_bytes());
        hasher.write_u64(opportunity.net_profit.value().to_bits());
    }
    hasher.finish()
}

/// The oracle's ranking digest after the cold refresh (`genesis`) and
/// after every tick, and the profit a reader would have been quoted.
#[derive(Debug)]
pub struct Oracle {
    pub genesis: u64,
    pub ticks: Vec<u64>,
    /// Sum over ticks of the net profit of the top-ranked loop.
    pub quoted_profit: f64,
}

impl Oracle {
    pub fn run(scenario: &Scenario) -> BenchResult<Oracle> {
        let mut feed = scenario.feed.clone();
        let mut runtime = ShardedRuntime::new(pipeline(), scenario.pools.clone(), SHARDS)?;
        let genesis = fingerprint(&runtime.refresh(&feed)?.opportunities);
        let mut ticks = Vec::with_capacity(scenario.ticks.len());
        let mut quoted_profit = 0.0;
        for batch in &scenario.ticks {
            batch.apply_feed(&mut feed);
            let ranking = runtime.apply_events(&batch.events, &feed)?.opportunities;
            ticks.push(fingerprint(&ranking));
            quoted_profit += ranking.first().map_or(0.0, |o| o.net_profit.value());
        }
        Ok(Oracle {
            genesis,
            ticks,
            quoted_profit,
        })
    }
}
