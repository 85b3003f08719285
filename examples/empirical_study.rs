//! The paper's §VI empirical study on a synthetic Uniswap V2 snapshot.
//!
//! Pipeline: generate a paper-calibrated snapshot (51 tokens / 208 pools
//! after the TVL > $30k and reserve > 100 filters), run the engine's
//! discovery pipeline over it, and compare all four strategies on every
//! discovered loop.
//!
//! ```text
//! cargo run --release --example empirical_study
//! ```

use arbloops::engine::RankByGrossProfit;
use arbloops::prelude::*;
use arbloops::strategies::batch::{compare_all_parallel, LoopCase};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SnapshotConfig::default();
    let snapshot = Generator::new(config).generate()?;
    println!(
        "raw snapshot: {} tokens, {} pools",
        snapshot.token_count(),
        snapshot.pools().len()
    );
    let filtered = snapshot.filtered(&config);
    println!(
        "after paper filters (TVL > ${:.0}, reserve > {:.0}): {} pools",
        config.min_tvl_usd,
        config.min_reserve,
        filtered.pools().len()
    );

    // Discovery through the engine: snapshot → graph → length-3 loops →
    // sized + ranked opportunities, in one call. MaxMax-only sizing here:
    // every discovered loop has rate > 1, so MaxMax is always positive
    // and the full four-strategy comparison below (which re-solves the
    // convex program per loop) is not paid twice.
    let pipeline = OpportunityPipeline::new(PipelineConfig {
        min_cycle_len: 3,
        max_cycle_len: 3,
        ..PipelineConfig::default()
    })
    .with_strategies(vec![
        std::sync::Arc::new(arbloops::strategies::MaxMax::default()) as _,
    ])
    .with_ranking(Box::new(RankByGrossProfit));
    let report = pipeline.run_snapshot(&filtered)?;
    println!(
        "length-3 arbitrage loops: {} discovered, {} profitable after sizing (paper found 123)",
        report.stats.cycles_discovered,
        report.opportunities.len()
    );
    if let Some(best) = report.best() {
        println!(
            "best opportunity: {} via {} (rate {:.4})",
            best.gross_profit,
            best.strategy,
            best.round_trip_rate()
        );
    }

    // Figure-shape checks need all four strategies per loop, not just the
    // winner — reuse the engine's discovered loops as comparison cases.
    // Every discovered loop has round-trip rate > 1, so MaxMax's closed
    // form always yields positive monetized profit and the opportunity
    // set equals the discovery set (the counts printed above agree).
    let cases: Vec<LoopCase> = report
        .opportunities
        .iter()
        .map(|opp| LoopCase {
            loop_: opp.loop_.clone(),
            prices: opp.prices.clone(),
        })
        .collect();

    let rows = compare_all_parallel(&cases, &CompareOptions::default())?;

    // The paper's headline comparisons.
    let mut trad_below = 0usize;
    let mut trad_total = 0usize;
    let mut maxprice_below = 0usize;
    let mut convex_total = Usd::ZERO;
    let mut maxmax_total = Usd::ZERO;
    for row in &rows {
        let mm = row.maxmax.value();
        for t in &row.traditional {
            trad_total += 1;
            if t.value() < mm - 1e-9 {
                trad_below += 1;
            }
        }
        if row.maxprice.value() < mm - 1e-9 {
            maxprice_below += 1;
        }
        maxmax_total += row.maxmax;
        convex_total += row.convex;
    }
    println!("— figure-shape checks —");
    println!(
        "Fig.5  traditional vs maxmax: {trad_below}/{trad_total} rotation points strictly below the 45° line (rest tie)"
    );
    println!(
        "Fig.6  maxprice vs maxmax: {maxprice_below}/{} loops where the heuristic loses money vs MaxMax",
        rows.len()
    );
    println!(
        "Fig.7  total monetized profit: maxmax {maxmax_total} vs convex {convex_total} (almost equal)"
    );
    let best = rows
        .iter()
        .max_by(|a, b| a.maxmax.partial_cmp(&b.maxmax).expect("finite"))
        .expect("non-empty");
    println!(
        "most profitable loop: maxmax {}, convex {}",
        best.maxmax, best.convex
    );
    Ok(())
}
