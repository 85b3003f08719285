//! A live arbitrage bot on the simulated market.
//!
//! Noise traders and liquidity providers push pools out of line each
//! block; a CEX drifts token prices; the bot seals the price moves and
//! the chain's `Sync`/`Swap` events into one block, applies the deltas
//! to its graph + cycle index, re-evaluates only the loops each
//! block touched, and executes atomically via flash bundles. Its PnL
//! can only grow — bundles revert unless they settle non-negative.
//!
//! ```text
//! cargo run --release --example arbitrage_bot
//! ```

use arbloops::bot::bot::BotAction;
use arbloops::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut sim = MarketSim::new(MarketSimConfig {
        seed: 1234,
        num_tokens: 12,
        num_pools: 24,
        trader_max_fraction: 0.04,
        bot: BotConfig {
            strategy: StrategyChoice::MaxMax,
            min_profit_usd: 0.25,
            ..BotConfig::default()
        },
        ..MarketSimConfig::default()
    })?;

    println!("block | action                              | cumulative PnL");
    println!("------+-------------------------------------+---------------");
    let mut executed = 0usize;
    for _ in 0..40 {
        let summary = sim.step()?;
        let action = match summary.action {
            BotAction::Idle => "idle".to_string(),
            BotAction::Submitted { expected, hops } => {
                executed += 1;
                format!("flash bundle, {hops} hops, expect {expected}")
            }
        };
        println!("{:>5} | {:<35} | {}", summary.height, action, summary.pnl);
    }

    println!("\nbundles executed: {executed}");
    println!("final bot PnL: {}", sim.bot_pnl());
    // Counters only (no wall-clock fields), so the output stays
    // byte-deterministic across runs.
    let runtime = sim.bot().runtime();
    println!(
        "runtime: {} ticks, {} events applied, {}",
        runtime.stats().ticks,
        runtime.engine().stats().events_applied,
        runtime.screen_totals()
    );
    let holdings = arbloops::bot::pnl::Ledger::holdings(
        sim.chain(),
        sim.bot().account(),
        sim.tokens().iter().copied(),
    );
    println!("holdings ({} tokens):", holdings.len());
    for (token, amount) in holdings {
        println!("  {token}: {amount:.4}");
    }
    Ok(())
}
