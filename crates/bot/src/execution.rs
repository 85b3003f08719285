//! Strategy plan → integer-exact flash bundle.
//!
//! The strategies size trades in `f64` display units against the same pool
//! state the chain holds; this module converts a plan into raw-integer
//! [`BundleStep`]s. Two constructions:
//!
//! * [`chained_bundle`] — a MaxMax-style rotation: the start input is
//!   converted to raw units and every later hop consumes *exactly* the
//!   previous hop's integer output (guaranteed feasible);
//! * [`inputs_bundle`] — per-hop inputs (a convex plan's flows, or any
//!   engine sizing); inputs are floored into raw units, and the
//!   flash-loan settlement check enforces per-token solvency at
//!   execution time;
//! * [`opportunity_bundle`] — picks between the two shapes for an
//!   [`arb_engine::ArbitrageOpportunity`];
//! * [`submit_best`] — submits the bundle of the best-ranked opportunity
//!   whose bundle survived rounding.
//!
//! Either way the bundle is atomic: if integer rounding or interleaved
//! transactions made it unprofitable, it reverts and costs nothing but gas.

use arb_dexsim::chain::Chain;
use arb_dexsim::state::AccountId;
use arb_dexsim::tx::{BundleStep, Transaction};
use arb_dexsim::units::to_raw;
use arb_engine::ArbitrageOpportunity;
use arb_graph::Cycle;

use crate::bot::BotAction;
use crate::error::BotError;

/// Builds a bundle that enters the cycle at `rotation` with
/// `input_display` of that rotation's token and chains exact integer
/// outputs through the remaining hops.
///
/// # Errors
///
/// Returns [`BotError::Chain`] if a quote fails (degenerate pool state).
pub fn chained_bundle(
    chain: &Chain,
    cycle: &Cycle,
    rotation: usize,
    input_display: f64,
) -> Result<Vec<BundleStep>, BotError> {
    let n = cycle.len();
    let mut steps = Vec::with_capacity(n);
    let mut amount = to_raw(input_display);
    for k in 0..n {
        let j = (rotation + k) % n;
        let pool_id = cycle.pools()[j];
        let token_in = cycle.tokens()[j];
        let pool = chain.state().pool(pool_id)?;
        let a_to_b = token_in == pool.token_a();
        let out = pool.raw().quote(a_to_b, amount)?;
        steps.push(BundleStep {
            pool: pool_id,
            token_in,
            amount_in: amount,
        });
        amount = out;
    }
    Ok(steps)
}

/// Builds a bundle from per-hop display-unit inputs (floored to raw
/// units). Zero-input hops are skipped (an all-zero input vector produces
/// an empty bundle, which callers should not submit).
pub fn inputs_bundle(cycle: &Cycle, inputs: &[f64]) -> Vec<BundleStep> {
    cycle
        .tokens()
        .iter()
        .zip(cycle.pools())
        .zip(inputs)
        .filter_map(|((token_in, pool), &input)| {
            let amount_in = to_raw(input);
            (amount_in > 0).then_some(BundleStep {
                pool: *pool,
                token_in: *token_in,
                amount_in,
            })
        })
        .collect()
}

/// Builds the execution bundle for an engine opportunity: single-entry
/// sizings (Traditional/MaxPrice/MaxMax) chain exact integer outputs from
/// the funded rotation, multi-entry sizings (ConvexOpt) fund each hop
/// independently under flash-loan settlement.
///
/// # Errors
///
/// Returns [`BotError::Chain`] if a chained quote fails (degenerate pool
/// state).
pub fn opportunity_bundle(
    chain: &Chain,
    opportunity: &ArbitrageOpportunity,
) -> Result<Vec<BundleStep>, BotError> {
    match opportunity.single_entry() {
        Some((rotation, input)) => chained_bundle(chain, &opportunity.cycle, rotation, input),
        None => Ok(inputs_bundle(
            &opportunity.cycle,
            &opportunity.optimal_inputs,
        )),
    }
}

/// Submits a flash bundle from `account` for the first opportunity in
/// the ranking whose bundle keeps every hop, skipping loops where integer
/// rounding collapsed one. The transaction is only *submitted*; the
/// caller mines the block.
///
/// # Errors
///
/// See [`opportunity_bundle`].
pub fn submit_best(
    chain: &mut Chain,
    account: AccountId,
    opportunities: &[ArbitrageOpportunity],
) -> Result<BotAction, BotError> {
    for opportunity in opportunities {
        let steps = opportunity_bundle(chain, opportunity)?;
        if steps.len() < opportunity.cycle.len() {
            // Rounding collapsed a hop; try the next-ranked loop rather
            // than submit a broken bundle.
            continue;
        }
        let expected = opportunity.gross_profit;
        let hops = steps.len();
        chain.submit(Transaction::FlashBundle { account, steps });
        return Ok(BotAction::Submitted { expected, hops });
    }
    Ok(BotAction::Idle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arb_amm::fee::FeeRate;
    use arb_amm::token::TokenId;
    use arb_convex::{LoopPlan, LoopProblem, SolverOptions};
    use arb_dexsim::units::to_raw;
    use arb_graph::TokenGraph;

    fn t(i: u32) -> TokenId {
        TokenId::new(i)
    }

    fn paper_setup() -> (Chain, Cycle) {
        let mut chain = Chain::new();
        let fee = FeeRate::UNISWAP_V2;
        chain
            .add_pool(t(0), t(1), to_raw(100.0), to_raw(200.0), fee)
            .unwrap();
        chain
            .add_pool(t(1), t(2), to_raw(300.0), to_raw(200.0), fee)
            .unwrap();
        chain
            .add_pool(t(2), t(0), to_raw(200.0), to_raw(400.0), fee)
            .unwrap();
        let graph = TokenGraph::new(
            chain
                .state()
                .pools()
                .iter()
                .map(|p| p.to_analysis_pool().unwrap())
                .collect(),
        )
        .unwrap();
        let cycle = graph.arbitrage_loops(3).unwrap().remove(0);
        (chain, cycle)
    }

    #[test]
    fn chained_bundle_executes_profitably() {
        let (mut chain, cycle) = paper_setup();
        let bot = chain.create_account();
        let steps = chained_bundle(&chain, &cycle, 0, 27.0).unwrap();
        assert_eq!(steps.len(), 3);
        chain.submit(Transaction::FlashBundle {
            account: bot,
            steps,
        });
        let block = chain.mine_block();
        assert!(block.receipts[0].success, "{:?}", block.receipts[0].error);
        let profit = chain.state().balance(bot, t(0));
        assert!(profit > to_raw(16.0), "profit={profit}");
    }

    #[test]
    fn rotation_changes_entry_token() {
        let (chain, cycle) = paper_setup();
        let steps = chained_bundle(&chain, &cycle, 1, 31.5).unwrap();
        assert_eq!(steps[0].token_in, cycle.tokens()[1]);
    }

    #[test]
    fn inputs_bundle_executes_convex_flows() {
        let (mut chain, cycle) = paper_setup();
        let graph = TokenGraph::new(
            chain
                .state()
                .pools()
                .iter()
                .map(|p| p.to_analysis_pool().unwrap())
                .collect(),
        )
        .unwrap();
        let hops = graph.curves_for(&cycle).unwrap();
        let problem = LoopProblem::new(hops, vec![2.0, 10.2, 20.0]).unwrap();
        let plan = problem.solve(&SolverOptions::default()).unwrap();
        let inputs: Vec<f64> = plan.flows().iter().map(|f| f.amount_in).collect();
        let steps = inputs_bundle(&cycle, &inputs);
        assert_eq!(steps.len(), 3);

        let bot = chain.create_account();
        chain.submit(Transaction::FlashBundle {
            account: bot,
            steps,
        });
        let block = chain.mine_block();
        assert!(block.receipts[0].success, "{:?}", block.receipts[0].error);
        // Paper's convex plan: profit ≈ 5 Y + 7.7 Z, none negative.
        let y = chain.state().balance(bot, t(1));
        let z = chain.state().balance(bot, t(2));
        assert!(y > to_raw(4.5) && y < to_raw(5.5), "y={y}");
        assert!(z > to_raw(7.2) && z < to_raw(8.2), "z={z}");
    }

    #[test]
    fn zero_plan_produces_empty_bundle() {
        let (_, cycle) = paper_setup();
        let plan = LoopPlan::zero(&[1.0, 1.0, 1.0]);
        let inputs: Vec<f64> = plan.flows().iter().map(|f| f.amount_in).collect();
        assert!(inputs_bundle(&cycle, &inputs).is_empty());
    }
}
