//! The snapshot → graph → cycles → strategies → ranking pipeline.

use std::fmt;
use std::sync::Arc;

use arb_amm::pool::Pool;
use arb_cex::feed::PriceFeed;
use arb_core::loop_def::ArbLoop;
use arb_core::monetize::Usd;
use arb_core::{ConvexOptimization, MaxMax, Strategy};
use arb_graph::{Cycle, TokenGraph};
use arb_snapshot::Snapshot;
use rayon::prelude::*;

use crate::bounds::{floor_verdict, FloorVerdict};
use crate::error::EngineError;
use crate::opportunity::{ArbitrageOpportunity, EvaluatedOpportunity};
use crate::ranking::{RankByNetProfit, RankingPolicy};

/// A strategy the pipeline can fan out across threads.
pub type SharedStrategy = Arc<dyn Strategy + Send + Sync>;

/// Outcome of the shared per-cycle discovery step
/// ([`OpportunityPipeline::prepare_candidate`]).
pub(crate) enum CycleCandidate {
    /// Round-trip rate ≤ 1: not an arbitrage loop.
    NotArbitrage,
    /// A hop's fee-adjusted rate degenerated (`Σ log p = -∞`): the cycle
    /// cannot trade, and is counted separately from ordinary
    /// non-arbitrage cycles instead of being conflated with them.
    Degenerate,
    /// A loop, but some token has no USD price in the feed.
    Unpriced,
    /// Ready for strategy evaluation.
    Ready {
        /// The assembled analysis loop.
        loop_: ArbLoop,
        /// `(offset, len)` span of this candidate's USD prices in the
        /// caller's flat price buffer, aligned with the loop's token
        /// order.
        prices: (usize, usize),
    },
}

/// Pipeline tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Shortest cycle length discovered (2 = two-pool back-and-forth).
    pub min_cycle_len: usize,
    /// Longest cycle length discovered (the paper studies 3 and 4).
    pub max_cycle_len: usize,
    /// Flat monetized cost per submitted trade (gas stand-in), subtracted
    /// from gross profit to produce net profit.
    pub execution_cost_usd: f64,
    /// Opportunities with net profit below this floor are dropped.
    pub min_net_profit_usd: f64,
    /// Evaluate cycles across threads (order-preserving; results are
    /// bit-identical to the serial path).
    pub parallel: bool,
    /// Keep only the best `top_k` opportunities after ranking.
    pub top_k: Option<usize>,
    /// Consult the log-space profitability screen before preparing
    /// cycles: cycles whose `Σ log p` is provably ≤ 0, or whose profit
    /// upper bounds (the pool-value and per-hop fee-aware bounds in
    /// `crate::bounds`) provably cannot clear the
    /// net-profit floor, skip preparation and strategy evaluation
    /// entirely. Applies both to the streaming engine's incremental
    /// refresh (dirty cycles) and to batch cold starts through
    /// [`OpportunityPipeline::run_graph`] (every enumerated cycle). The
    /// screen is **sound** — output is bit-identical with it on or off
    /// (`tests/screen_equivalence.rs`) — so disabling it only serves
    /// baseline comparisons.
    pub screen: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            min_cycle_len: 2,
            max_cycle_len: 3,
            execution_cost_usd: 0.0,
            min_net_profit_usd: 0.0,
            parallel: true,
            top_k: None,
            screen: true,
        }
    }
}

impl PipelineConfig {
    /// Checks the configuration for contradictions. Called by every
    /// pipeline run and by [`crate::ShardedRuntime::new`]; invalid
    /// configs fail loudly instead of being silently clamped.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] when `min_cycle_len < 2` (a 1-hop
    /// "loop" is a self-swap), `min_cycle_len > max_cycle_len`, or a cost
    /// or floor is not finite.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.min_cycle_len < 2 {
            return Err(EngineError::Config(format!(
                "min_cycle_len must be at least 2, got {}",
                self.min_cycle_len
            )));
        }
        if self.min_cycle_len > self.max_cycle_len {
            return Err(EngineError::Config(format!(
                "min_cycle_len ({}) exceeds max_cycle_len ({})",
                self.min_cycle_len, self.max_cycle_len
            )));
        }
        // NaN gets its own diagnostic for both cost fields: "must be
        // finite, got NaN" buries the real defect (an uninitialized or
        // 0.0/0.0 computation upstream), which reads very differently
        // from an operator typing ±inf.
        if self.execution_cost_usd.is_nan() {
            return Err(EngineError::Config(
                "execution_cost_usd must not be NaN".to_string(),
            ));
        }
        if !self.execution_cost_usd.is_finite() {
            return Err(EngineError::Config(format!(
                "execution_cost_usd must be finite, got {}",
                self.execution_cost_usd
            )));
        }
        // +∞ is a legitimate "never trade" floor; only NaN is meaningless.
        if self.min_net_profit_usd.is_nan() {
            return Err(EngineError::Config(
                "min_net_profit_usd must not be NaN".to_string(),
            ));
        }
        Ok(())
    }
}

/// Counters describing one pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Tokens in the constructed graph.
    pub tokens: usize,
    /// Pools in the constructed graph.
    pub pools: usize,
    /// Cycles with round-trip rate > 1 discovered across all lengths.
    pub cycles_discovered: usize,
    /// Cycles skipped because a hop's fee-adjusted rate degenerated
    /// (`Σ log p = -∞`, e.g. a rate underflowing to zero) — previously
    /// conflated with ordinary non-arbitrage cycles.
    pub cycles_degenerate: usize,
    /// Cycles dropped because a loop token had no CEX price.
    pub cycles_unpriced: usize,
    /// Cycles that went through full classification
    /// (`prepare_candidate`: curve assembly, loop
    /// construction, price resolution). With the screen off this counts
    /// every enumerated cycle; with it on, only screen survivors — the
    /// cold-start cost the batch screen exists to cut.
    pub cycles_classified: usize,
    /// Enumerated cycles the batch log-sum screen discharged before
    /// classification (`Σ log p` provably not positive, including the
    /// degenerate `-∞` ones, which are *also* counted in
    /// [`PipelineStats::cycles_degenerate`] for parity with unscreened
    /// runs).
    pub cycles_screened_out: usize,
    /// Profitable cycles discharged before classification because a
    /// profit upper bound provably cannot clear the effective gross
    /// floor (`execution_cost_usd + min_net_profit_usd`).
    pub cycles_floor_screened: usize,
    /// The subset of [`PipelineStats::cycles_floor_screened`] only the
    /// per-hop fee-aware bound could discharge.
    pub cycles_hop_screened: usize,
    /// Strategy evaluations attempted (cycles × strategies).
    pub evaluations: usize,
    /// Evaluations skipped for benign infeasibility (near-breakeven loops
    /// whose interior is too thin to start the convex solver). Any other
    /// evaluation error aborts the run instead of being counted here.
    pub evaluation_failures: usize,
    /// Evaluated cycles dropped by the net-profit floor.
    pub below_floor: usize,
}

impl fmt::Display for PipelineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} tokens, {} pools, {} cycles ({} unpriced, {} degenerate), \
             {} classified ({} screened, {} floor-screened ({} by hop bound)), \
             {} evaluations ({} benign failures), {} below floor",
            self.tokens,
            self.pools,
            self.cycles_discovered,
            self.cycles_unpriced,
            self.cycles_degenerate,
            self.cycles_classified,
            self.cycles_screened_out,
            self.cycles_floor_screened,
            self.cycles_hop_screened,
            self.evaluations,
            self.evaluation_failures,
            self.below_floor
        )
    }
}

/// The ranked output of one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Opportunities in execution-priority order (best first).
    pub opportunities: Vec<ArbitrageOpportunity>,
    /// Run counters.
    pub stats: PipelineStats,
}

impl PipelineReport {
    /// The best opportunity, if any survived the floor.
    pub fn best(&self) -> Option<&ArbitrageOpportunity> {
        self.opportunities.first()
    }

    /// Total net profit across all ranked opportunities (an upper bound —
    /// executing one loop moves the pools under the others).
    pub fn total_net_profit(&self) -> Usd {
        self.opportunities
            .iter()
            .fold(Usd::ZERO, |acc, o| acc + o.net_profit)
    }
}

/// Adapter exposing a [`Snapshot`]'s embedded CEX prices as a
/// [`PriceFeed`].
#[derive(Debug, Clone, Copy)]
pub struct SnapshotPrices<'a>(pub &'a Snapshot);

impl PriceFeed for SnapshotPrices<'_> {
    fn usd_price(&self, token: arb_amm::token::TokenId) -> Option<f64> {
        self.0.usd_price(token)
    }
}

/// The unified discovery → evaluation → ranking engine.
///
/// One pipeline instance owns a strategy set, a ranking policy, and a
/// config; every run is a pure function of the market state handed in
/// (pools or snapshot plus a price feed), so instances are reusable across
/// blocks and shareable across threads. Cloning a pipeline shares the
/// strategy objects (they are `Arc`s) and duplicates the ranking policy —
/// a clone ranks bit-identically to its original.
#[derive(Clone)]
pub struct OpportunityPipeline {
    strategies: Vec<SharedStrategy>,
    ranking: Box<dyn RankingPolicy>,
    config: PipelineConfig,
}

impl fmt::Debug for OpportunityPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OpportunityPipeline")
            .field("strategies", &self.strategy_names())
            .field("ranking", &self.ranking.name())
            .field("config", &self.config)
            .finish()
    }
}

impl Default for OpportunityPipeline {
    fn default() -> Self {
        Self::new(PipelineConfig::default())
    }
}

impl OpportunityPipeline {
    /// A pipeline with the default strategy set — MaxMax (the paper's fast
    /// strategy) and ConvexOpt (its dominant one) — ranked by net profit.
    pub fn new(config: PipelineConfig) -> Self {
        OpportunityPipeline {
            strategies: vec![
                Arc::new(MaxMax::default()) as SharedStrategy,
                Arc::new(ConvexOptimization::default()) as SharedStrategy,
            ],
            ranking: Box::new(RankByNetProfit),
            config,
        }
    }

    /// Replaces the strategy set.
    pub fn with_strategies(mut self, strategies: Vec<SharedStrategy>) -> Self {
        self.strategies = strategies;
        self
    }

    /// Replaces the ranking policy.
    pub fn with_ranking(mut self, ranking: Box<dyn RankingPolicy>) -> Self {
        self.ranking = ranking;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The strategy names in evaluation order.
    pub fn strategy_names(&self) -> Vec<&'static str> {
        self.strategies.iter().map(|s| s.name()).collect()
    }

    /// Runs the full pipeline on a pool set plus a price feed.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Graph`] on graph-construction failures and
    /// [`EngineError::Strategy`] on non-benign evaluation failures
    /// (benign thin-interior infeasibility is counted in the stats
    /// instead).
    pub fn run<F: PriceFeed>(
        &self,
        pools: Vec<Pool>,
        feed: &F,
    ) -> Result<PipelineReport, EngineError> {
        let graph = TokenGraph::new(pools)?;
        self.run_graph(&graph, feed)
    }

    /// Runs the pipeline on a paper-calibrated snapshot, pricing tokens
    /// from the snapshot's own CEX table.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Graph`] on graph-construction failures.
    pub fn run_snapshot(&self, snapshot: &Snapshot) -> Result<PipelineReport, EngineError> {
        self.run(snapshot.pools().to_vec(), &SnapshotPrices(snapshot))
    }

    /// Runs discovery + evaluation + ranking on an already-built graph.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Graph`] if cycle enumeration fails.
    pub fn run_graph<F: PriceFeed>(
        &self,
        graph: &TokenGraph,
        feed: &F,
    ) -> Result<PipelineReport, EngineError> {
        self.config.validate()?;
        let mut stats = PipelineStats {
            tokens: graph.token_count(),
            // Retired slots (degenerate pools kept for id stability)
            // contribute no liquidity and are not counted.
            pools: graph.live_pool_count(),
            ..PipelineStats::default()
        };

        // Discovery: profitable cycles at every configured length, with
        // prices resolved up front so the evaluation stage is pure CPU.
        // Prices live in one flat buffer shared by every candidate —
        // `(offset, len)` spans instead of a fresh `Vec<f64>` per cycle.
        //
        // With the screen on, each enumerated cycle first passes the
        // cheap cached checks — the log-sum sign and, when a gross floor
        // is configured, the profit upper bounds of [`crate::bounds`] —
        // so cold starts and recovery refreshes stop
        // classifying provably-dead cycles. The checks reuse exactly the
        // classification criteria of `prepare_candidate` (same cached
        // log rates, sound bounds), so the surviving opportunity set is
        // bit-identical to an unscreened run.
        let screen = self.config.screen;
        let required_gross = self.config.execution_cost_usd + self.config.min_net_profit_usd;
        let floor_screen = screen && required_gross > 0.0;
        let mut price_buf: Vec<f64> = Vec::new();
        let mut candidates: Vec<(Cycle, ArbLoop, (usize, usize))> = Vec::new();
        for len in self.config.min_cycle_len..=self.config.max_cycle_len {
            for cycle in graph.cycles(len)? {
                if screen {
                    let log_rate = graph.cycle_log_rate(&cycle)?;
                    if log_rate == f64::NEG_INFINITY {
                        stats.cycles_degenerate += 1;
                        stats.cycles_screened_out += 1;
                        continue;
                    }
                    if log_rate.is_nan() || log_rate <= 0.0 {
                        stats.cycles_screened_out += 1;
                        continue;
                    }
                    if floor_screen {
                        match floor_verdict(graph, &cycle, feed, required_gross) {
                            FloorVerdict::Keep => {}
                            verdict => {
                                stats.cycles_discovered += 1;
                                stats.cycles_floor_screened += 1;
                                if verdict == FloorVerdict::HopBound {
                                    stats.cycles_hop_screened += 1;
                                }
                                continue;
                            }
                        }
                    }
                }
                stats.cycles_classified += 1;
                match self.prepare_candidate(graph, &cycle, feed, &mut price_buf)? {
                    CycleCandidate::NotArbitrage => {}
                    CycleCandidate::Degenerate => stats.cycles_degenerate += 1,
                    CycleCandidate::Unpriced => {
                        stats.cycles_discovered += 1;
                        stats.cycles_unpriced += 1;
                    }
                    CycleCandidate::Ready { loop_, prices } => {
                        stats.cycles_discovered += 1;
                        candidates.push((cycle, loop_, prices));
                    }
                }
            }
        }

        // Evaluation: every strategy on every cycle, best sizing wins.
        // The flat price buffer is shared read-only across the fan-out;
        // the parallel path is order-preserving, so sequential and
        // parallel runs stay bit-identical.
        let price_buf = &price_buf;
        let evaluate = |(cycle, loop_, span): &(Cycle, ArbLoop, (usize, usize))| {
            self.evaluate_cycle(cycle, loop_, &price_buf[span.0..span.0 + span.1])
        };
        let evaluated: Result<Vec<(Option<ArbitrageOpportunity>, usize, usize)>, EngineError> =
            if self.config.parallel && candidates.len() > 1 {
                candidates.par_iter().map(evaluate).collect()
            } else {
                candidates.iter().map(evaluate).collect()
            };

        let mut opportunities = Vec::new();
        for (opportunity, attempts, benign_failures) in evaluated? {
            stats.evaluations += attempts;
            stats.evaluation_failures += benign_failures;
            match opportunity {
                Some(opp) if opp.net_profit.value() >= self.config.min_net_profit_usd => {
                    opportunities.push(opp);
                }
                Some(_) => stats.below_floor += 1,
                None => {}
            }
        }

        self.rank(&mut opportunities);

        Ok(PipelineReport {
            opportunities,
            stats,
        })
    }

    /// Classifies one cycle for evaluation: the batch pipeline's
    /// discovery step, mirrored hop-for-hop by the runtime's
    /// scratch-arena preparation (`ShardedRuntime::refresh_standing`) so
    /// the arbitrage filter and price resolution can never drift between
    /// the two paths. The filter reads the graph's **cached** per-slot
    /// log rates ([`TokenGraph::cycle_log_rate`]) — bit-identical to
    /// summing fresh `spot_rate().ln()` values, minus the per-hop curve
    /// construction. A `-∞` sum (degenerate hop rate) is classified
    /// [`CycleCandidate::Degenerate`] rather than silently folded into
    /// "not an arbitrage", and structural errors now propagate instead of
    /// being swallowed by the old `unwrap_or(NEG_INFINITY)`.
    ///
    /// Ready candidates push their prices onto `price_buf` and return the
    /// `(offset, len)` span.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Graph`]/[`EngineError::Strategy`] if the
    /// cycle references unknown pools or its curves/loop cannot be
    /// assembled — a structural defect, not a market condition.
    pub(crate) fn prepare_candidate<F: PriceFeed>(
        &self,
        graph: &TokenGraph,
        cycle: &Cycle,
        feed: &F,
        price_buf: &mut Vec<f64>,
    ) -> Result<CycleCandidate, EngineError> {
        let log_rate = graph.cycle_log_rate(cycle)?;
        if log_rate == f64::NEG_INFINITY {
            return Ok(CycleCandidate::Degenerate);
        }
        if log_rate.is_nan() || log_rate <= 0.0 {
            return Ok(CycleCandidate::NotArbitrage);
        }
        let hops = graph.curves_for(cycle)?;
        let loop_ = ArbLoop::new(hops, cycle.tokens().to_vec())?;
        let offset = price_buf.len();
        match loop_.resolve_prices_into(|t| feed.usd_price(t), price_buf) {
            Ok(()) => Ok(CycleCandidate::Ready {
                loop_,
                prices: (offset, cycle.len()),
            }),
            Err(_) => Ok(CycleCandidate::Unpriced),
        }
    }

    /// The total execution-priority order: policy score descending with
    /// deterministic tie-breaks (loop length, token order, then pool
    /// order — two distinct cycles always differ in one of those, so no
    /// two distinct opportunities ever compare `Equal`). Shared by
    /// [`OpportunityPipeline::rank`] and the runtime's memoized ranking
    /// so every path orders identically.
    pub(crate) fn compare(
        &self,
        a: &ArbitrageOpportunity,
        b: &ArbitrageOpportunity,
    ) -> std::cmp::Ordering {
        self.ranking
            .score(b)
            .partial_cmp(&self.ranking.score(a))
            .expect("ranking scores are finite")
            .then_with(|| a.hops().cmp(&b.hops()))
            .then_with(|| a.cycle.tokens().cmp(b.cycle.tokens()))
            .then_with(|| a.cycle.pools().cmp(b.cycle.pools()))
    }

    /// Sorts opportunities into execution-priority order
    /// ([`OpportunityPipeline::compare`]) and applies the `top_k` cut.
    /// Shared by the batch run and the streaming engine so both rank
    /// identically.
    pub(crate) fn rank(&self, opportunities: &mut Vec<ArbitrageOpportunity>) {
        opportunities.sort_by(|a, b| self.compare(a, b));
        if let Some(k) = self.config.top_k {
            opportunities.truncate(k);
        }
    }

    /// Evaluates every strategy on one cycle, returning the best-gross
    /// opportunity plus (attempts, benign-failure) counters.
    ///
    /// # Errors
    ///
    /// Benign infeasibility (a near-breakeven loop whose interior is too
    /// thin to start the convex solver) is counted and skipped; any other
    /// strategy error indicates a real defect and aborts the run.
    pub(crate) fn evaluate_cycle(
        &self,
        cycle: &Cycle,
        loop_: &ArbLoop,
        prices: &[f64],
    ) -> Result<(Option<ArbitrageOpportunity>, usize, usize), EngineError> {
        let mut attempts = 0usize;
        let mut benign_failures = 0usize;
        let mut best: Option<(&'static str, arb_core::StrategyOutcome)> = None;
        for strategy in &self.strategies {
            attempts += 1;
            match strategy.evaluate(loop_, prices) {
                Ok(outcome) => {
                    if best
                        .as_ref()
                        .is_none_or(|(_, b)| outcome.monetized > b.monetized)
                    {
                        best = Some((strategy.name(), outcome));
                    }
                }
                // Near-breakeven loops can have an interior too thin to
                // start the convex solver in; they are not worth trading,
                // so skip the strategy, not the scan.
                Err(arb_core::StrategyError::Convex(
                    arb_convex::ConvexError::FeasibilityConstruction,
                )) => benign_failures += 1,
                Err(e) => return Err(e.into()),
            }
        }
        let opportunity = best.and_then(|(name, outcome)| {
            if outcome.monetized.value() <= 0.0 {
                return None;
            }
            let gross = outcome.monetized;
            let net = Usd::new(gross.value() - self.config.execution_cost_usd);
            Some(ArbitrageOpportunity::new(EvaluatedOpportunity {
                cycle: cycle.clone(),
                loop_: loop_.clone(),
                prices: prices.to_vec(),
                strategy: name,
                optimal_inputs: outcome.inputs,
                token_profits: outcome.token_profits,
                gross_profit: gross,
                net_profit: net,
            }))
        });
        Ok((opportunity, attempts, benign_failures))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arb_amm::fee::FeeRate;
    use arb_amm::token::TokenId;
    use arb_cex::feed::PriceTable;
    use arb_core::{MaxPrice, Traditional};

    fn t(i: u32) -> TokenId {
        TokenId::new(i)
    }

    fn paper_pools() -> Vec<Pool> {
        let fee = FeeRate::UNISWAP_V2;
        vec![
            Pool::new(t(0), t(1), 100.0, 200.0, fee).unwrap(),
            Pool::new(t(1), t(2), 300.0, 200.0, fee).unwrap(),
            Pool::new(t(2), t(0), 200.0, 400.0, fee).unwrap(),
        ]
    }

    fn paper_feed() -> PriceTable {
        [(t(0), 2.0), (t(1), 10.2), (t(2), 20.0)]
            .into_iter()
            .collect()
    }

    #[test]
    fn finds_and_sizes_the_paper_triangle() {
        let pipeline = OpportunityPipeline::default();
        let report = pipeline.run(paper_pools(), &paper_feed()).unwrap();
        assert_eq!(report.opportunities.len(), 1);
        let opp = report.best().unwrap();
        // ConvexOpt dominates MaxMax, so it must win the sizing.
        assert_eq!(opp.strategy, "convex");
        assert!((opp.gross_profit.value() - 206.1).abs() < 1.0);
        assert_eq!(report.stats.cycles_discovered, 1);
        assert_eq!(report.stats.evaluations, 2);
    }

    #[test]
    fn parallel_and_serial_agree_bitwise() {
        let mut pools = paper_pools();
        let fee = FeeRate::UNISWAP_V2;
        // Add a second, milder triangle and a balanced pair.
        pools.push(Pool::new(t(3), t(4), 1_000.0, 1_050.0, fee).unwrap());
        pools.push(Pool::new(t(4), t(5), 1_000.0, 1_000.0, fee).unwrap());
        pools.push(Pool::new(t(5), t(3), 1_000.0, 1_000.0, fee).unwrap());
        let mut feed = paper_feed();
        feed.extend([(t(3), 1.0), (t(4), 1.0), (t(5), 1.0)]);

        let serial = OpportunityPipeline::new(PipelineConfig {
            parallel: false,
            ..PipelineConfig::default()
        })
        .run(pools.clone(), &feed)
        .unwrap();
        let parallel = OpportunityPipeline::new(PipelineConfig {
            parallel: true,
            ..PipelineConfig::default()
        })
        .run(pools, &feed)
        .unwrap();

        assert_eq!(serial.opportunities.len(), parallel.opportunities.len());
        for (a, b) in serial.opportunities.iter().zip(&parallel.opportunities) {
            assert_eq!(a.cycle.tokens(), b.cycle.tokens());
            assert_eq!(
                a.gross_profit.value().to_bits(),
                b.gross_profit.value().to_bits()
            );
        }
        assert_eq!(serial.stats, parallel.stats);
    }

    #[test]
    fn unpriced_cycles_are_counted_not_fatal() {
        let pipeline = OpportunityPipeline::default();
        let empty = PriceTable::new();
        let report = pipeline.run(paper_pools(), &empty).unwrap();
        assert!(report.opportunities.is_empty());
        assert_eq!(report.stats.cycles_unpriced, 1);
    }

    #[test]
    fn floor_filters_and_counts() {
        let pipeline = OpportunityPipeline::new(PipelineConfig {
            min_net_profit_usd: 1_000.0,
            ..PipelineConfig::default()
        });
        let report = pipeline.run(paper_pools(), &paper_feed()).unwrap();
        assert!(report.opportunities.is_empty());
        assert_eq!(report.stats.below_floor, 1);
    }

    #[test]
    fn execution_cost_reduces_net() {
        let pipeline = OpportunityPipeline::new(PipelineConfig {
            execution_cost_usd: 50.0,
            ..PipelineConfig::default()
        });
        let report = pipeline.run(paper_pools(), &paper_feed()).unwrap();
        let opp = report.best().unwrap();
        assert!((opp.gross_profit.value() - opp.net_profit.value() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn custom_strategy_sets_and_ranking() {
        let pipeline = OpportunityPipeline::new(PipelineConfig::default())
            .with_strategies(vec![
                Arc::new(Traditional {
                    start: 0,
                    method: arb_core::traditional::Method::ClosedForm,
                }) as SharedStrategy,
                Arc::new(MaxPrice::default()) as SharedStrategy,
            ])
            .with_ranking(Box::new(crate::ranking::RankByProfitPerHop));
        assert_eq!(pipeline.strategy_names(), vec!["traditional", "maxprice"]);
        let report = pipeline.run(paper_pools(), &paper_feed()).unwrap();
        let opp = report.best().unwrap();
        // MaxPrice starts from the highest-priced token (Z at $20) and
        // beats Traditional-from-X on the paper example.
        assert_eq!(opp.strategy, "maxprice");
        assert!(opp.single_entry().is_some());
    }

    #[test]
    fn contradictory_config_is_rejected_not_clamped() {
        let pipeline = OpportunityPipeline::new(PipelineConfig {
            min_cycle_len: 4,
            max_cycle_len: 3,
            ..PipelineConfig::default()
        });
        let err = pipeline.run(paper_pools(), &paper_feed()).unwrap_err();
        assert!(matches!(err, EngineError::Config(_)), "{err:?}");
        assert!(err.to_string().contains("exceeds max_cycle_len"));

        // Every rejection path, with its diagnostic: callers surface
        // these strings to operators, so each must name the field and the
        // offending value.
        let reject = |config: PipelineConfig, needle: &str| {
            let err = config.validate().unwrap_err();
            assert!(matches!(err, EngineError::Config(_)), "{err:?}");
            assert!(
                err.to_string().contains(needle),
                "{err} should mention {needle:?}"
            );
        };
        reject(
            PipelineConfig {
                min_cycle_len: 1,
                ..PipelineConfig::default()
            },
            "at least 2",
        );
        reject(
            PipelineConfig {
                min_cycle_len: 0,
                max_cycle_len: 0,
                ..PipelineConfig::default()
            },
            "at least 2",
        );
        for cost in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            reject(
                PipelineConfig {
                    execution_cost_usd: cost,
                    ..PipelineConfig::default()
                },
                "execution_cost_usd",
            );
        }
        // NaN costs get their own diagnostic, distinct from the ±inf one:
        // NaN means a broken upstream computation, not an operator limit.
        for field in ["execution_cost_usd", "min_net_profit_usd"] {
            let config = if field == "execution_cost_usd" {
                PipelineConfig {
                    execution_cost_usd: f64::NAN,
                    ..PipelineConfig::default()
                }
            } else {
                PipelineConfig {
                    min_net_profit_usd: f64::NAN,
                    ..PipelineConfig::default()
                }
            };
            let err = config.validate().unwrap_err();
            assert!(matches!(err, EngineError::Config(_)), "{err:?}");
            let message = err.to_string();
            assert!(
                message.contains(field) && message.contains("must not be NaN"),
                "{message} should carry the dedicated NaN diagnostic for {field}"
            );
        }
        let inf_message = PipelineConfig {
            execution_cost_usd: f64::INFINITY,
            ..PipelineConfig::default()
        }
        .validate()
        .unwrap_err()
        .to_string();
        assert!(
            inf_message.contains("must be finite") && !inf_message.contains("NaN"),
            "{inf_message}: ±inf keeps the finiteness diagnostic"
        );
        reject(
            PipelineConfig {
                min_net_profit_usd: f64::NAN,
                ..PipelineConfig::default()
            },
            "min_net_profit_usd",
        );
        // +∞ is the "never trade" sentinel and must stay legal.
        let never_trade = PipelineConfig {
            min_net_profit_usd: f64::INFINITY,
            ..PipelineConfig::default()
        };
        assert!(never_trade.validate().is_ok());
        assert!(PipelineConfig::default().validate().is_ok());
    }

    #[test]
    fn batch_screen_matches_unscreened_bit_for_bit() {
        let mut pools = paper_pools();
        let fee = FeeRate::UNISWAP_V2;
        // A second triangle: mild (below a steep floor) and a balanced
        // pair that is pure screen fodder.
        pools.push(Pool::new(t(3), t(4), 1_000.0, 1_050.0, fee).unwrap());
        pools.push(Pool::new(t(4), t(5), 1_000.0, 1_000.0, fee).unwrap());
        pools.push(Pool::new(t(5), t(3), 1_000.0, 1_000.0, fee).unwrap());
        let mut feed = paper_feed();
        feed.extend([(t(3), 1.0), (t(4), 1.0), (t(5), 1.0)]);

        for (cost, floor) in [(0.0, 0.0), (3.0, 1.0), (50.0, 10.0)] {
            let config = |screen| PipelineConfig {
                execution_cost_usd: cost,
                min_net_profit_usd: floor,
                screen,
                ..PipelineConfig::default()
            };
            let screened = OpportunityPipeline::new(config(true))
                .run(pools.clone(), &feed)
                .unwrap();
            let unscreened = OpportunityPipeline::new(config(false))
                .run(pools.clone(), &feed)
                .unwrap();
            assert_eq!(
                screened.opportunities.len(),
                unscreened.opportunities.len(),
                "cost {cost} floor {floor}"
            );
            for (a, b) in screened.opportunities.iter().zip(&unscreened.opportunities) {
                assert_eq!(a.cycle.tokens(), b.cycle.tokens());
                assert_eq!(a.strategy, b.strategy);
                assert_eq!(
                    a.gross_profit.value().to_bits(),
                    b.gross_profit.value().to_bits()
                );
                assert_eq!(
                    a.net_profit.value().to_bits(),
                    b.net_profit.value().to_bits()
                );
            }
            // Shared classification criteria keep the discovery counters
            // aligned even though the screened run classifies less.
            assert_eq!(
                screened.stats.cycles_discovered,
                unscreened.stats.cycles_discovered
            );
            assert_eq!(
                screened.stats.cycles_degenerate,
                unscreened.stats.cycles_degenerate
            );
            assert!(
                screened.stats.cycles_classified < unscreened.stats.cycles_classified,
                "screen must cut classifications: {} vs {}",
                screened.stats,
                unscreened.stats
            );
            assert_eq!(unscreened.stats.cycles_screened_out, 0);
            assert_eq!(unscreened.stats.cycles_floor_screened, 0);
        }
    }

    #[test]
    fn batch_floor_screen_skips_classification_and_evaluation() {
        // With a floor far above the paper triangle's ~$206 gross, the
        // screened cold start discharges it before curve assembly.
        let config = |screen| PipelineConfig {
            execution_cost_usd: 9_000.0,
            min_net_profit_usd: 1_000.0,
            screen,
            ..PipelineConfig::default()
        };
        let screened = OpportunityPipeline::new(config(true))
            .run(paper_pools(), &paper_feed())
            .unwrap();
        assert!(screened.opportunities.is_empty());
        assert_eq!(screened.stats.cycles_floor_screened, 1);
        assert_eq!(screened.stats.cycles_classified, 0);
        assert_eq!(screened.stats.evaluations, 0);

        let unscreened = OpportunityPipeline::new(config(false))
            .run(paper_pools(), &paper_feed())
            .unwrap();
        assert!(unscreened.opportunities.is_empty());
        assert_eq!(unscreened.stats.evaluations, 2);
        assert_eq!(unscreened.stats.below_floor, 1);
    }

    #[test]
    fn stats_display_one_liner() {
        let pipeline = OpportunityPipeline::default();
        let report = pipeline.run(paper_pools(), &paper_feed()).unwrap();
        let line = report.stats.to_string();
        assert!(line.contains("3 tokens"), "{line}");
        assert!(line.contains("3 pools"), "{line}");
        assert!(line.contains("1 cycles"), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn balanced_market_yields_nothing() {
        let fee = FeeRate::UNISWAP_V2;
        let pools = vec![
            Pool::new(t(0), t(1), 1_000.0, 1_000.0, fee).unwrap(),
            Pool::new(t(1), t(2), 1_000.0, 1_000.0, fee).unwrap(),
            Pool::new(t(2), t(0), 1_000.0, 1_000.0, fee).unwrap(),
        ];
        let mut feed = PriceTable::new();
        for i in 0..3 {
            feed.set(t(i), 1.0);
        }
        let report = OpportunityPipeline::default().run(pools, &feed).unwrap();
        assert!(report.opportunities.is_empty());
        assert_eq!(report.stats.cycles_discovered, 0);
    }
}
