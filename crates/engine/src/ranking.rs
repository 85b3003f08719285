//! Pluggable ranking of evaluated opportunities.

use crate::opportunity::ArbitrageOpportunity;

/// Orders opportunities for execution priority.
///
/// Policies are score-based: higher scores execute first. Ties are broken
/// deterministically by the pipeline (shorter loops, then token order), so
/// a given snapshot always ranks identically.
pub trait RankingPolicy: Send + Sync {
    /// Short policy name (for reports).
    fn name(&self) -> &'static str;

    /// The descending sort key.
    fn score(&self, opportunity: &ArbitrageOpportunity) -> f64;

    /// Clones the policy behind the trait object, so pipelines can be
    /// duplicated.
    fn clone_box(&self) -> Box<dyn RankingPolicy>;
}

impl Clone for Box<dyn RankingPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Rank by monetized profit net of execution costs (the default — what a
/// profit-maximizing searcher submits first).
#[derive(Debug, Clone, Copy, Default)]
pub struct RankByNetProfit;

impl RankingPolicy for RankByNetProfit {
    fn name(&self) -> &'static str {
        "net-profit"
    }

    fn score(&self, opportunity: &ArbitrageOpportunity) -> f64 {
        opportunity.net_profit.value()
    }

    fn clone_box(&self) -> Box<dyn RankingPolicy> {
        Box::new(*self)
    }
}

/// Rank by gross monetized profit, ignoring execution costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankByGrossProfit;

impl RankingPolicy for RankByGrossProfit {
    fn name(&self) -> &'static str {
        "gross-profit"
    }

    fn score(&self, opportunity: &ArbitrageOpportunity) -> f64 {
        opportunity.gross_profit.value()
    }

    fn clone_box(&self) -> Box<dyn RankingPolicy> {
        Box::new(*self)
    }
}

/// Rank by net profit per hop — a gas-aware prior that prefers short
/// loops when profits are comparable.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankByProfitPerHop;

impl RankingPolicy for RankByProfitPerHop {
    fn name(&self) -> &'static str {
        "profit-per-hop"
    }

    fn score(&self, opportunity: &ArbitrageOpportunity) -> f64 {
        opportunity.net_profit.value() / opportunity.hops() as f64
    }

    fn clone_box(&self) -> Box<dyn RankingPolicy> {
        Box::new(*self)
    }
}
