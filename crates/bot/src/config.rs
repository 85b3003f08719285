//! Bot configuration.

use arb_convex::SolverOptions;
use arb_core::traditional::Method;

/// Which strategy the bot uses to size its trades.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrategyChoice {
    /// MaxMax: fast per-rotation closed forms (default — the paper's
    /// timing discussion favors it within one block interval).
    #[default]
    MaxMax,
    /// ConvexOptimization: highest theoretical profit, slower.
    Convex,
}

/// Bot tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct BotConfig {
    /// Longest loop length scanned (the paper studies 3 and 4).
    pub max_loop_len: usize,
    /// Ignore opportunities below this monetized profit (gas floor).
    pub min_profit_usd: f64,
    /// Strategy used for sizing.
    pub strategy: StrategyChoice,
    /// 1-D optimizer for MaxMax.
    pub method: Method,
    /// Solver options for Convex.
    pub convex: SolverOptions,
}

impl Default for BotConfig {
    fn default() -> Self {
        BotConfig {
            max_loop_len: 3,
            min_profit_usd: 1.0,
            strategy: StrategyChoice::MaxMax,
            method: Method::ClosedForm,
            convex: SolverOptions::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = BotConfig::default();
        assert_eq!(c.max_loop_len, 3);
        assert!(c.min_profit_usd > 0.0);
        assert_eq!(c.strategy, StrategyChoice::MaxMax);
    }
}
