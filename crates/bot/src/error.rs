//! Bot error type.

use std::error::Error;
use std::fmt;

/// Errors from bot scanning, evaluation, and execution.
#[derive(Debug)]
#[non_exhaustive]
pub enum BotError {
    /// Graph construction or cycle enumeration failed.
    Graph(arb_graph::GraphError),
    /// Strategy evaluation failed.
    Strategy(arb_core::StrategyError),
    /// On-chain execution failed outside of an expected revert.
    Chain(arb_dexsim::TxError),
    /// A token required for evaluation has no price.
    MissingPrice,
    /// Snapshot generation failed (market-sim setup).
    Snapshot(arb_snapshot::SnapshotError),
    /// An engine failure outside the graph/strategy categories.
    Engine(arb_engine::EngineError),
    /// Journaling or recovery failed (journaled bots only:
    /// [`crate::ArbBot::attach`], [`crate::ArbBot::recover`]).
    Journal(arb_journal::JournalError),
    /// The ingestion front-end failed.
    Ingest(arb_ingest::IngestError),
    /// A supervised bot panicked more times than its recovery budget
    /// allows (supervised mode only).
    RecoveryExhausted {
        /// Recoveries performed before giving up.
        recoveries: u32,
    },
}

impl fmt::Display for BotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BotError::Graph(e) => write!(f, "graph error: {e}"),
            BotError::Strategy(e) => write!(f, "strategy error: {e}"),
            BotError::Chain(e) => write!(f, "chain error: {e}"),
            BotError::MissingPrice => write!(f, "missing cex price for a loop token"),
            BotError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            BotError::Engine(e) => write!(f, "engine error: {e}"),
            BotError::Journal(e) => write!(f, "journal error: {e}"),
            BotError::Ingest(e) => write!(f, "ingest error: {e}"),
            BotError::RecoveryExhausted { recoveries } => write!(
                f,
                "recovery budget exhausted after {recoveries} supervised recoveries"
            ),
        }
    }
}

impl Error for BotError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BotError::Graph(e) => Some(e),
            BotError::Strategy(e) => Some(e),
            BotError::Chain(e) => Some(e),
            BotError::Snapshot(e) => Some(e),
            BotError::Engine(e) => Some(e),
            BotError::Journal(e) => Some(e),
            BotError::Ingest(e) => Some(e),
            BotError::MissingPrice | BotError::RecoveryExhausted { .. } => None,
        }
    }
}

impl From<arb_graph::GraphError> for BotError {
    fn from(e: arb_graph::GraphError) -> Self {
        BotError::Graph(e)
    }
}

impl From<arb_core::StrategyError> for BotError {
    fn from(e: arb_core::StrategyError) -> Self {
        BotError::Strategy(e)
    }
}

impl From<arb_engine::EngineError> for BotError {
    fn from(e: arb_engine::EngineError) -> Self {
        match e {
            arb_engine::EngineError::Graph(g) => BotError::Graph(g),
            arb_engine::EngineError::Strategy(s) => BotError::Strategy(s),
            other => BotError::Engine(other),
        }
    }
}

impl From<arb_journal::JournalError> for BotError {
    fn from(e: arb_journal::JournalError) -> Self {
        match e {
            arb_journal::JournalError::Engine(inner) => BotError::from(inner),
            other => BotError::Journal(other),
        }
    }
}

impl From<arb_ingest::IngestError> for BotError {
    fn from(e: arb_ingest::IngestError) -> Self {
        // Unwrap into the established categories so callers match on one
        // variant per failure domain regardless of the delivery path.
        match e {
            arb_ingest::IngestError::Journal(j) => BotError::from(j),
            arb_ingest::IngestError::Engine(en) => BotError::from(en),
            other => BotError::Ingest(other),
        }
    }
}

impl From<arb_dexsim::TxError> for BotError {
    fn from(e: arb_dexsim::TxError) -> Self {
        BotError::Chain(e)
    }
}

impl From<arb_amm::AmmError> for BotError {
    fn from(e: arb_amm::AmmError) -> Self {
        BotError::Chain(arb_dexsim::TxError::Amm(e))
    }
}

impl From<arb_snapshot::SnapshotError> for BotError {
    fn from(e: arb_snapshot::SnapshotError) -> Self {
        BotError::Snapshot(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = BotError::Graph(arb_graph::GraphError::EmptyGraph);
        assert!(e.to_string().contains("graph"));
        assert!(e.source().is_some());
        assert!(BotError::MissingPrice.source().is_none());
    }
}
