//! Error type for graph construction and queries.

use std::error::Error;
use std::fmt;

/// Errors from token-graph operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// The graph has no pools.
    EmptyGraph,
    /// A cycle length below 2 was requested.
    CycleTooShort,
    /// A referenced pool or token does not exist in this graph.
    UnknownReference,
    /// A cycle's hops do not connect into a loop.
    DisconnectedCycle,
    /// Pool construction failed (forwarded from `arb-amm`).
    Amm(arb_amm::AmmError),
    /// Checkpointed state (a cycle-index arena) is internally inconsistent with the graph it is being restored
    /// against.
    InvalidCheckpoint(&'static str),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::EmptyGraph => write!(f, "token graph has no pools"),
            GraphError::CycleTooShort => write!(f, "cycle length must be at least 2"),
            GraphError::UnknownReference => write!(f, "unknown token or pool reference"),
            GraphError::DisconnectedCycle => write!(f, "cycle hops do not form a loop"),
            GraphError::Amm(e) => write!(f, "amm error: {e}"),
            GraphError::InvalidCheckpoint(reason) => {
                write!(f, "invalid checkpoint state: {reason}")
            }
        }
    }
}

impl Error for GraphError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GraphError::Amm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<arb_amm::AmmError> for GraphError {
    fn from(e: arb_amm::AmmError) -> Self {
        GraphError::Amm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        assert!(!GraphError::EmptyGraph.to_string().is_empty());
        assert!(GraphError::Amm(arb_amm::AmmError::SameToken)
            .to_string()
            .contains("amm"));
    }
}
