//! Errors surfaced by the chaos-soak harness.

use std::error::Error;
use std::fmt;

use arb_engine::EngineError;
use arb_ingest::IngestError;
use arb_journal::JournalError;
use arb_workloads::WorkloadError;

/// A chaos-soak run failed for a reason the harness does not treat as
/// an injected, recoverable fault.
#[derive(Debug)]
pub enum ChaosError {
    /// Scenario construction or replay failed.
    Workload(String),
    /// The ingest pipeline failed outside the planned fault surface.
    Ingest(IngestError),
    /// Journal plumbing (open, snapshot, recovery) failed.
    Journal(JournalError),
    /// The oracle leg's engine failed (never fault-injected, so this is
    /// always a genuine bug).
    Engine(EngineError),
    /// A tick panicked more times than the supervisor's recovery
    /// budget allows.
    RecoveryExhausted {
        /// Recoveries performed before giving up.
        recoveries: u32,
    },
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::Workload(msg) => write!(f, "workload error: {msg}"),
            ChaosError::Ingest(e) => write!(f, "ingest error: {e}"),
            ChaosError::Journal(e) => write!(f, "journal error: {e}"),
            ChaosError::Engine(e) => write!(f, "engine error: {e}"),
            ChaosError::RecoveryExhausted { recoveries } => write!(
                f,
                "recovery budget exhausted after {recoveries} supervised recoveries"
            ),
        }
    }
}

impl Error for ChaosError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ChaosError::Ingest(e) => Some(e),
            ChaosError::Journal(e) => Some(e),
            ChaosError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IngestError> for ChaosError {
    fn from(e: IngestError) -> Self {
        ChaosError::Ingest(e)
    }
}

impl From<JournalError> for ChaosError {
    fn from(e: JournalError) -> Self {
        ChaosError::Journal(e)
    }
}

impl From<EngineError> for ChaosError {
    fn from(e: EngineError) -> Self {
        ChaosError::Engine(e)
    }
}

impl From<WorkloadError> for ChaosError {
    fn from(e: WorkloadError) -> Self {
        ChaosError::Workload(e.to_string())
    }
}
