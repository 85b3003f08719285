//! Ingest error type.

use std::error::Error;
use std::fmt;

/// Errors from the ingestion front-end.
#[derive(Debug)]
#[non_exhaustive]
pub enum IngestError {
    /// An [`crate::SourceId`] that this ingestor never registered.
    UnknownSource(usize),
    /// Journaling the multiplexed stream failed.
    Journal(arb_journal::JournalError),
    /// Applying a consumed batch to the runtime failed.
    Engine(arb_engine::EngineError),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::UnknownSource(index) => {
                write!(f, "unknown ingest source index {index}")
            }
            IngestError::Journal(e) => write!(f, "ingest journal error: {e}"),
            IngestError::Engine(e) => write!(f, "ingest engine error: {e}"),
        }
    }
}

impl Error for IngestError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IngestError::Journal(e) => Some(e),
            IngestError::Engine(e) => Some(e),
            IngestError::UnknownSource(_) => None,
        }
    }
}

impl From<arb_journal::JournalError> for IngestError {
    fn from(e: arb_journal::JournalError) -> Self {
        IngestError::Journal(e)
    }
}

impl From<arb_engine::EngineError> for IngestError {
    fn from(e: arb_engine::EngineError) -> Self {
        IngestError::Engine(e)
    }
}
