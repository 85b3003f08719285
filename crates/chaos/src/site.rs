//! Fault-site naming: the dotted coordinates a [`crate::FaultPlan`]
//! aims at.
//!
//! A *site* is a place in the pipeline where faults can be injected,
//! named with the same dotted scheme the metrics registry uses
//! (`layer.component`), so a plan window, the `chaos.<site>` flight
//! marks, and the `health.<site>.state` gauges all speak one
//! vocabulary:
//!
//! | site                    | faults it accepts                      |
//! |-------------------------|----------------------------------------|
//! | `ingest.source.<name>`  | delay / stall / duplicate / drop /     |
//! |                         | garbage-price                          |
//! | `ingest.consumer`       | (health only — driven by backpressure) |
//! | `journal.io`            | write-error / fsync-error / torn-write |
//! |                         | / disk-full                            |
//! | `engine.tick`           | slow-tick / panic-tick                 |

/// The journal commit path ([`arb_journal::IoShim`] seam).
pub const JOURNAL_IO: &str = "journal.io";

/// The downstream consumer of the ingest queue (health-tracked via
/// backpressure; not directly injectable).
pub const CONSUMER: &str = "ingest.consumer";

/// The site name of a registered ingest source.
#[must_use]
pub fn source(name: &str) -> String {
    format!("ingest.source.{name}")
}

/// The runtime's tick path ([`arb_engine::TickHook`] seam).
pub const ENGINE_TICK: &str = "engine.tick";

#[cfg(test)]
mod tests {
    #[test]
    fn sites_follow_the_dotted_scheme() {
        assert_eq!(super::source("feed"), "ingest.source.feed");
        assert_eq!(super::ENGINE_TICK, "engine.tick");
        assert_eq!(super::JOURNAL_IO, "journal.io");
    }
}
