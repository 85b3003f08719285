//! Deterministic fault injection and graceful-degradation proofs for
//! the arbitrage pipeline.
//!
//! A [`FaultPlan`] is a seeded schedule of fault windows over named
//! *sites* ([`site`]) — ingest sources, the journal commit path, the
//! engine's tick path. Whether a window fires at a coordinate is a pure
//! function of `(seed, site, tick)`, so the same plan replays the exact
//! same fault schedule every run; there is no wall clock and no global
//! RNG anywhere in the decision path.
//!
//! One [`ChaosInjector`] executes the plan for all seams:
//!
//! * [`SourceChaos`] — a lens over a source's event stream (delays,
//!   outages, duplicates, drops, garbage prices) with the repair
//!   bookkeeping that makes every fault *recoverable*.
//! * [`ChaosIo`] — an [`arb_journal::IoShim`] injecting write errors,
//!   fsync failures, torn tails, and ENOSPC at commit-index
//!   coordinates.
//! * [`ChaosTickHook`] — an [`arb_engine::TickHook`] injecting slow
//!   ticks and mid-tick panics.
//!
//! The [`harness`] ties them together: [`run_soak`] drives a workload
//! through the full journaled ingest pipeline under a plan, supervises
//! panics (flight-dump → journal recovery → resume), and proves the
//! post-fault rankings reconverge **bit-identical** to a never-faulted
//! oracle.

pub mod error;
pub mod harness;
pub mod injector;
pub mod journal_chaos;
pub mod plan;
pub mod site;
pub mod source_chaos;
pub mod tick_chaos;

pub use error::ChaosError;
pub use harness::{fingerprint, run_soak, standard_plan, SoakConfig, SoakOutcome, FLIGHT_DUMP};
pub use injector::{ChaosInjector, InjectedFault};
pub use journal_chaos::ChaosIo;
pub use plan::{FaultKind, FaultPlan, FaultWindow};
pub use source_chaos::SourceChaos;
pub use tick_chaos::ChaosTickHook;
