//! **arbloops** — profit maximization in AMM arbitrage loops.
//!
//! A from-scratch Rust reproduction of *"Profit Maximization In Arbitrage
//! Loops"* (Zhang et al., ICDCS 2024): given a cyclic arbitrage
//! opportunity across Uniswap-V2-style constant-product pools and CEX
//! (USD) token prices, how much can you extract, and with which strategy?
//!
//! The workspace implements the paper's contribution **and every substrate
//! it runs on**:
//!
//! | Facade module | Crate | What it is |
//! |---|---|---|
//! | [`amm`] | `arb-amm` | CPMM math: float, exact integer, Möbius chains |
//! | [`numerics`] | `arb-numerics` | scalar optimizers, dense linalg, barrier IPM |
//! | [`graph`] | `arb-graph` | token graph, cycle enumeration, BFM, Johnson |
//! | [`cex`] | `arb-cex` | order-book CEX simulation + price aggregation |
//! | [`dexsim`] | `arb-dexsim` | chain simulator: blocks, flash bundles, agents |
//! | [`snapshot`] | `arb-snapshot` | paper-calibrated synthetic Uniswap snapshots |
//! | [`convex`] | `arb-convex` | the eq. 8 convex program and its solvers |
//! | [`strategies`] | `arb-core` | Traditional, MaxPrice, MaxMax, ConvexOpt |
//! | [`engine`] | `arb-engine` | discovery → evaluation → ranking pipeline + incremental runtime |
//! | [`journal`] | `arb-journal` | durable event journal, engine snapshots, crash recovery |
//! | [`ingest`] | `arb-ingest` | staged ingestion front-end: coalescing, multiplexing, backpressure |
//! | [`workloads`] | `arb-workloads` | seeded deterministic scenario catalog (workload generator) |
//! | [`serve`] | `arb-serve` | ranked-snapshot serving: revision-cached reads, delta streams, admission control |
//! | [`chaos`] | `arb-chaos` | deterministic fault injection + chaos-soak reconvergence harness |
//! | [`bot`] | `arb-bot` | engine-driven flash-execute bot + market sim |
//!
//! # The paper's §V example, in six lines
//!
//! ```
//! use arbloops::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fee = FeeRate::UNISWAP_V2;
//! let loop_ = ArbLoop::new(
//!     vec![
//!         SwapCurve::new(100.0, 200.0, fee)?,   // X → Y
//!         SwapCurve::new(300.0, 200.0, fee)?,   // Y → Z
//!         SwapCurve::new(200.0, 400.0, fee)?,   // Z → X
//!     ],
//!     vec![TokenId::new(0), TokenId::new(1), TokenId::new(2)],
//! )?;
//! let prices = [2.0, 10.2, 20.0];
//! let mm = maxmax::evaluate(&loop_, &prices)?;          // $205.6
//! let cv = convexopt::evaluate(&loop_, &prices)?;       // $206.1
//! assert!(cv.monetized >= mm.best.monetized);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench`
//! for the binaries that regenerate every figure in the paper.

pub use arb_amm as amm;
pub use arb_bot as bot;
pub use arb_cex as cex;
pub use arb_chaos as chaos;
pub use arb_convex as convex;
pub use arb_core as strategies;
pub use arb_dexsim as dexsim;
pub use arb_engine as engine;
pub use arb_graph as graph;
pub use arb_ingest as ingest;
pub use arb_journal as journal;
pub use arb_numerics as numerics;
pub use arb_obs as obs;
pub use arb_serve as serve;
pub use arb_snapshot as snapshot;
pub use arb_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use arb_amm::{
        curve::SwapCurve, exact::RawPool, fee::FeeRate, mobius::Mobius, pool::Pool, pool::PoolId,
        token::TokenId, token::TokenRegistry,
    };
    pub use arb_bot::{
        sim::{MarketSim, MarketSimConfig},
        ArbBot, BotConfig, JournalSettings, ObsConfig, StrategyChoice, SupervisedBot,
    };
    pub use arb_cex::feed::{PriceFeed, PriceTable};
    pub use arb_chaos::{
        run_soak, standard_plan, ChaosError, ChaosInjector, ChaosIo, ChaosTickHook, FaultKind,
        FaultPlan, FaultWindow, InjectedFault, SoakConfig, SoakOutcome, SourceChaos,
    };
    pub use arb_convex::{Formulation, LoopPlan, LoopProblem, SolverOptions};
    pub use arb_core::{
        backoff::{Backoff, BackoffConfig},
        convexopt,
        loop_def::ArbLoop,
        maxmax, maxprice,
        monetize::Usd,
        report::{compare, CompareOptions},
        traditional::{self, Method},
        Strategy, StrategyError, StrategyOutcome,
    };
    pub use arb_dexsim::{
        chain::{Chain, EventCursor},
        events::Event,
        tx::{BundleStep, Transaction},
        units::{to_display, to_raw},
    };
    pub use arb_engine::{
        ArbitrageOpportunity, EngineError, OpportunityPipeline, PipelineConfig, PipelineReport,
        RankingPolicy, RuntimeCheckpoint, RuntimeReport, RuntimeStats, ScreenTotals,
        ShardedRuntime, TickHook,
    };
    pub use arb_graph::{Cycle, CycleId, CycleIndex, SyncOutcome, TokenGraph};
    pub use arb_ingest::{
        coalesce, HealthConfig, HealthMonitor, HealthState, IngestBatch, IngestConfig,
        IngestDriver, IngestError, IngestHandle, IngestStats, Ingestor, LagPolicy, SourceId,
    };
    pub use arb_journal::{
        IoShim, JournalConfig, JournalCursor, JournalError, JournalReader, JournalWriter,
        RecoveredStream, Recovery, RecoveryStats, SnapshotStore, WriteVerdict,
    };
    pub use arb_obs::{FlightRecorder, Obs, ObsOptions, Registry, RegistrySnapshot};
    pub use arb_serve::{
        ClientClass, GovernorConfig, Publisher, RankedSnapshot, RankingDelta, ServeError,
        ServeHandle, Subscription, SubscriptionUpdate,
    };
    pub use arb_snapshot::{Generator, Snapshot, SnapshotConfig};
    pub use arb_workloads::{Scenario, ScenarioConfig, TickBatch, WorkloadSpec};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        use crate::prelude::*;
        let fee = FeeRate::UNISWAP_V2;
        assert_eq!(fee.ppm(), 3000);
        let _ = TokenId::new(0);
        let _ = SnapshotConfig::default();
    }
}
