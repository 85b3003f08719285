//! The chaos-soak harness: drive a workload through the full journaled
//! ingest pipeline under a [`FaultPlan`], supervise panics, and prove
//! the run reconverges to a never-faulted oracle.
//!
//! Layout of one soak:
//!
//! * **Oracle leg** — the scenario fed straight into a plain
//!   [`ShardedRuntime`], no ingest, no journal, no faults. Its final
//!   ranking is the ground truth.
//! * **Faulted leg** — the same scenario through [`Ingestor`] →
//!   journal (with a [`ChaosIo`] shim) → [`IngestDriver`] (with a
//!   [`ChaosTickHook`]), each source's stream first passed through a
//!   [`SourceChaos`] lens. A supervisor catches mid-tick panics, dumps
//!   the flight recorder, recovers the runtime and price table from
//!   the journal via [`Recovery::recover_journaled`], and resumes the
//!   stream at the recovered positions.
//! * **Quiet tail** — fault-free idle seals that let the lenses release
//!   held/repaired events and the journal health machine recommit any
//!   backlog, after which the final rankings are fingerprinted and
//!   compared bit-for-bit.
//!
//! Everything that decides *what happens* is a pure function of the
//! plan seed and deterministic counters, so a same-seed rerun
//! reproduces the identical fault log and the identical final
//! fingerprint — wall clock is only ever *measured* (recovery timing),
//! never consulted.

use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use arb_amm::token::TokenId;
use arb_cex::feed::PriceTable;
use arb_dexsim::events::Event;
use arb_engine::{
    ArbitrageOpportunity, OpportunityPipeline, PipelineConfig, RuntimeReport, ShardedRuntime,
};
use arb_ingest::{
    IngestConfig, IngestDriver, IngestError, IngestStats, Ingestor, LagPolicy, SourceId,
};
use arb_journal::{JournalConfig, JournalError, JournalWriter, Recovery, SnapshotStore};
use arb_obs::Obs;
use arb_workloads::{Scenario, ScenarioConfig, WorkloadSpec};

use crate::error::ChaosError;
use crate::injector::{ChaosInjector, InjectedFault};
use crate::journal_chaos::ChaosIo;
use crate::plan::{FaultKind, FaultPlan};
use crate::site;
use crate::source_chaos::SourceChaos;
use crate::tick_chaos::ChaosTickHook;

/// Name of the flight-recorder dump the supervisor writes into the
/// soak directory on every recovery.
pub const FLIGHT_DUMP: &str = "chaos-flight.log";

/// Bound on commit retries while flushing the journal backlog during a
/// recovery. Each attempt advances the `journal.io` coordinate, so any
/// finite plan window is outrun long before this.
const MAX_FLUSH_ATTEMPTS: u32 = 4096;

/// Sizing and placement for one soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Scenario sizing (seed, universe, tick count).
    pub scenario: ScenarioConfig,
    /// Write a snapshot every this many ticks when the journal backlog
    /// is clear (`0` = never; recovery then replays from genesis).
    pub checkpoint_every: u64,
    /// Fault-free idle seals after the last scenario tick. Must cover
    /// the journal health machine's worst-case backoff so a degraded
    /// journal recommits before the final fingerprint.
    pub quiet_tail: usize,
    /// Journal/snapshot directory. Must be empty or absent — the soak
    /// owns its contents.
    pub dir: PathBuf,
    /// Supervised recoveries allowed before the soak gives up.
    pub max_recoveries: u32,
}

impl SoakConfig {
    /// Defaults sized like the equivalence suite (48 pools, 32 ticks),
    /// journaling into `dir`.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SoakConfig {
            scenario: ScenarioConfig::default(),
            checkpoint_every: 8,
            quiet_tail: 24,
            dir: dir.into(),
            max_recoveries: 8,
        }
    }
}

/// What one soak run produced.
#[derive(Debug)]
pub struct SoakOutcome {
    /// The workload that ran.
    pub workload: &'static str,
    /// Every fault that actually fired, in fire order.
    pub faults: Vec<InjectedFault>,
    /// Fingerprint of the faulted leg's final ranking.
    pub fingerprint: u64,
    /// Fingerprint of the oracle leg's final ranking.
    pub oracle_fingerprint: u64,
    /// Supervised panic recoveries performed.
    pub recoveries: u32,
    /// Wall time of each recovery (journal flush + restore + replay +
    /// rewire), in nanoseconds.
    pub recovery_wall_ns: Vec<u64>,
    /// The faulted leg's ingest counters at the end of the run.
    pub stats: IngestStats,
    /// Size of the final ranking (guards against vacuous equality).
    pub final_opportunities: usize,
    /// Journal events still uncommitted at the end (should be zero —
    /// the quiet tail exists to drain this).
    pub journal_pending_at_end: u64,
}

impl SoakOutcome {
    /// Whether the faulted leg's final ranking is bit-identical to the
    /// never-faulted oracle's.
    #[must_use]
    pub fn reconverged(&self) -> bool {
        self.fingerprint == self.oracle_fingerprint
    }
}

/// Order-sensitive fingerprint of a ranking: folds every field the
/// equivalence suite compares bit-for-bit (cycle tokens/pools, strategy,
/// gross and net profit bits, input-vector shape).
#[must_use]
pub fn fingerprint(opportunities: &[ArbitrageOpportunity]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut fold = |value: u64| {
        hash = mix(hash ^ value);
    };
    fold(opportunities.len() as u64);
    for opportunity in opportunities {
        for token in opportunity.cycle.tokens() {
            fold(token.index() as u64);
        }
        for pool in opportunity.cycle.pools() {
            fold(pool.index() as u64 | 1 << 32);
        }
        for byte in format!("{:?}", opportunity.strategy).bytes() {
            fold(u64::from(byte) | 1 << 33);
        }
        fold(opportunity.gross_profit.value().to_bits());
        fold(opportunity.net_profit.value().to_bits());
        fold(opportunity.optimal_inputs.len() as u64);
    }
    hash
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The canonical all-sites plan for a run of `ticks` scenario ticks:
/// bad-data and outage windows on both sources, every journal fault
/// kind, a slow-tick window, and one mid-tick panic at the
/// three-quarter mark. Tick 0 is left clean so the genesis feed prefix
/// lands before the first fault.
#[must_use]
pub fn standard_plan(seed: u64, ticks: u64) -> FaultPlan {
    let t = ticks.max(16);
    let feed = site::source("feed");
    let chain = site::source("chain");
    FaultPlan::new(seed)
        // Feed source: bad data.
        .with_window(&feed, t / 8..t / 4, FaultKind::GarbagePrice, 400_000)
        .with_window(&feed, t / 4..t * 3 / 8, FaultKind::DropEvents, 400_000)
        .with_window(&feed, t / 2..t * 5 / 8, FaultKind::DuplicateEvents, 500_000)
        // Chain source: outages and replays.
        .with_window(&chain, t / 6..t / 6 + 2, FaultKind::DelayEvents, 1_000_000)
        .with_window(
            &chain,
            t * 3 / 8..t * 3 / 8 + 2,
            FaultKind::StallSource,
            1_000_000,
        )
        .with_window(&chain, t * 5 / 8..t * 3 / 4, FaultKind::DropEvents, 300_000)
        // Journal I/O (commit-index coordinates track seal ticks).
        .with_window(
            site::JOURNAL_IO,
            t / 3..t / 3 + 2,
            FaultKind::WriteError,
            1_000_000,
        )
        .with_window(
            site::JOURNAL_IO,
            t / 2..t / 2 + 1,
            FaultKind::TornWrite,
            1_000_000,
        )
        .with_window(
            site::JOURNAL_IO,
            t * 2 / 3..t * 2 / 3 + 1,
            FaultKind::FsyncError,
            1_000_000,
        )
        .with_window(
            site::JOURNAL_IO,
            t * 7 / 8..t * 7 / 8 + 1,
            FaultKind::DiskFull,
            1_000_000,
        )
        // Engine ticks: one slow window, one mid-tick panic.
        .with_window(
            site::ENGINE_TICK,
            t / 3..t / 3 + 2,
            FaultKind::SlowTick,
            1_000_000,
        )
        .with_window(
            site::ENGINE_TICK,
            t * 3 / 4..t * 3 / 4 + 1,
            FaultKind::PanicTick,
            1_000_000,
        )
}

/// Runs one workload under `plan` and compares against the oracle.
///
/// # Errors
///
/// [`ChaosError`] when the scenario cannot be built, the pipeline fails
/// outside the planned fault surface, or the recovery budget runs out.
pub fn run_soak(
    spec: &WorkloadSpec,
    config: &SoakConfig,
    plan: FaultPlan,
    obs: Option<&Obs>,
) -> Result<SoakOutcome, ChaosError> {
    let scenario = spec.scenario(&config.scenario)?;
    let pipeline = OpportunityPipeline::new(PipelineConfig::default());

    // Oracle leg: the never-faulted ground truth.
    let mut oracle_feed = scenario.feed.clone();
    let mut oracle = ShardedRuntime::new(pipeline.clone(), scenario.pools.clone(), 1)?;
    for batch in &scenario.ticks {
        batch.apply_feed(&mut oracle_feed);
        oracle.apply_events(&batch.events, &oracle_feed)?;
    }
    let oracle_final = oracle.apply_events(&[], &oracle_feed)?;
    let oracle_fingerprint = fingerprint(&oracle_final.opportunities);

    // Faulted leg.
    std::fs::create_dir_all(&config.dir).map_err(|e| ChaosError::Journal(JournalError::from(e)))?;
    let injector = Arc::new(ChaosInjector::new(plan));
    if let Some(obs) = obs {
        injector.set_obs(obs);
    }
    let mut rig = SoakRig::build(&scenario, config, &pipeline, &injector, obs)?;

    let mut feed_chaos = SourceChaos::new(Arc::clone(&injector), site::source("feed"));
    let mut chain_chaos = SourceChaos::new(Arc::clone(&injector), site::source("chain"));

    // The faulted leg starts with an *empty* price table and learns the
    // genesis prices from the stream itself, so the journal alone can
    // rebuild the feed on recovery. Sorted for a deterministic stream.
    let mut genesis_feed: Vec<(TokenId, f64)> = scenario.feed.iter().collect();
    genesis_feed.sort_by_key(|&(token, _)| token.index());

    for (tick_index, batch) in scenario.ticks.iter().enumerate() {
        let tick = tick_index as u64;
        let mut feed_events: Vec<Event> = Vec::new();
        if tick_index == 0 {
            feed_events.extend(
                genesis_feed
                    .iter()
                    .map(|&(token, price)| Event::feed_price(token, price)),
            );
        }
        feed_events.extend(
            batch
                .feed_moves
                .iter()
                .map(|&(token, price)| Event::feed_price(token, price)),
        );
        rig.offer_feed(feed_chaos.transform(tick, feed_events))?;
        rig.offer_chain(chain_chaos.transform(tick, batch.events.clone()))?;
        rig.seal_and_drain()?;
        if config.checkpoint_every > 0 && (tick + 1).is_multiple_of(config.checkpoint_every) {
            rig.maybe_checkpoint()?;
        }
    }

    // Quiet tail: release lens backlogs, then idle seals until the
    // journal backlog drains and health machines walk back to normal.
    rig.offer_feed(feed_chaos.flush())?;
    rig.offer_chain(chain_chaos.flush())?;
    for _ in 0..config.quiet_tail.max(1) {
        rig.seal_and_drain()?;
    }

    let final_report = rig
        .last_report
        .as_ref()
        .expect("at least one batch was sealed and applied");
    let soak_fingerprint = fingerprint(&final_report.opportunities);
    let final_opportunities = final_report.opportunities.len();
    let stats = rig.ingestor.stats();
    let journal_pending_at_end = rig
        .writer
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .pending_events();

    if let Some(obs) = obs {
        let reconverged = u64::from(soak_fingerprint == oracle_fingerprint);
        obs.registry()
            .gauge("chaos.reconverged")
            .set(reconverged as f64);
    }

    Ok(SoakOutcome {
        workload: scenario.name,
        faults: injector.log(),
        fingerprint: soak_fingerprint,
        oracle_fingerprint,
        recoveries: rig.recoveries,
        recovery_wall_ns: rig.recovery_wall_ns,
        stats,
        final_opportunities,
        journal_pending_at_end,
    })
}

/// The faulted leg's moving parts, rebuilt wholesale on every
/// supervised recovery.
struct SoakRig<'a> {
    config: &'a SoakConfig,
    pipeline: OpportunityPipeline,
    scenario: &'a Scenario,
    injector: Arc<ChaosInjector>,
    obs: Option<Obs>,
    writer: Arc<Mutex<JournalWriter>>,
    store: SnapshotStore,
    ingestor: Ingestor,
    driver: IngestDriver,
    feed_source: SourceId,
    chain_source: SourceId,
    /// Full transformed per-source streams (feed, chain) — the replay
    /// source for delivered-but-not-yet-durable suffixes on recovery.
    history: [Vec<Event>; 2],
    recoveries: u32,
    recovery_wall_ns: Vec<u64>,
    last_report: Option<RuntimeReport>,
}

impl<'a> SoakRig<'a> {
    fn ingest_config() -> IngestConfig {
        IngestConfig {
            queue_capacity: 8,
            lag_policy: LagPolicy::BlockSource,
            coalesce: true,
            max_stall: Some(Duration::from_millis(50)),
            ..IngestConfig::default()
        }
    }

    fn build(
        scenario: &'a Scenario,
        config: &'a SoakConfig,
        pipeline: &OpportunityPipeline,
        injector: &Arc<ChaosInjector>,
        obs: Option<&Obs>,
    ) -> Result<Self, ChaosError> {
        let mut writer = JournalWriter::open(&config.dir, JournalConfig::default())
            .map_err(|e| ChaosError::Journal(JournalError::from(e)))?;
        writer.set_io_shim(Box::new(ChaosIo::new(Arc::clone(injector))));
        let writer = Arc::new(Mutex::new(writer));
        let store = SnapshotStore::new(&config.dir)?;

        let mut ingestor = Ingestor::new(Self::ingest_config()).with_journal(Arc::clone(&writer));
        let feed_source = ingestor.register_source("feed");
        let chain_source = ingestor.register_source("chain");
        if let Some(obs) = obs {
            ingestor.set_obs(obs);
        }
        let runtime = ShardedRuntime::new(pipeline.clone(), scenario.pools.clone(), 1)?;
        let mut driver = IngestDriver::new(runtime, PriceTable::new(), ingestor.handle());
        if let Some(obs) = obs {
            driver.set_obs(obs);
        }
        driver
            .runtime_mut()
            .set_tick_hook(Arc::new(ChaosTickHook::new(Arc::clone(injector))));

        Ok(SoakRig {
            config,
            pipeline: pipeline.clone(),
            scenario,
            injector: Arc::clone(injector),
            obs: obs.cloned(),
            writer,
            store,
            ingestor,
            driver,
            feed_source,
            chain_source,
            history: [Vec::new(), Vec::new()],
            recoveries: 0,
            recovery_wall_ns: Vec::new(),
            last_report: None,
        })
    }

    fn offer_feed(&mut self, events: Vec<Event>) -> Result<(), ChaosError> {
        self.history[0].extend(events.iter().copied());
        self.ingestor.offer(self.feed_source, events)?;
        Ok(())
    }

    fn offer_chain(&mut self, events: Vec<Event>) -> Result<(), ChaosError> {
        self.history[1].extend(events.iter().copied());
        self.ingestor.offer(self.chain_source, events)?;
        Ok(())
    }

    /// Seals the staged block and drains it into the runtime,
    /// supervising the drain: a panicked tick triggers journal-based
    /// recovery and a retry of the same coordinate (the injector's
    /// fire-once latch guarantees the retry can pass).
    fn seal_and_drain(&mut self) -> Result<(), ChaosError> {
        loop {
            match self.ingestor.seal_block() {
                // A stall timeout merged the block into the queue tail;
                // nothing is lost and the drain below clears the queue.
                Ok(_) | Err(IngestError::StallTimeout { .. }) => {}
                Err(error) => return Err(error.into()),
            }
            match panic::catch_unwind(AssertUnwindSafe(|| self.driver.drain())) {
                Ok(Ok(report)) => {
                    if let Some(report) = report {
                        self.last_report = Some(report);
                    }
                    return Ok(());
                }
                Ok(Err(error)) => return Err(error.into()),
                Err(_panic_payload) => self.recover()?,
            }
        }
    }

    /// The supervisor: flight-dump, flush the journal backlog, rebuild
    /// runtime + feed from disk, rewire the ingest front-end at the
    /// recovered stream positions, and re-offer anything delivered but
    /// not yet durable.
    fn recover(&mut self) -> Result<(), ChaosError> {
        self.recoveries += 1;
        if self.recoveries > self.config.max_recoveries {
            return Err(ChaosError::RecoveryExhausted {
                recoveries: self.recoveries - 1,
            });
        }
        let started = Instant::now();
        if let Some(obs) = &self.obs {
            let _ = obs.dump_flight_to(&self.config.dir.join(FLIGHT_DUMP));
            obs.registry().counter("chaos.recoveries").inc();
        }

        // Make everything the dead runtime had applied durable, so the
        // journal replay reaches the exact pre-panic stream position.
        // Each attempt advances the chaos commit index, so finite fault
        // windows cannot pin this loop.
        {
            let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
            let mut attempts = 0u32;
            while writer.pending_events() > 0 {
                if writer.commit().is_ok() {
                    break;
                }
                attempts += 1;
                if attempts > MAX_FLUSH_ATTEMPTS {
                    return Err(ChaosError::Journal(JournalError::from(
                        std::io::Error::other("journal backlog would not flush during recovery"),
                    )));
                }
            }
        }

        let recovered = Recovery::new(&self.config.dir, self.pipeline.clone(), 1)
            .with_genesis_pools(self.scenario.pools.clone())
            .recover_journaled()?;
        let feed_pos = recovered.source_positions.first().copied().unwrap_or(0)
            + recovered.feed_events_replayed as u64;
        let chain_pos = recovered.source_positions.get(1).copied().unwrap_or(0)
            + (recovered.genesis_bootstrap_events + recovered.chain_events_replayed) as u64;

        let mut ingestor =
            Ingestor::new(Self::ingest_config()).with_journal(Arc::clone(&self.writer));
        let feed_source = ingestor.register_source("feed");
        let chain_source = ingestor.register_source("chain");
        ingestor.restore_positions(&[feed_pos, chain_pos])?;
        if let Some(obs) = &self.obs {
            ingestor.set_obs(obs);
        }
        let mut driver = IngestDriver::new(recovered.runtime, recovered.feed, ingestor.handle());
        if let Some(obs) = &self.obs {
            driver.set_obs(obs);
        }
        driver
            .runtime_mut()
            .set_tick_hook(Arc::new(ChaosTickHook::new(Arc::clone(&self.injector))));

        // Replay the delivered-but-not-durable suffix (empty whenever
        // the backlog flush above succeeded, which it must have to get
        // here — kept for positions recorded by an older snapshot).
        let feed_suffix: Vec<Event> = self.history[0]
            .get(feed_pos as usize..)
            .unwrap_or_default()
            .to_vec();
        let chain_suffix: Vec<Event> = self.history[1]
            .get(chain_pos as usize..)
            .unwrap_or_default()
            .to_vec();
        ingestor.offer(feed_source, feed_suffix)?;
        ingestor.offer(chain_source, chain_suffix)?;

        self.ingestor = ingestor;
        self.driver = driver;
        self.feed_source = feed_source;
        self.chain_source = chain_source;

        let wall = started.elapsed().as_nanos() as u64;
        if let Some(obs) = &self.obs {
            obs.registry().histogram("chaos.recovery_ns").record(wall);
        }
        self.recovery_wall_ns.push(wall);
        Ok(())
    }

    /// Writes a snapshot if (and only if) the journal backlog is clear —
    /// a snapshot taken over undurable state would lie about its offset.
    fn maybe_checkpoint(&mut self) -> Result<(), ChaosError> {
        let durable_offset = {
            let writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
            if writer.pending_events() > 0 {
                return Ok(());
            }
            writer.durable_offset()
        };
        let mut checkpoint = self.driver.checkpoint();
        checkpoint.source_positions = self.ingestor.source_positions();
        self.store.write(durable_offset, &checkpoint)?;
        Ok(())
    }
}
