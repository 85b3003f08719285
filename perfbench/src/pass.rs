//! One pass: every universe of the run replayed once from a fresh cold
//! start, with the reader thread running alongside and every tick
//! checked against the oracle.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

use arb_workloads::{QueryOp, Scenario};

use crate::live::{self, BenchResult, CheckpointOutcome, Fleet, SetupTimes, LAYERS};
use crate::oracle::{fingerprint, Oracle};
use crate::reader::{read_storm, ReaderTally};

/// One sampled pool universe and its reference rankings.
#[derive(Debug)]
pub struct Universe {
    pub scenario: Scenario,
    pub oracle: Oracle,
}

/// Per-layer detail gathered on a traced pass, read outside the layer
/// timers.
#[derive(Debug, Default)]
pub struct PassTrace {
    /// Microseconds per tick, one vector per layer.
    pub layer_us: [Vec<f64>; LAYERS],
    /// Allocations per layer, summed over the pass.
    pub layer_allocs: [u64; LAYERS],
    pub publishes: u64,
    pub events_in: u64,
    pub coalesced_away: u64,
    pub journal_bytes: u64,
    pub checkpoints: Vec<CheckpointOutcome>,
    pub strategy_evaluations: usize,
    pub dirty_cycles: usize,
    pub screened_cycles: usize,
    pub merge_us: Vec<f64>,
    pub snapshot_len: Vec<f64>,
    pub rebuilds: usize,
}

/// A journal frozen at a simulated crash, for recovery to replay.
#[derive(Debug)]
pub struct Crash {
    pub dir: PathBuf,
    /// The universe whose journal this is.
    pub universe: usize,
    /// The oracle's ranking digest at the crash tick.
    pub expected: u64,
}

/// What one pass measured and checked.
#[derive(Debug, Default)]
pub struct Pass {
    /// One cold start per universe.
    pub setups: Vec<SetupTimes>,
    /// Per tick: first offer → probe sees the tick's revision.
    pub visible_us: Vec<f64>,
    /// Per tick: the visible time plus any checkpoint that fell due.
    pub busy_us: Vec<f64>,
    pub raw_events: usize,
    /// Published snapshots whose ranking differed from the oracle's.
    pub mismatches: usize,
    /// Universes whose quoted profit differed from the oracle's.
    pub profit_mismatches: usize,
    pub crashes: Vec<Crash>,
    pub reads: ReaderTally,
    pub trace: Option<PassTrace>,
}

pub fn run_pass(
    universes: &[Universe],
    ops: &[QueryOp],
    dir: &Path,
    checkpoint_every_events: usize,
    traced: bool,
) -> BenchResult<Pass> {
    let mut pass = Pass {
        trace: traced.then(PassTrace::default),
        ..Pass::default()
    };
    for (index, universe) in universes.iter().enumerate() {
        let (mut fleet, setup) = Fleet::cold_start(
            &universe.scenario,
            dir.join(format!("universe-{index}")),
            checkpoint_every_events,
        )?;
        pass.setups.push(setup);
        let reader = fleet.reader();
        let stop = AtomicBool::new(false);
        let (replayed, reads) = thread::scope(|scope| {
            let storm = scope.spawn(|| read_storm(reader, ops, &stop, traced));
            let replayed = replay(&mut fleet, universe, index, traced, &mut pass);
            stop.store(true, Ordering::Relaxed);
            (replayed, storm.join())
        });
        let reads = reads
            .map_err(|_| "the reader thread panicked: a snapshot failed its coherence check")?;
        replayed?;
        pass.reads.absorb(reads);
    }
    Ok(pass)
}

/// Replays one universe's ticks on `fleet`, appending to `pass`.
fn replay(
    fleet: &mut Fleet,
    universe: &Universe,
    index: usize,
    traced: bool,
    pass: &mut Pass,
) -> BenchResult<()> {
    let Universe { scenario, oracle } = universe;
    let mut quoted_profit = 0.0;
    pass.mismatches += usize::from(fingerprint(fleet.visible().entries()) != oracle.genesis);
    let ingest_before = fleet.ingest_stats();
    let screen_before = fleet.runtime().screen_totals();
    let dirty_before = fleet.runtime().cycles_evaluated();
    let rebuilds_before = fleet.runtime().stats().rebuilds;
    let segments_before = live::segment_bytes(fleet.dir())?;
    let mut compacted = 0;
    let crash_after = scenario.ticks.len() / 2;
    let mut crashed = false;

    for (tick, (batch, &expected)) in scenario.ticks.iter().zip(&oracle.ticks).enumerate() {
        let outcome = fleet.tick(batch, traced)?;
        let segments_pre_checkpoint = match pass.trace {
            Some(_) => live::segment_bytes(fleet.dir())?,
            None => 0,
        };
        let checkpoint = fleet.checkpoint_if_due()?;
        let checkpoint_time = checkpoint.map_or(Duration::ZERO, |c| c.elapsed);
        pass.visible_us.push(outcome.visible.as_secs_f64() * 1e6);
        pass.busy_us
            .push((outcome.visible + checkpoint_time).as_secs_f64() * 1e6);
        pass.raw_events += outcome.raw_events;

        let snapshot = fleet.visible();
        pass.mismatches += usize::from(fingerprint(snapshot.entries()) != expected);
        quoted_profit += snapshot
            .entries()
            .first()
            .map_or(0.0, |o| o.net_profit.value());

        // The simulated crash: in the second half of the universe, once
        // half a checkpoint interval has been journaled since the last
        // checkpoint (or at the last tick), so every recovery replays a
        // suffix of about the same length whatever the seed.
        let last = tick + 1 == scenario.ticks.len();
        if !crashed && tick >= crash_after && (fleet.half_interval_journaled() || last) {
            let crash_dir = fleet.dir().with_extension("crash");
            copy_dir(fleet.dir(), &crash_dir)?;
            pass.crashes.push(Crash {
                dir: crash_dir,
                universe: index,
                expected,
            });
            crashed = true;
        }

        if let (Some(trace), Some(tracer)) = (pass.trace.as_mut(), outcome.trace) {
            for (i, &nanos) in tracer.nanos.iter().enumerate() {
                trace.layer_us[i].push(nanos as f64 / 1e3);
                trace.layer_allocs[i] += tracer.allocs[i].allocs;
            }
            trace.publishes += u64::from(outcome.published);
            trace
                .merge_us
                .push(fleet.runtime().stats().last_merge_nanos as f64 / 1e3);
            trace.snapshot_len.push(snapshot.len() as f64);
            if let Some(checkpoint) = checkpoint {
                compacted += segments_pre_checkpoint - live::segment_bytes(fleet.dir())?;
                trace.checkpoints.push(checkpoint);
            }
        }
    }
    pass.profit_mismatches +=
        usize::from(quoted_profit.to_bits() != oracle.quoted_profit.to_bits());

    if let Some(trace) = pass.trace.as_mut() {
        let ingest = fleet.ingest_stats();
        trace.events_in += ingest.events_in - ingest_before.events_in;
        trace.coalesced_away += ingest.coalesced_away - ingest_before.coalesced_away;
        trace.journal_bytes += live::segment_bytes(fleet.dir())? + compacted - segments_before;
        let runtime = fleet.runtime();
        let screen = runtime.screen_totals();
        let screened = |s: &arb_engine::ScreenTotals| {
            s.cycles_screened_out + s.cycles_floor_screened + s.cycles_degenerate_skipped
        };
        trace.strategy_evaluations +=
            screen.strategy_evaluations - screen_before.strategy_evaluations;
        trace.screened_cycles += screened(&screen) - screened(&screen_before);
        trace.dirty_cycles += runtime.cycles_evaluated() - dirty_before;
        trace.rebuilds += runtime.stats().rebuilds - rebuilds_before;
    }
    Ok(())
}

/// Copies a flat journal directory (segments and snapshots).
fn copy_dir(from: &Path, to: &Path) -> BenchResult<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}
