//! The concurrent reader: one thread running the read-storm plan through
//! the governed `ServeHandle::query()` while the replay thread replays ticks.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use arb_serve::ServeHandle;
use arb_workloads::QueryOp;

use crate::alloc;

/// Every this many admitted reads the reader checks the snapshot's
/// indexes for coherence.
const COHERENCE_EVERY: u64 = 1 << 16;

/// One in this many reads is timed on a traced pass.
const TIME_EVERY: usize = 64;

/// What the reader thread did during one pass.
#[derive(Debug, Default)]
pub struct ReaderTally {
    pub admitted: u64,
    pub refused: u64,
    pub coherence_checks: u64,
    pub elapsed: Duration,
    /// Sampled query latencies in nanoseconds (traced passes only).
    pub read_ns: Vec<f64>,
}

impl ReaderTally {
    /// Adds another stretch of reading to this one.
    pub fn absorb(&mut self, other: ReaderTally) {
        self.admitted += other.admitted;
        self.refused += other.refused;
        self.coherence_checks += other.coherence_checks;
        self.elapsed += other.elapsed;
        self.read_ns.extend(other.read_ns);
    }
}

/// Issues `ops` round-robin until `stop` is set. A snapshot that fails
/// `assert_coherent` panics this thread, which the pass reports as a
/// failed check. Allocations here never count against a layer of the
/// live path.
pub fn read_storm(
    handle: ServeHandle,
    ops: &[QueryOp],
    stop: &AtomicBool,
    traced: bool,
) -> ReaderTally {
    alloc::exclude_current_thread();
    let mut tally = ReaderTally::default();
    let start = Instant::now();
    for (i, op) in ops.iter().cycle().enumerate() {
        // `Relaxed`: the flag publishes no data; the scope join orders
        // everything else.
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let timer = (traced && i % TIME_EVERY == 0).then(Instant::now);
        match handle.query() {
            Ok(snapshot) => {
                let answer = match *op {
                    QueryOp::TopK(k) => snapshot.top_k(k).len(),
                    QueryOp::ByToken(token) => snapshot.by_token(token).count(),
                    QueryOp::ByPool(pool) => snapshot.by_pool(pool).count(),
                    QueryOp::MinNetProfit(floor) => snapshot.min_net_profit(floor).count(),
                };
                black_box(answer);
                tally.admitted += 1;
                if tally.admitted % COHERENCE_EVERY == 0 {
                    snapshot.assert_coherent();
                    tally.coherence_checks += 1;
                }
            }
            Err(_) => tally.refused += 1,
        }
        if let Some(timer) = timer {
            tally.read_ns.push(timer.elapsed().as_nanos() as f64);
        }
    }
    tally.elapsed = start.elapsed();
    tally
}
