//! A std-only observability substrate for the arbitrage stack.
//!
//! Everything the paper's empirical claims rest on — screen discharge
//! rates, incremental-refresh latencies, ingest coalescing ratios —
//! used to live in per-crate stats structs visible only through
//! `Display` one-liners. This crate is the one pipe they all report
//! through:
//!
//! * [`Registry`] — hierarchical names → atomic counters, gauges, and
//!   log-linear latency histograms (p50/p90/p99/max with no allocation
//!   on the record path);
//! * [`SpanTimer`]/[`Span`] — RAII tracing spans with a per-thread
//!   depth stack, so one tick yields a complete latency breakdown
//!   (`ingest.seal → engine.refresh → serve.publish`);
//! * [`FlightRecorder`] — a fixed-size lock-free ring of recent span
//!   and mark events, snapshotted on demand or from a panic hook and
//!   dumped as JSON-lines for post-mortem;
//! * [`export`] — Prometheus-text and JSON-lines encoders over a
//!   registry snapshot.
//!
//! [`Obs`] bundles a registry and a flight recorder into the single
//! cheap-to-clone handle the runtime crates thread through their
//! `set_obs`/`with_obs` hooks. With no `Obs` attached the instrumented
//! code paths cost one branch.
//!
//! ```
//! use arb_obs::Obs;
//!
//! let obs = Obs::default();
//! let tick = obs.span("runtime.tick");
//! let events_in = obs.registry().counter("ingest.events_in");
//! for n in 0..3u64 {
//!     let _tick = tick.start();
//!     events_in.add(10);
//!     obs.marker("ingest.tick").mark(n);
//! }
//! let snap = obs.registry().snapshot();
//! assert_eq!(snap.counter("ingest.events_in"), Some(30));
//! assert_eq!(snap.histogram("runtime.tick").unwrap().count, 3);
//! // Export either way:
//! assert!(obs.prometheus_text().contains("ingest_events_in 30"));
//! assert!(obs.json_lines().contains("\"metric\":\"runtime.tick\""));
//! // Post-mortem ring: 3 spans + 3 marks.
//! assert_eq!(obs.flight().snapshot().len(), 6);
//! ```

pub mod export;
pub mod flight;
pub mod registry;
pub mod span;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, Once, PoisonError};

pub use flight::{EventKind, FlightEvent, FlightRecorder};
pub use registry::{
    bucket_bounds, bucket_width, Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, NameId,
    Registry, RegistrySnapshot,
};
pub use span::{Span, SpanTimer};

/// File name panic-hook dumps are written under
/// (see [`install_panic_hook`]).
pub const FLIGHT_DUMP_FILE: &str = "flight-recorder.jsonl";

/// Observability tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsOptions {
    /// Flight-recorder ring capacity in events (rounded up to a power
    /// of two).
    pub flight_capacity: usize,
}

impl Default for ObsOptions {
    fn default() -> Self {
        ObsOptions {
            flight_capacity: 4096,
        }
    }
}

/// The bundled observability handle: one registry plus one flight
/// recorder. Clones share both; this is what the runtime crates accept
/// in their `set_obs` hooks.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    registry: Registry,
    flight: FlightRecorder,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(ObsOptions::default().flight_capacity)
    }
}

impl Obs {
    /// A fresh registry + flight recorder.
    #[must_use]
    pub fn new(options: ObsOptions) -> Self {
        Obs {
            registry: Registry::new(),
            flight: FlightRecorder::new(options.flight_capacity),
        }
    }

    /// The shared registry.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The shared flight recorder.
    #[must_use]
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Resolves a span timer: a histogram under `name` plus flight
    /// recording. Resolve once per call site and reuse.
    #[must_use]
    pub fn span(&self, name: &str) -> SpanTimer {
        SpanTimer::new(
            self.registry.intern(name),
            self.registry.histogram(name),
            Some(self.flight.clone()),
        )
    }

    /// Resolves a marker for point events under `name`.
    #[must_use]
    pub fn marker(&self, name: &str) -> Marker {
        Marker {
            name: self.registry.intern(name),
            flight: self.flight.clone(),
        }
    }

    /// A point-in-time view of every registered instrument.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }

    /// The current snapshot in Prometheus text format — the
    /// `/metrics`-style pull body.
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        export::prometheus_text(&self.snapshot())
    }

    /// The current snapshot as JSON-lines.
    #[must_use]
    pub fn json_lines(&self) -> String {
        export::json_lines(&self.snapshot())
    }

    /// The flight-recorder ring as JSON-lines.
    #[must_use]
    pub fn dump_flight(&self) -> String {
        self.flight.dump_jsonl(&self.registry)
    }

    /// Writes the flight-recorder ring to `path` as JSON-lines.
    ///
    /// # Errors
    ///
    /// Propagates file creation/write failures.
    pub fn dump_flight_to(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.dump_flight().as_bytes())?;
        file.flush()
    }
}

/// A resolved point-event instrument (see [`Obs::marker`]).
#[derive(Debug, Clone)]
pub struct Marker {
    name: NameId,
    flight: FlightRecorder,
}

impl Marker {
    /// Records a point event carrying `value` into the flight ring.
    pub fn mark(&self, value: u64) {
        self.flight.mark(self.name, value);
    }
}

/// The recorder the panic hook dumps, and where (see
/// [`install_panic_hook`]).
static PANIC_DUMP: Mutex<Option<(Obs, PathBuf)>> = Mutex::new(None);

/// Makes `obs`'s flight recorder the one a panic dumps to
/// `dir/`[`FLIGHT_DUMP_FILE`]. The process-wide hook is installed on the
/// first call and delegates to the hook it replaced; later calls only
/// swap the dumped recorder, so a rebuilt component's trail replaces
/// its predecessor's instead of stacking a second hook behind it.
pub fn install_panic_hook(obs: &Obs, dir: &Path) {
    static HOOK: Once = Once::new();
    *PANIC_DUMP.lock().unwrap_or_else(PoisonError::into_inner) =
        Some((obs.clone(), dir.join(FLIGHT_DUMP_FILE)));
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Some((obs, path)) = &*PANIC_DUMP.lock().unwrap_or_else(PoisonError::into_inner) {
                let _ = obs.dump_flight_to(path);
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_bundles_registry_and_flight() {
        let obs = Obs::new(ObsOptions {
            flight_capacity: 32,
        });
        let timer = obs.span("x.y_ns");
        drop(timer.start());
        obs.marker("x.tick").mark(9);
        assert_eq!(obs.snapshot().histogram("x.y_ns").unwrap().count, 1);
        let dump = obs.dump_flight();
        assert!(dump.contains("\"name\":\"x.y_ns\""));
        assert!(dump.contains("\"name\":\"x.tick\""));
        assert!(dump.contains("\"value\":9"));
    }

    #[test]
    fn dump_flight_to_writes_the_file() {
        let dir = std::env::temp_dir().join(format!(
            "arb-obs-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let obs = Obs::default();
        obs.marker("t").mark(1);
        let path = dir.join(FLIGHT_DUMP_FILE);
        obs.dump_flight_to(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"name\":\"t\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
