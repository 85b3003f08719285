//! Bot-level observability wiring: configuration, per-step counters,
//! periodic export, and the `/metrics`-style pull surface.
//!
//! A bot — journaled or not, supervised or not — attaches through
//! [`crate::ArbBot::enable_observability`], which builds one
//! [`arb_obs::Obs`] handle and threads it through every layer the bot
//! owns (ingest front-end, driver, runtime, publisher). The bot
//! then exposes:
//!
//! * `obs()` — the shared handle, for snapshots and flight dumps;
//! * `metrics()` — the current registry in Prometheus text format, the
//!   body a `/metrics` endpoint would serve;
//! * a periodic JSON-lines export every
//!   [`ObsConfig::export_every_steps`] steps into a caller-provided
//!   sink callback.

use std::fmt;
use std::path::PathBuf;

use arb_obs::{Counter, Obs, ObsOptions, SpanTimer};

/// How a bot attaches to the observability layer.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Flight-recorder ring capacity in events (rounded up to a power
    /// of two, minimum 16).
    pub flight_capacity: usize,
    /// Push a JSON-lines registry export into the sink callback every
    /// this many steps (0 = no periodic export; the pull surface stays
    /// available either way).
    pub export_every_steps: usize,
    /// Dump the flight recorder to this directory on a panic
    /// ([`arb_obs::install_panic_hook`]: one process-wide hook, dumping
    /// the most recently enabled bot's recorder). A journaled bot
    /// defaults this to its journal directory when unset; a bot without
    /// a journal installs no hook unless a directory is named.
    pub panic_dump_dir: Option<PathBuf>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            flight_capacity: ObsOptions::default().flight_capacity,
            export_every_steps: 0,
            panic_dump_dir: None,
        }
    }
}

/// The sink periodic exports are pushed into (a log shipper, a test
/// buffer, a file appender).
pub type ExportSink = Box<dyn FnMut(&str) + Send>;

/// Per-bot observability state: the shared handle plus the step-level
/// instruments both bots record identically.
pub(crate) struct BotObs {
    obs: Obs,
    export_every_steps: usize,
    steps_since_export: usize,
    sink: Option<ExportSink>,
    /// Wraps one whole decision step (scan → rank → execute).
    step_span: SpanTimer,
    steps: Counter,
    submissions: Counter,
}

impl fmt::Debug for BotObs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BotObs")
            .field("export_every_steps", &self.export_every_steps)
            .field("steps_since_export", &self.steps_since_export)
            .field("sink", &self.sink.as_ref().map(|_| "..."))
            .finish_non_exhaustive()
    }
}

impl BotObs {
    pub fn new(config: &ObsConfig) -> Self {
        let obs = Obs::new(ObsOptions {
            flight_capacity: config.flight_capacity,
        });
        if let Some(dir) = &config.panic_dump_dir {
            arb_obs::install_panic_hook(&obs, dir);
        }
        BotObs {
            step_span: obs.span("bot.step_ns"),
            steps: obs.registry().counter("bot.steps"),
            submissions: obs.registry().counter("bot.submissions"),
            export_every_steps: config.export_every_steps,
            steps_since_export: 0,
            sink: None,
            obs,
        }
    }

    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    pub fn set_sink(&mut self, sink: ExportSink) {
        self.sink = Some(sink);
    }

    /// The export sink, handed over when a rebuilt bot replaces this one.
    pub fn into_sink(self) -> Option<ExportSink> {
        self.sink
    }

    /// The `bot.step_ns` timer, cloned out so the caller can hold the
    /// span guard while mutably borrowing the rest of the bot.
    pub fn step_timer(&self) -> SpanTimer {
        self.step_span.clone()
    }

    /// Per-step bookkeeping: counters, then the periodic export when
    /// one is due.
    pub fn after_step(&mut self, submitted: bool) {
        self.steps.inc();
        if submitted {
            self.submissions.inc();
        }
        if self.export_every_steps == 0 {
            return;
        }
        self.steps_since_export += 1;
        if self.steps_since_export >= self.export_every_steps {
            self.steps_since_export = 0;
            let body = self.obs.json_lines();
            if let Some(sink) = &mut self.sink {
                sink(&body);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn periodic_export_fires_on_schedule() {
        let mut bot_obs = BotObs::new(&ObsConfig {
            export_every_steps: 2,
            ..ObsConfig::default()
        });
        let exports: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_exports = Arc::clone(&exports);
        bot_obs.set_sink(Box::new(move |body| {
            sink_exports.lock().unwrap().push(body.to_string());
        }));
        for step in 0..5 {
            let timer = bot_obs.step_timer();
            drop(timer.start());
            bot_obs.after_step(step % 2 == 0);
        }
        let exports = exports.lock().unwrap();
        assert_eq!(exports.len(), 2, "exports at steps 2 and 4");
        assert!(exports[0].contains("\"metric\":\"bot.steps\""));
        let snapshot = bot_obs.obs().snapshot();
        assert_eq!(snapshot.counter("bot.steps"), Some(5));
        assert_eq!(snapshot.counter("bot.submissions"), Some(3));
        assert_eq!(snapshot.histogram("bot.step_ns").unwrap().count, 5);
    }
}
