//! The serving wrapper: a [`ShardedRuntime`] that publishes every
//! ranking change.
//!
//! `ServeRuntime` forwards the event path verbatim and, after each
//! tick, calls [`Publisher::publish_if_changed`] keyed on the runtime's
//! `standing_revision` — so quiet ticks (nothing re-ranked) cost one
//! integer compare, and every ranking the event path ever produced is
//! observable by readers at some serve revision.

use arb_cex::feed::PriceFeed;
use arb_dexsim::events::Event;
use arb_engine::{EngineError, RuntimeReport, ShardedRuntime};

use crate::governor::{ClientClass, GovernorConfig, GovernorStats};
use crate::publish::{PublishStats, Publisher, ServeHandle, Subscription};

/// The runtime (one streaming engine) with a serving side-car: every
/// tick's ranking is published when the runtime's standing revision
/// moved.
#[derive(Debug)]
pub struct ServeRuntime {
    runtime: ShardedRuntime,
    publisher: Publisher,
}

impl ServeRuntime {
    /// Wraps a runtime; readers see the empty revision-0 snapshot until
    /// the first refresh.
    #[must_use]
    pub fn new(runtime: ShardedRuntime, governor: GovernorConfig) -> Self {
        Self::with_publisher(runtime, Publisher::new(governor))
    }

    /// Wraps a runtime with a caller-built publisher. The publisher is
    /// re-anchored, so existing handles and subscriptions stay valid
    /// and the next tick re-publishes — the checkpoint/restore path:
    /// restore the runtime, then hand the old publisher back in.
    #[must_use]
    pub fn with_publisher(runtime: ShardedRuntime, mut publisher: Publisher) -> Self {
        publisher.reanchor();
        Self { runtime, publisher }
    }

    /// Attaches observability to both halves: the wrapped runtime
    /// ([`ShardedRuntime::set_obs`] — `runtime.*` and `engine.*`) and
    /// the publisher ([`Publisher::set_obs`] — `serve.*`), all into one
    /// registry.
    pub fn set_obs(&mut self, obs: &arb_obs::Obs) {
        self.runtime.set_obs(obs);
        self.publisher.set_obs(obs);
    }

    /// Applies one event batch and publishes the ranking if it moved.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError`] from the wrapped runtime; nothing is
    /// published on error.
    pub fn apply_events<F: PriceFeed + Sync>(
        &mut self,
        events: &[Event],
        feed: &F,
    ) -> Result<RuntimeReport, EngineError> {
        let report = self.runtime.apply_events(events, feed)?;
        self.publisher
            .publish_if_changed(self.runtime.standing_revision(), &report.opportunities);
        Ok(report)
    }

    /// Brings the standing set current without events (cold start).
    ///
    /// # Errors
    ///
    /// See [`ServeRuntime::apply_events`].
    pub fn refresh<F: PriceFeed + Sync>(&mut self, feed: &F) -> Result<RuntimeReport, EngineError> {
        self.apply_events(&[], feed)
    }

    /// A reader handle in `class` (see [`Publisher::handle`]).
    #[must_use]
    pub fn handle(&self, class: ClientClass) -> ServeHandle {
        self.publisher.handle(class)
    }

    /// A delta subscription (see [`Publisher::subscribe`]).
    #[must_use]
    pub fn subscribe(&self) -> Subscription {
        self.publisher.subscribe()
    }

    /// The wrapped runtime (checkpointing, telemetry).
    #[must_use]
    pub fn runtime(&self) -> &ShardedRuntime {
        &self.runtime
    }

    /// The serve revision of the currently published snapshot.
    #[must_use]
    pub fn published_revision(&self) -> u64 {
        self.publisher.revision()
    }

    /// Publisher counters.
    #[must_use]
    pub fn publish_stats(&self) -> PublishStats {
        self.publisher.stats()
    }

    /// Admission counters.
    #[must_use]
    pub fn governor_stats(&self) -> GovernorStats {
        self.publisher.governor_stats()
    }

    /// Splits the wrapper back into runtime + publisher (checkpoint
    /// path: checkpoint the runtime, keep the publisher for
    /// [`ServeRuntime::with_publisher`] after restore).
    #[must_use]
    pub fn into_parts(self) -> (ShardedRuntime, Publisher) {
        (self.runtime, self.publisher)
    }
}
