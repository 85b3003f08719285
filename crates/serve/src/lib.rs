//! # arb-serve — ranked-snapshot serving
//!
//! The paper's output is a ranked list of profitable arbitrage loops;
//! this crate is how consumers read it at scale without ever touching
//! the event path. The design splits serving from compute:
//!
//! * **Publish** ([`Publisher`]): the caller hands it each tick's
//!   ranking with the runtime's `standing_revision`, and on every change
//!   the ranking is frozen into an immutable [`RankedSnapshot`] —
//!   entries in execution priority order plus by-token / by-pool /
//!   net-profit-floor indexes built once — and swapped into a
//!   mutex-guarded cell that also advertises its revision atomically
//!   (see [`mod@publish`]).
//! * **Read** ([`ServeHandle`]): zero-copy loads from a per-handle
//!   cache that is refreshed under the lock only when the revision moved;
//!   point queries ([`RankedSnapshot::top_k`], [`RankedSnapshot::by_token`],
//!   [`RankedSnapshot::by_pool`], [`RankedSnapshot::min_net_profit`])
//!   are slice walks over the frozen indexes. Any number of reader
//!   threads; the writer holds the lock only for the swap, and a reader
//!   that holds a snapshot never blocks it.
//! * **Subscribe** ([`Subscription`]): a pull-based stream of
//!   [`RankingDelta`]s — only what changed since the subscriber's last
//!   poll, lossless under the pipeline's total ranking order
//!   ([`mod@diff`]). The subscriber computes each delta on its own
//!   thread when it polls; publishing never diffs.
//! * **Admit** ([`Governor`]): per-class token buckets
//!   ([`ClientClass`]) plus a global concurrency budget, all lock-free,
//!   so a synthetic read storm degrades into cheap denials instead of
//!   starving the event path.

#![forbid(unsafe_code)]

pub mod diff;
pub mod error;
pub mod governor;
pub mod publish;
pub mod snapshot;

pub use diff::{apply, diff, ApplyError, RankingDelta};
pub use error::ServeError;
pub use governor::{
    ClassLimit, ClientClass, Clock, Governor, GovernorConfig, GovernorStats, ManualClock,
    MonotonicClock, Permit,
};
pub use publish::{
    PublishStats, Publisher, ReadGuard, ServeHandle, Subscription, SubscriptionUpdate,
};
pub use snapshot::RankedSnapshot;
