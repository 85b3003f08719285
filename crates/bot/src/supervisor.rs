//! Panic supervision for a journaled bot: catch a mid-tick panic,
//! dump the flight recorder, rebuild from the journal, and retry the
//! same step — bounded by a recovery budget.
//!
//! [`SupervisedBot`] is the last layer of the graceful-degradation
//! story. The layers below it already turn *partial* failures into
//! degraded-but-correct operation (source health quarantine, journal
//! write retry with append-side buffering, checkpoint deferral); what
//! remains is the failure that kills the tick itself — a panic inside
//! the runtime's tick. The supervisor turns that into a bounded outage:
//!
//! 1. the panic is caught at the step boundary ([`std::panic::catch_unwind`]);
//! 2. the flight recorder (when observability is on) is dumped next to
//!    the journal, so the post-mortem trail survives even though the
//!    process does not die;
//! 3. the bot rebuilds itself from the journal — same account, same
//!    journal directory — replaying the durable stream into a fresh
//!    runtime; it re-applies its own observability, tick hook and
//!    publisher, so the supervisor re-wires nothing;
//! 4. the step that panicked is retried. Retrying is safe: the step's
//!    events were sealed and journaled *before* application, so the
//!    rebuilt runtime already contains them; the retry re-offers only
//!    the caller's feed moves, which are absolute prices (idempotent),
//!    and drains no new chain events (the recovered cursor sits at the
//!    journal tail).
//!
//! Budget exhaustion surfaces as [`BotError::RecoveryExhausted`]: a
//! fault that reproduces on every retry is a genuine bug, not weather,
//! and retrying forever would hide it.

use std::panic::{self, AssertUnwindSafe};

use arb_amm::token::TokenId;
use arb_cex::feed::PriceTable;
use arb_dexsim::chain::Chain;
use arb_ingest::IngestConfig;

use crate::bot::{ArbBot, BotAction};
use crate::config::BotConfig;
use crate::error::BotError;
use crate::ingest_bot::JournalSettings;

/// A journaled [`ArbBot`] wrapped in a panic supervisor. See the module
/// docs for the recovery protocol.
#[derive(Debug)]
pub struct SupervisedBot {
    bot: ArbBot,
    max_recoveries: u32,
    recoveries: u32,
}

impl SupervisedBot {
    /// Starts a supervised bot on a live chain (see [`ArbBot::attach`]
    /// for the journal-directory contract). Up to `max_recoveries`
    /// panicked steps will be recovered over the bot's lifetime; the
    /// next one past the budget returns [`BotError::RecoveryExhausted`].
    ///
    /// # Errors
    ///
    /// See [`ArbBot::attach`].
    pub fn attach(
        chain: &mut Chain,
        feed: &PriceTable,
        config: BotConfig,
        settings: JournalSettings,
        ingest: IngestConfig,
        max_recoveries: u32,
    ) -> Result<Self, BotError> {
        let bot = ArbBot::attach(chain, feed, config, settings, ingest)?;
        Ok(SupervisedBot::supervise(bot, max_recoveries))
    }

    /// Resumes a supervised bot from an existing journal directory —
    /// [`ArbBot::recover`] under the same supervision contract as
    /// [`SupervisedBot::attach`].
    ///
    /// # Errors
    ///
    /// See [`ArbBot::recover`].
    pub fn recover(
        chain: &mut Chain,
        config: BotConfig,
        settings: JournalSettings,
        ingest: IngestConfig,
        max_recoveries: u32,
    ) -> Result<Self, BotError> {
        let bot = ArbBot::recover(chain, config, settings, ingest)?;
        Ok(SupervisedBot::supervise(bot, max_recoveries))
    }

    fn supervise(bot: ArbBot, max_recoveries: u32) -> Self {
        SupervisedBot {
            bot,
            max_recoveries,
            recoveries: 0,
        }
    }

    /// One supervised decision step. Delegates to [`ArbBot::step`]; a
    /// panic anywhere inside it triggers the recovery protocol and a
    /// retry of this same step.
    ///
    /// # Errors
    ///
    /// Everything [`ArbBot::step`] returns, plus
    /// [`BotError::RecoveryExhausted`] when a panic lands after the
    /// recovery budget is spent, and recovery's own errors when the
    /// rebuild itself fails.
    pub fn step(
        &mut self,
        chain: &mut Chain,
        feed_moves: &[(TokenId, f64)],
    ) -> Result<BotAction, BotError> {
        loop {
            let attempt =
                panic::catch_unwind(AssertUnwindSafe(|| self.bot.step(chain, feed_moves)));
            match attempt {
                Ok(result) => return result,
                Err(_) => {
                    if self.recoveries >= self.max_recoveries {
                        return Err(BotError::RecoveryExhausted {
                            recoveries: self.recoveries,
                        });
                    }
                    self.recoveries += 1;
                    self.restart(chain)?;
                }
            }
        }
    }

    /// The recovery protocol: dump the flight trail, let the bot
    /// rebuild itself from the journal, and carry the lifetime recovery
    /// count into the rebuilt bot's fresh registry.
    fn restart(&mut self, chain: &mut Chain) -> Result<(), BotError> {
        // The obs panic hook (when installed) already dumped at panic
        // time; dump again explicitly so the trail exists even when the
        // global hook was replaced by the embedding application.
        if let (Some(obs), Some(dir)) = (self.bot.obs(), self.bot.journal_dir()) {
            let _ = obs.dump_flight_to(&dir.join(arb_obs::FLIGHT_DUMP_FILE));
        }
        self.bot.rebuild(chain)?;
        if let Some(obs) = self.bot.obs() {
            obs.registry()
                .counter("bot.recoveries")
                .add(u64::from(self.recoveries));
        }
        Ok(())
    }

    /// Supervised recoveries performed so far.
    pub fn recoveries(&self) -> u32 {
        self.recoveries
    }

    /// The recovery budget.
    pub fn max_recoveries(&self) -> u32 {
        self.max_recoveries
    }

    /// The supervised bot, for read-side queries (account, feed view,
    /// metrics, recovery stats).
    pub fn bot(&self) -> &ArbBot {
        &self.bot
    }

    /// The supervised bot, for attachments that survive its rebuilds
    /// (observability, serving, tick hooks) and forced checkpoints.
    pub fn bot_mut(&mut self) -> &mut ArbBot {
        &mut self.bot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::ObsConfig;
    use crate::testkit::{drive, funded_whale, moves_for, paper_chain, paper_feed, t, TestDir};
    use arb_amm::pool::PoolId;
    use arb_chaos::{ChaosInjector, ChaosTickHook, FaultKind, FaultPlan};
    use arb_dexsim::tx::Transaction;
    use arb_dexsim::units::to_raw;
    use std::sync::Arc;

    fn settings(dir: &TestDir) -> JournalSettings {
        JournalSettings {
            checkpoint_every_events: 4,
            ..JournalSettings::new(dir.path())
        }
    }

    /// A plan with one mid-tick panic per window tick; the tick
    /// axis here is the runtime's batch counter (one per sealed block).
    fn panic_plan(ticks: std::ops::Range<u64>) -> FaultPlan {
        FaultPlan::new(42).with_window(
            arb_chaos::site::ENGINE_TICK,
            ticks,
            FaultKind::PanicTick,
            1_000_000,
        )
    }

    #[test]
    fn supervised_bot_survives_injected_panics_and_decides_identically() {
        // Oracle: a plain bot over the same blocks, never faulted.
        let mut oracle_chain = paper_chain();
        let whale = funded_whale(&mut oracle_chain);
        let oracle_dir = TestDir::new("panic-oracle");
        let mut oracle = ArbBot::attach(
            &mut oracle_chain,
            &paper_feed(),
            BotConfig::default(),
            settings(&oracle_dir),
            IngestConfig::default(),
        )
        .unwrap();
        let oracle_actions = drive(&mut oracle_chain, whale, 0..8, |chain, moves| {
            oracle.step(chain, moves).unwrap()
        });

        // Supervised run: identical market, one injected mid-tick panic.
        let dir = TestDir::new("panic");
        let mut chain = paper_chain();
        let whale = funded_whale(&mut chain);
        let mut bot = SupervisedBot::attach(
            &mut chain,
            &paper_feed(),
            BotConfig::default(),
            settings(&dir),
            IngestConfig::default(),
            4,
        )
        .unwrap();
        bot.bot_mut().enable_observability(ObsConfig::default());
        let injector = Arc::new(ChaosInjector::new(panic_plan(2..3)));
        bot.bot_mut()
            .set_tick_hook(Arc::new(ChaosTickHook::new(Arc::clone(&injector))));

        let actions = drive(&mut chain, whale, 0..8, |chain, moves| {
            bot.step(chain, moves).unwrap()
        });

        assert!(
            bot.recoveries() >= 1,
            "the panic window must force a supervised recovery"
        );
        assert_eq!(injector.injected(), bot.recoveries() as usize);
        assert_eq!(
            actions, oracle_actions,
            "a supervised panic + journal rebuild must not change a single decision"
        );
        assert!(
            actions.iter().any(Option::is_some),
            "perturbations should open executable opportunities"
        );
        assert_eq!(chain.state().digest(), oracle_chain.state().digest());
        assert!(
            dir.path().join(arb_obs::FLIGHT_DUMP_FILE).is_file(),
            "recovery leaves the flight-recorder dump next to the journal"
        );
        let snapshot = bot.bot().obs().expect("obs re-enabled").snapshot();
        assert_eq!(snapshot.counter("bot.recoveries"), Some(1));
    }

    #[test]
    fn recovery_counter_is_cumulative_across_rebuilds() {
        let dir = TestDir::new("panic-twice");
        let mut chain = paper_chain();
        let whale = funded_whale(&mut chain);
        let mut bot = SupervisedBot::attach(
            &mut chain,
            &paper_feed(),
            BotConfig::default(),
            settings(&dir),
            IngestConfig::default(),
            8,
        )
        .unwrap();
        bot.bot_mut().enable_observability(ObsConfig::default());
        let injector = Arc::new(ChaosInjector::new(panic_plan(2..5)));
        bot.bot_mut()
            .set_tick_hook(Arc::new(ChaosTickHook::new(Arc::clone(&injector))));

        drive(&mut chain, whale, 0..8, |chain, moves| {
            bot.step(chain, moves).unwrap()
        });

        assert!(
            bot.recoveries() >= 2,
            "the panic window must force repeated recoveries, saw {}",
            bot.recoveries()
        );
        // Each rebuild starts a fresh registry; the counter must still
        // read the lifetime total, not just the last recovery.
        let snapshot = bot.bot().obs().expect("obs re-enabled").snapshot();
        assert_eq!(
            snapshot.counter("bot.recoveries"),
            Some(u64::from(bot.recoveries()))
        );
    }

    #[test]
    fn recovery_budget_exhaustion_surfaces_as_a_typed_error() {
        let dir = TestDir::new("budget");
        let mut chain = paper_chain();
        let whale = funded_whale(&mut chain);
        let mut bot = SupervisedBot::attach(
            &mut chain,
            &paper_feed(),
            BotConfig::default(),
            settings(&dir),
            IngestConfig::default(),
            0, // no budget: the first panic must surface
        )
        .unwrap();
        let injector = Arc::new(ChaosInjector::new(panic_plan(0..64)));
        bot.bot_mut()
            .set_tick_hook(Arc::new(ChaosTickHook::new(injector)));

        let mut saw_exhaustion = false;
        for i in 0..4 {
            chain.submit(Transaction::Swap {
                account: whale,
                pool: PoolId::new(0),
                token_in: t(0),
                amount_in: to_raw(2.0),
                min_out: 0,
            });
            chain.mine_block();
            match bot.step(&mut chain, &moves_for(i)) {
                Ok(_) => {}
                Err(BotError::RecoveryExhausted { recoveries }) => {
                    assert_eq!(recoveries, 0);
                    saw_exhaustion = true;
                    break;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
            chain.mine_block();
        }
        assert!(saw_exhaustion, "the panic window must hit within 4 steps");
        assert_eq!(bot.recoveries(), 0, "no recovery was budgeted");
    }
}
