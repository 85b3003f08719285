//! After a supervised recovery, a panic dumps the *live* bot's flight
//! trail: the rebuilt bot's recorder replaces its dead predecessor's in
//! the process-wide panic hook instead of stacking a second hook whose
//! stale dump would overwrite it.
//!
//! Panic hooks are process-global, so this test lives in its own
//! integration-test binary.

mod support;

use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use arbloops::bot::BotError;
use arbloops::obs::FLIGHT_DUMP_FILE;
use arbloops::prelude::*;
use support::TestDir;

fn t(i: u32) -> TokenId {
    TokenId::new(i)
}

/// Panics in the next tick after being armed, once.
#[derive(Debug, Default)]
struct PanicWhenArmed(AtomicBool);

impl TickHook for PanicWhenArmed {
    fn before_tick(&self, _tick: u64) {
        if self.0.swap(false, Ordering::SeqCst) {
            panic!("injected mid-tick panic");
        }
    }
}

#[test]
fn after_a_recovery_the_panic_dump_holds_the_live_bots_trail() {
    // Silence the default hook: the flight-dump hook delegates to it.
    std::panic::set_hook(Box::new(|_| {}));

    let dir = TestDir::new("supervised-dump");
    let mut chain = Chain::new();
    let fee = FeeRate::UNISWAP_V2;
    for (a, b, ra, rb) in [
        (0, 1, 100.0, 200.0),
        (1, 2, 300.0, 200.0),
        (2, 0, 200.0, 400.0),
    ] {
        chain
            .add_pool(t(a), t(b), to_raw(ra), to_raw(rb), fee)
            .unwrap();
    }
    let feed: PriceTable = [(t(0), 2.0), (t(1), 10.2), (t(2), 20.0)]
        .into_iter()
        .collect();
    let mut bot = SupervisedBot::attach(
        &mut chain,
        &feed,
        BotConfig::default(),
        JournalSettings::new(dir.path()),
        IngestConfig::default(),
        1,
    )
    .unwrap();
    bot.bot_mut().enable_observability(ObsConfig::default());
    let hook = Arc::new(PanicWhenArmed::default());
    bot.bot_mut().set_tick_hook(hook.clone());

    bot.step(&mut chain, &[]).unwrap();
    chain.mine_block();
    bot.bot().obs().unwrap().marker("test.dead_bot").mark(1);

    // One panic, one recovery; the bot re-installs the hook itself.
    hook.0.store(true, Ordering::SeqCst);
    bot.step(&mut chain, &[]).unwrap();
    chain.mine_block();
    assert_eq!(bot.recoveries(), 1);
    bot.bot().obs().unwrap().marker("test.live_bot").mark(1);

    // The next panic exhausts the budget; the hook dumps on the way.
    hook.0.store(true, Ordering::SeqCst);
    let err = bot.step(&mut chain, &[]).unwrap_err();
    assert!(
        matches!(err, BotError::RecoveryExhausted { recoveries: 1 }),
        "{err}"
    );

    let dump = fs::read_to_string(dir.path().join(FLIGHT_DUMP_FILE)).expect("the hook dumped");
    assert!(
        dump.contains("test.live_bot"),
        "the dump holds the live bot's trail"
    );
    assert!(
        !dump.contains("test.dead_bot"),
        "the pre-recovery bot's trail must not overwrite it"
    );
}
