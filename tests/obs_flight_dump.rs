//! Crash post-mortem coverage: the panic hook a journaled `ArbBot`
//! installs in `enable_observability` must dump the flight recorder to
//! the journal directory, the dump must parse as JSON-lines, and it
//! must cover the final tick the process died on (the newest
//! `ingest.tick` mark carries the last applied batch index).
//!
//! Panic hooks are process-global, so this test lives in its own
//! integration-test binary.

mod support;

use std::fs;

use arbloops::prelude::*;
use support::TestDir;

fn t(i: u32) -> TokenId {
    TokenId::new(i)
}

fn paper_chain() -> Chain {
    let mut chain = Chain::new();
    let fee = FeeRate::UNISWAP_V2;
    chain
        .add_pool(t(0), t(1), to_raw(100.0), to_raw(200.0), fee)
        .unwrap();
    chain
        .add_pool(t(1), t(2), to_raw(300.0), to_raw(200.0), fee)
        .unwrap();
    chain
        .add_pool(t(2), t(0), to_raw(200.0), to_raw(400.0), fee)
        .unwrap();
    chain
}

fn paper_feed() -> PriceTable {
    [(t(0), 2.0), (t(1), 10.2), (t(2), 20.0)]
        .into_iter()
        .collect()
}

/// Extracts `"key":value` for a `u64` value from one JSON-lines record.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker)? + marker.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[test]
fn panic_dump_parses_and_covers_the_final_tick() {
    let scratch = TestDir::new("crash");
    let mut chain = paper_chain();
    let whale = chain.create_account();
    chain.mint(whale, t(0), to_raw(1_000.0));

    // Silence the default hook first: the flight-dump hook delegates to
    // whatever hook it replaces, so the deliberate panic below won't
    // spray a backtrace into the test output.
    std::panic::set_hook(Box::new(|_| {}));

    let mut bot = ArbBot::attach(
        &mut chain,
        &paper_feed(),
        BotConfig::default(),
        JournalSettings::new(scratch.path()),
        IngestConfig::default(),
    )
    .unwrap();
    bot.enable_observability(ObsConfig::default());

    let steps = 4u64;
    for i in 0..steps {
        chain.submit(Transaction::Swap {
            account: whale,
            pool: PoolId::new(0),
            token_in: t(0),
            amount_in: to_raw(2.0 + i as f64),
            min_out: 0,
        });
        chain.mine_block();
        bot.step(&mut chain, &[(t(1), 10.2 + 0.05 * i as f64)])
            .unwrap();
        chain.mine_block();
    }
    assert_eq!(bot.driver().batches_applied(), steps);

    // Kill the run. The hook fires during unwinding, before
    // catch_unwind returns, so the dump exists by the next line.
    let crash = std::panic::catch_unwind(|| panic!("simulated crash"));
    assert!(crash.is_err());

    let dump_path = scratch.path().join("flight-recorder.jsonl");
    let dump = fs::read_to_string(&dump_path).expect("panic hook wrote the flight dump");

    let mut newest_tick = None;
    let mut lines = 0usize;
    for line in dump.lines() {
        lines += 1;
        // Well-formed JSON-lines: one object per line with the fixed
        // event fields.
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "malformed dump line: {line}"
        );
        for key in ["\"seq\":", "\"kind\":", "\"name\":"] {
            assert!(line.contains(key), "dump line missing {key}: {line}");
        }
        if line.contains("\"name\":\"ingest.tick\"") {
            assert!(line.contains("\"kind\":\"mark\""));
            newest_tick = json_u64(line, "value");
        }
    }
    assert!(lines > 0, "dump is empty");
    // The marks are zero-based batch indices; the ring keeps the most
    // recent events, so the last one seen is the tick we died on.
    assert_eq!(
        newest_tick,
        Some(steps - 1),
        "dump does not cover the final tick"
    );
}
