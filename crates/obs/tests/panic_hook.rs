//! `install_panic_hook` keeps one process-wide hook: a second install
//! replaces the recorder that gets dumped instead of stacking a second
//! hook, so the dump holds the newest recorder's trail.
//!
//! Panic hooks are process-global, so this scenario lives in its own
//! test binary.

use arb_obs::{install_panic_hook, Obs, FLIGHT_DUMP_FILE};

#[test]
fn a_second_install_replaces_the_dumped_recorder() {
    let dir = std::env::temp_dir().join(format!("arb-obs-panic-hook-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // Silence the default hook so the deliberate panic prints nothing.
    std::panic::set_hook(Box::new(|_| {}));

    let first = Obs::default();
    first.marker("first.trail").mark(1);
    install_panic_hook(&first, &dir);
    let second = Obs::default();
    second.marker("second.trail").mark(2);
    install_panic_hook(&second, &dir);

    let crash = std::panic::catch_unwind(|| panic!("simulated crash"));
    assert!(crash.is_err());

    let dump = std::fs::read_to_string(dir.join(FLIGHT_DUMP_FILE)).expect("the hook dumped");
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        dump.contains("second.trail"),
        "the newest install's trail is dumped: {dump}"
    );
    assert!(
        !dump.contains("first.trail"),
        "a replaced recorder must not overwrite the dump: {dump}"
    );
}
