//! The pool reuses its threads: however many parallel calls run, the
//! items are mapped on at most `current_num_threads()` distinct threads
//! (the caller plus the pool's workers). Alone in its own test binary so
//! no other test's caller can help with these jobs.

use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::{self, ThreadId};

use rayon::prelude::*;

#[test]
fn thousand_calls_run_on_at_most_current_num_threads_threads() {
    let items: Vec<u64> = (0..64).collect();
    let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
    for round in 0..1_000u64 {
        let out: Vec<u64> = items
            .par_iter()
            .map(|&x| {
                seen.lock()
                    .expect("no item panics")
                    .insert(thread::current().id());
                x + round
            })
            .collect();
        assert_eq!(out[63], 63 + round);
    }
    let distinct = seen.into_inner().expect("no item panics").len();
    assert!(
        distinct <= rayon::current_num_threads(),
        "{distinct} threads ran items; the pool has {}",
        rayon::current_num_threads()
    );
}
