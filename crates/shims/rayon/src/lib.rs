//! Offline stand-in for the subset of `rayon` this workspace uses.
//!
//! Provides `par_iter().map(..).collect()` over slices and
//! `par_iter_mut().{map(..).collect(), for_each(..)}` over mutable
//! slices, run on one process-wide persistent thread pool.
//!
//! # The pool
//!
//! The first parallel call starts `current_num_threads() − 1` parked
//! worker threads that live for the rest of the process; the thread
//! count is read from the machine once and cached. A call splits its
//! slice into `current_num_threads()` contiguous chunks (fewer for a
//! short slice), queues chunks `1..n` on the pool's one job queue, runs
//! chunk 0 itself, and then **helps**: it pops and runs any queued job —
//! its own or anyone else's — until its own chunks are all done,
//! sleeping only while the queue is empty. Workers pop the oldest job,
//! helpers the newest, so a helper tends to finish its own chunks first.
//!
//! A parallel call made *inside* a job (a nested fan-out) therefore
//! queues its chunks where any idle thread picks them up: an idle
//! worker is lent to the busy outer job instead of the inner call
//! running serially. It cannot deadlock: a thread sleeps only while the
//! queue is empty, so every unfinished chunk is running on some thread,
//! and the innermost running chunk waits on nothing, so some chunk
//! always makes progress.
//!
//! # Determinism
//!
//! Chunk boundaries depend only on the slice length and the cached
//! thread count, every chunk writes into its own result slot, and the
//! slots are concatenated in chunk order. Output order — and every
//! value, since each element is mapped exactly once by the same code —
//! is therefore identical to the serial path, which is what runs when
//! there is one thread or one element.
//!
//! # Panics
//!
//! Every job runs under `catch_unwind`, so workers never die. If any
//! element panics, the call re-raises on its caller with the message
//! `rayon-shim worker panicked`, but only once all of its chunks have
//! finished: no job ever outlives the stack frame it borrows. The queue
//! lock is never held while a job runs, so no job can poison it.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// The number of threads parallel iterators use: the pool's workers
/// plus the calling thread. Read from the machine once and cached.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// One parallel call: the chunk runner and a latch counting the chunks
/// still to finish. Lives on the caller's stack.
struct Batch<'a> {
    run: &'a (dyn Fn(usize) + Sync),
    pending: AtomicUsize,
    panicked: AtomicBool,
}

/// One queued chunk of a [`Batch`].
#[derive(Clone, Copy)]
struct Job {
    batch: *const Batch<'static>,
    index: usize,
}

// SAFETY: a `Job` is a pointer to a `Batch` whose runner is `Sync` and
// whose counters are atomics, so any thread may use it; `Pool::run`
// keeps the batch alive until every job pointing at it has finished.
unsafe impl Send for Job {}

impl Job {
    /// Runs the chunk, records a panic, and counts the chunk done.
    ///
    /// # Safety
    ///
    /// The batch must be alive; it may be freed as soon as this chunk
    /// is counted done, so nothing touches it afterwards.
    unsafe fn execute(self, pool: &Pool) {
        let batch = &*self.batch;
        if panic::catch_unwind(AssertUnwindSafe(|| (batch.run)(self.index))).is_err() {
            // Published to the caller by the `AcqRel` decrement below.
            batch.panicked.store(true, Ordering::Relaxed);
        }
        if batch.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // The caller checks `pending` under the queue lock before it
            // sleeps, so taking the lock here means it cannot miss this.
            drop(pool.lock());
            pool.wake.notify_all();
        }
    }
}

/// The process-wide pool: one job queue shared by every caller.
struct Pool {
    queue: Mutex<VecDeque<Job>>,
    /// Signalled when jobs are queued and when a batch finishes.
    wake: Condvar,
}

/// The pool, starting its workers on first use. Workers are never
/// joined: they park on the queue for the life of the process, and a
/// panic in a job is re-raised on that job's caller, not lost.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        for _ in 1..current_num_threads() {
            std::thread::Builder::new()
                .name("rayon-shim-worker".into())
                .spawn(|| pool().help(true, || false))
                .expect("rayon-shim could not start a worker thread");
        }
        Pool {
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
        }
    })
}

impl Pool {
    /// Locks the queue. No job runs under the lock and queue operations
    /// leave it valid at every step, so a poisoned lock holds a valid
    /// queue and is recovered rather than unwinding a caller whose
    /// jobs may still borrow its stack.
    fn lock(&self) -> MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs queued jobs until `done()`, sleeping while the queue is
    /// empty. Workers (`oldest_first`, with `done` never true) spread
    /// the oldest calls across threads; a caller waiting on its own
    /// chunks takes the newest job, most likely one of its own.
    fn help(&self, oldest_first: bool, done: impl Fn() -> bool) {
        let mut queue = self.lock();
        while !done() {
            let job = if oldest_first {
                queue.pop_front()
            } else {
                queue.pop_back()
            };
            match job {
                Some(job) => {
                    drop(queue);
                    // SAFETY: a queued job's batch is alive until the job
                    // is counted done (see `run`).
                    unsafe { job.execute(self) };
                    queue = self.lock();
                }
                None => {
                    queue = self
                        .wake
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Runs `run(0..chunks)` across the pool and returns once every
    /// chunk has finished; panics if any chunk panicked.
    fn run(&self, chunks: usize, run: &(dyn Fn(usize) + Sync)) {
        let batch = Batch {
            run,
            pending: AtomicUsize::new(chunks),
            panicked: AtomicBool::new(false),
        };
        debug_assert!(chunks > 0, "a batch has at least one chunk");
        // The lifetime is erased so jobs can sit in the shared queue.
        let ptr = (&batch as *const Batch<'_>).cast::<Batch<'static>>();
        self.lock()
            .extend((1..chunks).map(|index| Job { batch: ptr, index }));
        self.wake.notify_all();
        let first = Job {
            batch: ptr,
            index: 0,
        };
        // The caller runs chunk 0, then helps until all chunks are done.
        // SAFETY: `batch` outlives every job pointing at it: `help`
        // returns only once `pending` is zero — every job has been
        // counted done and will not touch it again — and nothing between
        // here and there can unwind, since jobs run under `catch_unwind`
        // and the lock recovers from poisoning.
        unsafe { first.execute(self) };
        self.help(false, || batch.pending.load(Ordering::Acquire) == 0);
        if batch.panicked.load(Ordering::Relaxed) {
            panic!("rayon-shim worker panicked");
        }
    }
}

/// Maps every input through `f` on the pool, returning the outputs in
/// input order. Each slot is touched by exactly one job, and no lock is
/// held while `f` runs.
fn fan_out<C: Send, R: Send>(inputs: impl Iterator<Item = C>, f: impl Fn(C) -> R + Sync) -> Vec<R> {
    type Slot<C, R> = (Mutex<Option<C>>, Mutex<Option<R>>);
    let slots: Vec<Slot<C, R>> = inputs
        .map(|input| (Mutex::new(Some(input)), Mutex::new(None)))
        .collect();
    pool().run(slots.len(), &|i| {
        let (input, output) = &slots[i];
        let input = input
            .lock()
            .expect("slot locks are never held across `f`")
            .take();
        let out = f(input.expect("each chunk runs once"));
        *output.lock().expect("slot locks are never held across `f`") = Some(out);
    });
    slots
        .into_iter()
        .map(|(_, output)| {
            let out = output
                .into_inner()
                .expect("slot locks are never held across `f`");
            out.expect("every chunk finished")
        })
        .collect()
}

/// The chunk size splitting `len` elements across the pool, or `None`
/// when the call should run serially on the caller.
fn chunk_size(len: usize) -> Option<usize> {
    let workers = current_num_threads().clamp(1, len.max(1));
    (workers > 1).then(|| len.div_ceil(workers))
}

/// Parallel iterator types.
pub mod iter {
    use super::{chunk_size, fan_out};

    /// A parallel iterator over `&[T]`.
    pub struct ParIter<'a, T> {
        items: &'a [T],
    }

    /// A mapped parallel iterator, ready to collect.
    pub struct ParMap<'a, T, F> {
        items: &'a [T],
        f: F,
    }

    impl<'a, T: Sync> ParIter<'a, T> {
        /// Maps every element through `f` in parallel.
        pub fn map<U: Send, F: Fn(&'a T) -> U + Sync>(self, f: F) -> ParMap<'a, T, F> {
            ParMap {
                items: self.items,
                f,
            }
        }

        /// Number of elements.
        pub fn len(&self) -> usize {
            self.items.len()
        }

        /// Whether the iterator is empty.
        pub fn is_empty(&self) -> bool {
            self.items.is_empty()
        }
    }

    impl<'a, T: Sync, U: Send, F: Fn(&'a T) -> U + Sync> ParMap<'a, T, F> {
        /// Runs the map in parallel and collects, preserving input order.
        pub fn collect<C: FromIterator<U>>(self) -> C {
            let Some(size) = chunk_size(self.items.len()) else {
                return self.items.iter().map(&self.f).collect();
            };
            let f = &self.f;
            fan_out(self.items.chunks(size), |chunk| {
                chunk.iter().map(f).collect::<Vec<U>>()
            })
            .into_iter()
            .flatten()
            .collect()
        }
    }

    /// A parallel iterator over `&mut [T]`.
    pub struct ParIterMut<'a, T> {
        items: &'a mut [T],
    }

    /// A mapped mutable parallel iterator, ready to collect.
    pub struct ParMapMut<'a, T, F> {
        items: &'a mut [T],
        f: F,
    }

    impl<'a, T: Send> ParIterMut<'a, T> {
        /// Maps every element through `f` in parallel, with mutable
        /// access. One job owns each contiguous chunk, so `f` never
        /// observes another job's element.
        pub fn map<U: Send, F: Fn(&mut T) -> U + Sync>(self, f: F) -> ParMapMut<'a, T, F> {
            ParMapMut {
                items: self.items,
                f,
            }
        }

        /// Runs `f` on every element in parallel **in place**, without
        /// collecting anything — the fan-out shape for callers that write
        /// results into the elements themselves (e.g. a scratch arena's
        /// evaluation slots) and must not allocate per-item output.
        pub fn for_each<F: Fn(&mut T) + Sync>(self, f: F) {
            let Some(size) = chunk_size(self.items.len()) else {
                self.items.iter_mut().for_each(f);
                return;
            };
            fan_out(self.items.chunks_mut(size), |chunk| {
                chunk.iter_mut().for_each(&f)
            });
        }

        /// Number of elements.
        pub fn len(&self) -> usize {
            self.items.len()
        }

        /// Whether the iterator is empty.
        pub fn is_empty(&self) -> bool {
            self.items.is_empty()
        }
    }

    impl<T: Send, U: Send, F: Fn(&mut T) -> U + Sync> ParMapMut<'_, T, F> {
        /// Runs the map in parallel and collects, preserving input order.
        pub fn collect<C: FromIterator<U>>(self) -> C {
            let Some(size) = chunk_size(self.items.len()) else {
                return self.items.iter_mut().map(&self.f).collect();
            };
            let f = &self.f;
            fan_out(self.items.chunks_mut(size), |chunk| {
                chunk.iter_mut().map(f).collect::<Vec<U>>()
            })
            .into_iter()
            .flatten()
            .collect()
        }
    }

    /// Types convertible into a parallel iterator by reference.
    pub trait IntoParallelRefIterator<'a> {
        /// Element type.
        type Item: 'a;
        /// Creates the parallel iterator.
        fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
    }

    /// Types convertible into a parallel iterator by mutable reference.
    pub trait IntoParallelRefMutIterator<'a> {
        /// Element type.
        type Item: 'a;
        /// Creates the mutable parallel iterator.
        fn par_iter_mut(&'a mut self) -> ParIterMut<'a, Self::Item>;
    }

    impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
        type Item = T;
        fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
            ParIterMut { items: self }
        }
    }

    impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
        type Item = T;
        fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
            ParIterMut { items: self }
        }
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
        type Item = T;
        fn par_iter(&'a self) -> ParIter<'a, T> {
            ParIter { items: self }
        }
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
        type Item = T;
        fn par_iter(&'a self) -> ParIter<'a, T> {
            ParIter { items: self }
        }
    }
}

/// The common imports, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::iter::{
        IntoParallelRefIterator, IntoParallelRefMutIterator, ParIter, ParIterMut, ParMap, ParMapMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1_000).collect();
        let doubled: Vec<u64> = items.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn collects_results() {
        let items: Vec<u64> = (0..100).collect();
        let ok: Result<Vec<u64>, String> = items.par_iter().map(|&x| Ok(x + 1)).collect();
        assert_eq!(ok.unwrap().len(), 100);
        let err: Result<Vec<u64>, String> = items
            .par_iter()
            .map(|&x| {
                if x == 50 {
                    Err("boom".to_string())
                } else {
                    Ok(x)
                }
            })
            .collect();
        assert!(err.is_err());
    }

    #[test]
    fn empty_input() {
        let items: Vec<u64> = Vec::new();
        let out: Vec<u64> = items.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn par_iter_mut_mutates_and_preserves_order() {
        let mut items: Vec<u64> = (0..1_000).collect();
        let doubled: Vec<u64> = items
            .par_iter_mut()
            .map(|x| {
                *x *= 2;
                *x
            })
            .collect();
        assert_eq!(doubled, (0..1_000).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(items, (0..1_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_mut_for_each_mutates_in_place() {
        let mut items: Vec<u64> = (0..1_000).collect();
        items.par_iter_mut().for_each(|x| *x *= 3);
        assert_eq!(items, (0..1_000).map(|x| x * 3).collect::<Vec<_>>());
        let mut empty: Vec<u64> = Vec::new();
        empty.par_iter_mut().for_each(|x| *x += 1);
        assert!(empty.is_empty());
    }

    #[test]
    fn par_iter_mut_collects_results() {
        let mut items: Vec<u64> = (0..100).collect();
        let err: Result<Vec<u64>, String> = items
            .par_iter_mut()
            .map(|x| {
                if *x == 50 {
                    Err("boom".to_string())
                } else {
                    Ok(*x)
                }
            })
            .collect();
        assert!(err.is_err());
        let mut empty: Vec<u64> = Vec::new();
        let out: Vec<u64> = empty.par_iter_mut().map(|x| *x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn nested_fan_out_completes_and_preserves_order() {
        let mut groups: Vec<Vec<u64>> = (0..16)
            .map(|g| (0..100).map(|i| g * 1_000 + i).collect())
            .collect();
        let sums: Vec<u64> = groups
            .par_iter_mut()
            .map(|group| {
                group.par_iter_mut().for_each(|x| *x += 1);
                group.iter().sum()
            })
            .collect();
        for (g, (group, sum)) in groups.iter().zip(&sums).enumerate() {
            let g = g as u64;
            let want: Vec<u64> = (0..100).map(|i| g * 1_000 + i + 1).collect();
            assert_eq!(group, &want);
            assert_eq!(*sum, want.iter().sum::<u64>());
        }
    }

    #[test]
    fn panic_reraises_on_caller_and_pool_survives() {
        let items: Vec<u64> = (0..1_000).collect();
        let caught = std::panic::catch_unwind(|| {
            items
                .par_iter()
                .map(|&x| {
                    assert!(x != 700, "boom at {x}");
                    x
                })
                .collect::<Vec<u64>>()
        });
        let payload = caught.expect_err("the panic reaches the caller");
        if super::current_num_threads() > 1 {
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"rayon-shim worker panicked")
            );
        }
        let again: Vec<u64> = items.par_iter().map(|&x| x + 1).collect();
        assert_eq!(again, (1..1_001).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_callers_get_their_own_results() {
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for offset in [0u64, 1_000_000] {
                let start = &start;
                scope.spawn(move || {
                    let items: Vec<u64> = (offset..offset + 500).collect();
                    start.wait();
                    for round in 0..200 {
                        let out: Vec<u64> = items.par_iter().map(|&x| x * 3 + round).collect();
                        let want: Vec<u64> = items.iter().map(|&x| x * 3 + round).collect();
                        assert_eq!(out, want);
                    }
                });
            }
        });
    }
}
