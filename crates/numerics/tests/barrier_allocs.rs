//! The barrier solver's Newton loop does not allocate: a solve costs the
//! same number of allocations however many Newton iterations it takes
//! (the scratch buffers and the solution are allocated once per solve).
//! Counted with a thread-local counting allocator, so the number is the
//! same on every machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use arb_numerics::barrier::{solve_barrier, BarrierConfig, BarrierProblem};
use arb_numerics::linalg::Matrix;

/// Wraps [`System`], counting allocations (a reallocation counts as one)
/// made on a thread while that thread's counter is switched on.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn record() {
    let _ = ALLOCS.try_with(|count| {
        if let Some(n) = count.get() {
            count.set(Some(n + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; `record` neither allocates nor touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on the calling thread, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOCS.with(|count| count.set(Some(0)));
    let out = f();
    let n = ALLOCS
        .with(|count| count.replace(None))
        .expect("counting was on");
    (n, out)
}

/// maximize −(x − 2)² − (y − 3)² subject to x² + y² ≤ 4, x ≥ 0, y ≥ 0:
/// the unconstrained optimum lies outside the disc, so the curved
/// constraint is active and the Newton systems are full.
struct DiscQp;

impl BarrierProblem for DiscQp {
    fn dim(&self) -> usize {
        2
    }
    fn num_constraints(&self) -> usize {
        3
    }
    fn objective(&self, x: &[f64]) -> f64 {
        -(x[0] - 2.0).powi(2) - (x[1] - 3.0).powi(2)
    }
    fn objective_grad(&self, x: &[f64], grad: &mut [f64]) {
        grad[0] = -2.0 * (x[0] - 2.0);
        grad[1] = -2.0 * (x[1] - 3.0);
    }
    fn objective_hess(&self, _x: &[f64], hess: &mut Matrix) {
        hess.clear();
        hess[(0, 0)] = -2.0;
        hess[(1, 1)] = -2.0;
    }
    fn constraint(&self, i: usize, x: &[f64]) -> f64 {
        match i {
            0 => 4.0 - x[0] * x[0] - x[1] * x[1],
            _ => x[i - 1],
        }
    }
    fn constraint_grad(&self, i: usize, x: &[f64], grad: &mut [f64]) {
        match i {
            0 => {
                grad[0] = -2.0 * x[0];
                grad[1] = -2.0 * x[1];
            }
            _ => {
                grad.fill(0.0);
                grad[i - 1] = 1.0;
            }
        }
    }
    fn constraint_hess(&self, i: usize, _x: &[f64], hess: &mut Matrix) {
        hess.clear();
        if i == 0 {
            hess[(0, 0)] = -2.0;
            hess[(1, 1)] = -2.0;
        }
    }
}

#[test]
fn allocations_do_not_grow_with_newton_iterations() {
    let loose = BarrierConfig {
        gap_tol: 1e-2,
        ..BarrierConfig::default()
    };
    let tight = BarrierConfig::default();
    let (loose_allocs, loose_sol) = allocations(|| solve_barrier(&DiscQp, &[0.5, 0.5], &loose));
    let (tight_allocs, tight_sol) = allocations(|| solve_barrier(&DiscQp, &[0.5, 0.5], &tight));
    let (loose_sol, tight_sol) = (loose_sol.unwrap(), tight_sol.unwrap());
    assert!(loose_sol.converged && tight_sol.converged);
    assert!(
        tight_sol.newton_iterations > loose_sol.newton_iterations,
        "the tolerances must differ in work: {} vs {} Newton iterations",
        tight_sol.newton_iterations,
        loose_sol.newton_iterations
    );
    assert_eq!(
        loose_allocs, tight_allocs,
        "{} Newton iterations allocated {loose_allocs} times, {} allocated {tight_allocs}",
        loose_sol.newton_iterations, tight_sol.newton_iterations
    );
}
