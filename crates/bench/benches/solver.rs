//! Interior-point solver benchmarks: the paper's eq. 8 program at several
//! sizes, plus raw linear-algebra kernels.

use arb_bench::paper::synthetic_loop;
use arb_convex::{LoopProblem, SolverOptions};
use arb_numerics::linalg::Matrix;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_loop_program(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/loop_program");
    group.sample_size(30);
    for length in [3usize, 6, 10, 16] {
        let loop_ = synthetic_loop(length, 10_000.0, 1.2);
        let prices: Vec<f64> = (0..length).map(|i| 1.0 + i as f64 * 0.5).collect();
        let problem = LoopProblem::new(loop_.hops().to_vec(), prices).unwrap();
        group.bench_with_input(BenchmarkId::new("reduced", length), &problem, |b, p| {
            b.iter(|| black_box(p.solve(&SolverOptions::default()).unwrap()))
        });
    }
    group.finish();
}

fn bench_linalg(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/linalg");
    for n in [4usize, 8, 16, 32] {
        // SPD system A = I + 0.1·(i==j±1) tridiagonal-ish.
        let mut a = Matrix::identity(n);
        for i in 0..n.saturating_sub(1) {
            a[(i, i + 1)] = 0.1;
            a[(i + 1, i)] = 0.1;
        }
        let rhs: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        group.bench_with_input(BenchmarkId::new("cholesky_solve", n), &n, |b, _| {
            b.iter(|| {
                // Same copies `lu_solve` makes internally.
                let mut factor = a.clone();
                let mut x = black_box(&rhs).clone();
                factor.cholesky_solve(&mut x).unwrap();
                black_box(x)
            })
        });
        group.bench_with_input(BenchmarkId::new("lu_solve", n), &n, |b, _| {
            b.iter(|| black_box(a.lu_solve(black_box(&rhs)).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_loop_program, bench_linalg);
criterion_main!(benches);
