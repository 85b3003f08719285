//! Log-barrier interior-point method for smooth concave programs.
//!
//! Solves problems of the form
//!
//! ```text
//! maximize   f(x)          (f concave, C²)
//! subject to g_i(x) ≥ 0    (each g_i concave, C²)
//! ```
//!
//! by maximizing the barrier surrogate `Φ_μ(x) = f(x) + μ·Σ log g_i(x)`
//! with damped Newton steps for a decreasing sequence of `μ`. Because both
//! `f` and every `g_i` are concave, `Φ_μ` is strictly concave on the strict
//! interior and each inner Newton solve has a unique maximizer; the
//! suboptimality of the outer iterate is bounded by `m·μ` (the standard
//! barrier duality gap), which is the termination criterion.
//!
//! The paper's eq. 7/8 programs fit this form exactly: linear objective,
//! concave "CPMM product" constraints, linear linking constraints, and
//! nonnegativity bounds. See `arb-convex` for the problem construction.

// `!(x > 0.0)` is used deliberately throughout: unlike `x <= 0.0` it also
// rejects NaN, which line searches can produce at infeasible trial points.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

use crate::error::NumericsError;
use crate::linalg::{self, Matrix};

/// A smooth concave maximization problem with concave `≥ 0` constraints.
///
/// Implementors supply analytic first and second derivatives; the solver
/// never differentiates numerically. Hessian callbacks must *overwrite*
/// their output argument.
pub trait BarrierProblem {
    /// Number of decision variables.
    fn dim(&self) -> usize;

    /// Number of inequality constraints.
    fn num_constraints(&self) -> usize;

    /// Objective `f(x)` to maximize.
    fn objective(&self, x: &[f64]) -> f64;

    /// Gradient of the objective (overwrites `grad`).
    fn objective_grad(&self, x: &[f64], grad: &mut [f64]);

    /// Hessian of the objective (overwrites `hess`).
    fn objective_hess(&self, x: &[f64], hess: &mut Matrix);

    /// Value of constraint `i` (feasible iff `> 0` strictly, `≥ 0` weakly).
    fn constraint(&self, i: usize, x: &[f64]) -> f64;

    /// Gradient of constraint `i` (overwrites `grad`).
    fn constraint_grad(&self, i: usize, x: &[f64], grad: &mut [f64]);

    /// Hessian of constraint `i` (overwrites `hess`).
    fn constraint_hess(&self, i: usize, x: &[f64], hess: &mut Matrix);
}

/// Tuning knobs for [`solve_barrier`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BarrierConfig {
    /// Initial barrier weight `μ₀`.
    pub mu_initial: f64,
    /// Multiplicative decrease applied to `μ` between outer iterations.
    pub mu_shrink: f64,
    /// Terminate when `m·μ` (the duality-gap bound) falls below this.
    pub gap_tol: f64,
    /// Inner Newton termination on the Newton decrement `λ²/2`.
    pub newton_tol: f64,
    /// Maximum Newton iterations per outer (centering) step.
    pub max_newton_iter: usize,
    /// Maximum outer iterations.
    pub max_outer_iter: usize,
}

impl Default for BarrierConfig {
    fn default() -> Self {
        BarrierConfig {
            mu_initial: 10.0,
            mu_shrink: 0.2,
            // Duality-gap tolerance in objective units. Monetized profits
            // are dollar-scale, so 1e-6 is micro-dollar precision; pushing
            // far below this exhausts f64 centering precision for no
            // practical gain.
            gap_tol: 1e-6,
            newton_tol: 1e-12,
            max_newton_iter: 80,
            max_outer_iter: 60,
        }
    }
}

/// Result of a barrier solve.
#[derive(Debug, Clone, PartialEq)]
pub struct BarrierSolution {
    /// The (approximately) optimal point.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
    /// Approximate dual multipliers `λ_i = μ / g_i(x)` at the final iterate,
    /// usable for KKT verification.
    pub multipliers: Vec<f64>,
    /// Final barrier weight.
    pub mu: f64,
    /// Total Newton iterations across all centering steps.
    pub newton_iterations: usize,
    /// Whether the duality-gap tolerance was met.
    pub converged: bool,
}

/// Maximizes `problem` starting from the strictly feasible point `x0`.
///
/// # Errors
///
/// * [`NumericsError::InfeasibleStart`] if any `g_i(x0) ≤ 0`.
/// * [`NumericsError::DimensionMismatch`] if `x0.len() != problem.dim()`.
/// * [`NumericsError::SingularMatrix`] if Newton systems stay unsolvable
///   even under heavy Levenberg regularization.
/// * [`NumericsError::NonFiniteValue`] if callbacks produce NaN.
pub fn solve_barrier<P: BarrierProblem>(
    problem: &P,
    x0: &[f64],
    config: &BarrierConfig,
) -> Result<BarrierSolution, NumericsError> {
    let n = problem.dim();
    let m = problem.num_constraints();
    if x0.len() != n {
        return Err(NumericsError::DimensionMismatch);
    }
    for i in 0..m {
        if !(problem.constraint(i, x0) > 0.0) {
            return Err(NumericsError::InfeasibleStart);
        }
    }

    let mut x = x0.to_vec();
    let mut mu = config.mu_initial;
    let mut newton_total = 0usize;

    // Scratch buffers reused across iterations: nothing below allocates
    // until the solution is assembled.
    let mut grad = vec![0.0; n];
    let mut cgrad = vec![0.0; n];
    let mut hess = Matrix::zeros(n, n);
    let mut chess = Matrix::zeros(n, n);
    let mut trial = Matrix::zeros(n, n);
    let mut delta = vec![0.0; n];
    let mut xt = vec![0.0; n];

    for _outer in 0..config.max_outer_iter {
        // ---- Centering: damped Newton on Φ_μ ----
        for _inner in 0..config.max_newton_iter {
            // Assemble ∇Φ and ∇²Φ.
            problem.objective_grad(&x, &mut grad);
            problem.objective_hess(&x, &mut hess);
            for i in 0..m {
                let g = problem.constraint(i, &x);
                if !(g > 0.0) || !g.is_finite() {
                    return Err(NumericsError::NonFiniteValue);
                }
                problem.constraint_grad(i, &x, &mut cgrad);
                problem.constraint_hess(i, &x, &mut chess);
                let w1 = mu / g;
                let w2 = mu / (g * g);
                for a in 0..n {
                    grad[a] += w1 * cgrad[a];
                    for b in 0..n {
                        hess[(a, b)] += w1 * chess[(a, b)];
                    }
                }
                // −(μ/g²)·∇g∇gᵀ
                for a in 0..n {
                    if cgrad[a] == 0.0 {
                        continue;
                    }
                    let va = w2 * cgrad[a];
                    for b in 0..n {
                        hess[(a, b)] -= va * cgrad[b];
                    }
                }
            }
            if grad.iter().any(|v| !v.is_finite()) {
                return Err(NumericsError::NonFiniteValue);
            }

            // Solve (−∇²Φ + εI)·δ = ∇Φ with escalating regularization. A
            // failed factorization leaves `trial` and `delta` partial, so
            // every attempt refills both.
            let mut eps = 0.0;
            loop {
                for a in 0..n {
                    for b in 0..n {
                        trial[(a, b)] = -hess[(a, b)];
                    }
                }
                if eps > 0.0 {
                    trial.add_diagonal(eps);
                }
                delta.copy_from_slice(&grad);
                match trial.cholesky_solve(&mut delta) {
                    Ok(()) => break,
                    Err(_) if eps < 1e12 => {
                        eps = if eps == 0.0 { 1e-10 } else { eps * 100.0 };
                    }
                    Err(_) => return Err(NumericsError::SingularMatrix),
                }
            }

            // Newton decrement.
            let decrement = linalg::dot(&grad, &delta);
            newton_total += 1;
            if decrement.abs() / 2.0 <= config.newton_tol {
                break;
            }

            // Backtracking line search preserving strict feasibility. The
            // Armijo test carries a float-resolution slack: near the
            // optimum the true improvement per step drops below the
            // representable resolution of Φ, and rejecting those steps
            // would stall the final centerings (leaving the iterate a few
            // 1e-4 relative off the optimum).
            let phi = eval_barrier(problem, &x, mu, m)?;
            let slack = 1e-12 * phi.abs().max(1.0);
            let mut t = 1.0;
            let mut accepted = false;
            for _bt in 0..60 {
                xt.copy_from_slice(&x);
                linalg::axpy(t, &delta, &mut xt);
                if let Some(phi_t) = try_eval_barrier(problem, &xt, mu, m) {
                    if phi_t >= phi + 0.01 * t * decrement - slack {
                        std::mem::swap(&mut x, &mut xt);
                        accepted = true;
                        break;
                    }
                }
                t *= 0.5;
            }
            if !accepted {
                // Step direction exhausted at this precision; centering done.
                break;
            }
        }

        // ---- Gap check and μ decrease ----
        if (m as f64) * mu <= config.gap_tol {
            let multipliers = (0..m).map(|i| mu / problem.constraint(i, &x)).collect();
            return Ok(BarrierSolution {
                objective: problem.objective(&x),
                multipliers,
                x,
                mu,
                newton_iterations: newton_total,
                converged: true,
            });
        }
        mu *= config.mu_shrink;
    }

    let multipliers = (0..m).map(|i| mu / problem.constraint(i, &x)).collect();
    Ok(BarrierSolution {
        objective: problem.objective(&x),
        multipliers,
        x,
        mu,
        newton_iterations: newton_total,
        converged: (m as f64) * mu <= config.gap_tol,
    })
}

/// Evaluates `Φ_μ`, erroring on infeasibility (used where feasibility is an
/// invariant, not a search condition).
fn eval_barrier<P: BarrierProblem>(
    problem: &P,
    x: &[f64],
    mu: f64,
    m: usize,
) -> Result<f64, NumericsError> {
    try_eval_barrier(problem, x, mu, m).ok_or(NumericsError::NonFiniteValue)
}

/// Evaluates `Φ_μ`, returning `None` when `x` is infeasible or produces
/// non-finite values (used by the line search).
fn try_eval_barrier<P: BarrierProblem>(problem: &P, x: &[f64], mu: f64, m: usize) -> Option<f64> {
    let mut v = problem.objective(x);
    if !v.is_finite() {
        return None;
    }
    for i in 0..m {
        let g = problem.constraint(i, x);
        if !(g > 0.0) || !g.is_finite() {
            return None;
        }
        v += mu * g.ln();
    }
    v.is_finite().then_some(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// maximize c·x subject to box 0 ≤ x_i ≤ u_i.
    struct BoxLp {
        c: Vec<f64>,
        u: Vec<f64>,
    }

    impl BarrierProblem for BoxLp {
        fn dim(&self) -> usize {
            self.c.len()
        }
        fn num_constraints(&self) -> usize {
            2 * self.c.len()
        }
        fn objective(&self, x: &[f64]) -> f64 {
            linalg::dot(&self.c, x)
        }
        fn objective_grad(&self, _x: &[f64], grad: &mut [f64]) {
            grad.copy_from_slice(&self.c);
        }
        fn objective_hess(&self, _x: &[f64], hess: &mut Matrix) {
            hess.clear();
        }
        fn constraint(&self, i: usize, x: &[f64]) -> f64 {
            let n = self.c.len();
            if i < n {
                x[i]
            } else {
                self.u[i - n] - x[i - n]
            }
        }
        fn constraint_grad(&self, i: usize, _x: &[f64], grad: &mut [f64]) {
            grad.iter_mut().for_each(|v| *v = 0.0);
            let n = self.c.len();
            if i < n {
                grad[i] = 1.0;
            } else {
                grad[i - n] = -1.0;
            }
        }
        fn constraint_hess(&self, _i: usize, _x: &[f64], hess: &mut Matrix) {
            hess.clear();
        }
    }

    /// maximize −Σ w_i (x_i − m_i)² over the box [0, u]^n.
    struct BoxQp {
        w: Vec<f64>,
        m: Vec<f64>,
        u: Vec<f64>,
    }

    impl BarrierProblem for BoxQp {
        fn dim(&self) -> usize {
            self.w.len()
        }
        fn num_constraints(&self) -> usize {
            2 * self.w.len()
        }
        fn objective(&self, x: &[f64]) -> f64 {
            -self
                .w
                .iter()
                .zip(&self.m)
                .zip(x)
                .map(|((w, m), x)| w * (x - m) * (x - m))
                .sum::<f64>()
        }
        fn objective_grad(&self, x: &[f64], grad: &mut [f64]) {
            for i in 0..x.len() {
                grad[i] = -2.0 * self.w[i] * (x[i] - self.m[i]);
            }
        }
        fn objective_hess(&self, _x: &[f64], hess: &mut Matrix) {
            hess.clear();
            for i in 0..self.w.len() {
                hess[(i, i)] = -2.0 * self.w[i];
            }
        }
        fn constraint(&self, i: usize, x: &[f64]) -> f64 {
            let n = self.w.len();
            if i < n {
                x[i]
            } else {
                self.u[i - n] - x[i - n]
            }
        }
        fn constraint_grad(&self, i: usize, _x: &[f64], grad: &mut [f64]) {
            grad.iter_mut().for_each(|v| *v = 0.0);
            let n = self.w.len();
            if i < n {
                grad[i] = 1.0;
            } else {
                grad[i - n] = -1.0;
            }
        }
        fn constraint_hess(&self, _i: usize, _x: &[f64], hess: &mut Matrix) {
            hess.clear();
        }
    }

    /// maximize x + y subject to x² + y² ≤ r².
    struct Disc {
        r2: f64,
    }

    impl BarrierProblem for Disc {
        fn dim(&self) -> usize {
            2
        }
        fn num_constraints(&self) -> usize {
            1
        }
        fn objective(&self, x: &[f64]) -> f64 {
            x[0] + x[1]
        }
        fn objective_grad(&self, _x: &[f64], grad: &mut [f64]) {
            grad[0] = 1.0;
            grad[1] = 1.0;
        }
        fn objective_hess(&self, _x: &[f64], hess: &mut Matrix) {
            hess.clear();
        }
        fn constraint(&self, _i: usize, x: &[f64]) -> f64 {
            self.r2 - x[0] * x[0] - x[1] * x[1]
        }
        fn constraint_grad(&self, _i: usize, x: &[f64], grad: &mut [f64]) {
            grad[0] = -2.0 * x[0];
            grad[1] = -2.0 * x[1];
        }
        fn constraint_hess(&self, _i: usize, _x: &[f64], hess: &mut Matrix) {
            hess.clear();
            hess[(0, 0)] = -2.0;
            hess[(1, 1)] = -2.0;
        }
    }

    #[test]
    fn box_lp_reaches_corner() {
        let p = BoxLp {
            c: vec![1.0, 2.0],
            u: vec![3.0, 5.0],
        };
        let sol = solve_barrier(&p, &[1.0, 1.0], &BarrierConfig::default()).unwrap();
        assert!(sol.converged);
        assert!((sol.x[0] - 3.0).abs() < 1e-5, "x0={}", sol.x[0]);
        assert!((sol.x[1] - 5.0).abs() < 1e-5, "x1={}", sol.x[1]);
        assert!((sol.objective - 13.0).abs() < 1e-4);
    }

    #[test]
    fn box_qp_interior_optimum() {
        let p = BoxQp {
            w: vec![1.0, 2.0],
            m: vec![2.0, 3.0],
            u: vec![10.0, 10.0],
        };
        let sol = solve_barrier(&p, &[5.0, 5.0], &BarrierConfig::default()).unwrap();
        assert!(sol.converged);
        assert!((sol.x[0] - 2.0).abs() < 1e-5);
        assert!((sol.x[1] - 3.0).abs() < 1e-5);
    }

    #[test]
    fn box_qp_active_bound_and_multiplier() {
        // Unconstrained max at 5 but upper bound at 3: optimum clamps to 3,
        // the bound's multiplier approximates the objective slope 2w(m−u)=4.
        let p = BoxQp {
            w: vec![1.0],
            m: vec![5.0],
            u: vec![3.0],
        };
        let sol = solve_barrier(&p, &[1.0], &BarrierConfig::default()).unwrap();
        assert!((sol.x[0] - 3.0).abs() < 1e-4);
        assert!(
            (sol.multipliers[1] - 4.0).abs() < 0.1,
            "λ={}",
            sol.multipliers[1]
        );
    }

    #[test]
    fn disc_constraint_optimum() {
        let p = Disc { r2: 2.0 };
        let sol = solve_barrier(&p, &[0.0, 0.0], &BarrierConfig::default()).unwrap();
        assert!(sol.converged);
        assert!((sol.x[0] - 1.0).abs() < 1e-5);
        assert!((sol.x[1] - 1.0).abs() < 1e-5);
        assert!((sol.objective - 2.0).abs() < 1e-4);
    }

    #[test]
    fn infeasible_start_rejected() {
        let p = Disc { r2: 1.0 };
        assert_eq!(
            solve_barrier(&p, &[2.0, 0.0], &BarrierConfig::default()),
            Err(NumericsError::InfeasibleStart)
        );
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let p = Disc { r2: 1.0 };
        assert_eq!(
            solve_barrier(&p, &[0.0], &BarrierConfig::default()),
            Err(NumericsError::DimensionMismatch)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn qp_matches_clamped_analytic_solution(
            w in proptest::collection::vec(0.5..4.0f64, 3),
            m in proptest::collection::vec(-2.0..8.0f64, 3),
            u in proptest::collection::vec(1.0..6.0f64, 3),
        ) {
            let p = BoxQp { w: w.clone(), m: m.clone(), u: u.clone() };
            let x0: Vec<f64> = u.iter().map(|ui| ui / 2.0).collect();
            let sol = solve_barrier(&p, &x0, &BarrierConfig::default()).unwrap();
            for i in 0..3 {
                let truth = m[i].clamp(0.0, u[i]);
                prop_assert!((sol.x[i] - truth).abs() < 1e-4,
                    "i={i} got={} want={truth}", sol.x[i]);
            }
        }
    }
}
