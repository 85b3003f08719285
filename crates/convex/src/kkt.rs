//! KKT residual verification for solved loop problems.
//!
//! The barrier method produces approximate dual multipliers
//! `λ_i = μ / g_i(x)`. At an exact optimum of the concave program the KKT
//! conditions hold:
//!
//! * stationarity: `∇φ(x) + Σ_i λ_i ∇g_i(x) = 0`
//! * primal feasibility: `g_i(x) ≥ 0`
//! * dual feasibility: `λ_i ≥ 0`
//! * complementary slackness: `λ_i · g_i(x) = 0` (equals `μ` at the barrier
//!   central path, so the residual is bounded by the final `μ`)
//!
//! [`verify_reduced`] evaluates all four residuals for the reduced
//! formulation so tests (and cautious callers) can certify optimality
//! independently of the solver's own convergence flag.

use arb_numerics::barrier::{BarrierProblem, BarrierSolution};
use arb_numerics::linalg::Matrix;

use crate::error::ConvexError;
use crate::problem::LoopProblem;
use crate::reduced::ReducedProblem;

/// Residuals of the KKT system at a candidate solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KktReport {
    /// `‖∇φ + Σ λ_i ∇g_i‖_∞` — stationarity residual.
    pub stationarity: f64,
    /// Most negative constraint value (0 when primal feasible).
    pub primal_violation: f64,
    /// Most negative multiplier (0 when dual feasible).
    pub dual_violation: f64,
    /// `max_i λ_i·g_i(x)` — complementary slackness residual.
    pub complementarity: f64,
}

impl KktReport {
    /// Whether all residuals are within `tol`.
    pub fn is_optimal(&self, tol: f64) -> bool {
        self.stationarity <= tol
            && self.primal_violation <= tol
            && self.dual_violation <= tol
            && self.complementarity <= tol
    }
}

/// Computes KKT residuals for the reduced formulation at a barrier
/// solution.
///
/// # Errors
///
/// Returns [`ConvexError::LengthMismatch`] if the solution dimensions do
/// not match the problem.
pub fn verify_reduced(
    problem: &LoopProblem,
    solution: &BarrierSolution,
) -> Result<KktReport, ConvexError> {
    let reduced = ReducedProblem::new(problem.hops(), problem.prices());
    let n = reduced.dim();
    let m = reduced.num_constraints();
    if solution.x.len() != n || solution.multipliers.len() != m {
        return Err(ConvexError::LengthMismatch);
    }
    let x = &solution.x;

    let mut lagr_grad = vec![0.0; n];
    reduced.objective_grad(x, &mut lagr_grad);
    let mut cgrad = vec![0.0; n];
    let mut primal = 0.0f64;
    let mut dual = 0.0f64;
    let mut comp = 0.0f64;
    for i in 0..m {
        let g = reduced.constraint(i, x);
        let lam = solution.multipliers[i];
        primal = primal.max(-g);
        dual = dual.max(-lam);
        comp = comp.max((lam * g).abs());
        reduced.constraint_grad(i, x, &mut cgrad);
        for a in 0..n {
            lagr_grad[a] += lam * cgrad[a];
        }
    }
    let stationarity = lagr_grad.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
    Ok(KktReport {
        stationarity,
        primal_violation: primal,
        dual_violation: dual,
        complementarity: comp,
    })
}

/// Replaces the raw barrier multipliers `μ/g_i` with least-squares
/// multipliers over the active set.
///
/// At very small `μ` the barrier multipliers are dominated by centering
/// noise (the Newton decrement can be tiny while `∇Φ` is still large when
/// the barrier Hessian blows up near the boundary), so certificates built
/// from them overstate the stationarity residual even when the primal
/// solution is accurate. The standard remedy: pick the active constraints
/// (those with non-vanishing barrier multipliers), solve the normal
/// equations `(AᵀA)λ = −Aᵀ∇φ` for the stacked active gradients `A`, and
/// clamp any slightly negative results to zero.
pub fn polish_multipliers(problem: &LoopProblem, solution: &BarrierSolution) -> Vec<f64> {
    let reduced = ReducedProblem::new(problem.hops(), problem.prices());
    let n = reduced.dim();
    let m = reduced.num_constraints();
    let mut grad_phi = vec![0.0; n];
    reduced.objective_grad(&solution.x, &mut grad_phi);
    let mut grad_buf = vec![0.0; n];
    let mut all_columns: Vec<Vec<f64>> = Vec::with_capacity(m);
    for i in 0..m {
        reduced.constraint_grad(i, &solution.x, &mut grad_buf);
        all_columns.push(grad_buf.clone());
    }

    // Working set: constraints the central path marks active (barrier
    // multipliers λ_i = μ/g_i vanish for inactive constraints, so a
    // relative threshold separates them cleanly). Restricting the
    // least-squares to this set keeps spurious multiplier mass off
    // far-from-binding constraints, which would otherwise pollute the
    // complementarity residual through the rank-deficient geometry.
    // Negative least-squares multipliers are then dropped iteratively
    // (plain NNLS outer loop; m ≤ 2n is tiny).
    let max_raw = solution.multipliers.iter().copied().fold(0.0f64, f64::max);
    let mut working: Vec<usize> = (0..m)
        .filter(|&i| solution.multipliers[i] >= 1e-3 * max_raw)
        .collect();
    let mut polished = vec![0.0; m];
    for _pass in 0..m {
        if working.is_empty() {
            break;
        }
        let k = working.len();
        let mut ata = Matrix::zeros(k, k);
        let mut rhs = vec![0.0; k];
        let mut trace = 0.0;
        for a in 0..k {
            for b in 0..k {
                let v: f64 = all_columns[working[a]]
                    .iter()
                    .zip(&all_columns[working[b]])
                    .map(|(x, y)| x * y)
                    .sum();
                ata[(a, b)] = v;
                if a == b {
                    trace += v;
                }
            }
            rhs[a] = -all_columns[working[a]]
                .iter()
                .zip(&grad_phi)
                .map(|(x, y)| x * y)
                .sum::<f64>();
        }
        // Regularize rank deficiency (the stacked gradients of 2n
        // constraints in n variables are necessarily dependent).
        let reg = 1e-12 * (1.0 + trace / k as f64);
        ata.add_diagonal(reg);
        let mut lambda = rhs;
        if ata.cholesky_solve(&mut lambda).is_err() {
            // Degenerate geometry: keep the barrier multipliers.
            return solution.multipliers.clone();
        }
        let negatives: Vec<usize> = (0..k).filter(|&a| lambda[a] < 0.0).collect();
        if negatives.is_empty() {
            polished = vec![0.0; m];
            for (&i, l) in working.iter().zip(&lambda) {
                polished[i] = *l;
            }
            return polished;
        }
        // Drop the most negative and re-solve.
        let worst = *negatives
            .iter()
            .min_by(|&&a, &&b| lambda[a].partial_cmp(&lambda[b]).expect("finite"))
            .expect("non-empty");
        working.remove(worst);
    }
    polished
}

/// Convenience: solve the reduced problem, polish the dual multipliers,
/// and verify the KKT residuals in one call. Returns the (polished)
/// solution alongside the report.
///
/// # Errors
///
/// Forwards solver and validation errors; see [`LoopProblem::solve`].
pub fn solve_and_verify(
    problem: &LoopProblem,
    config: &arb_numerics::barrier::BarrierConfig,
) -> Result<(BarrierSolution, KktReport), ConvexError> {
    let start = problem
        .feasible_inputs()
        .ok_or(ConvexError::FeasibilityConstruction)?;
    let scaled = problem.scaled_barrier(config);
    let mut sol = crate::reduced::solve_raw(problem, &start, &scaled)?;
    sol.multipliers = polish_multipliers(problem, &sol);
    let report = verify_reduced(problem, &sol)?;
    Ok((sol, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use arb_amm::curve::SwapCurve;
    use arb_amm::fee::FeeRate;
    use arb_numerics::barrier::BarrierConfig;

    fn paper_problem() -> LoopProblem {
        let fee = FeeRate::UNISWAP_V2;
        LoopProblem::new(
            vec![
                SwapCurve::new(100.0, 200.0, fee).unwrap(),
                SwapCurve::new(300.0, 200.0, fee).unwrap(),
                SwapCurve::new(200.0, 400.0, fee).unwrap(),
            ],
            vec![2.0, 10.2, 20.0],
        )
        .unwrap()
    }

    #[test]
    fn paper_example_satisfies_kkt() {
        let p = paper_problem();
        let (sol, report) = solve_and_verify(&p, &BarrierConfig::default()).unwrap();
        assert!(sol.converged);
        // The multipliers are barrier approximations (λ_i = μ/g_i); the
        // stationarity residual scales with price magnitudes (~20 here).
        assert!(
            report.stationarity < 1e-2,
            "stationarity = {}",
            report.stationarity
        );
        assert!(report.primal_violation <= 1e-12);
        assert!(report.dual_violation <= 1e-12);
        assert!(
            report.complementarity < 1e-4,
            "complementarity = {}",
            report.complementarity
        );
        assert!(report.is_optimal(1e-2));
    }

    #[test]
    fn dimension_mismatch_detected() {
        let p = paper_problem();
        let bad = BarrierSolution {
            x: vec![1.0],
            objective: 0.0,
            multipliers: vec![],
            mu: 1.0,
            newton_iterations: 0,
            converged: false,
        };
        assert_eq!(verify_reduced(&p, &bad), Err(ConvexError::LengthMismatch));
    }
}
