//! Small dense matrices and direct solvers.
//!
//! Problem sizes here are tiny (Newton systems of dimension ≤ ~32), so a
//! row-major dense matrix with Cholesky / partially-pivoted LU is both
//! simpler and faster than anything sparse.

use crate::error::NumericsError;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from nested rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "inconsistent row lengths");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Sets every entry to zero (reuses the allocation).
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Matrix-vector product `y = A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] when sizes disagree.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, NumericsError> {
        if x.len() != self.cols {
            return Err(NumericsError::DimensionMismatch);
        }
        let y = self
            .data
            .chunks_exact(self.cols)
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect();
        Ok(y)
    }

    /// Adds `alpha · v·vᵀ` (an outer product) into the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] unless the matrix is
    /// square with dimension `v.len()`.
    pub fn add_outer(&mut self, alpha: f64, v: &[f64]) -> Result<(), NumericsError> {
        let n = v.len();
        if self.rows != n || self.cols != n {
            return Err(NumericsError::DimensionMismatch);
        }
        for (i, &vi_raw) in v.iter().enumerate() {
            if vi_raw == 0.0 {
                continue;
            }
            let vi = alpha * vi_raw;
            for (cell, &vj) in self.data[i * n..(i + 1) * n].iter_mut().zip(v) {
                *cell += vi * vj;
            }
        }
        Ok(())
    }

    /// Adds `alpha` to every diagonal entry (Levenberg regularization).
    pub fn add_diagonal(&mut self, alpha: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self.data[i * self.cols + i] += alpha;
        }
    }

    /// Solves `A·x = b` for symmetric positive definite `A` via Cholesky,
    /// in place: `self` is overwritten with its factor `L` (lower
    /// triangle) and `x` holds `b` on entry and the solution on success.
    /// Nothing is allocated, so a solver loop can reuse both buffers.
    /// Fails (rather than producing garbage) when `A` is not positive
    /// definite; `self` and `x` then hold partial results.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::DimensionMismatch`] for non-square `A` or wrong
    ///   `x` length.
    /// * [`NumericsError::SingularMatrix`] when a pivot is not positive.
    pub fn cholesky_solve(&mut self, x: &mut [f64]) -> Result<(), NumericsError> {
        let n = self.rows;
        if self.cols != n || x.len() != n {
            return Err(NumericsError::DimensionMismatch);
        }
        // Factor A = L·Lᵀ in place.
        let l = &mut self.data;
        for j in 0..n {
            let mut diag = l[j * n + j];
            for k in 0..j {
                diag -= l[j * n + k] * l[j * n + k];
            }
            // `!(diag > 0.0)` also rejects NaN, unlike `diag <= 0.0`.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(diag > 0.0) || !diag.is_finite() {
                return Err(NumericsError::SingularMatrix);
            }
            let diag = diag.sqrt();
            l[j * n + j] = diag;
            for i in (j + 1)..n {
                let mut v = l[i * n + j];
                for k in 0..j {
                    v -= l[i * n + k] * l[j * n + k];
                }
                l[i * n + j] = v / diag;
            }
        }
        // Forward substitution L·y = b.
        for i in 0..n {
            for k in 0..i {
                x[i] -= l[i * n + k] * x[k];
            }
            x[i] /= l[i * n + i];
        }
        // Back substitution Lᵀ·x = y.
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                x[i] -= l[k * n + i] * x[k];
            }
            x[i] /= l[i * n + i];
        }
        Ok(())
    }

    /// Solves `A·x = b` via LU with partial pivoting (general square `A`).
    ///
    /// # Errors
    ///
    /// * [`NumericsError::DimensionMismatch`] for non-square `A` or wrong
    ///   `b` length.
    /// * [`NumericsError::SingularMatrix`] when a pivot column is all zero.
    pub fn lu_solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
        let n = self.rows;
        if self.cols != n || b.len() != n {
            return Err(NumericsError::DimensionMismatch);
        }
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Pivot selection.
            let mut pivot = col;
            let mut best = a[col * n + col].abs();
            for row in (col + 1)..n {
                let v = a[row * n + col].abs();
                if v > best {
                    best = v;
                    pivot = row;
                }
            }
            if best == 0.0 || !best.is_finite() {
                return Err(NumericsError::SingularMatrix);
            }
            if pivot != col {
                for j in 0..n {
                    a.swap(col * n + j, pivot * n + j);
                }
                x.swap(col, pivot);
            }
            // Eliminate below.
            let p = a[col * n + col];
            for row in (col + 1)..n {
                let factor = a[row * n + col] / p;
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[row * n + j] -= factor * a[col * n + j];
                }
                x[row] -= factor * x[col];
            }
        }
        // Back substitution.
        for i in (0..n).rev() {
            for j in (i + 1)..n {
                x[i] -= a[i * n + j] * x[j];
            }
            x[i] /= a[i * n + i];
        }
        Ok(x)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Dot product of two equal-length slices.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y ← y + alpha·x`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Solves `a·x = b` by Cholesky on copies of `a` and `b`.
    fn cholesky(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
        let mut x = b.to_vec();
        a.clone().cholesky_solve(&mut x)?;
        Ok(x)
    }

    #[test]
    fn identity_solves_trivially() {
        let x = cholesky(&Matrix::identity(3), &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn cholesky_factors_in_place() {
        let mut a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let mut x = [10.0, 9.0];
        a.cholesky_solve(&mut x).unwrap();
        // L = [[2, ·], [1, √2]] in the lower triangle.
        assert_eq!(a[(0, 0)], 2.0);
        assert_eq!(a[(1, 0)], 1.0);
        assert!((a[(1, 1)] - 2f64.sqrt()).abs() < 1e-15);
        assert!((x[0] - 1.5).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cholesky_solves_spd_system() {
        // A = [[4,2],[2,3]], b = [10, 9] → x = [1.5, 2.0]? Check: 4·1.5+2·2=10 ✓, 2·1.5+3·2=9 ✓.
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let x = cholesky(&a, &[10.0, 9.0]).unwrap();
        assert!((x[0] - 1.5).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, −1
        assert_eq!(
            cholesky(&a, &[1.0, 1.0]),
            Err(NumericsError::SingularMatrix)
        );
    }

    #[test]
    fn lu_solves_general_system() {
        let a = Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, -2.0, -3.0], &[-1.0, 1.0, 2.0]]);
        let b = [-8.0, 0.0, 3.0];
        let x = a.lu_solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for (bi, yi) in b.iter().zip(&back) {
            assert!((bi - yi).abs() < 1e-10);
        }
    }

    #[test]
    fn lu_rejects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(a.lu_solve(&[1.0, 1.0]), Err(NumericsError::SingularMatrix));
    }

    #[test]
    fn dimension_mismatch_detected() {
        let a = Matrix::zeros(2, 3);
        assert_eq!(a.matvec(&[1.0]), Err(NumericsError::DimensionMismatch));
        assert_eq!(
            cholesky(&a, &[1.0, 1.0]),
            Err(NumericsError::DimensionMismatch)
        );
    }

    #[test]
    fn outer_product_accumulates() {
        let mut a = Matrix::zeros(2, 2);
        a.add_outer(2.0, &[1.0, 3.0]).unwrap();
        assert_eq!(a[(0, 0)], 2.0);
        assert_eq!(a[(0, 1)], 6.0);
        assert_eq!(a[(1, 0)], 6.0);
        assert_eq!(a[(1, 1)], 18.0);
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 2.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0]);
    }

    proptest! {
        #[test]
        fn cholesky_and_lu_agree_on_spd(
            vals in proptest::collection::vec(-2.0..2.0f64, 9),
            b in proptest::collection::vec(-5.0..5.0f64, 3),
        ) {
            // Build SPD A = MᵀM + I.
            let m = Matrix::from_rows(&[&vals[0..3], &vals[3..6], &vals[6..9]]);
            let mut a = Matrix::zeros(3, 3);
            for i in 0..3 {
                for j in 0..3 {
                    let mut s = 0.0;
                    for k in 0..3 {
                        s += m[(k, i)] * m[(k, j)];
                    }
                    a[(i, j)] = s + if i == j { 1.0 } else { 0.0 };
                }
            }
            let xc = cholesky(&a, &b).unwrap();
            let xl = a.lu_solve(&b).unwrap();
            for (c, l) in xc.iter().zip(&xl) {
                prop_assert!((c - l).abs() < 1e-8 * (1.0 + c.abs()));
            }
            // Residual check.
            let r = a.matvec(&xc).unwrap();
            for (ri, bi) in r.iter().zip(&b) {
                prop_assert!((ri - bi).abs() < 1e-8 * (1.0 + bi.abs()));
            }
        }
    }
}
