//! Preconditioners for the conjugate gradient solver.

use crate::csr::CsrMatrix;

/// Applies an approximation of `A^{-1}` to a residual. The paper's
/// section 4.1 calls for "a conjugate gradient approach with
/// preconditioning"; Jacobi is the classical choice for the strongly
/// diagonally dominant placement matrices.
pub trait Preconditioner {
    /// Computes `z = M^{-1} r`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `r` and `z` lengths differ from the
    /// dimension the preconditioner was built for.
    fn apply(&self, r: &[f64], z: &mut [f64]);
}

/// No preconditioning (`M = I`); the plain CG baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPreconditioner;

impl Preconditioner for IdentityPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// Diagonal (Jacobi) preconditioner: `M = diag(A)`.
#[derive(Debug, Clone, Default)]
pub struct JacobiPreconditioner {
    inv_diag: Vec<f64>,
}

impl JacobiPreconditioner {
    /// Builds the preconditioner from a matrix's diagonal. Zero or
    /// negative diagonal entries (which would make CG meaningless anyway)
    /// fall back to `1.0` so `apply` stays finite.
    #[must_use]
    pub fn from_matrix(a: &CsrMatrix) -> Self {
        let mut p = Self::default();
        p.refresh_from(a);
        p
    }

    /// Rebuilds the preconditioner in place for a (re-assembled) matrix,
    /// reusing the stored vector — the arena path calls this once per
    /// transformation without allocating.
    pub fn refresh_from(&mut self, a: &CsrMatrix) {
        a.diagonal_into(&mut self.inv_diag);
        for d in &mut self.inv_diag {
            *d = if *d > f64::MIN_POSITIVE { 1.0 / *d } else { 1.0 };
        }
    }

    /// Dimension the preconditioner was built for.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.inv_diag.len()
    }
}

impl Preconditioner for JacobiPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.inv_diag.len(), "residual length mismatch");
        assert_eq!(z.len(), self.inv_diag.len(), "output length mismatch");
        for i in 0..r.len() {
            z[i] = r[i] * self.inv_diag[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CooMatrix;

    #[test]
    fn identity_copies() {
        let r = [1.0, -2.0];
        let mut z = [0.0; 2];
        IdentityPreconditioner.apply(&r, &mut z);
        assert_eq!(z, r);
    }

    #[test]
    fn jacobi_scales_by_inverse_diagonal() {
        let mut coo = CooMatrix::new(2);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 4.0);
        let a = coo.into_csr();
        let p = JacobiPreconditioner::from_matrix(&a);
        assert_eq!(p.dim(), 2);
        let mut z = [0.0; 2];
        p.apply(&[2.0, 2.0], &mut z);
        assert_eq!(z, [1.0, 0.5]);
    }

    #[test]
    fn jacobi_refresh_rebuilds_without_reallocating() {
        let mut coo = CooMatrix::new(2);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 4.0);
        let a = coo.into_csr();
        let mut p = JacobiPreconditioner::from_matrix(&a);
        let cap = p.inv_diag.capacity();
        let mut coo = CooMatrix::new(2);
        coo.push(0, 0, 8.0);
        coo.push(1, 1, 16.0);
        p.refresh_from(&coo.into_csr());
        assert_eq!(p.inv_diag.capacity(), cap);
        let mut z = [0.0; 2];
        p.apply(&[8.0, 8.0], &mut z);
        assert_eq!(z, [1.0, 0.5]);
    }

    #[test]
    fn jacobi_survives_zero_diagonal() {
        let mut coo = CooMatrix::new(2);
        coo.push(0, 0, 2.0);
        coo.push(1, 0, 1.0); // row 1 has no diagonal
        let a = coo.into_csr();
        let p = JacobiPreconditioner::from_matrix(&a);
        let mut z = [0.0; 2];
        p.apply(&[1.0, 1.0], &mut z);
        assert!(z.iter().all(|v| v.is_finite()));
        assert_eq!(z[1], 1.0);
    }
}
