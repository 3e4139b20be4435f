//! The DILU factor of a symmetric matrix and the triangular sweeps that
//! apply it under Eisenstat's trick.
//!
//! Write `A = L + D + U` (strict lower part, diagonal, strict upper part;
//! `U = Lᵀ`). The diagonal incomplete LU preconditioner keeps `A`'s
//! off-diagonals and replaces the diagonal by `D̃`, chosen so that
//! `M = (D̃ + L) D̃⁻¹ (D̃ + U)` has the same diagonal as `A`:
//!
//! ```text
//! d̃ᵢ = aᵢᵢ − Σ_{j<i} aᵢⱼ² / d̃ⱼ
//! ```
//!
//! With `S = D̃^½` and `E = (D̃ + L) S⁻¹` (so `M = E Eᵀ`), conjugate
//! gradients run on the split system `Â x̂ = b̂`, `Â = E⁻¹ A E⁻ᵀ =
//! S (D̃+L)⁻¹ A (D̃+U)⁻¹ S`, `b̂ = E⁻¹ b`. Eisenstat's trick (SIAM J. Sci.
//! Stat. Comput. 2(1), 1981) writes `A = (D̃+L) + (D̃+U) − K` with
//! `K = 2D̃ − D`, so that for `v = S p̂` and `t = (D̃+U)⁻¹ v`
//!
//! ```text
//! Â p̂ = S (t + (D̃+L)⁻¹ (v − K t))
//! ```
//!
//! — one backward and one forward sweep over `A`'s triangles, and no
//! separate matrix–vector product. Both sweeps are sequential and every
//! reduction accumulates in fixed, index-ordered lanes, so a solve is
//! bitwise identical at any thread count.

use crate::csr::CsrMatrix;

/// Reduction lanes: element `i` accumulates into lane `i % LANES`, and
/// the lanes combine in a fixed order. Independent lanes let the
/// additions overlap; the association depends on the length only.
const LANES: usize = 4;

/// Sums the lanes in a fixed order.
fn combine(lanes: [f64; LANES]) -> f64 {
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

/// Whether `v` can serve as a pivot: positive (normal, so its inverse
/// and square root are finite) and finite.
fn usable(v: f64) -> bool {
    v.is_finite() && v >= f64::MIN_POSITIVE
}

/// The DILU factor of a symmetric matrix: its pivots `d̃`, the derived
/// scalings, and where each CSR row splits into its strict triangles.
/// The factor references `A`'s off-diagonals instead of copying them, so
/// every use takes the matrix it was built from.
///
/// A pivot that is not positive and finite falls back to `aᵢᵢ`, or to 1
/// where that is not positive and finite either, so `M` stays symmetric
/// positive definite for any input.
#[derive(Debug, Clone, Default)]
pub struct DiluFactor {
    nnz: usize,
    /// `A`'s main diagonal (zero where the entry is not stored).
    diag: Vec<f64>,
    /// Per row, the first stored entry with column ≥ row: the end of the
    /// strict lower triangle.
    lower_end: Vec<u32>,
    /// Per row, the first stored entry with column > row: the start of
    /// the strict upper triangle.
    upper_start: Vec<u32>,
    /// `1 / d̃ᵢ`.
    inv: Vec<f64>,
    /// `sᵢ = √d̃ᵢ`, the split scaling `S`.
    scale: Vec<f64>,
    /// `κᵢ = 2 d̃ᵢ − aᵢᵢ`, the diagonal of Eisenstat's `K`.
    twist: Vec<f64>,
}

impl DiluFactor {
    /// Builds the factor of `a`.
    #[must_use]
    pub fn from_matrix(a: &CsrMatrix) -> Self {
        let mut f = Self::default();
        f.refresh_from(a);
        f
    }

    /// Rebuilds the factor in place for a (re-assembled) matrix, reusing
    /// every buffer — the arena path calls this once per transformation
    /// and axis without allocating.
    pub fn refresh_from(&mut self, a: &CsrMatrix) {
        let (row_ptr, col_idx, values) = a.parts();
        let n = a.dim();
        self.nnz = a.nnz();
        for buf in [
            &mut self.diag,
            &mut self.inv,
            &mut self.scale,
            &mut self.twist,
        ] {
            buf.clear();
            buf.resize(n, 0.0);
        }
        self.lower_end.clear();
        self.lower_end.resize(n, 0);
        self.upper_start.clear();
        self.upper_start.resize(n, 0);
        for i in 0..n {
            let (lo, hi) = (row_ptr[i] as usize, row_ptr[i + 1] as usize);
            // One scan finds the end of the (column-sorted) lower triangle
            // and sums its fill.
            let mut lower_end = lo;
            let mut fill = 0.0;
            while lower_end < hi && (col_idx[lower_end] as usize) < i {
                let v = values[lower_end];
                fill += v * v * self.inv[col_idx[lower_end] as usize];
                lower_end += 1;
            }
            let has_diag = lower_end < hi && col_idx[lower_end] as usize == i;
            let aii = if has_diag { values[lower_end] } else { 0.0 };
            let pivot = aii - fill;
            let d = if usable(pivot) {
                pivot
            } else if usable(aii) {
                aii
            } else {
                1.0
            };
            self.diag[i] = aii;
            self.lower_end[i] = lower_end as u32;
            self.upper_start[i] = (lower_end + usize::from(has_diag)) as u32;
            self.inv[i] = 1.0 / d;
            self.scale[i] = d.sqrt();
            self.twist[i] = 2.0 * d - aii;
        }
    }

    /// Dimension the factor was built for.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.diag.len()
    }

    /// The factored matrix's main diagonal `aᵢᵢ` (zero where the entry is
    /// not stored) — the per-cell spring stiffness of a placement system.
    #[must_use]
    pub fn diagonal(&self) -> &[f64] {
        &self.diag
    }

    /// Summed capacity of every buffer; two equal values around a block
    /// of refreshes prove the block allocated nothing.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.diag.capacity()
            + self.lower_end.capacity()
            + self.upper_start.capacity()
            + self.inv.capacity()
            + self.scale.capacity()
            + self.twist.capacity()
    }

    /// `None` when the factor was built from a matrix with `a`'s shape,
    /// else the `(expected, got)` dimension — or stored-entry count, when
    /// the dimensions agree — for the caller's error.
    pub(crate) fn mismatch(&self, a: &CsrMatrix) -> Option<(usize, usize)> {
        if self.dim() != a.dim() {
            Some((a.dim(), self.dim()))
        } else if self.nnz != a.nnz() {
            Some((a.nnz(), self.nnz))
        } else {
            None
        }
    }

    /// Overwrites `y` with its split image `S (D̃+L)⁻¹ y` (so `b` becomes
    /// `b̂` and `r` becomes `r̂`) and returns the image's squared norm.
    /// `w` receives the unscaled forward-sweep solution.
    pub(crate) fn split_into(&self, a: &CsrMatrix, y: &mut [f64], w: &mut [f64]) -> f64 {
        let (row_ptr, col_idx, values) = a.parts();
        let mut lanes = [0.0; LANES];
        for i in 0..y.len() {
            let (lo, end) = (row_ptr[i] as usize, self.lower_end[i] as usize);
            let mut acc = y[i];
            for (v, &c) in values[lo..end].iter().zip(&col_idx[lo..end]) {
                acc -= v * w[c as usize];
            }
            let wi = acc * self.inv[i];
            w[i] = wi;
            let yi = self.scale[i] * wi;
            y[i] = yi;
            lanes[i % LANES] += yi * yi;
        }
        combine(lanes)
    }

    /// One preconditioned direction update and product, in two sweeps:
    /// first `p̂ ← r̂ + β p̂` fused into the backward sweep
    /// `t = (D̃+U)⁻¹ S p̂`, then the forward sweep
    /// `w = (D̃+L)⁻¹ (S p̂ − K t)`. The product is `q̂ = S (t + w)`
    /// (see [`q_hat`](Self::q_hat)); the return value is `p̂ · q̂`.
    pub(crate) fn direction_and_product(
        &self,
        a: &CsrMatrix,
        r: &[f64],
        beta: f64,
        p: &mut [f64],
        t: &mut [f64],
        w: &mut [f64],
    ) -> f64 {
        let (row_ptr, col_idx, values) = a.parts();
        let n = p.len();
        for i in (0..n).rev() {
            let pi = r[i] + beta * p[i];
            p[i] = pi;
            let (start, hi) = (self.upper_start[i] as usize, row_ptr[i + 1] as usize);
            let mut acc = self.scale[i] * pi;
            // Farthest column first: the nearest, most recently written
            // entry of `t` enters the chain last, so the rest of the row
            // can run ahead of it.
            for (v, &c) in values[start..hi].iter().zip(&col_idx[start..hi]).rev() {
                acc -= v * t[c as usize];
            }
            t[i] = acc * self.inv[i];
        }
        let mut lanes = [0.0; LANES];
        for i in 0..n {
            let (lo, end) = (row_ptr[i] as usize, self.lower_end[i] as usize);
            let mut acc = self.scale[i] * p[i] - self.twist[i] * t[i];
            for (v, &c) in values[lo..end].iter().zip(&col_idx[lo..end]) {
                acc -= v * w[c as usize];
            }
            let wi = acc * self.inv[i];
            w[i] = wi;
            lanes[i % LANES] += p[i] * self.q_hat(i, t[i], wi);
        }
        combine(lanes)
    }

    /// `q̂ᵢ = sᵢ (tᵢ + wᵢ)`, recomputed by the update from the stored
    /// sweeps (bit for bit the value the product summed).
    fn q_hat(&self, i: usize, ti: f64, wi: f64) -> f64 {
        self.scale[i] * (ti + wi)
    }

    /// The step: `x += α t`, the original-space image of `x̂ += α p̂`
    /// (as `x = (D̃+U)⁻¹ S x̂`), and `r̂ −= α q̂`; returns `‖r̂‖²`.
    pub(crate) fn step(
        &self,
        alpha: f64,
        t: &[f64],
        w: &[f64],
        x: &mut [f64],
        r: &mut [f64],
    ) -> f64 {
        let mut lanes = [0.0; LANES];
        for i in 0..x.len() {
            x[i] += alpha * t[i];
            let ri = r[i] - alpha * self.q_hat(i, t[i], w[i]);
            r[i] = ri;
            lanes[i % LANES] += ri * ri;
        }
        combine(lanes)
    }
}

/// `‖b − y‖²` in the lanes of the factor's reductions (the true residual
/// of `y = A x`).
pub(crate) fn distance_squared(b: &[f64], y: &[f64]) -> f64 {
    let mut lanes = [0.0; LANES];
    for (i, (bi, yi)) in b.iter().zip(y).enumerate() {
        let d = bi - yi;
        lanes[i % LANES] += d * d;
    }
    combine(lanes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::tests::staged;

    /// `[[4, -1, 0], [-1, 4, -1], [0, -1, 4]]`.
    fn tridiagonal() -> CsrMatrix {
        staged(3, |st| {
            for i in 0..3 {
                st.add_diagonal(i, 4.0);
            }
            st.add_coupling(0, 1, -1.0);
            st.add_coupling(1, 2, -1.0);
        })
    }

    #[test]
    fn pivots_follow_the_dilu_recurrence() {
        let f = DiluFactor::from_matrix(&tridiagonal());
        let d0 = 4.0;
        let d1 = 4.0 - 1.0 / d0;
        let d2 = 4.0 - 1.0 / d1;
        for (i, d) in [d0, d1, d2].into_iter().enumerate() {
            assert!((f.inv[i] - 1.0 / d).abs() < 1e-15);
            assert!((f.scale[i] - d.sqrt()).abs() < 1e-15);
            assert!((f.twist[i] - (2.0 * d - 4.0)).abs() < 1e-15);
        }
        assert_eq!(f.diagonal(), &[4.0, 4.0, 4.0]);
        assert_eq!(
            (f.lower_end.as_slice(), f.upper_start.as_slice()),
            (&[0, 3, 6][..], &[1, 4, 7][..])
        );
    }

    #[test]
    fn the_factor_reproduces_the_diagonal_of_a() {
        // diag(M) = d̃ᵢ + Σ_{j<i} aᵢⱼ² / d̃ⱼ = aᵢᵢ wherever no pivot fell back.
        let a = tridiagonal();
        let f = DiluFactor::from_matrix(&a);
        for i in 0..3 {
            let mut m_ii = 1.0 / f.inv[i];
            for (j, v) in a.row(i).filter(|&(j, _)| j < i) {
                m_ii += v * v * f.inv[j];
            }
            assert!((m_ii - a.get(i, i)).abs() < 1e-14);
        }
    }

    #[test]
    fn eisenstat_product_matches_the_explicit_split_operator() {
        // Â p̂ = S (D̃+L)⁻¹ A (D̃+U)⁻¹ S p̂, formed densely.
        let a = tridiagonal();
        let f = DiluFactor::from_matrix(&a);
        let dense = a.to_dense();
        let d: Vec<f64> = f.inv.iter().map(|v| 1.0 / v).collect();
        let p = [0.3, -1.2, 2.5];
        // v = S p; t = (D̃+U)⁻¹ v by back substitution.
        let mut t = [0.0; 3];
        for i in (0..3).rev() {
            let mut acc = f.scale[i] * p[i];
            for j in i + 1..3 {
                acc -= dense[i][j] * t[j];
            }
            t[i] = acc / d[i];
        }
        let mut at = [0.0; 3];
        a.spmv(&t, &mut at);
        let mut z = [0.0; 3];
        for i in 0..3 {
            let mut acc = at[i];
            for j in 0..i {
                acc -= dense[i][j] * z[j];
            }
            z[i] = acc / d[i];
        }
        let expected: Vec<f64> = (0..3).map(|i| f.scale[i] * z[i]).collect();
        let mut p_hat = p;
        let (mut t2, mut w2) = ([0.0; 3], [0.0; 3]);
        let pq = f.direction_and_product(&a, &p, 0.0, &mut p_hat, &mut t2, &mut w2);
        let mut pq_expected = 0.0;
        for i in 0..3 {
            let q = f.q_hat(i, t2[i], w2[i]);
            assert!(
                (q - expected[i]).abs() < 1e-14,
                "{i}: {q} vs {}",
                expected[i]
            );
            pq_expected += p[i] * expected[i];
        }
        assert!((pq - pq_expected).abs() < 1e-13);
        for (got, want) in t2.iter().zip(&t) {
            assert!((got - want).abs() < 1e-14);
        }
    }

    #[test]
    fn non_positive_pivots_fall_back_to_the_diagonal_or_one() {
        // Row 1's pivot 1 − 2²/1 is negative → a₁₁ = 1; row 2 stores no
        // diagonal → 1; row 3's diagonal is negative → 1.
        let a = staged(4, |st| {
            st.add_diagonal(0, 1.0);
            st.add_diagonal(1, 1.0);
            st.add_coupling(0, 1, 2.0);
            st.add_coupling(2, 0, 0.5);
            st.add_diagonal(3, -2.0);
        });
        let f = DiluFactor::from_matrix(&a);
        assert_eq!(f.inv, vec![1.0, 1.0, 1.0, 1.0]);
        assert_eq!(f.diagonal(), &[1.0, 1.0, 0.0, -2.0]);
        assert_eq!(f.twist, vec![1.0, 1.0, 2.0, 4.0]);
    }

    #[test]
    fn refresh_rebuilds_without_reallocating() {
        let mut f = DiluFactor::from_matrix(&tridiagonal());
        let cap = f.capacity();
        let a = staged(2, |st| {
            st.add_diagonal(0, 8.0);
            st.add_diagonal(1, 16.0);
        });
        f.refresh_from(&a);
        assert_eq!(f.capacity(), cap);
        assert_eq!(f.dim(), 2);
        assert_eq!(f.mismatch(&a), None);
        assert_eq!(f.mismatch(&tridiagonal()), Some((3, 2)));
        assert_eq!(f.inv, vec![0.125, 0.0625]);
    }
}
