//! Symmetric staging for assembly, and compressed-sparse-row storage
//! built from it.

use std::fmt;

/// A symmetric matrix under assembly: a dense diagonal plus one
/// `(i, j, value)` entry per off-diagonal coupling, mirrored into both
/// triangles only when the CSR is built.
///
/// Quadratic placement adds every two-point connection as `+w` on two
/// diagonal entries and `-w` on a symmetric pair: two dense additions and
/// one staged coupling, where a triplet format would stage and sort four
/// entries.
#[derive(Debug, Clone, Default)]
pub struct SymmetricStaging {
    diag: Vec<f64>,
    diag_total: f64,
    couplings: Vec<(u32, u32, f64)>,
}

impl SymmetricStaging {
    /// Drops all entries and re-dimensions the buffer, keeping the
    /// allocated capacity.
    pub fn reset(&mut self, n: usize) {
        self.diag.clear();
        self.diag.resize(n, 0.0);
        self.diag_total = 0.0;
        self.couplings.clear();
    }

    /// Adds `value` at `(i, i)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn add_diagonal(&mut self, i: usize, value: f64) {
        self.diag[i] += value;
        self.diag_total += value;
    }

    /// Adds `value` at `(i, j)` **and** `(j, i)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds or `i == j` (a diagonal entry
    /// belongs in [`add_diagonal`](SymmetricStaging::add_diagonal)).
    pub fn add_coupling(&mut self, i: usize, j: usize, value: f64) {
        let n = self.diag.len();
        assert!(i < n && j < n && i != j, "coupling ({i},{j}) invalid for n={n}");
        self.couplings.push((i as u32, j as u32, value));
    }

    /// Sum of every diagonal value added so far, accumulated in the order
    /// of the [`add_diagonal`](SymmetricStaging::add_diagonal) calls.
    #[must_use]
    pub fn diagonal_total(&self) -> f64 {
        self.diag_total
    }

    /// Every `(row, col, value)` entry of the mirrored matrix: the
    /// diagonal first, then each coupling in both orientations. The CSR
    /// build visits them twice and relies on the same order each time.
    fn for_each_entry(&self, mut f: impl FnMut(usize, u32, f64)) {
        for (i, &v) in self.diag.iter().enumerate() {
            f(i, i as u32, v);
        }
        for &(i, j, v) in &self.couplings {
            f(i as usize, j, v);
            f(j as usize, i, v);
        }
    }
}

/// Reusable scratch buffers for [`CsrMatrix::rebuild_from_staging`]; hold one per
/// arena and every rebuild after the first allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct CsrBuildScratch {
    row_counts: Vec<usize>,
    cursor: Vec<usize>,
    /// `(col, value)` entries bucketed by row.
    order: Vec<(u32, f64)>,
}

/// A square sparse matrix in compressed-sparse-row format. Immutable
/// except for [`rebuild_from_staging`](CsrMatrix::rebuild_from_staging), which replaces
/// the whole matrix in place (reusing the storage).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl Default for CsrMatrix {
    /// The empty `0 x 0` matrix (a rebuild target).
    fn default() -> Self {
        Self {
            n: 0,
            row_ptr: vec![0],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }
}

/// Rows per parallel SpMV chunk. Fixed — row results are independent, so
/// any chunking gives identical output, but a constant keeps the
/// dispatch overhead predictable.
const SPMV_ROW_CHUNK: usize = 2048;

impl CsrMatrix {
    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored (structurally non-zero) entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates over the entries of a row as `(col, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.dim()`.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[row] as usize;
        let hi = self.row_ptr[row + 1] as usize;
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Rebuilds this matrix in place from a symmetric staging: the dense
    /// diagonal plus every coupling mirrored into both triangles. A
    /// counting sort buckets the entries by row; each row is then sorted
    /// by column, duplicates are summed and exact zeros (from
    /// cancellation, or a diagonal nothing was added to) are dropped. The
    /// build reuses both this matrix's storage and the caller's scratch
    /// buffers, so steady-state re-assembly allocates nothing.
    pub fn rebuild_from_staging(&mut self, staging: &SymmetricStaging, ws: &mut CsrBuildScratch) {
        let CsrBuildScratch {
            row_counts,
            cursor,
            order,
        } = ws;
        let n = staging.diag.len();
        let nnz = n + 2 * staging.couplings.len();
        // Counting sort by row.
        row_counts.clear();
        row_counts.resize(n + 1, 0);
        staging.for_each_entry(|r, _, _| row_counts[r + 1] += 1);
        for i in 0..n {
            row_counts[i + 1] += row_counts[i];
        }
        order.clear();
        order.resize(nnz, (0, 0.0));
        cursor.clear();
        cursor.extend_from_slice(row_counts);
        staging.for_each_entry(|r, c, v| {
            let at = cursor[r];
            cursor[r] += 1;
            order[at] = (c, v);
        });
        // Per-row: sort by column and accumulate duplicates.
        self.n = n;
        self.row_ptr.clear();
        self.row_ptr.reserve(n + 1);
        self.row_ptr.push(0u32);
        self.col_idx.clear();
        self.values.clear();
        self.col_idx.reserve(nnz);
        self.values.reserve(nnz);
        for r in 0..n {
            let row = &mut order[row_counts[r]..row_counts[r + 1]];
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < row.len() {
                let c = row[i].0;
                let mut v = 0.0;
                while i < row.len() && row[i].0 == c {
                    v += row[i].1;
                    i += 1;
                }
                if v != 0.0 {
                    self.col_idx.push(c);
                    self.values.push(v);
                }
            }
            self.row_ptr.push(self.col_idx.len() as u32);
        }
    }

    /// `y[r0..] = (A x)[rows]` for a contiguous row range, with the inner
    /// loop running on direct `row_ptr` slice splits — the per-entry
    /// `values[k]` / `col_idx[k]` bounds checks of the naive formulation
    /// disappear, which matters in the CG inner loop.
    fn spmv_rows(&self, start: usize, x: &[f64], y: &mut [f64]) {
        let mut lo = self.row_ptr[start] as usize;
        for (yi, &ptr) in y.iter_mut().zip(&self.row_ptr[start + 1..]) {
            let hi = ptr as usize;
            let mut acc = 0.0;
            for (v, c) in self.values[lo..hi].iter().zip(&self.col_idx[lo..hi]) {
                acc += v * x[*c as usize];
            }
            *yi = acc;
            lo = hi;
        }
    }

    /// Sparse matrix-vector product `y = A x`.
    ///
    /// Rows are processed in fixed [`SPMV_ROW_CHUNK`]-sized chunks across
    /// the `kraftwerk-par` pool; each output element depends on exactly
    /// one row, so the result is identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` have a length other than `self.dim()`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "x length mismatch");
        assert_eq!(y.len(), self.n, "y length mismatch");
        if self.n <= SPMV_ROW_CHUNK {
            self.spmv_rows(0, x, y);
            return;
        }
        kraftwerk_par::for_each_chunk_mut(y, SPMV_ROW_CHUNK, |chunk, y_rows| {
            self.spmv_rows(chunk * SPMV_ROW_CHUNK, x, y_rows);
        });
    }

    /// The main diagonal as a dense vector (zeros for missing entries),
    /// by a per-row binary search over the column-sorted entries.
    #[must_use]
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.n)
            .map(|r| {
                let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
                self.col_idx[lo..hi]
                    .binary_search(&(r as u32))
                    .map_or(0.0, |k| self.values[lo + k])
            })
            .collect()
    }

    /// The raw CSR arrays `(row_ptr, col_idx, values)`, for the DILU
    /// factor's triangular sweeps.
    pub(crate) fn parts(&self) -> (&[u32], &[u32], &[f64]) {
        (&self.row_ptr, &self.col_idx, &self.values)
    }

    /// Value at `(row, col)`; zero when the entry is not stored.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.n && col < self.n, "index out of bounds");
        self.row(row)
            .find(|&(c, _)| c == col)
            .map_or(0.0, |(_, v)| v)
    }

    /// Largest absolute asymmetry `|a_ij - a_ji|` over the stored pattern;
    /// zero for symmetric matrices. A diagnostic used by assembly tests.
    #[must_use]
    pub fn asymmetry(&self) -> f64 {
        let mut worst = 0.0f64;
        for r in 0..self.n {
            for (c, v) in self.row(r) {
                worst = worst.max((v - self.get(c, r)).abs());
            }
        }
        worst
    }

    /// Densifies the matrix (test/diagnostic helper; `O(n^2)` memory).
    #[must_use]
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut dense = vec![vec![0.0; self.n]; self.n];
        for r in 0..self.n {
            for (c, v) in self.row(r) {
                dense[r][c] = v;
            }
        }
        dense
    }
}

impl fmt::Display for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CsrMatrix({}x{}, nnz={})", self.n, self.n, self.nnz())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The CSR matrix of an `n × n` staging filled by `fill`.
    pub(crate) fn staged(n: usize, fill: impl FnOnce(&mut SymmetricStaging)) -> CsrMatrix {
        let mut st = SymmetricStaging::default();
        st.reset(n);
        fill(&mut st);
        let mut csr = CsrMatrix::default();
        csr.rebuild_from_staging(&st, &mut CsrBuildScratch::default());
        csr
    }

    /// `[[2, -1, 0], [-1, 2, -1], [0, -1, 2]]`.
    fn example() -> CsrMatrix {
        staged(3, |st| {
            for i in 0..3 {
                st.add_diagonal(i, 2.0);
            }
            st.add_coupling(0, 1, -1.0);
            st.add_coupling(2, 1, -1.0);
        })
    }

    #[test]
    fn assembly_accumulates_duplicates() {
        let a = staged(2, |st| {
            st.add_diagonal(0, 1.0);
            st.add_diagonal(0, 2.5);
            st.add_diagonal(1, 1.0);
            st.add_coupling(0, 1, -0.5);
            st.add_coupling(1, 0, -0.25);
        });
        assert_eq!(a.get(0, 0), 3.5);
        assert_eq!((a.get(0, 1), a.get(1, 0)), (-0.75, -0.75));
        assert_eq!(a.nnz(), 4);
    }

    #[test]
    fn assembly_drops_cancelled_entries() {
        let a = staged(2, |st| {
            st.add_coupling(0, 1, 1.0);
            st.add_coupling(1, 0, -1.0);
            st.add_diagonal(0, 1.0);
            st.add_diagonal(1, 1.0);
        });
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn staging_builds_the_mirrored_matrix() {
        let a = example();
        assert_eq!(a.asymmetry(), 0.0);
        let dense = a.to_dense();
        assert_eq!(
            dense,
            vec![vec![2.0, -1.0, 0.0], vec![-1.0, 2.0, -1.0], vec![0.0, -1.0, 2.0]]
        );
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(dense[r][c], a.get(r, c));
            }
        }
    }

    #[test]
    fn spmv_matches_dense() {
        let a = example();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        a.spmv(&x, &mut y);
        assert_eq!(y, [0.0, 0.0, 4.0]);
    }

    #[test]
    fn diagonal_extraction() {
        let a = example();
        assert_eq!(a.diagonal(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn rows_are_column_sorted() {
        let a = staged(3, |st| {
            st.add_coupling(0, 2, 3.0);
            st.add_diagonal(0, 1.0);
            st.add_coupling(1, 0, 2.0);
            st.add_diagonal(1, 1.0);
            st.add_diagonal(2, 1.0);
        });
        let row0: Vec<_> = a.row(0).collect();
        assert_eq!(row0, vec![(0, 1.0), (1, 2.0), (2, 3.0)]);
    }

    #[test]
    fn rebuild_in_place_reuses_buffers() {
        let mut csr = CsrMatrix::default();
        let mut ws = CsrBuildScratch::default();
        let mut st = SymmetricStaging::default();
        st.reset(3);
        for i in 0..3 {
            st.add_diagonal(i, 2.0);
        }
        st.add_coupling(0, 1, -1.0);
        st.add_coupling(1, 2, -1.0);
        csr.rebuild_from_staging(&st, &mut ws);
        assert_eq!(csr, example());
        // Rebuild different content into the same storage.
        st.reset(2);
        st.add_diagonal(0, 1.0);
        st.add_diagonal(1, 5.0);
        let cap_before = (csr.row_ptr.capacity(), csr.values.capacity());
        csr.rebuild_from_staging(&st, &mut ws);
        assert_eq!(csr.dim(), 2);
        assert_eq!(csr.get(1, 1), 5.0);
        assert_eq!(csr.nnz(), 2);
        let cap_after = (csr.row_ptr.capacity(), csr.values.capacity());
        assert_eq!(cap_before, cap_after, "smaller rebuild must not reallocate");
    }

    #[test]
    fn staging_total_follows_the_add_order() {
        let mut st = SymmetricStaging::default();
        st.reset(3);
        st.add_diagonal(0, 2.0);
        st.add_diagonal(0, 3.0);
        st.add_coupling(0, 2, 7.0); // off-diagonal: not in the total
        st.add_diagonal(2, 1.0);
        assert_eq!(st.diagonal_total(), 6.0);
        // A reset drops every entry and the total, and re-dimensions.
        st.reset(2);
        assert_eq!(st.diagonal_total(), 0.0);
        let mut csr = CsrMatrix::default();
        csr.rebuild_from_staging(&st, &mut CsrBuildScratch::default());
        assert_eq!((csr.dim(), csr.nnz()), (2, 0));
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn staging_rejects_a_diagonal_coupling() {
        let mut st = SymmetricStaging::default();
        st.reset(2);
        st.add_coupling(1, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn staging_rejects_an_out_of_bounds_coupling() {
        let mut st = SymmetricStaging::default();
        st.reset(2);
        st.add_coupling(2, 0, 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// The staging build equals a dense `n × n` accumulation of the
        /// same entries: duplicates summed, exact cancellation to 0
        /// dropped, untouched rows empty, every row sorted by column.
        /// Values are small dyadic rationals, so every sum is exact in any
        /// order and the values must agree bit for bit.
        #[test]
        fn prop_staging_matches_a_dense_accumulation(seed in 0u64..10_000) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let n = rng.gen_range(1..14usize);
            // Only the first `touched` rows get entries; the rest stay empty.
            let touched = rng.gen_range(1..=n);
            let mut st = SymmetricStaging::default();
            st.reset(n);
            let mut dense = vec![vec![0.0; n]; n];
            let mut total = 0.0;
            for _ in 0..rng.gen_range(0..40usize) {
                let i = rng.gen_range(0..touched);
                let v = f64::from(rng.gen_range(-8i32..8)) / 4.0;
                if touched == 1 || rng.gen_range(0..10u32) < 4 {
                    st.add_diagonal(i, v);
                    dense[i][i] += v;
                    total += v;
                    continue;
                }
                let mut j = rng.gen_range(0..touched - 1);
                if j >= i {
                    j += 1;
                }
                st.add_coupling(i, j, v);
                dense[i][j] += v;
                dense[j][i] += v;
                if rng.gen_range(0..10u32) < 3 {
                    // The same pair cancelled exactly, in either orientation.
                    st.add_coupling(j, i, -v);
                    dense[i][j] -= v;
                    dense[j][i] -= v;
                }
            }
            let mut csr = CsrMatrix::default();
            csr.rebuild_from_staging(&st, &mut CsrBuildScratch::default());
            prop_assert_eq!(csr.dim(), n);
            prop_assert_eq!(&csr.to_dense(), &dense);
            let stored = dense.iter().flatten().filter(|&&v| v != 0.0).count();
            prop_assert_eq!(csr.nnz(), stored);
            for r in 0..n {
                let cols: Vec<usize> = csr.row(r).map(|(c, _)| c).collect();
                let sorted = cols.windows(2).all(|w| w[0] < w[1]);
                prop_assert!(sorted, "row {} unsorted: {:?}", r, cols);
            }
            prop_assert_eq!(st.diagonal_total(), total);
            for r in touched..n {
                prop_assert_eq!(csr.row(r).count(), 0);
            }
        }
    }

    #[test]
    fn spmv_is_identical_across_thread_counts() {
        // Large enough to span several SPMV_ROW_CHUNK chunks.
        let n = 3 * SPMV_ROW_CHUNK + 17;
        let mut state = 12345u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 - 0.5
        };
        let a = staged(n, |st| {
            for i in 0..n {
                st.add_diagonal(i, 4.0 + next());
                if i + 1 < n {
                    st.add_coupling(i, i + 1, next());
                }
                if i + 97 < n {
                    st.add_coupling(i, i + 97, next());
                }
            }
        });
        let x: Vec<f64> = (0..n).map(|_| next()).collect();
        kraftwerk_par::set_threads(1);
        let mut y1 = vec![0.0; n];
        a.spmv(&x, &mut y1);
        kraftwerk_par::set_threads(4);
        let mut y4 = vec![0.0; n];
        a.spmv(&x, &mut y4);
        kraftwerk_par::set_threads(1);
        for (a, b) in y1.iter().zip(&y4) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_rows_are_fine() {
        let a = staged(4, |st| {
            st.add_diagonal(0, 1.0);
            st.add_diagonal(3, 1.0);
        });
        assert_eq!(a.row(1).count(), 0);
        assert_eq!(a.row(2).count(), 0);
        let x = [1.0; 4];
        let mut y = [9.0; 4];
        a.spmv(&x, &mut y);
        assert_eq!(y, [1.0, 0.0, 0.0, 1.0]);
    }
}
