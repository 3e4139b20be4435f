//! Conjugate gradients preconditioned by the DILU factor, run on the
//! factor's split system with Eisenstat's trick.

use crate::csr::CsrMatrix;
use crate::dilu::{distance_squared, DiluFactor};
use std::error::Error;
use std::fmt;

/// Why a linear solve could not be attempted (or trusted), as returned
/// by [`try_solve_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SolverError {
    /// A vector length does not match the matrix dimension, or a grid
    /// side does not match the grid it is combined with.
    DimensionMismatch {
        /// Which input was mis-sized (`"rhs"`, `"x0"`, or a caller's
        /// label such as the placement session's `"demand map nx"`).
        what: &'static str,
        /// The required length.
        expected: usize,
        /// The offending length.
        got: usize,
    },
    /// An input vector contains NaN/infinite entries (or entries so large
    /// their norm overflows), so no iterate can be trusted.
    NonFinite {
        /// Which input was non-finite (`"rhs"` or `"x0"`).
        what: &'static str,
    },
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::DimensionMismatch { what, expected, got } => {
                write!(f, "{what} length {got} does not match the required {expected}")
            }
            SolverError::NonFinite { what } => {
                write!(f, "{what} vector contains non-finite (or overflowing) entries")
            }
        }
    }
}

impl Error for SolverError {}

impl SolverError {
    /// Whether a watchdog may recover from this error by rolling back and
    /// retrying with damped forces (`true` for numerical contamination,
    /// `false` for structural misuse like mismatched dimensions).
    #[must_use]
    pub fn is_recoverable(&self) -> bool {
        matches!(self, SolverError::NonFinite { .. })
    }
}

/// Convergence controls for [`try_solve_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgOptions {
    /// Iteration cap; the solver returns the best iterate when reached.
    pub max_iterations: usize,
    /// Converged when the split residual satisfies
    /// `||r̂|| <= rel_tolerance * ||b̂||` (see [`try_solve_with`]).
    pub rel_tolerance: f64,
    /// Converged when `||r̂|| <= abs_tolerance` regardless of `||b̂||`.
    pub abs_tolerance: f64,
}

impl Default for CgOptions {
    fn default() -> Self {
        Self {
            max_iterations: 1000,
            rel_tolerance: 1e-8,
            abs_tolerance: 1e-12,
        }
    }
}

/// Outcome of a [`try_solve_with`] call; the solution itself stays in
/// the workspace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgStats {
    /// Iterations performed.
    pub iterations: usize,
    /// Final residual norm `||b - A x||`.
    pub residual_norm: f64,
    /// Whether the split residual met a tolerance before the iteration
    /// cap.
    pub converged: bool,
}

/// Reusable storage for [`try_solve_with`]: the iterate plus the four
/// auxiliary vectors of the split iteration. Keep one per axis in the
/// session arena and the steady-state solve allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct CgWorkspace {
    x: Vec<f64>,
    /// The split residual `r̂`.
    r: Vec<f64>,
    /// The split search direction `p̂`.
    p: Vec<f64>,
    /// The backward sweep `(D̃+U)⁻¹ S p̂`.
    t: Vec<f64>,
    /// The forward sweep (and, at exit, `A x`).
    w: Vec<f64>,
}

impl CgWorkspace {
    /// An empty workspace; it grows to fit the first system solved.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The solution of the most recent successful [`try_solve_with`]
    /// call.
    #[must_use]
    pub fn solution(&self) -> &[f64] {
        &self.x
    }

    /// Mutable view of the most recent solution, for callers that
    /// post-process the solve in place (e.g. trust-region blending).
    pub fn solution_mut(&mut self) -> &mut [f64] {
        &mut self.x
    }

    /// Capacity of the largest vector ever solved with this workspace
    /// (arena-reuse assertions check this stays put).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.x.capacity()
    }

    fn resize(&mut self, n: usize) {
        for v in [&mut self.x, &mut self.r, &mut self.p, &mut self.t, &mut self.w] {
            v.resize(n, 0.0);
        }
    }
}

/// Residual-trajectory entries kept per telemetry event; solves running
/// longer than this report a truncated (prefix) trajectory.
const TRACE_TRAJECTORY_CAP: usize = 1024;

/// Emits the `cg.solve` telemetry event (only called when tracing is
/// on), outside the heap accounting: the solve runs inside the session's
/// phase guard, and telemetry must not count itself. `residual` is the
/// true `‖b − A x‖` at exit; `residual_trajectory` records the split
/// residual `‖r̂‖` the stopping test reads, one entry per iteration.
fn emit_solve_event(dim: usize, stats: &CgStats, trajectory: Vec<f64>) {
    kraftwerk_trace::alloc::untracked(|| {
        kraftwerk_trace::event(
            "cg.solve",
            vec![
                ("dim", kraftwerk_trace::Value::from(dim)),
                ("iterations", kraftwerk_trace::Value::from(stats.iterations)),
                ("residual", kraftwerk_trace::Value::from(stats.residual_norm)),
                ("converged", kraftwerk_trace::Value::from(stats.converged)),
                ("residual_trajectory", kraftwerk_trace::Value::from(trajectory)),
            ],
        );
        kraftwerk_trace::counter("cg.iterations", stats.iterations as u64);
        kraftwerk_trace::counter("cg.solves", 1);
    });
}

/// Solves `A x = b` for symmetric positive definite `A` by conjugate
/// gradients preconditioned with `factor`, the [`DiluFactor`] of `a`.
/// `x0` seeds the iteration (placement transformations warm-start from
/// the previous placement); `None` starts from zero.
///
/// The iteration runs on the split system `Â x̂ = b̂` of the factor (see
/// [`DiluFactor`]) and stops when the split residual satisfies
/// `‖r̂‖ ≤ max(rel_tolerance · ‖b̂‖, abs_tolerance)`; the reported
/// residual is the true `‖b − A x‖`. The iterate and every auxiliary
/// vector live in `ws`, so repeated solves (one per placement
/// transformation per axis) allocate nothing after the first; the
/// solution is left in [`CgWorkspace::solution`].
///
/// The inputs are checked before any arithmetic, so a bad input is
/// returned as an error instead of panicking or silently iterating on
/// garbage; any `Err` leaves the workspace's previous solution untouched.
///
/// # Errors
///
/// Returns [`SolverError::DimensionMismatch`] when `b` or `x0` lengths
/// differ from the matrix dimension or `factor` was built for a matrix of
/// another shape (`what: "factor"`), and [`SolverError::NonFinite`] when
/// either vector contains NaN/infinite entries or entries so large that
/// the sum of their squares overflows (such a system cannot be solved in
/// `f64` either way).
pub fn try_solve_with(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    factor: &DiluFactor,
    options: &CgOptions,
    ws: &mut CgWorkspace,
) -> Result<CgStats, SolverError> {
    let n = a.dim();
    if b.len() != n {
        return Err(SolverError::DimensionMismatch { what: "rhs", expected: n, got: b.len() });
    }
    if !squares_sum_finite(b) {
        return Err(SolverError::NonFinite { what: "rhs" });
    }
    if let Some(x0) = x0 {
        if x0.len() != n {
            return Err(SolverError::DimensionMismatch { what: "x0", expected: n, got: x0.len() });
        }
        if !squares_sum_finite(x0) {
            return Err(SolverError::NonFinite { what: "x0" });
        }
    }
    if let Some((expected, got)) = factor.mismatch(a) {
        return Err(SolverError::DimensionMismatch { what: "factor", expected, got });
    }
    Ok(cg_inner(a, b, x0, factor, options, ws))
}

/// Whether `Σ vᵢ²` is finite: false for NaN or infinite entries and for
/// entries large enough that the sum overflows.
fn squares_sum_finite(v: &[f64]) -> bool {
    v.iter().map(|x| x * x).sum::<f64>().is_finite()
}

/// The split-preconditioned CG iteration of [`try_solve_with`]; inputs
/// are checked.
///
/// The iterate is kept in the original space: `x̂ += α p̂` is applied as
/// `x += α t` with the backward sweep `t = (D̃+U)⁻¹ S p̂` the product
/// already formed, so neither `x̂` nor a final back-transformation exists.
fn cg_inner(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    factor: &DiluFactor,
    options: &CgOptions,
    ws: &mut CgWorkspace,
) -> CgStats {
    let n = a.dim();
    ws.resize(n);
    let CgWorkspace { x, r, p, t, w } = ws;
    match x0 {
        Some(x0) => x.copy_from_slice(x0),
        None => x.fill(0.0),
    }

    // ‖b̂‖, then r̂ = S (D̃+L)⁻¹ (b − A x).
    r.copy_from_slice(b);
    let b_norm = factor.split_into(a, r, w).sqrt();
    let threshold = (options.rel_tolerance * b_norm).max(options.abs_tolerance);
    a.spmv(x, t);
    for i in 0..n {
        r[i] = b[i] - t[i];
    }
    let mut rr = factor.split_into(a, r, w);

    // Residual trajectory for telemetry; only collected while a trace
    // sink is installed, so the hot loop pays one branch otherwise. Its
    // full length is reserved up front, outside the heap accounting, so
    // the pushes below never allocate.
    let tracing = kraftwerk_trace::enabled();
    let mut trajectory = if tracing {
        let len = (options.max_iterations + 1).min(TRACE_TRAJECTORY_CAP);
        kraftwerk_trace::alloc::untracked(|| Vec::with_capacity(len))
    } else {
        Vec::new()
    };
    let mut residual = rr.sqrt();
    if tracing {
        trajectory.push(residual);
    }

    let mut iterations = 0;
    let mut converged = residual <= threshold;
    // The first direction is r̂ itself: β = 0 on a zeroed p̂.
    p.fill(0.0);
    let mut beta = 0.0;
    while !converged && iterations < options.max_iterations {
        iterations += 1;
        let pq = factor.direction_and_product(a, r, beta, p, t, w);
        if pq <= 0.0 || !pq.is_finite() {
            // Not SPD along this direction (or numerical breakdown):
            // return the current iterate rather than diverging.
            break;
        }
        let alpha = rr / pq;
        let rr_next = factor.step(alpha, t, w, x, r);
        beta = rr_next / rr;
        rr = rr_next;
        residual = rr.sqrt();
        if tracing && trajectory.len() < TRACE_TRAJECTORY_CAP {
            trajectory.push(residual);
        }
        converged = residual <= threshold;
    }

    // The true residual of the returned iterate.
    a.spmv(x, w);
    let stats = CgStats {
        iterations,
        residual_norm: distance_squared(b, w).sqrt(),
        converged,
    };
    if tracing {
        emit_solve_event(n, &stats, trajectory);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::tests::staged;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The Jacobi-preconditioned CG loop the DILU solver replaced (`M =
    /// diag(A)`, stopping on the unpreconditioned residual): the reference
    /// the comparisons below measure against. Returns the solution, the
    /// iteration count and whether it converged.
    fn jacobi_reference(
        a: &CsrMatrix,
        b: &[f64],
        options: &CgOptions,
    ) -> (Vec<f64>, usize, bool) {
        let n = a.dim();
        let inv: Vec<f64> = a
            .diagonal()
            .iter()
            .map(|&d| if d > f64::MIN_POSITIVE { 1.0 / d } else { 1.0 })
            .collect();
        let dot = |u: &[f64], v: &[f64]| u.iter().zip(v).map(|(x, y)| x * y).sum::<f64>();
        let mut x = vec![0.0; n];
        let mut r = b.to_vec();
        let mut z: Vec<f64> = r.iter().zip(&inv).map(|(r, d)| r * d).collect();
        let mut p = z.clone();
        let mut ap = vec![0.0; n];
        let mut rz = dot(&r, &z);
        let threshold = (options.rel_tolerance * dot(b, b).sqrt()).max(options.abs_tolerance);
        let mut residual = dot(&r, &r).sqrt();
        let mut iterations = 0;
        while residual > threshold && iterations < options.max_iterations {
            iterations += 1;
            a.spmv(&p, &mut ap);
            let alpha = rz / dot(&p, &ap);
            for i in 0..n {
                x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
                z[i] = r[i] * inv[i];
            }
            residual = dot(&r, &r).sqrt();
            let rz_next = dot(&r, &z);
            for i in 0..n {
                p[i] = z[i] + rz_next / rz * p[i];
            }
            rz = rz_next;
        }
        (x, iterations, residual <= threshold)
    }

    /// Solves with a fresh workspace and the system's own factor: the
    /// stats and the solution.
    fn dilu(
        a: &CsrMatrix,
        b: &[f64],
        x0: Option<&[f64]>,
        options: &CgOptions,
    ) -> (CgStats, Vec<f64>) {
        let mut ws = CgWorkspace::new();
        let stats = try_solve_with(a, b, x0, &DiluFactor::from_matrix(a), options, &mut ws)
            .expect("valid inputs");
        (stats, ws.x)
    }

    /// 1-D Laplacian with Dirichlet ends — the classic SPD test matrix and
    /// exactly the structure of a chain of 2-pin nets anchored at pads.
    fn laplacian(n: usize) -> CsrMatrix {
        staged(n, |st| {
            for i in 0..n {
                st.add_diagonal(i, 2.0);
                if i + 1 < n {
                    st.add_coupling(i, i + 1, -1.0);
                }
            }
        })
    }

    /// 2-D 5-point Laplacian on an `m × m` mesh with Dirichlet borders —
    /// the structure of placement matrices.
    fn mesh_laplacian(m: usize) -> CsrMatrix {
        staged(m * m, |st| {
            for y in 0..m {
                for x in 0..m {
                    let i = y * m + x;
                    st.add_diagonal(i, 4.0);
                    if x + 1 < m {
                        st.add_coupling(i, i + 1, -1.0);
                    }
                    if y + 1 < m {
                        st.add_coupling(i, i + m, -1.0);
                    }
                }
            }
        })
    }

    /// A system staged the way quadratic placement stages one: `cells`
    /// movable cells on local 2–5-pin nets under the clique model (weight
    /// `1/(k−1)` per pin pair), one pin in twenty on a fixed pad, and the
    /// placer's weak per-cell anchor.
    fn placement_system(cells: usize, seed: u64) -> CsrMatrix {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        staged(cells, |st| {
            for _ in 0..cells * 6 / 5 {
                let k = rng.gen_range(2..=5usize);
                let w = 1.0 / (k - 1) as f64;
                let center = rng.gen_range(0..cells);
                let pins: Vec<Option<usize>> = (0..k)
                    .map(|_| {
                        let on_pad = rng.gen_range(0..20u32) == 0;
                        (!on_pad).then(|| (center + rng.gen_range(0..64)) % cells)
                    })
                    .collect();
                for (a, pa) in pins.iter().enumerate() {
                    for pb in &pins[a + 1..] {
                        match (*pa, *pb) {
                            (Some(i), Some(j)) if i != j => {
                                st.add_diagonal(i, w);
                                st.add_diagonal(j, w);
                                st.add_coupling(i, j, -w);
                            }
                            (Some(i), None) | (None, Some(i)) => st.add_diagonal(i, w),
                            _ => {}
                        }
                    }
                }
            }
            for i in 0..cells {
                st.add_diagonal(i, 1e-6);
            }
        })
    }

    fn smooth_rhs(a: &CsrMatrix) -> (Vec<f64>, Vec<f64>) {
        let n = a.dim();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_true, &mut b);
        (x_true, b)
    }

    #[test]
    fn solves_laplacian_exactly() {
        for a in [laplacian(50), mesh_laplacian(20)] {
            let n = a.dim();
            let (x_true, b) = smooth_rhs(&a);
            let (stats, x) = dilu(&a, &b, None, &CgOptions::default());
            assert!(stats.converged, "n = {n}: {stats:?}");
            for (xi, ti) in x.iter().zip(&x_true) {
                assert!((xi - ti).abs() < 1e-6, "n = {n}: {xi} vs {ti}");
            }
        }
    }

    #[test]
    fn dilu_matches_the_jacobi_reference_in_fewer_iterations() {
        // The chain is tridiagonal, so its DILU factor is exact and one
        // iteration solves it; the mesh and the placement system fill in.
        let options = CgOptions { rel_tolerance: 1e-10, ..CgOptions::default() };
        for (name, a) in [
            ("chain", laplacian(50)),
            ("mesh", mesh_laplacian(20)),
            ("placement", placement_system(2000, 7)),
        ] {
            let (_, b) = smooth_rhs(&a);
            let (reference, reference_iterations, reference_converged) =
                jacobi_reference(&a, &b, &options);
            let (stats, x) = dilu(&a, &b, None, &options);
            assert!(reference_converged && stats.converged, "{name}");
            let scale = reference.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for (xi, ri) in x.iter().zip(&reference) {
                assert!((xi - ri).abs() <= 1e-6 * scale, "{name}: {xi} vs {ri}");
            }
            assert!(
                2 * stats.iterations < reference_iterations,
                "{name}: DILU {} vs Jacobi {} iterations",
                stats.iterations,
                reference_iterations
            );
        }
    }

    #[test]
    fn solves_are_bitwise_identical_at_any_thread_count() {
        // Wide enough that the exit SpMV fans out over several chunks.
        let a = mesh_laplacian(120);
        let (_, b) = smooth_rhs(&a);
        let x0: Vec<f64> = (0..a.dim()).map(|i| (i % 7) as f64).collect();
        let factor = DiluFactor::from_matrix(&a);
        let run = |threads: usize| {
            kraftwerk_par::set_threads(threads);
            let mut ws = CgWorkspace::new();
            let stats =
                try_solve_with(&a, &b, Some(&x0), &factor, &CgOptions::default(), &mut ws).unwrap();
            (stats, ws.solution().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        };
        let (stats, bits) = run(1);
        assert!(stats.converged);
        for threads in [2, 8] {
            let (s, b) = run(threads);
            assert_eq!(s.iterations, stats.iterations, "{threads} threads");
            assert_eq!(s.residual_norm.to_bits(), stats.residual_norm.to_bits(), "{threads} threads");
            assert!(b == bits, "{threads} threads: solution bits differ");
        }
        kraftwerk_par::set_threads(1);
    }

    #[test]
    fn warm_start_from_solution_converges_immediately() {
        let a = mesh_laplacian(6);
        let x_true: Vec<f64> = (0..a.dim()).map(|i| i as f64).collect();
        let mut b = vec![0.0; a.dim()];
        a.spmv(&x_true, &mut b);
        let (stats, x) = dilu(&a, &b, Some(&x_true), &CgOptions::default());
        assert!(stats.converged);
        assert_eq!(stats.iterations, 0);
        assert_eq!(x, x_true);
    }

    #[test]
    fn a_reused_workspace_gives_a_fresh_workspaces_bits_without_growing() {
        let a = mesh_laplacian(8);
        let b: Vec<f64> = (0..a.dim()).map(|i| ((i * 3) % 7) as f64 - 3.0).collect();
        let factor = DiluFactor::from_matrix(&a);
        let opts = CgOptions::default();
        let (fresh, x) = dilu(&a, &b, None, &opts);
        // The workspace first solves a larger system, so every vector
        // holds another solve's values when this one starts.
        let mut ws = CgWorkspace::new();
        let big = mesh_laplacian(9);
        let (_, big_b) = smooth_rhs(&big);
        let big_factor = DiluFactor::from_matrix(&big);
        try_solve_with(&big, &big_b, None, &big_factor, &opts, &mut ws).unwrap();
        let cap = ws.capacity();
        for _ in 0..2 {
            let reused = try_solve_with(&a, &b, None, &factor, &opts, &mut ws).unwrap();
            assert_eq!(ws.capacity(), cap);
            assert_eq!(reused.iterations, fresh.iterations);
            assert_eq!(reused.residual_norm.to_bits(), fresh.residual_norm.to_bits());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(ws.solution()), bits(&x));
        }
    }

    #[test]
    fn try_solve_with_rejects_bad_inputs_without_panicking() {
        let a = laplacian(8);
        let factor = DiluFactor::from_matrix(&a);
        let mut ws = CgWorkspace::new();
        let opts = CgOptions::default();
        let short = vec![1.0; 4];
        assert_eq!(
            try_solve_with(&a, &short, None, &factor, &opts, &mut ws),
            Err(SolverError::DimensionMismatch { what: "rhs", expected: 8, got: 4 })
        );
        let nan = vec![f64::NAN; 8];
        let err = try_solve_with(&a, &nan, None, &factor, &opts, &mut ws).unwrap_err();
        assert_eq!(err, SolverError::NonFinite { what: "rhs" });
        assert!(err.is_recoverable());
        let b = vec![1.0; 8];
        let bad_x0 = vec![f64::INFINITY; 8];
        assert_eq!(
            try_solve_with(&a, &b, Some(&bad_x0), &factor, &opts, &mut ws),
            Err(SolverError::NonFinite { what: "x0" })
        );
        let stale = DiluFactor::from_matrix(&laplacian(9));
        assert_eq!(
            try_solve_with(&a, &b, None, &stale, &opts, &mut ws),
            Err(SolverError::DimensionMismatch { what: "factor", expected: 8, got: 9 })
        );
        let identity = staged(8, |st| (0..8).for_each(|i| st.add_diagonal(i, 1.0)));
        let other_pattern = DiluFactor::from_matrix(&identity);
        assert_eq!(
            try_solve_with(&a, &b, None, &other_pattern, &opts, &mut ws),
            Err(SolverError::DimensionMismatch { what: "factor", expected: 22, got: 8 })
        );
        assert!(!SolverError::DimensionMismatch { what: "x0", expected: 8, got: 9 }
            .is_recoverable());
        // No rejected call touched the workspace.
        assert_eq!(ws.capacity(), 0);
    }

    #[test]
    fn an_rhs_whose_norm_overflows_is_non_finite() {
        // Every entry is finite, but Σ bᵢ² = 8e400 overflows f64.
        let a = laplacian(8);
        let factor = DiluFactor::from_matrix(&a);
        let mut ws = CgWorkspace::new();
        assert_eq!(
            try_solve_with(&a, &[1e200; 8], None, &factor, &CgOptions::default(), &mut ws),
            Err(SolverError::NonFinite { what: "rhs" })
        );
    }

    #[test]
    fn iteration_cap_is_respected() {
        let a = mesh_laplacian(10);
        let b = vec![1.0; a.dim()];
        let opts = CgOptions {
            max_iterations: 3,
            rel_tolerance: 1e-14,
            abs_tolerance: 0.0,
        };
        let (stats, _) = dilu(&a, &b, None, &opts);
        assert_eq!(stats.iterations, 3);
        assert!(!stats.converged);
    }

    #[test]
    fn indefinite_direction_breaks_gracefully() {
        // -I is negative definite; every pivot falls back to 1 and CG
        // must bail out without NaNs.
        let a = staged(3, |st| (0..3).for_each(|i| st.add_diagonal(i, -1.0)));
        let (stats, x) = dilu(&a, &[1.0, 1.0, 1.0], None, &CgOptions::default());
        assert!(x.iter().all(|v| v.is_finite()));
        assert!(!stats.converged);
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = mesh_laplacian(4);
        let (stats, x) = dilu(&a, &[0.0; 16], None, &CgOptions::default());
        assert!(stats.converged);
        assert_eq!(stats.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// `A = BᵀB + I` is SPD but no M-matrix: dense, with positive
        /// off-diagonals, so DILU pivots can turn non-positive and the
        /// fallback must keep the preconditioner SPD.
        #[test]
        fn prop_cg_solves_random_spd_systems(seed in 0u64..1000) {
            let n = 20;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let bmat: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .collect();
            let a = staged(n, |st| {
                for i in 0..n {
                    for j in i..n {
                        let mut v = 0.0;
                        for k in 0..n {
                            v += bmat[k][i] * bmat[k][j];
                        }
                        if i == j {
                            st.add_diagonal(i, v + 1.0);
                        } else {
                            st.add_coupling(i, j, v);
                        }
                    }
                }
            });
            let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let mut b = vec![0.0; n];
            a.spmv(&x_true, &mut b);
            let options = CgOptions { max_iterations: 500, ..CgOptions::default() };
            let (stats, x) = dilu(&a, &b, None, &options);
            prop_assert!(stats.converged, "did not converge: {:?}", stats.residual_norm);
            for (xi, ti) in x.iter().zip(&x_true) {
                prop_assert!((xi - ti).abs() < 1e-4, "{} vs {}", xi, ti);
            }
        }

        #[test]
        fn prop_residual_matches_reported(seed in 0u64..200) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let a = mesh_laplacian(4);
            let n = a.dim();
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let (stats, x) = dilu(&a, &b, None, &CgOptions::default());
            let mut ax = vec![0.0; n];
            a.spmv(&x, &mut ax);
            let mut r = 0.0f64;
            for i in 0..n {
                r += (b[i] - ax[i]).powi(2);
            }
            prop_assert!((r.sqrt() - stats.residual_norm).abs() < 1e-8);
        }
    }
}
