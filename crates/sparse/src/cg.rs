//! Preconditioned conjugate gradient solver.

use crate::csr::CsrMatrix;
use crate::precond::Preconditioner;
use crate::vecops::{axpy, dot, norm2, xpby};
use std::error::Error;
use std::fmt;

/// Why a linear solve could not be attempted (or trusted).
///
/// Produced by the checked entry point [`try_solve_with`]. The asserting
/// wrappers ([`solve`], [`solve_with`]) keep panicking on the same
/// conditions for callers that guarantee their invariants statically.
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

/// Convergence controls for [`solve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgOptions {
    /// Iteration cap; the solver returns the best iterate when reached.
    pub max_iterations: usize,
    /// Converged when `||r|| <= rel_tolerance * ||b||`.
    pub rel_tolerance: f64,
    /// Converged when `||r|| <= abs_tolerance` regardless of `||b||`.
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

/// Outcome of a conjugate gradient run.
#[derive(Debug, Clone, PartialEq)]
pub struct CgResult {
    /// The (approximate) solution.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final residual norm `||b - A x||`.
    pub residual_norm: f64,
    /// Whether a tolerance was met before the iteration cap.
    pub converged: bool,
}

/// Outcome of a workspace-based solve ([`solve_with`]); the solution
/// itself stays in the workspace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgStats {
    /// Iterations performed.
    pub iterations: usize,
    /// Final residual norm `||b - A x||`.
    pub residual_norm: f64,
    /// Whether a tolerance was met before the iteration cap.
    pub converged: bool,
}

/// Reusable storage for [`solve_with`]: the iterate plus the four
/// auxiliary vectors of preconditioned CG. Keep one per axis in the
/// session arena and the steady-state solve allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct CgWorkspace {
    x: Vec<f64>,
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
}

impl CgWorkspace {
    /// An empty workspace; it grows to fit the first system solved.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The solution of the most recent [`solve_with`] call.
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
        self.x.resize(n, 0.0);
        self.r.resize(n, 0.0);
        self.z.resize(n, 0.0);
        self.p.resize(n, 0.0);
        self.ap.resize(n, 0.0);
    }
}

/// Residual-trajectory entries kept per telemetry event; solves running
/// longer than this report a truncated (prefix) trajectory.
const TRACE_TRAJECTORY_CAP: usize = 1024;

/// Emits the `cg.solve` telemetry event (only called when tracing is
/// on), outside the heap accounting: the solve runs inside the session's
/// phase guard, and telemetry must not count itself.
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

/// Solves `A x = b` for symmetric positive definite `A` by preconditioned
/// conjugate gradients. `x0` seeds the iteration (placement transformations
/// warm-start from the previous placement); `None` starts from zero.
///
/// Allocating convenience wrapper around [`solve_with`].
///
/// # Panics
///
/// Panics if `b` or `x0` lengths differ from the matrix dimension.
#[must_use]
pub fn solve(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    preconditioner: &impl Preconditioner,
    options: &CgOptions,
) -> CgResult {
    let mut ws = CgWorkspace::new();
    let stats = solve_with(a, b, x0, preconditioner, options, &mut ws);
    CgResult {
        x: std::mem::take(&mut ws.x),
        iterations: stats.iterations,
        residual_norm: stats.residual_norm,
        converged: stats.converged,
    }
}

/// [`solve`] on caller-owned storage: the iterate and every auxiliary
/// vector live in `ws`, so repeated solves (one per placement
/// transformation per axis) perform no heap allocation after the first.
/// The solution is left in [`CgWorkspace::solution`].
///
/// # Panics
///
/// Panics if `b` or `x0` lengths differ from the matrix dimension.
pub fn solve_with(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    preconditioner: &impl Preconditioner,
    options: &CgOptions,
    ws: &mut CgWorkspace,
) -> CgStats {
    let n = a.dim();
    assert_eq!(b.len(), n, "rhs length mismatch");
    if let Some(x0) = x0 {
        assert_eq!(x0.len(), n, "x0 length mismatch");
    }
    cg_inner(a, b, x0, preconditioner, options, ws)
}

/// Checked variant of [`solve_with`]: validates vector lengths and
/// rejects non-finite inputs instead of panicking or silently iterating
/// on garbage. This is the entry point the panic-free placement pipeline
/// uses; any `Err` leaves the workspace's previous solution untouched.
///
/// # Errors
///
/// Returns [`SolverError::DimensionMismatch`] when `b` or `x0` lengths
/// differ from the matrix dimension, and [`SolverError::NonFinite`] when
/// either vector contains NaN/infinite entries (detected via the vector
/// norm, which also flags entries large enough to overflow it — such a
/// system cannot be solved in `f64` either way).
pub fn try_solve_with(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    preconditioner: &impl Preconditioner,
    options: &CgOptions,
    ws: &mut CgWorkspace,
) -> Result<CgStats, SolverError> {
    let n = a.dim();
    if b.len() != n {
        return Err(SolverError::DimensionMismatch { what: "rhs", expected: n, got: b.len() });
    }
    if !norm2(b).is_finite() {
        return Err(SolverError::NonFinite { what: "rhs" });
    }
    if let Some(x0) = x0 {
        if x0.len() != n {
            return Err(SolverError::DimensionMismatch { what: "x0", expected: n, got: x0.len() });
        }
        if !norm2(x0).is_finite() {
            return Err(SolverError::NonFinite { what: "x0" });
        }
    }
    Ok(cg_inner(a, b, x0, preconditioner, options, ws))
}

/// The preconditioned CG iteration shared by [`solve_with`] and
/// [`try_solve_with`]; inputs are assumed length-checked.
fn cg_inner(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    preconditioner: &impl Preconditioner,
    options: &CgOptions,
    ws: &mut CgWorkspace,
) -> CgStats {
    let n = a.dim();
    ws.resize(n);
    let CgWorkspace { x, r, z, p, ap } = ws;
    match x0 {
        Some(x0) => x.copy_from_slice(x0),
        None => x.fill(0.0),
    }

    let b_norm = norm2(b);
    let threshold = (options.rel_tolerance * b_norm).max(options.abs_tolerance);

    // r = b - A x
    a.spmv(x, r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    preconditioner.apply(r, z);
    p.copy_from_slice(z);
    let mut rz = dot(r, z);

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
    let mut residual = norm2(r);
    if tracing {
        trajectory.push(residual);
    }
    if residual <= threshold {
        let stats = CgStats {
            iterations: 0,
            residual_norm: residual,
            converged: true,
        };
        if tracing {
            emit_solve_event(n, &stats, trajectory);
        }
        return stats;
    }

    let mut iterations = 0;
    let mut converged = false;
    for _ in 0..options.max_iterations {
        iterations += 1;
        a.spmv(p, ap);
        let pap = dot(p, ap);
        if pap <= 0.0 || !pap.is_finite() {
            // Not SPD along this direction (or numerical breakdown):
            // return the current iterate rather than diverging.
            break;
        }
        let alpha = rz / pap;
        axpy(alpha, p, x);
        axpy(-alpha, ap, r);
        residual = norm2(r);
        if tracing && trajectory.len() < TRACE_TRAJECTORY_CAP {
            trajectory.push(residual);
        }
        if residual <= threshold {
            converged = true;
            break;
        }
        preconditioner.apply(r, z);
        let rz_next = dot(r, z);
        let beta = rz_next / rz;
        rz = rz_next;
        xpby(z, beta, p);
    }

    let stats = CgStats {
        iterations,
        residual_norm: residual,
        converged: converged || residual <= threshold,
    };
    if tracing {
        emit_solve_event(n, &stats, trajectory);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CooMatrix;
    use crate::precond::{IdentityPreconditioner, JacobiPreconditioner};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// 1-D Laplacian with Dirichlet ends — the classic SPD test matrix and
    /// exactly the structure of a chain of 2-pin nets anchored at pads.
    fn laplacian(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i + 1 < n {
                coo.push_sym(i, i + 1, -1.0);
            }
        }
        coo.into_csr()
    }

    /// 2-D 5-point Laplacian on an `m × m` mesh with Dirichlet borders —
    /// the structure of placement matrices.
    fn mesh_laplacian(m: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(m * m);
        for y in 0..m {
            for x in 0..m {
                let i = y * m + x;
                coo.push(i, i, 4.0);
                if x + 1 < m {
                    coo.push_sym(i, i + 1, -1.0);
                }
                if y + 1 < m {
                    coo.push_sym(i, i + m, -1.0);
                }
            }
        }
        coo.into_csr()
    }

    #[test]
    fn solves_laplacian_exactly() {
        // The 1-D chain and the 2-D mesh, each without and with Jacobi.
        for a in [laplacian(50), mesh_laplacian(20)] {
            let n = a.dim();
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let mut b = vec![0.0; n];
            a.spmv(&x_true, &mut b);
            let jacobi = JacobiPreconditioner::from_matrix(&a);
            for result in [
                solve(&a, &b, None, &IdentityPreconditioner, &CgOptions::default()),
                solve(&a, &b, None, &jacobi, &CgOptions::default()),
            ] {
                assert!(result.converged, "n = {n}: {result:?}");
                for (xi, ti) in result.x.iter().zip(&x_true) {
                    assert!((xi - ti).abs() < 1e-6, "n = {n}: {xi} vs {ti}");
                }
            }
        }
    }

    #[test]
    fn warm_start_from_solution_converges_immediately() {
        let n = 30;
        let a = laplacian(n);
        let x_true: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_true, &mut b);
        let result = solve(&a, &b, Some(&x_true), &IdentityPreconditioner, &CgOptions::default());
        assert!(result.converged);
        assert_eq!(result.iterations, 0);
    }

    #[test]
    fn jacobi_helps_on_badly_scaled_systems() {
        // diag(1, 10^4, ...) scaled Laplacian-ish system.
        let n = 200;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let scales: Vec<f64> = (0..n).map(|_| 10f64.powf(rng.gen_range(0.0..4.0))).collect();
        let mut coo = CooMatrix::new(n);
        for i in 0..n {
            coo.push(i, i, 2.0 * scales[i]);
            if i + 1 < n {
                let w = -0.9 * scales[i].min(scales[i + 1]);
                coo.push_sym(i, i + 1, w);
            }
        }
        let a = coo.into_csr();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let loose = CgOptions {
            max_iterations: 300,
            ..CgOptions::default()
        };
        let plain = solve(&a, &b, None, &IdentityPreconditioner, &loose);
        let jacobi = solve(
            &a,
            &b,
            None,
            &JacobiPreconditioner::from_matrix(&a),
            &loose,
        );
        assert!(jacobi.converged, "jacobi should converge: {jacobi:?}");
        assert!(
            jacobi.iterations < plain.iterations || !plain.converged,
            "jacobi {} vs plain {}",
            jacobi.iterations,
            plain.iterations
        );
    }

    #[test]
    fn solve_with_matches_solve_and_reuses_the_workspace() {
        let n = 64;
        let a = laplacian(n);
        let b: Vec<f64> = (0..n).map(|i| ((i * 3) % 7) as f64 - 3.0).collect();
        let reference = solve(&a, &b, None, &IdentityPreconditioner, &CgOptions::default());
        let mut ws = CgWorkspace::new();
        let stats = solve_with(&a, &b, None, &IdentityPreconditioner, &CgOptions::default(), &mut ws);
        assert_eq!(stats.iterations, reference.iterations);
        assert_eq!(stats.converged, reference.converged);
        assert_eq!(ws.solution(), reference.x.as_slice());
        // A second solve in the same workspace must not reallocate.
        let cap = ws.capacity();
        let again = solve_with(&a, &b, None, &IdentityPreconditioner, &CgOptions::default(), &mut ws);
        assert_eq!(ws.capacity(), cap);
        assert_eq!(again.residual_norm.to_bits(), stats.residual_norm.to_bits());
        assert_eq!(ws.solution(), reference.x.as_slice());
    }

    #[test]
    fn try_solve_with_rejects_bad_inputs_without_panicking() {
        let a = laplacian(8);
        let mut ws = CgWorkspace::new();
        let opts = CgOptions::default();
        let short = vec![1.0; 4];
        assert_eq!(
            try_solve_with(&a, &short, None, &IdentityPreconditioner, &opts, &mut ws),
            Err(SolverError::DimensionMismatch { what: "rhs", expected: 8, got: 4 })
        );
        let nan = vec![f64::NAN; 8];
        let err =
            try_solve_with(&a, &nan, None, &IdentityPreconditioner, &opts, &mut ws).unwrap_err();
        assert_eq!(err, SolverError::NonFinite { what: "rhs" });
        assert!(err.is_recoverable());
        let b = vec![1.0; 8];
        let bad_x0 = vec![f64::INFINITY; 8];
        assert_eq!(
            try_solve_with(&a, &b, Some(&bad_x0), &IdentityPreconditioner, &opts, &mut ws),
            Err(SolverError::NonFinite { what: "x0" })
        );
        assert!(!SolverError::DimensionMismatch { what: "x0", expected: 8, got: 9 }
            .is_recoverable());
    }

    #[test]
    fn try_solve_with_matches_solve_with_on_valid_inputs() {
        let n = 40;
        let a = laplacian(n);
        let b: Vec<f64> = (0..n).map(|i| ((i * 5) % 11) as f64 - 5.0).collect();
        let mut ws_a = CgWorkspace::new();
        let mut ws_b = CgWorkspace::new();
        let opts = CgOptions::default();
        let plain = solve_with(&a, &b, None, &IdentityPreconditioner, &opts, &mut ws_a);
        let checked =
            try_solve_with(&a, &b, None, &IdentityPreconditioner, &opts, &mut ws_b).unwrap();
        assert_eq!(plain, checked);
        assert_eq!(ws_a.solution(), ws_b.solution());
    }

    #[test]
    fn iteration_cap_is_respected() {
        let a = laplacian(100);
        let b = vec![1.0; 100];
        let opts = CgOptions {
            max_iterations: 3,
            rel_tolerance: 1e-14,
            abs_tolerance: 0.0,
        };
        let result = solve(&a, &b, None, &IdentityPreconditioner, &opts);
        assert_eq!(result.iterations, 3);
        assert!(!result.converged);
    }

    #[test]
    fn indefinite_direction_breaks_gracefully() {
        // -I is negative definite; CG must bail out without NaNs.
        let mut coo = CooMatrix::new(3);
        for i in 0..3 {
            coo.push(i, i, -1.0);
        }
        let a = coo.into_csr();
        let result = solve(&a, &[1.0, 1.0, 1.0], None, &IdentityPreconditioner, &CgOptions::default());
        assert!(result.x.iter().all(|v| v.is_finite()));
        assert!(!result.converged);
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = laplacian(10);
        let result = solve(&a, &[0.0; 10], None, &IdentityPreconditioner, &CgOptions::default());
        assert!(result.converged);
        assert_eq!(result.iterations, 0);
        assert!(result.x.iter().all(|&v| v == 0.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_cg_solves_random_spd_systems(seed in 0u64..1000) {
            // A = B^T B + I is SPD for any B.
            let n = 20;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let bmat: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .collect();
            let mut coo = CooMatrix::new(n);
            for i in 0..n {
                for j in 0..n {
                    let mut v = 0.0;
                    for k in 0..n {
                        v += bmat[k][i] * bmat[k][j];
                    }
                    if i == j {
                        v += 1.0;
                    }
                    if v != 0.0 {
                        coo.push(i, j, v);
                    }
                }
            }
            let a = coo.into_csr();
            let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let mut b = vec![0.0; n];
            a.spmv(&x_true, &mut b);
            let result = solve(
                &a,
                &b,
                None,
                &JacobiPreconditioner::from_matrix(&a),
                &CgOptions { max_iterations: 500, ..CgOptions::default() },
            );
            prop_assert!(result.converged, "did not converge: {:?}", result.residual_norm);
            for (xi, ti) in result.x.iter().zip(&x_true) {
                prop_assert!((xi - ti).abs() < 1e-4, "{} vs {}", xi, ti);
            }
        }

        #[test]
        fn prop_residual_matches_reported(seed in 0u64..200) {
            let n = 15;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let a = laplacian(n);
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let result = solve(&a, &b, None, &IdentityPreconditioner, &CgOptions::default());
            let mut ax = vec![0.0; n];
            a.spmv(&result.x, &mut ax);
            let mut r = 0.0f64;
            for i in 0..n {
                r += (b[i] - ax[i]).powi(2);
            }
            prop_assert!((r.sqrt() - result.residual_norm).abs() < 1e-8);
        }
    }
}
