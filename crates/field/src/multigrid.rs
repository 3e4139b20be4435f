//! Geometric multigrid Poisson solver — the fast path for equation (7).
//!
//! Solves `ΔΦ = D` on a square, zero-Dirichlet domain that pads the core
//! region on every side. Requirement 4 of the paper asks for the force to
//! vanish at infinity; since the density deviation integrates to zero, the
//! far potential decays quickly and a padded Dirichlet box is an accurate
//! stand-in for free space (validated against [`crate::DirectSolver`] in
//! the tests and the ablation bench). The force is the gradient
//! `f = ∇Φ` evaluated with central differences.

use crate::field::ForceField;
use crate::grid::{self, SavedSolve, SolveGrid};
use crate::map::ScalarMap;

/// Multigrid V-cycle Poisson solver.
///
/// * `padding` — border added around the density region on each side, as a
///   fraction of the larger region extent (default `0.25`, i.e. the solve
///   domain is 1.5× the core's longer extent in each direction).
/// * `tolerance` — relative residual target per solve (default `1e-7`).
/// * `max_cycles` — V-cycle cap (default `30`).
///
/// The vertex count follows from the density map: the `2^k + 1` per side
/// nearest to 2 vertices per bin across the padded domain (see
/// `SolveGrid::for_density`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultigridSolver {
    /// Border fraction added on each side of the density region. It
    /// stands in for the paper's requirement that the force vanish at
    /// infinity; more padding is closer to free space and costs vertices.
    pub padding: f64,
    /// Relative residual reduction target.
    pub tolerance: f64,
    /// Maximum number of V-cycles.
    pub max_cycles: usize,
}

impl Default for MultigridSolver {
    fn default() -> Self {
        Self {
            padding: 0.25,
            tolerance: 1e-7,
            max_cycles: 30,
        }
    }
}

impl MultigridSolver {
    /// Creates the solver with default parameters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Rows per block on a level whose passes fan out across the worker pool.
/// Block boundaries depend only on the grid size, never on the thread
/// count, so every pass computes the same values at any thread count.
const BLOCK_ROWS: usize = 32;

/// Smallest level (vertices per side) whose passes fan out. A pass over a
/// smaller level is one inline block: at `m ≤ 257` it is too short to pay
/// for waking a worker and publishing a job.
const PARALLEL_MIN_M: usize = 513;

/// A square vertex-centered grid with `m` vertices per side (`m = 2^k+1`)
/// over `region`, used by the V-cycle.
struct Level {
    m: usize,
    h: f64,
}

impl Level {
    /// Rows per block of every grid this level's passes write (the level's
    /// own grid, or the next-coarser one for restriction): fixed
    /// [`BLOCK_ROWS`] blocks from [`PARALLEL_MIN_M`] up, one block below.
    fn block_rows(&self) -> usize {
        if self.m >= PARALLEL_MIN_M {
            BLOCK_ROWS
        } else {
            self.m
        }
    }
}

/// Red-black Gauss-Seidel sweeps for `ΔΦ = rhs` (5-point stencil, zero
/// Dirichlet boundary), one color pass at a time over blocks of rows.
///
/// A color pass reads only the other color, so its updates do not depend
/// on each other: `halo` first receives a copy of each block's two
/// neighbour rows, then all blocks update in parallel from their own rows
/// and that copy, and every value comes out bitwise as in one sequential
/// sweep.
fn smooth(level: &Level, phi: &mut [f64], rhs: &[f64], halo: &mut Vec<f64>, sweeps: usize) {
    let m = level.m;
    let h2 = level.h * level.h;
    let block = level.block_rows();
    for _ in 0..sweeps {
        for color in 0..2 {
            fill_halo(phi, m, block, halo);
            let halo = halo.as_slice();
            kraftwerk_par::for_each_chunk_mut(phi, block * m, |b, rows| {
                let lo = b * block;
                let rhs = &rhs[lo * m..lo * m + rows.len()];
                let halo = halo.get(2 * m * b..2 * m * (b + 1)).unwrap_or(&[]);
                smooth_block(m, lo, rows, rhs, halo, h2, color);
            });
        }
    }
}

/// Copies the row above and the row below each `block`-row block of the
/// `m × m` grid `phi` into `halo`, two rows per block. A one-block grid
/// has no neighbour rows and leaves `halo` empty.
fn fill_halo(phi: &[f64], m: usize, block: usize, halo: &mut Vec<f64>) {
    let blocks = m.div_ceil(block);
    if blocks < 2 {
        halo.clear();
        return;
    }
    halo.resize(2 * m * blocks, 0.0);
    for (b, pair) in halo.chunks_exact_mut(2 * m).enumerate() {
        let lo = b * block;
        let hi = (lo + block).min(m);
        let (above, below) = pair.split_at_mut(m);
        if lo > 0 {
            above.copy_from_slice(&phi[(lo - 1) * m..lo * m]);
        }
        if hi < m {
            below.copy_from_slice(&phi[hi * m..(hi + 1) * m]);
        }
    }
}

/// One color pass over the block of rows starting at grid row `lo`:
/// `rows` and `rhs` hold the block's rows, `halo` the row above and the
/// row below it (read only where the block borders an interior row).
fn smooth_block(
    m: usize,
    lo: usize,
    rows: &mut [f64],
    rhs: &[f64],
    halo: &[f64],
    h2: f64,
    color: usize,
) {
    let n = rows.len() / m;
    for k in 0..n {
        let j = lo + k;
        if j == 0 || j == m - 1 {
            continue;
        }
        let (before, rest) = rows.split_at_mut(k * m);
        let (row, after) = rest.split_at_mut(m);
        let prev = if k == 0 { &halo[..m] } else { &before[(k - 1) * m..] };
        let next = if k + 1 == n { &halo[m..2 * m] } else { &after[..m] };
        let odd = (j + color).is_multiple_of(2);
        smooth_row(row, prev, next, &rhs[k * m..(k + 1) * m], h2, odd);
    }
}

/// Updates the interior odd columns of `row` (`odd`) or its interior even
/// ones, given the rows before (`prev`) and after (`next`) it — each one
/// contiguous run of the row's [`grid::idx`] layout.
fn smooth_row(row: &mut [f64], prev: &[f64], next: &[f64], rhs: &[f64], h2: f64, odd: bool) {
    let m = row.len();
    let half = m.div_ceil(2);
    let (evens, odds) = row.split_at_mut(half);
    if odd {
        // Odd column 2k + 1 lies between even columns 2k and 2k + 2.
        let s = half..m;
        let (w, e) = (&evens[..half - 1], &evens[1..]);
        relax(odds, w, e, &prev[s.clone()], &next[s.clone()], &rhs[s], h2);
    } else {
        // Interior even column 2k lies between odd columns 2k − 1 and 2k + 1.
        let s = 1..half - 1;
        let (w, e) = (&odds[..half - 2], &odds[1..]);
        relax(&mut evens[s.clone()], w, e, &prev[s.clone()], &next[s.clone()], &rhs[s], h2);
    }
}

/// The Gauss-Seidel update `out = ¼·(((w + e) + n) + s − h²·rhs)` of one
/// contiguous run of vertices from their four neighbours' runs.
#[inline]
fn relax(out: &mut [f64], w: &[f64], e: &[f64], n: &[f64], s: &[f64], rhs: &[f64], h2: f64) {
    let len = out.len();
    let (w, e, n, s, rhs) = (&w[..len], &e[..len], &n[..len], &s[..len], &rhs[..len]);
    for k in 0..len {
        out[k] = 0.25 * (((w[k] + e[k]) + n[k]) + s[k] - h2 * rhs[k]);
    }
}

/// Residual `r = rhs - ΔΦ` on the interior (zero on the boundary), written
/// in blocks of rows.
fn residual(level: &Level, phi: &[f64], rhs: &[f64], r: &mut [f64]) {
    let m = level.m;
    let half = m.div_ceil(2);
    let inv_h2 = 1.0 / (level.h * level.h);
    let block = level.block_rows();
    kraftwerk_par::for_each_chunk_mut(r, block * m, |b, out| {
        for (k, out) in out.chunks_exact_mut(m).enumerate() {
            let j = b * block + k;
            if j == 0 || j == m - 1 {
                out.fill(0.0);
                continue;
            }
            let prev = &phi[(j - 1) * m..j * m];
            let row = &phi[j * m..(j + 1) * m];
            let next = &phi[(j + 1) * m..(j + 2) * m];
            let rhs = &rhs[j * m..(j + 1) * m];
            let (evens, odds) = row.split_at(half);
            let (out_evens, out_odds) = out.split_at_mut(half);
            out_evens[0] = 0.0;
            out_evens[half - 1] = 0.0;
            let s = 1..half - 1;
            laplace_residual(
                &mut out_evens[s.clone()],
                [&odds[..half - 2], &odds[1..], &prev[s.clone()], &next[s.clone()]],
                &evens[s.clone()],
                &rhs[s],
                inv_h2,
            );
            let s = half..m;
            laplace_residual(
                out_odds,
                [&evens[..half - 1], &evens[1..], &prev[s.clone()], &next[s.clone()]],
                odds,
                &rhs[s],
                inv_h2,
            );
        }
    });
}

/// `out = rhs − (((w + e) + n) + s − 4·c)/h²` over one contiguous run of
/// vertices `c`, with `[w, e, n, s]` their neighbours' runs.
#[inline]
fn laplace_residual(
    out: &mut [f64],
    [w, e, n, s]: [&[f64]; 4],
    c: &[f64],
    rhs: &[f64],
    inv_h2: f64,
) {
    let len = out.len();
    let (w, e, n, s) = (&w[..len], &e[..len], &n[..len], &s[..len]);
    let (c, rhs) = (&c[..len], &rhs[..len]);
    for k in 0..len {
        let lap = (w[k] + e[k] + n[k] + s[k] - 4.0 * c[k]) * inv_h2;
        out[k] = rhs[k] - lap;
    }
}

/// Full-weighting restriction from the level's grid (m) to the coarse
/// grid ((m+1)/2), written in blocks of coarse rows. Coarse column `ic`
/// sits on fine even column `2·ic`, so it reads fine even slot `ic` and
/// odd slots `ic − 1` and `ic` of each of the three fine rows.
fn restrict(level: &Level, fine: &[f64], coarse: &mut [f64]) {
    let m_fine = level.m;
    let half = m_fine.div_ceil(2);
    let m_coarse = half;
    let block = level.block_rows();
    kraftwerk_par::for_each_chunk_mut(coarse, block * m_coarse, |b, out| {
        for (k, out) in out.chunks_exact_mut(m_coarse).enumerate() {
            let jc = b * block + k;
            if jc == 0 || jc == m_coarse - 1 {
                out.fill(0.0);
                continue;
            }
            let j = 2 * jc;
            let (prev_e, prev_o) = fine[(j - 1) * m_fine..j * m_fine].split_at(half);
            let (row_e, row_o) = fine[j * m_fine..(j + 1) * m_fine].split_at(half);
            let (next_e, next_o) = fine[(j + 1) * m_fine..(j + 2) * m_fine].split_at(half);
            let (out_e, out_o) = out.split_at_mut(m_coarse.div_ceil(2));
            let last = out_e.len() - 1;
            out_e[0] = 0.0;
            out_e[last] = 0.0;
            // Coarse column 2q sits on fine even slot 2q, between odd
            // slots 2q − 1 and 2q; coarse column 2q + 1 on even slot
            // 2q + 1, between odd slots 2q and 2q + 1.
            let (evens, odds) = ([prev_e, row_e, next_e], [prev_o, row_o, next_o]);
            full_weighting(&mut out_e[1..last], evens.map(|r| &r[2..]), odds.map(|r| &r[1..]));
            full_weighting(out_o, evens.map(|r| &r[1..]), odds);
        }
    });
}

/// Full weighting onto `out[k]` of the fine vertex at even slot `2k` of
/// `evens` (rows above, on and below it) from its neighbours at odd slots
/// `2k` and `2k + 1` of `odds`: `¼·center + ⅛·edges + 1/16·corners`, in
/// the row-major kernel's operand order.
fn full_weighting(out: &mut [f64], evens: [&[f64]; 3], odds: [&[f64]; 3]) {
    let [pe, re, ne] = evens.map(|r| r.chunks_exact(2));
    let [po, ro, no] = odds.map(|r| r.chunks_exact(2));
    let vertices = pe.zip(re).zip(ne).zip(po.zip(ro).zip(no));
    for (x, (((p, r), n), ((pl, rl), nl))) in out.iter_mut().zip(vertices) {
        let edges = rl[0] + rl[1] + p[0] + n[0];
        let corners = pl[0] + pl[1] + nl[0] + nl[1];
        *x = 0.25 * r[0] + 0.125 * edges + 0.0625 * corners;
    }
}

/// Bilinear prolongation: adds the coarse correction ((m+1)/2 per side)
/// into the level's grid (m), gathering each fine row in parallel blocks.
///
/// A fine vertex takes its coarse contributions in the order a scatter
/// over coarse rows (outer) and columns (inner) adds them, and a zero
/// coarse value contributes `-0.0`, the exact identity of IEEE addition,
/// as that scatter skips it (adding `+0.0` would turn a `-0.0` into
/// `+0.0`), so every sum is bitwise the scatter's without a branch.
fn prolong_add(level: &Level, coarse: &[f64], fine: &mut [f64]) {
    let m_fine = level.m;
    let m_coarse = m_fine.div_ceil(2);
    let block = level.block_rows();
    kraftwerk_par::for_each_chunk_mut(fine, block * m_fine, |b, rows| {
        for (k, row) in rows.chunks_exact_mut(m_fine).enumerate() {
            let j = b * block + k;
            let jc = j / 2;
            let c0 = &coarse[jc * m_coarse..(jc + 1) * m_coarse];
            if j.is_multiple_of(2) {
                prolong_even_row(row, c0);
            } else {
                prolong_odd_row(row, c0, &coarse[(jc + 1) * m_coarse..(jc + 2) * m_coarse]);
            }
        }
    });
}

/// `weight · v`, or `-0.0` (which leaves any sum unchanged) when `v` is
/// zero.
#[inline]
fn term(weight: f64, v: f64) -> f64 {
    if v != 0.0 {
        weight * v
    } else {
        -0.0
    }
}

/// Fine row `2·jc`, from coarse row `jc`: even column `2·ic` takes coarse
/// column `ic`, odd column `2·ic + 1` the mean of `ic` and `ic + 1`. Each
/// step takes coarse columns `2q`, `2q + 1`, `2q + 2` into fine even and
/// odd slots `2q` and `2q + 1`.
fn prolong_even_row(row: &mut [f64], c: &[f64]) {
    let m_coarse = c.len();
    let (c_even, c_odd) = c.split_at(m_coarse.div_ceil(2));
    let (evens, odds) = row.split_at_mut(m_coarse);
    let Some((last, evens)) = evens.split_last_mut() else {
        return;
    };
    let coarse = c_even.windows(2).zip(c_odd);
    let fine = evens.chunks_exact_mut(2).zip(odds.chunks_exact_mut(2));
    for ((e, o), (a, &b)) in fine.zip(coarse) {
        e[0] += term(1.0, a[0]);
        e[1] += term(1.0, b);
        o[0] += term(0.5, a[0]);
        o[0] += term(0.5, b);
        o[1] += term(0.5, b);
        o[1] += term(0.5, a[1]);
    }
    *last += term(1.0, c_even[c_even.len() - 1]);
}

/// Fine row `2·jc + 1`, from coarse rows `jc` (`c0`) and `jc + 1` (`c1`),
/// in the steps of [`prolong_even_row`].
fn prolong_odd_row(row: &mut [f64], c0: &[f64], c1: &[f64]) {
    let m_coarse = c0.len();
    let half = m_coarse.div_ceil(2);
    let ((a_even, a_odd), (b_even, b_odd)) = (c0.split_at(half), c1.split_at(half));
    let (evens, odds) = row.split_at_mut(m_coarse);
    let Some((last, evens)) = evens.split_last_mut() else {
        return;
    };
    let coarse = a_even.windows(2).zip(a_odd).zip(b_even.windows(2).zip(b_odd));
    let fine = evens.chunks_exact_mut(2).zip(odds.chunks_exact_mut(2));
    for ((e, o), ((a, &a1), (b, &b1))) in fine.zip(coarse) {
        e[0] += term(0.5, a[0]);
        e[0] += term(0.5, b[0]);
        e[1] += term(0.5, a1);
        e[1] += term(0.5, b1);
        o[0] += term(0.25, a[0]);
        o[0] += term(0.25, a1);
        o[0] += term(0.25, b[0]);
        o[0] += term(0.25, b1);
        o[1] += term(0.25, a1);
        o[1] += term(0.25, a[1]);
        o[1] += term(0.25, b1);
        o[1] += term(0.25, b[1]);
    }
    *last += term(0.5, a_even[half - 1]);
    *last += term(0.5, b_even[half - 1]);
}

/// `‖v‖₂` of an `m × m` grid, its squares summed in natural (row-major)
/// vertex order on one thread: the sum the row-major layout took, at any
/// thread count.
fn natural_norm(m: usize, v: &[f64]) -> f64 {
    let half = m.div_ceil(2);
    let mut sum = 0.0;
    for row in v.chunks_exact(m) {
        let (evens, odds) = row.split_at(half);
        for (e, o) in evens.iter().zip(odds) {
            sum += e * e;
            sum += o * o;
        }
        sum += evens[half - 1] * evens[half - 1];
    }
    sum.sqrt()
}

/// Number of grid levels a V-cycle descends through from an `m`-vertex
/// fine grid (each level halves until the 5-vertex coarse solve).
fn level_count(m: usize) -> usize {
    let mut levels = 1;
    let mut m = m;
    while m > 5 {
        m = m.div_ceil(2);
        levels += 1;
    }
    levels
}

/// Per-depth V-cycle scratch: the residual on one level plus the
/// restricted RHS and correction on the next-coarser one.
#[derive(Debug, Default)]
struct VcycleBufs {
    r: Vec<f64>,
    coarse_rhs: Vec<f64>,
    coarse_phi: Vec<f64>,
}

/// Reusable buffers for [`MultigridSolver::solve_reusing`]: fine-grid RHS,
/// potential and residual, per-depth V-cycle scratch and the smoother's
/// halo rows. Holding one of these across placement iterations makes the
/// steady-state Poisson solve allocation-free. The solved potential and
/// its `SavedSolve` geometry record stay behind for
/// [`MultigridSolver::potential_map`].
#[derive(Debug, Default)]
pub struct MultigridWorkspace {
    rhs: Vec<f64>,
    phi: Vec<f64>,
    resid: Vec<f64>,
    depth: Vec<VcycleBufs>,
    halo: Vec<f64>,
    saved: Option<SavedSolve>,
}

/// Runs V-cycles on `phi` (which may carry an initial guess) until the
/// residual drops below `tolerance · rhs_norm` or `max_cycles` is spent.
/// Returns whether the tolerance was met; when `residuals` is `Some`,
/// pushes each cycle's relative residual for telemetry.
#[allow(clippy::too_many_arguments)]
fn vcycle_to_tolerance(
    m: usize,
    h: f64,
    phi: &mut [f64],
    rhs: &[f64],
    resid: &mut Vec<f64>,
    depth: &mut Vec<VcycleBufs>,
    halo: &mut Vec<f64>,
    rhs_norm: f64,
    tolerance: f64,
    max_cycles: usize,
    mut residuals: Option<&mut Vec<f64>>,
) -> bool {
    let level = Level { m, h };
    if depth.len() < level_count(m) {
        depth.resize_with(level_count(m), VcycleBufs::default);
    }
    resid.resize(m * m, 0.0);
    let mut converged = false;
    for _ in 0..max_cycles {
        vcycle(&level, phi, rhs, depth, halo);
        residual(&level, phi, rhs, resid);
        // Summed in natural vertex order on one thread, so the stopping
        // test is the same at any thread count.
        let rn = natural_norm(m, resid);
        if let Some(out) = residuals.as_deref_mut() {
            out.push(rn / rhs_norm);
        }
        if rn <= tolerance * rhs_norm {
            converged = true;
            break;
        }
    }
    converged
}

/// One V-cycle: pre-smooth, restrict the residual into the first
/// per-depth buffer, recurse on the coarser buffers, prolong the
/// correction and post-smooth. The coarsest level is smoothed to
/// convergence instead.
fn vcycle(
    level: &Level,
    phi: &mut [f64],
    rhs: &[f64],
    depth: &mut [VcycleBufs],
    halo: &mut Vec<f64>,
) {
    let m = level.m;
    match depth {
        [bufs, coarser @ ..] if m > 5 => {
            smooth(level, phi, rhs, halo, 2);
            bufs.r.resize(m * m, 0.0);
            residual(level, phi, rhs, &mut bufs.r);
            let m_coarse = m.div_ceil(2);
            bufs.coarse_rhs.resize(m_coarse * m_coarse, 0.0);
            restrict(level, &bufs.r, &mut bufs.coarse_rhs);
            bufs.coarse_phi.clear();
            bufs.coarse_phi.resize(m_coarse * m_coarse, 0.0);
            let coarse_level = Level {
                m: m_coarse,
                h: level.h * 2.0,
            };
            vcycle(&coarse_level, &mut bufs.coarse_phi, &bufs.coarse_rhs, coarser, halo);
            prolong_add(level, &bufs.coarse_phi, phi);
            smooth(level, phi, rhs, halo, 2);
        }
        _ => smooth(level, phi, rhs, halo, 50),
    }
}

impl MultigridSolver {
    /// Computes the (unscaled, `k = 1`) force field of a density map: an
    /// allocating wrapper around [`solve_reusing`](Self::solve_reusing)
    /// with a fresh workspace.
    #[must_use]
    pub fn solve(&self, density: &ScalarMap) -> ForceField {
        let mut out = ForceField::zeros(density.region(), density.nx(), density.ny());
        self.solve_reusing(density, &mut MultigridWorkspace::default(), &mut out);
        out
    }

    /// In-place variant of [`solve`](Self::solve): the same V-cycle
    /// iteration, but every grid buffer comes from `ws` and the force
    /// field is written into `out` (re-shaped to the density grid). Bin
    /// values are bitwise identical to the allocating path.
    pub fn solve_reusing(
        &self,
        density: &ScalarMap,
        ws: &mut MultigridWorkspace,
        out: &mut ForceField,
    ) {
        let _timer = kraftwerk_trace::span("multigrid.solve");
        // The solve grid, RHS deposit and force sampling live in `grid`;
        // this function only runs the V-cycles.
        let solve_grid = SolveGrid::for_density(density, self.padding);
        let SolveGrid { m, h, .. } = solve_grid;

        let MultigridWorkspace { rhs, phi, resid, depth, halo, saved } = ws;
        grid::deposit_rhs(density, &solve_grid, rhs);

        let rhs_norm = natural_norm(m, rhs);
        phi.clear();
        phi.resize(m * m, 0.0);
        // Per-V-cycle residual norms for telemetry (collected only while a
        // trace sink is installed), reserved and emitted outside the heap
        // accounting: the solve runs inside the session's phase guard.
        let tracing = kraftwerk_trace::enabled();
        let mut cycle_residuals = if tracing {
            kraftwerk_trace::alloc::untracked(|| Vec::with_capacity(self.max_cycles))
        } else {
            Vec::new()
        };
        let mut converged = rhs_norm == 0.0;
        if rhs_norm > 0.0 {
            converged = vcycle_to_tolerance(
                m,
                h,
                phi,
                rhs,
                resid,
                depth,
                halo,
                rhs_norm,
                self.tolerance,
                self.max_cycles,
                tracing.then_some(&mut cycle_residuals),
            );
        }
        if tracing {
            kraftwerk_trace::alloc::untracked(|| {
                kraftwerk_trace::event(
                    "multigrid.solve",
                    vec![
                        ("vertices_per_side", kraftwerk_trace::Value::from(m)),
                        ("levels", kraftwerk_trace::Value::from(level_count(m))),
                        ("cycles", kraftwerk_trace::Value::from(cycle_residuals.len())),
                        ("converged", kraftwerk_trace::Value::from(converged)),
                        ("relative_residuals", kraftwerk_trace::Value::from(cycle_residuals)),
                    ],
                );
                kraftwerk_trace::counter("multigrid.solves", 1);
            });
        }

        grid::write_forces(phi, &solve_grid, density, out);
        *saved = Some(SavedSolve { grid: solve_grid, padding: self.padding });
    }

    /// Samples the Poisson potential φ left in `ws` by the most recent
    /// [`solve_reusing`](Self::solve_reusing) call onto the bin centers
    /// of `density`. Returns `None` when the workspace has not been used
    /// yet, or when `density` (or this solver's geometry parameters) does
    /// not describe the same discrete system the workspace was solved on
    /// — the workspace records its `SavedSolve` geometry precisely so a
    /// same-vertex-count density over a different region can never be
    /// silently resampled on the wrong domain. This is the export behind
    /// the `potential` field snapshots.
    #[must_use]
    pub fn potential_map(&self, density: &ScalarMap, ws: &MultigridWorkspace) -> Option<ScalarMap> {
        let saved = ws.saved.as_ref()?;
        if !saved.matches(density, self.padding) {
            return None;
        }
        Some(grid::sample_potential(&ws.phi, &saved.grid, density))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::DirectSolver;
    use crate::grid::idx;
    use kraftwerk_geom::{Point, Rect};
    use rand::{Rng, SeedableRng};

    /// The scalar row-major kernels the row-block, column-parity kernels
    /// replaced, with their own index and a V-cycle of their own, kept as
    /// the references those are checked against bit for bit.
    mod reference {
        /// Row-major vertex index on an `m × m` grid.
        pub fn idx(m: usize, i: usize, j: usize) -> usize {
            j * m + i
        }

        pub fn smooth(m: usize, h: f64, phi: &mut [f64], rhs: &[f64], sweeps: usize) {
            let h2 = h * h;
            for _ in 0..sweeps {
                for color in 0..2 {
                    for j in 1..m - 1 {
                        let start = 1 + (j + color) % 2;
                        let mut i = start;
                        while i < m - 1 {
                            let nb = phi[idx(m, i - 1, j)]
                                + phi[idx(m, i + 1, j)]
                                + phi[idx(m, i, j - 1)]
                                + phi[idx(m, i, j + 1)];
                            phi[idx(m, i, j)] = 0.25 * (nb - h2 * rhs[idx(m, i, j)]);
                            i += 2;
                        }
                    }
                }
            }
        }

        pub fn residual(m: usize, h: f64, phi: &[f64], rhs: &[f64], r: &mut [f64]) {
            let inv_h2 = 1.0 / (h * h);
            r.fill(0.0);
            for j in 1..m - 1 {
                for i in 1..m - 1 {
                    let lap = (phi[idx(m, i - 1, j)]
                        + phi[idx(m, i + 1, j)]
                        + phi[idx(m, i, j - 1)]
                        + phi[idx(m, i, j + 1)]
                        - 4.0 * phi[idx(m, i, j)])
                        * inv_h2;
                    r[idx(m, i, j)] = rhs[idx(m, i, j)] - lap;
                }
            }
        }

        pub fn restrict(m_fine: usize, fine: &[f64], coarse: &mut [f64]) {
            let m_coarse = m_fine.div_ceil(2);
            coarse.fill(0.0);
            for jc in 1..m_coarse - 1 {
                for ic in 1..m_coarse - 1 {
                    let i = 2 * ic;
                    let j = 2 * jc;
                    let center = fine[idx(m_fine, i, j)];
                    let edges = fine[idx(m_fine, i - 1, j)]
                        + fine[idx(m_fine, i + 1, j)]
                        + fine[idx(m_fine, i, j - 1)]
                        + fine[idx(m_fine, i, j + 1)];
                    let corners = fine[idx(m_fine, i - 1, j - 1)]
                        + fine[idx(m_fine, i + 1, j - 1)]
                        + fine[idx(m_fine, i - 1, j + 1)]
                        + fine[idx(m_fine, i + 1, j + 1)];
                    coarse[idx(m_coarse, ic, jc)] =
                        0.25 * center + 0.125 * edges + 0.0625 * corners;
                }
            }
        }

        pub fn prolong_add(m_coarse: usize, coarse: &[f64], fine: &mut [f64]) {
            let m_fine = 2 * m_coarse - 1;
            for jc in 0..m_coarse {
                for ic in 0..m_coarse {
                    let v = coarse[idx(m_coarse, ic, jc)];
                    if v == 0.0 {
                        continue;
                    }
                    let i = 2 * ic;
                    let j = 2 * jc;
                    fine[idx(m_fine, i, j)] += v;
                    if i + 1 < m_fine {
                        fine[idx(m_fine, i + 1, j)] += 0.5 * v;
                    }
                    if i >= 1 {
                        fine[idx(m_fine, i - 1, j)] += 0.5 * v;
                    }
                    if j + 1 < m_fine {
                        fine[idx(m_fine, i, j + 1)] += 0.5 * v;
                    }
                    if j >= 1 {
                        fine[idx(m_fine, i, j - 1)] += 0.5 * v;
                    }
                    if i + 1 < m_fine && j + 1 < m_fine {
                        fine[idx(m_fine, i + 1, j + 1)] += 0.25 * v;
                    }
                    if i >= 1 && j + 1 < m_fine {
                        fine[idx(m_fine, i - 1, j + 1)] += 0.25 * v;
                    }
                    if i + 1 < m_fine && j >= 1 {
                        fine[idx(m_fine, i + 1, j - 1)] += 0.25 * v;
                    }
                    if i >= 1 && j >= 1 {
                        fine[idx(m_fine, i - 1, j - 1)] += 0.25 * v;
                    }
                }
            }
        }

        /// The V-cycle on row-major grids, `level_count(m)` levels deep.
        fn vcycle(m: usize, h: f64, phi: &mut [f64], rhs: &[f64]) {
            if m <= 5 {
                smooth(m, h, phi, rhs, 50);
                return;
            }
            smooth(m, h, phi, rhs, 2);
            let mut r = vec![0.0; m * m];
            residual(m, h, phi, rhs, &mut r);
            let m_coarse = m.div_ceil(2);
            let mut coarse_rhs = vec![0.0; m_coarse * m_coarse];
            restrict(m, &r, &mut coarse_rhs);
            let mut coarse_phi = vec![0.0; m_coarse * m_coarse];
            vcycle(m_coarse, 2.0 * h, &mut coarse_phi, &coarse_rhs);
            prolong_add(m_coarse, &coarse_phi, phi);
            smooth(m, h, phi, rhs, 2);
        }

        /// V-cycles from zero until the residual norm, summed in index
        /// order, drops below `tolerance · ‖rhs‖` or `max_cycles` is spent.
        pub fn solve(m: usize, h: f64, rhs: &[f64], tolerance: f64, max_cycles: usize) -> Vec<f64> {
            let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
            let rhs_norm = norm(rhs);
            let mut phi = vec![0.0; m * m];
            let mut r = vec![0.0; m * m];
            if rhs_norm > 0.0 {
                for _ in 0..max_cycles {
                    vcycle(m, h, &mut phi, rhs);
                    residual(m, h, &phi, rhs, &mut r);
                    if norm(&r) <= tolerance * rhs_norm {
                        break;
                    }
                }
            }
            phi
        }
    }

    /// Grid sizes of the kernel tests: one-block levels (9 … 129) and
    /// fanned-out ones, including 1025 = 32·32 + 1 with its one-row
    /// trailing block.
    const KERNEL_SIZES: [usize; 5] = [9, 33, 129, 513, 1025];
    const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

    /// Runs `f` with the process-wide thread count pinned to `threads`.
    fn at_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        kraftwerk_par::set_threads(threads);
        let result = f();
        kraftwerk_par::set_threads(1);
        result
    }

    /// `len` values in [-1, 1), about a quarter of them exactly `+0.0` or
    /// `-0.0`, so zero-skipping and signed-zero sums are exercised.
    fn random_grid(seed: u64, len: usize) -> Vec<f64> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..len)
            .map(|_| match rng.gen_range(0..8) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-1.0..1.0),
            })
            .collect()
    }

    /// A row-major grid laid out in [`grid::idx`] order.
    fn to_layout(m: usize, row_major: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; m * m];
        for j in 0..m {
            for i in 0..m {
                out[idx(m, i, j)] = row_major[reference::idx(m, i, j)];
            }
        }
        out
    }

    /// A grid in [`grid::idx`] order back in row-major order.
    fn to_row_major(m: usize, laid_out: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; m * m];
        for j in 0..m {
            for i in 0..m {
                out[reference::idx(m, i, j)] = laid_out[idx(m, i, j)];
            }
        }
        out
    }

    #[test]
    fn the_layout_stores_each_row_even_columns_first() {
        let m = 9;
        let slots: Vec<usize> = (0..m).map(|i| idx(m, i, 2)).collect();
        assert_eq!(slots, [18, 23, 19, 24, 20, 25, 21, 26, 22]);
        let row_major: Vec<f64> = (0..m * m).map(|k| k as f64).collect();
        assert_eq!(to_row_major(m, &to_layout(m, &row_major)), row_major);
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Lays the row-major `input` out in [`grid::idx`] order, runs `kernel`
    /// on a fresh copy at every thread count, and checks every vertex of
    /// the result against the row-major `expected` bit for bit.
    fn assert_kernel_matches(
        what: &str,
        m: usize,
        input: &[f64],
        expected: &[f64],
        kernel: impl Fn(&mut Vec<f64>),
    ) {
        let m_out = (expected.len() as f64).sqrt() as usize;
        for threads in THREAD_COUNTS {
            let mut out = to_layout(m_out, input);
            at_threads(threads, || kernel(&mut out));
            assert!(
                bits(&to_row_major(m_out, &out)) == bits(expected),
                "{what}: m = {m} at {threads} threads differs from the row-major reference"
            );
        }
    }

    #[test]
    fn smoothing_matches_the_scalar_reference_bit_for_bit() {
        for m in KERNEL_SIZES {
            let level = Level { m, h: 0.37 };
            let phi = random_grid(m as u64, m * m);
            let rhs = random_grid(m as u64 + 1, m * m);
            let mut expected = phi.clone();
            reference::smooth(m, level.h, &mut expected, &rhs, 2);
            let rhs = to_layout(m, &rhs);
            assert_kernel_matches("smooth", m, &phi, &expected, |phi| {
                smooth(&level, phi, &rhs, &mut Vec::new(), 2);
            });
        }
    }

    #[test]
    fn residual_matches_the_scalar_reference_bit_for_bit() {
        for m in KERNEL_SIZES {
            let level = Level { m, h: 0.37 };
            let phi = random_grid(m as u64 + 2, m * m);
            let rhs = random_grid(m as u64 + 3, m * m);
            // Start from garbage: the kernel must write every entry.
            let stale = random_grid(m as u64 + 4, m * m);
            let mut expected = stale.clone();
            reference::residual(m, level.h, &phi, &rhs, &mut expected);
            let (phi, rhs) = (to_layout(m, &phi), to_layout(m, &rhs));
            assert_kernel_matches("residual", m, &stale, &expected, |r| {
                residual(&level, &phi, &rhs, r);
            });
        }
    }

    #[test]
    fn restriction_matches_the_scalar_reference_bit_for_bit() {
        for m in KERNEL_SIZES {
            let level = Level { m, h: 0.37 };
            let m_coarse = m.div_ceil(2);
            let fine = random_grid(m as u64 + 5, m * m);
            let stale = random_grid(m as u64 + 6, m_coarse * m_coarse);
            let mut expected = stale.clone();
            reference::restrict(m, &fine, &mut expected);
            let fine = to_layout(m, &fine);
            assert_kernel_matches("restrict", m, &stale, &expected, |coarse| {
                restrict(&level, &fine, coarse);
            });
        }
    }

    #[test]
    fn prolongation_matches_the_scalar_reference_bit_for_bit() {
        for m in KERNEL_SIZES {
            let level = Level { m, h: 0.37 };
            let m_coarse = m.div_ceil(2);
            let coarse = random_grid(m as u64 + 7, m_coarse * m_coarse);
            let fine = random_grid(m as u64 + 8, m * m);
            let mut expected = fine.clone();
            reference::prolong_add(m_coarse, &coarse, &mut expected);
            let coarse = to_layout(m_coarse, &coarse);
            assert_kernel_matches("prolong_add", m, &fine, &expected, |fine| {
                prolong_add(&level, &coarse, fine);
            });
        }
    }

    fn random_balanced_density(seed: u64, n: usize) -> ScalarMap {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut d = ScalarMap::zeros(Rect::new(0.0, 0.0, 10.0, 10.0), n, n);
        for iy in 0..n {
            for ix in 0..n {
                d.set(ix, iy, rng.gen_range(0.0..1.0));
            }
        }
        d.balance();
        d
    }

    #[test]
    fn forces_point_away_from_a_source() {
        let mut d = ScalarMap::zeros(Rect::new(0.0, 0.0, 10.0, 10.0), 17, 17);
        d.set(8, 8, 1.0);
        d.balance();
        let f = MultigridSolver::new().solve(&d);
        let center = d.bin_center(8, 8);
        for probe in [
            Point::new(2.0, 5.0),
            Point::new(8.0, 5.0),
            Point::new(5.0, 2.0),
            Point::new(5.0, 8.5),
        ] {
            let force = f.force_at(probe);
            assert!(
                force.dot(probe - center) > 0.0,
                "force {force} at {probe} not outward"
            );
        }
    }

    /// A multigrid solver iterated to (near) machine precision, so the
    /// tests below see the discrete system's exact solution.
    fn tight() -> MultigridSolver {
        MultigridSolver {
            tolerance: 1e-12,
            max_cycles: 200,
            ..MultigridSolver::new()
        }
    }

    #[test]
    fn vcycles_reach_the_exact_solution_of_discrete_eigenmodes() {
        // sin(πai/(m−1))·sin(πbj/(m−1)) is an eigenvector of the 5-point
        // Laplacian with zero Dirichlet boundary, eigenvalue
        // (2cos(πa/(m−1)) + 2cos(πb/(m−1)) − 4)/h², so the discrete
        // solution is known in closed form for low, middle and highest
        // modes on every grid size.
        use std::f64::consts::PI;
        for m in [17usize, 33, 65, 129, 257] {
            let n = m - 1;
            let h = 1.0 / n as f64;
            for (a, b) in [(1, 1), (1, 2), (n / 2, n / 4), (n / 2 + 1, n - 3), (n - 1, n - 1)] {
                let mut rhs = vec![0.0; m * m];
                for j in 1..n {
                    for i in 1..n {
                        rhs[idx(m, i, j)] = (PI * (a * i) as f64 / n as f64).sin()
                            * (PI * (b * j) as f64 / n as f64).sin();
                    }
                }
                let eig = 2.0 * (PI * a as f64 / n as f64).cos()
                    + 2.0 * (PI * b as f64 / n as f64).cos()
                    - 4.0;
                let exact: Vec<f64> = rhs.iter().map(|r| r * h * h / eig).collect();
                let rhs_norm = rhs.iter().map(|v| v * v).sum::<f64>().sqrt();
                let mut phi = vec![0.0; m * m];
                let converged = vcycle_to_tolerance(
                    m,
                    h,
                    &mut phi,
                    &rhs,
                    &mut Vec::new(),
                    &mut Vec::new(),
                    &mut Vec::new(),
                    rhs_norm,
                    1e-12,
                    200,
                    None,
                );
                assert!(converged, "m = {m}, mode ({a}, {b}) did not converge");
                let err = phi.iter().zip(&exact).map(|(p, e)| (p - e).powi(2)).sum::<f64>().sqrt();
                let norm = exact.iter().map(|e| e * e).sum::<f64>().sqrt();
                let rel = err / norm;
                assert!(rel <= 1e-8, "m = {m}, mode ({a}, {b}): relative error {rel}");
            }
        }
    }

    #[test]
    fn the_field_is_linear_in_the_source() {
        let a = random_balanced_density(31, 24);
        let b = random_balanced_density(32, 24);
        let mut mix = a.clone();
        mix.scale(2.5);
        mix.add_scaled(&b, -0.75);
        let solver = tight();
        let (fa, fb, got) = (solver.solve(&a), solver.solve(&b), solver.solve(&mix));
        let worst = [(fa.fx(), fb.fx(), got.fx()), (fa.fy(), fb.fy(), got.fy())]
            .into_iter()
            .flat_map(|(ca, cb, cm)| ca.values().iter().zip(cb.values()).zip(cm.values()))
            .map(|((va, vb), vm)| (2.5 * va - 0.75 * vb - vm).abs())
            .fold(0.0, f64::max);
        assert!(worst <= 1e-10 * got.max_magnitude(), "linearity error {worst}");
    }

    #[test]
    fn mirroring_the_source_mirrors_the_field() {
        let d = random_balanced_density(41, 20);
        let n = d.nx();
        let mut in_x = ScalarMap::zeros(d.region(), n, n);
        let mut in_y = ScalarMap::zeros(d.region(), n, n);
        for iy in 0..n {
            for ix in 0..n {
                in_x.set(n - 1 - ix, iy, d.get(ix, iy));
                in_y.set(ix, n - 1 - iy, d.get(ix, iy));
            }
        }
        let solver = tight();
        let f = solver.solve(&d);
        let (fx_m, fy_m) = (solver.solve(&in_x), solver.solve(&in_y));
        let tol = 1e-12 * f.max_magnitude();
        let mut worst = 0.0f64;
        for iy in 0..n {
            for ix in 0..n {
                let (gx, gy) = (f.fx().get(ix, iy), f.fy().get(ix, iy));
                let (mx, my) = (n - 1 - ix, n - 1 - iy);
                worst = worst
                    .max((fx_m.fx().get(mx, iy) + gx).abs())
                    .max((fx_m.fy().get(mx, iy) - gy).abs())
                    .max((fy_m.fx().get(ix, my) - gx).abs())
                    .max((fy_m.fy().get(ix, my) + gy).abs());
            }
        }
        assert!(worst <= tol, "mirror error {worst} (tolerance {tol})");
    }

    /// A zero-charge blob centered on bin `(cx, cy)` of a 32×32 map over
    /// a 32×32 region, one bin per unit. Solved with a half-extent padding
    /// (a 64-unit domain on 129 vertices, two per unit), each bin center
    /// lands on a solve-grid vertex and a shift by whole bins is a shift
    /// by whole vertices.
    fn blob_at(cx: usize, cy: usize) -> ScalarMap {
        let mut d = ScalarMap::zeros(Rect::new(0.0, 0.0, 32.0, 32.0), 32, 32);
        let pattern = [
            [0.0, -0.5, -1.0, 0.0],
            [-0.5, 3.0, 1.5, -1.0],
            [-1.0, 2.0, 0.5, -0.5],
            [0.0, -1.0, -0.5, -1.0],
        ];
        let total: f64 = pattern.iter().flatten().sum();
        for (dy, row) in pattern.iter().enumerate() {
            for (dx, v) in row.iter().enumerate() {
                d.set(cx + dx - 1, cy + dy - 1, v - total / 16.0);
            }
        }
        d
    }

    #[test]
    fn shifting_an_interior_blob_shifts_its_field() {
        let solver = MultigridSolver { padding: 0.5, ..tight() };
        let base = solver.solve(&blob_at(12, 13));
        let shifted = solver.solve(&blob_at(16, 15));
        // Compare the 12×12 bins around the blob; the fixed Dirichlet box
        // is the only thing that does not move with it.
        let mut worst = 0.0f64;
        for iy in 7..19 {
            for ix in 6..18 {
                worst = worst
                    .max((shifted.fx().get(ix + 4, iy + 2) - base.fx().get(ix, iy)).abs())
                    .max((shifted.fy().get(ix + 4, iy + 2) - base.fy().get(ix, iy)).abs());
            }
        }
        assert!(worst <= 5e-4 * base.max_magnitude(), "shift error {worst}");
    }

    #[test]
    fn agrees_with_direct_solver_in_direction_and_magnitude() {
        // A smooth zero-charge source (a narrow Gaussian minus a wide
        // one), on which both discretizations approach the same
        // continuous field, and a rough random one.
        let n = 48;
        let mut smooth = ScalarMap::zeros(Rect::new(0.0, 0.0, 48.0, 48.0), n, n);
        for iy in 0..n {
            for ix in 0..n {
                let c = smooth.bin_center(ix, iy);
                let r2 = (c.x - 20.0).powi(2) + (c.y - 27.0).powi(2);
                smooth.set(ix, iy, (-r2 / 18.0).exp() - 0.25 * (-r2 / 72.0).exp());
            }
        }
        smooth.balance();
        for (d, solver, interior, max_rel_err) in [
            (smooth, MultigridSolver { padding: 2.0, ..tight() }, 8..40, 1e-2),
            (random_balanced_density(11, 24), MultigridSolver::new(), 3..21, 0.25),
        ] {
            let mg = solver.solve(&d);
            let direct = DirectSolver::new().solve(&d);
            // Compare over interior bins: cosine similarity of the force
            // vectors weighted by magnitude, plus relative L2 error.
            let (mut dot_sum, mut mg_sq, mut di_sq, mut err_sq) = (0.0, 0.0, 0.0, 0.0);
            for iy in interior.clone() {
                for ix in interior.clone() {
                    let c = d.bin_center(ix, iy);
                    let a = mg.force_at(c);
                    let b = direct.force_at(c);
                    dot_sum += a.dot(b);
                    mg_sq += a.norm_sq();
                    di_sq += b.norm_sq();
                    err_sq += (a - b).norm_sq();
                }
            }
            let cosine = dot_sum / (mg_sq.sqrt() * di_sq.sqrt());
            let rel_err = (err_sq / di_sq).sqrt();
            assert!(cosine > 0.95, "cosine similarity {cosine}");
            assert!(rel_err < max_rel_err, "relative error {rel_err}");
        }
    }

    #[test]
    fn zero_density_gives_zero_field() {
        let d = ScalarMap::zeros(Rect::new(0.0, 0.0, 4.0, 4.0), 8, 8);
        let f = MultigridSolver::new().solve(&d);
        assert_eq!(f.max_magnitude(), 0.0);
    }

    #[test]
    fn field_is_curl_free_up_to_discretization() {
        let d = random_balanced_density(5, 16);
        let f = MultigridSolver::new().solve(&d);
        let scale = f.max_magnitude() / d.dx();
        for iy in 2..14 {
            for ix in 2..14 {
                let c = f.curl_at(ix, iy).abs();
                assert!(c < 0.5 * scale, "curl {c} at ({ix},{iy})");
            }
        }
    }

    #[test]
    fn more_padding_changes_little_for_balanced_density() {
        // Because total charge is zero, the Dirichlet box position has a
        // modest effect; doubling the padding must not change the field
        // drastically (validates the open-boundary approximation).
        let d = random_balanced_density(3, 16);
        let near_pad = MultigridSolver::default().solve(&d);
        let far = MultigridSolver {
            padding: 2.0 * MultigridSolver::default().padding,
            ..MultigridSolver::default()
        }
        .solve(&d);
        let mut err = 0.0;
        let mut base = 0.0;
        for iy in 2..14 {
            for ix in 2..14 {
                let c = d.bin_center(ix, iy);
                err += (near_pad.force_at(c) - far.force_at(c)).norm_sq();
                base += far.force_at(c).norm_sq();
            }
        }
        assert!((err / base).sqrt() < 0.35, "padding sensitivity {}", (err / base).sqrt());
    }

    #[test]
    fn rectangular_density_regions_are_handled() {
        let mut d = ScalarMap::zeros(Rect::new(0.0, 0.0, 20.0, 5.0), 32, 8);
        d.set(16, 4, 1.0);
        d.balance();
        let f = MultigridSolver::new().solve(&d);
        assert!(f.max_magnitude() > 0.0);
        let left = f.force_at(Point::new(5.0, 2.5));
        assert!(left.x < 0.0, "expected push to the left, got {left}");
    }

    #[test]
    fn potential_map_samples_the_last_solve() {
        let solver = MultigridSolver::new();
        let mut ws = MultigridWorkspace::default();
        let d = random_balanced_density(11, 16);
        // Unused workspace: nothing to sample yet.
        assert!(solver.potential_map(&d, &ws).is_none());
        let mut out = ForceField::zeros(d.region(), d.nx(), d.ny());
        solver.solve_reusing(&d, &mut ws, &mut out);
        let phi = solver.potential_map(&d, &ws).expect("potential after solve");
        assert_eq!((phi.nx(), phi.ny()), (d.nx(), d.ny()));
        assert!(phi.is_finite());
        assert!(phi.max() > phi.min(), "non-trivial potential");
        // The exported potential's gradient must point with the force
        // field (F = ∇φ up to interpolation error): check a strong bin.
        let mut best = (0usize, 0usize);
        let mut best_mag = -1.0;
        for iy in 2..14 {
            for ix in 2..14 {
                let f = out.force_at(d.bin_center(ix, iy));
                if f.norm_sq() > best_mag {
                    best_mag = f.norm_sq();
                    best = (ix, iy);
                }
            }
        }
        let (ix, iy) = best;
        let gx = (phi.get(ix + 1, iy) - phi.get(ix - 1, iy)) / (2.0 * d.dx());
        let gy = (phi.get(ix, iy + 1) - phi.get(ix, iy - 1)) / (2.0 * d.dy());
        let f = out.force_at(d.bin_center(ix, iy));
        let dot = gx * f.x + gy * f.y;
        assert!(dot > 0.0, "potential gradient opposes the force field");
    }

    #[test]
    fn potential_map_refuses_a_different_geometry_with_the_same_vertex_count() {
        // The vertex count alone cannot identify the solve domain.
        let solver = MultigridSolver::new();
        let mut ws = MultigridWorkspace::default();
        let a = random_balanced_density(23, 16);
        let mut out = ForceField::zeros(a.region(), a.nx(), a.ny());
        solver.solve_reusing(&a, &mut ws, &mut out);
        assert!(solver.potential_map(&a, &ws).is_some());
        let mut b = ScalarMap::zeros(Rect::new(100.0, 50.0, 140.0, 90.0), 16, 16);
        b.set(3, 3, 1.0);
        b.balance();
        assert!(
            solver.potential_map(&b, &ws).is_none(),
            "same-vertex-count density over a different region must not sample the stale solve"
        );
        let repadded = MultigridSolver { padding: 1.0, ..MultigridSolver::new() };
        assert!(repadded.potential_map(&a, &ws).is_none());
    }

    #[test]
    fn solve_reusing_matches_solve_and_reuses_buffers() {
        // A one-block grid (m = 65) and one whose finest level fans out
        // over the halo buffer (m = 513; cycles capped to keep it quick).
        let capped = MultigridSolver { max_cycles: 3, ..MultigridSolver::new() };
        for (d, solver, m, fans_out) in [
            (random_balanced_density(7, 20), MultigridSolver::new(), 65, false),
            (random_balanced_density(8, 160), capped, 513, true),
        ] {
            let reference = solver.solve(&d);
            let mut ws = MultigridWorkspace::default();
            let mut out = ForceField::zeros(d.region(), d.nx(), d.ny());
            solver.solve_reusing(&d, &mut ws, &mut out);
            assert_eq!(out, reference, "in-place solve diverged from solve()");
            assert_eq!(ws.saved.map(|s| s.grid.m), Some(m));
            assert_eq!(ws.halo.capacity() > 0, fans_out, "halo rows only for fanned-out levels");
            // Second solve with the same workspace must not regrow any buffer.
            let caps = |ws: &MultigridWorkspace| {
                (
                    ws.rhs.capacity(),
                    ws.phi.capacity(),
                    ws.resid.capacity(),
                    ws.depth.len(),
                    ws.halo.capacity(),
                )
            };
            let before = caps(&ws);
            solver.solve_reusing(&d, &mut ws, &mut out);
            assert_eq!(before, caps(&ws));
            assert_eq!(out, reference);
        }
    }

    #[test]
    fn solve_reusing_matches_the_row_major_vcycle_bit_for_bit() {
        // Bins per side giving each kernel-test grid size; on the two
        // largest the finest levels fan out over the worker pool. Their
        // cycles are capped to keep the test quick; the smaller ones run
        // to the tolerance, so the stopping decision is compared too.
        let sizes = [(2, 9, 30), (11, 33, 30), (43, 129, 30), (171, 513, 4), (320, 1025, 2)];
        for (bins, m, max_cycles) in sizes {
            let d = random_balanced_density(m as u64, bins);
            let solver = MultigridSolver { tolerance: 1e-6, max_cycles, ..MultigridSolver::new() };
            let grid = SolveGrid::for_density(&d, solver.padding);
            assert_eq!(grid.m, m, "{bins} bins");
            let mut rhs = Vec::new();
            grid::deposit_rhs(&d, &grid, &mut rhs);
            let rhs = to_row_major(m, &rhs);
            let phi = reference::solve(m, grid.h, &rhs, solver.tolerance, max_cycles);
            let phi = to_layout(m, &phi);
            let mut expected = ForceField::zeros(d.region(), d.nx(), d.ny());
            grid::write_forces(&phi, &grid, &d, &mut expected);
            for threads in THREAD_COUNTS {
                let (got_phi, got) = at_threads(threads, || {
                    let mut ws = MultigridWorkspace::default();
                    let mut out = ForceField::zeros(d.region(), d.nx(), d.ny());
                    solver.solve_reusing(&d, &mut ws, &mut out);
                    (ws.phi, out)
                });
                let what = format!("m = {m} at {threads} threads");
                assert!(bits(&got_phi) == bits(&phi), "{what}: the potential differs");
                for (got, want) in [(got.fx(), expected.fx()), (got.fy(), expected.fy())] {
                    assert!(
                        bits(got.values()) == bits(want.values()),
                        "{what}: the forces differ from the row-major V-cycle's"
                    );
                }
            }
        }
    }
}
