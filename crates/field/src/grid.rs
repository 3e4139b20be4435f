//! Solve-grid geometry for the multigrid Poisson solver.
//!
//! This module fixes *what* discrete system is solved: the padded
//! zero-Dirichlet domain, its vertex count, the bilinear charge deposit
//! and the force/potential sampling. The V-cycle in `multigrid` only
//! decides *how* it is solved.

use crate::field::ForceField;
use crate::map::ScalarMap;
use kraftwerk_geom::{Point, Rect, Size};

/// Storage slot of vertex `(i, j)` on an `m × m` grid (`m` odd): rows in
/// order, and within row `j` its `⌈m/2⌉` even columns first, then its
/// odd ones — `j·m + i/2` for even `i`, `j·m + ⌈m/2⌉ + i/2` for odd `i`.
///
/// A red-black color pass updates every second vertex of a row; in this
/// layout those vertices are one contiguous run, and so are the other
/// color's neighbours they read, so the V-cycle's kernels are unit-stride
/// loops. Every kernel computes each vertex with the expression and
/// operand order of the row-major kernels it replaced, so the fields are
/// bitwise theirs.
#[inline]
pub(crate) fn idx(m: usize, i: usize, j: usize) -> usize {
    let col = if i.is_multiple_of(2) { i / 2 } else { m.div_ceil(2) + i / 2 };
    j * m + col
}

/// Bilinear cell lookup with the coordinate clamped into the grid
/// *before* the fractional split.
///
/// `f` is a vertex-space coordinate (`(x - domain_lo) / h`). The earlier
/// formulation floored first and patched the index and weight up
/// separately afterwards; clamping `f` into `[0, m-1]` up front makes the
/// invariant direct — the returned cell satisfies `i0 ≤ m-2` and the
/// weight `t ∈ [0, 1]` for every finite input, including points outside
/// the solve domain, so bilinear weights can never go negative and
/// extrapolated forces can never flip sign. In-domain coordinates take
/// the identical code path as before (the clamp is a no-op), keeping the
/// multigrid backend bit-for-bit unchanged.
#[inline]
pub(crate) fn bilinear_cell(f: f64, m: usize) -> (usize, f64) {
    let f = f.clamp(0.0, (m - 1) as f64);
    let i0 = (f as usize).min(m - 2);
    let t = (f - i0 as f64).clamp(0.0, 1.0);
    (i0, t)
}

/// The square solve domain: `m` vertices per side (`m = 2^k + 1`) with
/// spacing `h`, spanning a padded zero-Dirichlet box centered on the
/// density region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SolveGrid {
    /// Padded solve domain (the zero-Dirichlet box).
    pub domain: Rect,
    /// Vertices per side.
    pub m: usize,
    /// Vertex spacing.
    pub h: f64,
}

impl SolveGrid {
    /// Picks the solve domain and vertex count for `density`: the domain
    /// pads the density region by `padding × extent` on each side, and the
    /// grid has the `2^k + 1` vertices per side whose `2^k` is nearest, in
    /// ratio, to 2 vertices per density bin across that domain (`log2`
    /// rounded, `k ≥ 3`). The spreading force only has to resolve the
    /// bins, so the grid lands within a factor √2 of 2 vertices per bin:
    /// at the default quarter-extent padding, √2 to 2√2 vertices per bin
    /// across the core, and 513 vertices per side for the placement
    /// session's largest map (192 bins).
    pub(crate) fn for_density(density: &ScalarMap, padding: f64) -> Self {
        let region = density.region();
        let extent = region.width().max(region.height());
        let pad = padding * extent;
        let side = extent + 2.0 * pad;
        let domain = Rect::from_center(region.center(), Size::new(side, side));
        let bins_across = density.nx().max(density.ny()) as f64;
        let want = 2.0 * bins_across * side / extent;
        let k = want.log2().round().max(3.0) as u32;
        let pow2 = 1usize << k;
        let m = pow2 + 1;
        let h = side / pow2 as f64;
        Self { domain, m, h }
    }
}

/// The geometry and solver parameters a workspace's saved potential was
/// solved with.
///
/// `potential_map` validates the caller's density against this record
/// instead of guessing the geometry back from `phi.len()`. Reconstruction
/// from the vertex count alone aliases: two densities over different
/// regions with the same bin counts produce the same `m`, in which case a
/// saved potential would silently be resampled on the wrong domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SavedSolve {
    /// The grid the saved potential was solved on.
    pub grid: SolveGrid,
    /// `padding` of the solver that ran the solve.
    pub padding: f64,
}

impl SavedSolve {
    /// True when a query for `density` through a solver configured with
    /// `padding` refers to the same discrete system this record was solved
    /// on — i.e. the query would rebuild the identical [`SolveGrid`] with
    /// the identical parameters.
    pub(crate) fn matches(&self, density: &ScalarMap, padding: f64) -> bool {
        padding == self.padding && SolveGrid::for_density(density, padding) == self.grid
    }
}

/// Deposits bin charges bilinearly onto the grid vertices as the Poisson
/// right-hand side. Each bin carries total charge `D · bin_area`; a
/// vertex sample of the RHS must be `charge / h²` to make the discrete
/// delta integrate correctly. Resizes `rhs` to `m × m` and zeroes the
/// Dirichlet boundary afterwards.
pub(crate) fn deposit_rhs(density: &ScalarMap, grid: &SolveGrid, rhs: &mut Vec<f64>) {
    let SolveGrid { domain, m, h } = *grid;
    rhs.clear();
    rhs.resize(m * m, 0.0);
    let bin_area = density.dx() * density.dy();
    for iy in 0..density.ny() {
        for ix in 0..density.nx() {
            let d = density.get(ix, iy);
            if d == 0.0 {
                continue;
            }
            let c = density.bin_center(ix, iy);
            let (i0, tx) = bilinear_cell((c.x - domain.x_lo) / h, m);
            let (j0, ty) = bilinear_cell((c.y - domain.y_lo) / h, m);
            let q = d * bin_area / (h * h);
            rhs[idx(m, i0, j0)] += q * (1.0 - tx) * (1.0 - ty);
            rhs[idx(m, i0 + 1, j0)] += q * tx * (1.0 - ty);
            rhs[idx(m, i0, j0 + 1)] += q * (1.0 - tx) * ty;
            rhs[idx(m, i0 + 1, j0 + 1)] += q * tx * ty;
        }
    }
    // Zero Dirichlet: clear boundary contributions.
    for i in 0..m {
        rhs[idx(m, i, 0)] = 0.0;
        rhs[idx(m, i, m - 1)] = 0.0;
        rhs[idx(m, 0, i)] = 0.0;
        rhs[idx(m, m - 1, i)] = 0.0;
    }
}

/// Evaluates the force `f = ∇φ` at the density bin centers: central
/// differences at the vertices, bilinearly interpolated between the four
/// surrounding vertex gradients — smoother than nearest-vertex sampling
/// and what keeps the field continuous across bins. Reshapes `out` to the
/// density grid.
pub(crate) fn write_forces(
    phi: &[f64],
    grid: &SolveGrid,
    density: &ScalarMap,
    out: &mut ForceField,
) {
    let SolveGrid { domain, m, h } = *grid;
    let vertex_grad = |i: usize, j: usize| -> (f64, f64) {
        let i = i.clamp(1, m - 2);
        let j = j.clamp(1, m - 2);
        (
            (phi[idx(m, i + 1, j)] - phi[idx(m, i - 1, j)]) / (2.0 * h),
            (phi[idx(m, i, j + 1)] - phi[idx(m, i, j - 1)]) / (2.0 * h),
        )
    };
    let grad = |p: Point| -> (f64, f64) {
        let (i0, tx) = bilinear_cell((p.x - domain.x_lo) / h, m);
        let (j0, ty) = bilinear_cell((p.y - domain.y_lo) / h, m);
        let (g00x, g00y) = vertex_grad(i0, j0);
        let (g10x, g10y) = vertex_grad(i0 + 1, j0);
        let (g01x, g01y) = vertex_grad(i0, j0 + 1);
        let (g11x, g11y) = vertex_grad(i0 + 1, j0 + 1);
        let gx = g00x * (1.0 - tx) * (1.0 - ty)
            + g10x * tx * (1.0 - ty)
            + g01x * (1.0 - tx) * ty
            + g11x * tx * ty;
        let gy = g00y * (1.0 - tx) * (1.0 - ty)
            + g10y * tx * (1.0 - ty)
            + g01y * (1.0 - tx) * ty
            + g11y * tx * ty;
        (gx, gy)
    };
    out.reset(density.region(), density.nx(), density.ny());
    for iy in 0..density.ny() {
        for ix in 0..density.nx() {
            let (gx, gy) = grad(density.bin_center(ix, iy));
            out.set_bin(ix, iy, gx, gy);
        }
    }
}

/// Samples the vertex potential `phi` bilinearly at the density bin
/// centers. This is the export behind the `potential` field snapshots.
pub(crate) fn sample_potential(phi: &[f64], grid: &SolveGrid, density: &ScalarMap) -> ScalarMap {
    let SolveGrid { domain, m, h } = *grid;
    let mut out = ScalarMap::zeros(density.region(), density.nx(), density.ny());
    for iy in 0..density.ny() {
        for ix in 0..density.nx() {
            let c = density.bin_center(ix, iy);
            let (i0, tx) = bilinear_cell((c.x - domain.x_lo) / h, m);
            let (j0, ty) = bilinear_cell((c.y - domain.y_lo) / h, m);
            let v = phi[idx(m, i0, j0)] * (1.0 - tx) * (1.0 - ty)
                + phi[idx(m, i0 + 1, j0)] * tx * (1.0 - ty)
                + phi[idx(m, i0, j0 + 1)] * (1.0 - tx) * ty
                + phi[idx(m, i0 + 1, j0 + 1)] * tx * ty;
            out.set(ix, iy, v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bilinear_cell_weights_stay_in_range_outside_the_domain() {
        // Coordinates left of / below the grid (negative vertex-space f)
        // used to produce index 0 via the saturating cast while the raw
        // fractional part went negative; clamp-first keeps the weight in
        // [0, 1] and the cell in range for any finite input.
        for m in [9usize, 17, 129] {
            for f in [-1e9, -3.7, -1e-12, 0.0, 0.4, 1.0, (m - 1) as f64, (m - 1) as f64 + 7.3] {
                let (i0, t) = bilinear_cell(f, m);
                assert!(i0 <= m - 2, "cell {i0} out of range for f={f}, m={m}");
                assert!((0.0..=1.0).contains(&t), "weight {t} out of range for f={f}, m={m}");
            }
        }
        // In-domain coordinates are bitwise identical to the old
        // floor-then-clamp formulation.
        let m = 33;
        for f in [0.0, 0.25, 7.5, 31.999, 32.0] {
            let (i0, t) = bilinear_cell(f, m);
            let old_i0 = (f.floor() as usize).clamp(0, m - 2);
            let old_t = (f - old_i0 as f64).clamp(0.0, 1.0);
            assert_eq!((i0, t), (old_i0, old_t));
        }
    }

    #[test]
    fn sampling_outside_the_core_region_stays_a_convex_combination() {
        // Regression for the boundary-sampling bug: a fixed cell sitting
        // just outside the core region must see interpolated values that
        // are convex combinations of the vertex potentials — negative
        // weights would let the sample escape [min φ, max φ] and flip
        // the sign of extrapolated forces.
        let d = ScalarMap::zeros(Rect::new(0.0, 0.0, 10.0, 10.0), 16, 16);
        let g = SolveGrid::for_density(&d, 0.5);
        let phi: Vec<f64> = (0..g.m * g.m).map(|k| (k % 7) as f64 - 3.0).collect();
        let (lo, hi) = (-3.0, 3.0);
        for p in [
            Point::new(d.region().x_lo - 0.75, 5.0), // just left of the core
            Point::new(5.0, d.region().y_lo - 0.75), // just below the core
            Point::new(g.domain.x_lo - 2.0, g.domain.y_lo - 2.0), // outside the solve box
        ] {
            let (i0, tx) = bilinear_cell((p.x - g.domain.x_lo) / g.h, g.m);
            let (j0, ty) = bilinear_cell((p.y - g.domain.y_lo) / g.h, g.m);
            let v = phi[idx(g.m, i0, j0)] * (1.0 - tx) * (1.0 - ty)
                + phi[idx(g.m, i0 + 1, j0)] * tx * (1.0 - ty)
                + phi[idx(g.m, i0, j0 + 1)] * (1.0 - tx) * ty
                + phi[idx(g.m, i0 + 1, j0 + 1)] * tx * ty;
            assert!((lo..=hi).contains(&v), "sample {v} escaped [{lo}, {hi}] at {p}");
        }
    }

    #[test]
    fn saved_solve_matches_only_the_original_system() {
        let d = ScalarMap::zeros(kraftwerk_geom::Rect::new(0.0, 0.0, 10.0, 4.0), 24, 10);
        let saved = SavedSolve { grid: SolveGrid::for_density(&d, 0.5), padding: 0.5 };
        assert!(saved.matches(&d, 0.5));
        // Same vertex count over a different region: a from-scratch
        // reconstruction cannot tell these apart, the record can.
        let elsewhere = ScalarMap::zeros(kraftwerk_geom::Rect::new(50.0, 0.0, 60.0, 4.0), 24, 10);
        assert_eq!(
            SolveGrid::for_density(&elsewhere, 0.5).m,
            saved.grid.m,
            "aliasing precondition: equal vertex counts"
        );
        assert!(!saved.matches(&elsewhere, 0.5));
        // A different padding is a different discrete system even for the
        // original density.
        assert!(!saved.matches(&d, 1.0));
    }

    #[test]
    fn the_grid_is_the_power_of_two_nearest_two_vertices_per_bin() {
        let padding = crate::MultigridSolver::default().padding;
        let grid = |bins: usize| {
            let d = ScalarMap::zeros(Rect::new(0.0, 0.0, 10.0, 10.0), bins, bins);
            SolveGrid::for_density(&d, padding)
        };
        // Standard-mode bins (2·√cells) of the five MCNC-scale circuits,
        // the daemon pool's range, the session's 192-bin clamp, and the
        // 2³ + 1 floor.
        for (bins, m) in [
            (22, 65),
            (58, 129),
            (88, 257),
            (110, 257),
            (160, 513),
            (192, 513),
            (30, 65),
            (49, 129),
            (1, 9),
        ] {
            assert_eq!(grid(bins).m, m, "{bins} bins");
        }
        // Vertices per bin across the core stay within a factor √2 of 2.
        let root2 = std::f64::consts::SQRT_2;
        for bins in 8..=400 {
            let g = grid(bins);
            let per_bin = 10.0 / g.h / bins as f64;
            assert!(
                (root2..=2.0 * root2).contains(&per_bin),
                "{bins} bins: {per_bin} vertices per bin on m = {}",
                g.m
            );
            assert_eq!((g.m - 1).count_ones(), 1, "{bins} bins: m = {} is not 2^k + 1", g.m);
        }
    }
}
