//! Exact superposition evaluation of equation (9).

use crate::field::ForceField;
use crate::map::ScalarMap;

/// Evaluates the closed-form integral of equation (9) as a discrete
/// superposition sum over bins:
///
/// ```text
/// f(r_i) = 1/(2π) Σ_j D_j · A_bin · (r_i - r_j) / |r_i - r_j|²
/// ```
///
/// This matches the paper's interpretation in section 3.4 — every bin with
/// positive density deviation repels, every bin with negative deviation
/// attracts, with strength proportional to the inverse distance — and is
/// the *reference* implementation: `O(bins²)`, exact free-space boundary
/// behaviour, used to validate [`crate::MultigridSolver`] and in the
/// ablation benchmarks.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectSolver {
    _private: (),
}

impl DirectSolver {
    /// Creates the solver.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes the (unscaled, `k = 1`) force field of a density map by
    /// the superposition sum above.
    #[must_use]
    pub fn solve(&self, density: &ScalarMap) -> ForceField {
        let nx = density.nx();
        let ny = density.ny();
        let region = density.region();
        let bin_area = density.dx() * density.dy();
        let mut fx = ScalarMap::zeros(region, nx, ny);
        let mut fy = ScalarMap::zeros(region, nx, ny);

        // Precompute source positions and charges, skipping zero bins.
        let mut sources: Vec<(f64, f64, f64)> = Vec::new();
        for iy in 0..ny {
            for ix in 0..nx {
                let d = density.get(ix, iy);
                if d != 0.0 {
                    let c = density.bin_center(ix, iy);
                    sources.push((c.x, c.y, d * bin_area / (2.0 * std::f64::consts::PI)));
                }
            }
        }

        for iy in 0..ny {
            for ix in 0..nx {
                let c = density.bin_center(ix, iy);
                let mut ax = 0.0;
                let mut ay = 0.0;
                for &(sx, sy, q) in &sources {
                    let dx = c.x - sx;
                    let dy = c.y - sy;
                    let r2 = dx * dx + dy * dy;
                    if r2 < 1e-12 {
                        continue; // self term: zero by symmetry
                    }
                    let w = q / r2;
                    ax += w * dx;
                    ay += w * dy;
                }
                fx.set(ix, iy, ax);
                fy.set(ix, iy, ay);
            }
        }
        ForceField::new(fx, fy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kraftwerk_geom::{Point, Rect, Vector};

    /// A single positive source in the middle of an otherwise balanced
    /// map (one source bin, uniform negative elsewhere).
    fn point_source(n: usize) -> ScalarMap {
        let mut d = ScalarMap::zeros(Rect::new(0.0, 0.0, 10.0, 10.0), n, n);
        d.set(n / 2, n / 2, 1.0);
        d.balance();
        d
    }

    #[test]
    fn forces_point_away_from_a_source() {
        let d = point_source(17);
        let f = DirectSolver::new().solve(&d);
        let center = Point::new(10.0 * (0.5 + 8.0) / 17.0, 10.0 * (0.5 + 8.0) / 17.0);
        for probe in [
            Point::new(2.0, 5.0),
            Point::new(8.0, 5.0),
            Point::new(5.0, 2.0),
            Point::new(5.0, 8.5),
            Point::new(2.0, 2.0),
        ] {
            let force = f.force_at(probe);
            let outward = probe - center;
            assert!(
                force.dot(outward) > 0.0,
                "force {force} at {probe} not outward"
            );
        }
    }

    #[test]
    fn field_is_antisymmetric_around_a_centered_source() {
        let d = point_source(17);
        let f = DirectSolver::new().solve(&d);
        let left = f.force_at(Point::new(3.0, 5.0)); // at mirror points
        let right = f.force_at(Point::new(7.0, 5.0));
        assert!((left.x + right.x).abs() < 1e-9, "{left} vs {right}");
        assert!((left.y - right.y).abs() < 1e-9);
    }

    #[test]
    fn force_decays_with_distance() {
        let d = point_source(33);
        let f = DirectSolver::new().solve(&d);
        let near = f.force_at(Point::new(6.5, 5.0)).norm();
        let far = f.force_at(Point::new(9.5, 5.0)).norm();
        assert!(near > far, "near {near} far {far}");
    }

    #[test]
    fn field_is_curl_free_up_to_discretization() {
        let mut d = ScalarMap::zeros(Rect::new(0.0, 0.0, 10.0, 10.0), 16, 16);
        d.set(3, 4, 1.0);
        d.set(11, 12, 0.7);
        d.set(8, 2, 0.4);
        d.balance();
        let f = DirectSolver::new().solve(&d);
        let scale = f.max_magnitude() / d.dx();
        for iy in 2..14 {
            for ix in 2..14 {
                // Stay away from the singular source bins.
                if (ix as i64 - 3).abs() <= 1 && (iy as i64 - 4).abs() <= 1 {
                    continue;
                }
                if (ix as i64 - 11).abs() <= 1 && (iy as i64 - 12).abs() <= 1 {
                    continue;
                }
                if (ix as i64 - 8).abs() <= 1 && (iy as i64 - 2).abs() <= 1 {
                    continue;
                }
                let c = f.curl_at(ix, iy).abs();
                assert!(c < 0.25 * scale, "curl {c} too large at ({ix},{iy})");
            }
        }
    }

    #[test]
    fn divergence_has_the_density_sign() {
        let d = point_source(17);
        let f = DirectSolver::new().solve(&d);
        // At the source bin the divergence is positive, in the far empty
        // region it is negative (sinks).
        assert!(f.divergence_at(8, 8) > 0.0);
        assert!(f.divergence_at(2, 2) < 0.0);
    }

    #[test]
    fn zero_density_gives_zero_field() {
        let d = ScalarMap::zeros(Rect::new(0.0, 0.0, 4.0, 4.0), 8, 8);
        let f = DirectSolver::new().solve(&d);
        assert_eq!(f.max_magnitude(), 0.0);
        assert_eq!(f.force_at(Point::new(2.0, 2.0)), Vector::ZERO);
    }

    #[test]
    fn two_equal_sources_cancel_at_the_midpoint() {
        let mut d = ScalarMap::zeros(Rect::new(0.0, 0.0, 10.0, 10.0), 21, 21);
        d.set(5, 10, 1.0);
        d.set(15, 10, 1.0);
        d.balance();
        let f = DirectSolver::new().solve(&d);
        let mid = f.force_at(Point::new(5.0, 5.0)); // between the two peaks
        assert!(mid.x.abs() < 1e-9, "x force {mid} should cancel");
    }
}
