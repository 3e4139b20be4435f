//! Congestion- and heat-driven placement inputs (section 5 of the paper).
//!
//! The paper extends the supply/demand density model with a congestion
//! map from a routing estimation, and notes the same mechanism handles a
//! heat map. This crate provides both map builders:
//!
//! * [`routing_demand_map`] — probabilistic routing estimation: every
//!   net's wire demand is spread uniformly over its bounding box (the
//!   standard stand-in for a global router);
//! * [`congestion_map`] — demand normalized by per-bin routing capacity,
//!   as overflow (0 where routable);
//! * [`thermal_map`] — steady-state temperature from per-cell switching
//!   power via a Poisson/diffusion solve with an ambient (zero) boundary;
//! * [`demand_for_session`] — packages either map as the zero-integral
//!   supply/demand term that `PlacementSession::set_demand_map` expects.
//!
//! ```
//! use kraftwerk_congestion::{routing_demand_map, congestion_map};
//! use kraftwerk_netlist::synth::{generate, SynthConfig};
//!
//! let nl = generate(&SynthConfig::with_size("cg", 120, 150, 6));
//! let p = nl.initial_placement();
//! let demand = routing_demand_map(&nl, &p, 16, 8);
//! assert!(demand.max() > 0.0);
//! let overflow = congestion_map(&nl, &p, 16, 8, 4.0);
//! assert!(overflow.min() >= 0.0);
//! ```

pub mod router;

use kraftwerk_field::ScalarMap;
use kraftwerk_geom::Rect;
use kraftwerk_netlist::{metrics, Netlist, Placement};

/// Probabilistic routing demand: each net deposits its half-perimeter
/// wire length uniformly over its bounding box. Bin values are wire
/// length per unit area (dimensionless track demand density).
#[must_use]
pub fn routing_demand_map(
    netlist: &Netlist,
    placement: &Placement,
    nx: usize,
    ny: usize,
) -> ScalarMap {
    let core = netlist.core_region();
    let mut map = ScalarMap::zeros(core, nx, ny);
    let min_extent = (map.dx().min(map.dy())) * 0.5;
    for net in netlist.net_ids() {
        let bbox = metrics::net_bounding_box(netlist, placement, net);
        let Some(rect) = bbox.rect() else { continue };
        let demand = rect.half_perimeter();
        if demand <= 0.0 {
            continue;
        }
        // Inflate degenerate boxes so point-like nets still register.
        let rect = Rect::new(
            rect.x_lo,
            rect.y_lo,
            rect.x_hi.max(rect.x_lo + min_extent),
            rect.y_hi.max(rect.y_lo + min_extent),
        );
        // deposit_rect spreads `density * overlap_area / bin_area`; we
        // want total `demand` spread over the rect.
        map.deposit_rect(&rect, demand / rect.area());
    }
    map
}

/// Congestion overflow map: routing demand relative to a uniform per-bin
/// capacity of `tracks_per_unit` wire length per unit area; bin values
/// are `max(0, demand/capacity − 1)`.
#[must_use]
pub fn congestion_map(
    netlist: &Netlist,
    placement: &Placement,
    nx: usize,
    ny: usize,
    tracks_per_unit: f64,
) -> ScalarMap {
    let demand = routing_demand_map(netlist, placement, nx, ny);
    let mut out = ScalarMap::zeros(netlist.core_region(), nx, ny);
    for iy in 0..ny {
        for ix in 0..nx {
            let over = (demand.get(ix, iy) / tracks_per_unit - 1.0).max(0.0);
            out.set(ix, iy, over);
        }
    }
    out
}

/// Total overflow (sum of positive congestion over all bins, weighted by
/// bin area) — the scalar the congestion-driven experiments minimize.
#[must_use]
pub fn total_overflow(map: &ScalarMap) -> f64 {
    map.values().iter().filter(|v| **v > 0.0).sum::<f64>() * map.dx() * map.dy()
}

/// Steady-state thermal map: per-cell switching power deposited on the
/// grid, then `−∇²T = P` solved by Gauss–Seidel with an ambient (zero
/// Dirichlet) boundary. Values are temperatures above ambient in
/// arbitrary units; the *shape* (where the hot spots are) is what the
/// heat-driven placement mode consumes.
#[must_use]
pub fn thermal_map(
    netlist: &Netlist,
    placement: &Placement,
    nx: usize,
    ny: usize,
) -> ScalarMap {
    let core = netlist.core_region();
    let mut power = ScalarMap::zeros(core, nx, ny);
    for (id, cell) in netlist.movable_cells() {
        if cell.power() <= 0.0 {
            continue;
        }
        let r = placement.cell_rect(id, cell.size());
        let clipped = r.intersection(&core).unwrap_or_else(|| {
            // Escaped cell: attribute its power to the nearest bin.
            let c = core.clamp_point(r.center());
            let (ix, iy) = power.bin_of(c);
            power.bin_rect(ix, iy)
        });
        power.deposit_rect(&clipped, cell.power() / clipped.area());
    }
    // Gauss-Seidel on -lap(T) = P, h normalized to 1 per bin.
    let mut temp = ScalarMap::zeros(core, nx, ny);
    let sweeps = 4 * (nx + ny);
    for _ in 0..sweeps {
        for iy in 0..ny {
            for ix in 0..nx {
                let left = if ix > 0 { temp.get(ix - 1, iy) } else { 0.0 };
                let right = if ix + 1 < nx { temp.get(ix + 1, iy) } else { 0.0 };
                let down = if iy > 0 { temp.get(ix, iy - 1) } else { 0.0 };
                let up = if iy + 1 < ny { temp.get(ix, iy + 1) } else { 0.0 };
                temp.set(ix, iy, 0.25 * (left + right + down + up + power.get(ix, iy)));
            }
        }
    }
    temp
}

/// Peak of a map (convenience for hot-spot reporting).
#[must_use]
pub fn peak(map: &ScalarMap) -> f64 {
    map.max()
}

/// Converts a congestion or thermal map into the zero-integral demand
/// term [`kraftwerk_core::PlacementSession::set_demand_map`] expects:
/// normalized to unit peak and balanced. The session blends it into the
/// cell density, so forces push cells out of congested/hot regions.
///
/// [`kraftwerk_core::PlacementSession::set_demand_map`]:
///     https://docs.rs/kraftwerk-core
#[must_use]
pub fn demand_for_session(map: &ScalarMap) -> ScalarMap {
    let mut out = map.clone();
    let peak = out.max().abs().max(1e-12);
    out.scale(1.0 / peak);
    out.balance();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kraftwerk_geom::Point;
    use kraftwerk_netlist::synth::{generate, SynthConfig};

    fn circuit() -> (Netlist, Placement) {
        let nl = generate(&SynthConfig::with_size("cg", 200, 260, 8));
        let p = nl.initial_placement();
        (nl, p)
    }

    #[test]
    fn demand_concentrates_where_nets_are() {
        let (nl, p) = circuit();
        // All cells at the center: demand peaks in central bins.
        let map = routing_demand_map(&nl, &p, 16, 8);
        let center = nl.core_region().center();
        let (cx, cy) = map.bin_of(center);
        let center_demand = map.get(cx, cy);
        let corner_demand = map.get(0, 0);
        assert!(
            center_demand > corner_demand,
            "center {center_demand} corner {corner_demand}"
        );
    }

    #[test]
    fn demand_total_tracks_wire_length() {
        let (nl, p) = circuit();
        let map = routing_demand_map(&nl, &p, 20, 10);
        let hpwl = metrics::hpwl(&nl, &p);
        let integral = map.integral();
        // Deposits are clipped to the core; with a piled placement most
        // demand lands inside, so the integral approximates total HPWL.
        assert!(integral > 0.3 * hpwl && integral < 1.5 * hpwl,
            "integral {integral} vs hpwl {hpwl}");
    }

    #[test]
    fn congestion_is_zero_with_generous_capacity() {
        let (nl, p) = circuit();
        let map = congestion_map(&nl, &p, 16, 8, 1e9);
        assert_eq!(map.max(), 0.0);
        assert_eq!(total_overflow(&map), 0.0);
    }

    #[test]
    fn congestion_appears_with_scarce_capacity() {
        let (nl, p) = circuit();
        let map = congestion_map(&nl, &p, 16, 8, 1e-6);
        assert!(map.max() > 0.0);
        assert!(total_overflow(&map) > 0.0);
    }

    #[test]
    fn thermal_map_peaks_at_the_power_cluster() {
        let (nl, p) = circuit(); // all cells (and their power) at center
        let t = thermal_map(&nl, &p, 16, 8);
        let (cx, cy) = t.bin_of(nl.core_region().center());
        assert!(t.get(cx, cy) > t.get(0, 0));
        assert!(t.get(cx, cy) > 0.0);
        // Ambient boundary keeps edges cool.
        assert!(t.get(0, 0) < 0.5 * t.get(cx, cy));
    }

    #[test]
    fn thermal_map_is_nonnegative_and_smooth() {
        let (nl, p) = circuit();
        let t = thermal_map(&nl, &p, 12, 6);
        assert!(t.min() >= 0.0);
        // Smoothness: neighboring bins differ by less than the peak.
        for iy in 0..6 {
            for ix in 1..12 {
                assert!((t.get(ix, iy) - t.get(ix - 1, iy)).abs() <= t.max());
            }
        }
    }

    #[test]
    fn demand_for_session_is_balanced_and_normalized() {
        let (nl, p) = circuit();
        let map = thermal_map(&nl, &p, 16, 8);
        let demand = demand_for_session(&map);
        assert!(demand.mean().abs() < 1e-12);
        assert!(demand.max() <= 1.0 + 1e-9);
    }

    #[test]
    fn heat_driven_placement_reduces_peak_temperature() {
        // The paper's claim: replacing the congestion map with a heat map
        // avoids hot spots. Compare peak temperature of a plain placement
        // vs one with the thermal demand injected.
        use kraftwerk_core::{KraftwerkConfig, PlacementSession};
        let nl = generate(&SynthConfig::with_size("heat", 300, 380, 8));
        let cfg = KraftwerkConfig::standard();

        let plain = kraftwerk_core::GlobalPlacer::new(cfg.clone())
            .try_place(&nl)
            .expect("placement");
        let (nx, ny) = PlacementSession::new(&nl, cfg.clone()).grid_dims();
        let plain_peak = peak(&thermal_map(&nl, &plain.placement, nx, ny));

        let mut session = PlacementSession::new(&nl, cfg);
        for _ in 0..40 {
            let t = thermal_map(&nl, session.placement(), nx, ny);
            session
                .set_demand_map(demand_for_session(&t), 0.5)
                .expect("thermal map uses grid_dims");
            session.try_transform().expect("transformation");
            if session.is_converged() {
                break;
            }
        }
        let hot_peak = peak(&thermal_map(&nl, session.placement(), nx, ny));
        assert!(
            hot_peak < plain_peak * 1.05,
            "heat-driven peak {hot_peak:.3} vs plain {plain_peak:.3}"
        );
    }

    #[test]
    fn maps_handle_escaped_cells() {
        let (nl, mut p) = circuit();
        for id in nl.cell_ids() {
            p.set_position(id, Point::new(-1e4, -1e4));
        }
        let t = thermal_map(&nl, &p, 8, 8);
        assert!(t.values().iter().all(|v| v.is_finite()));
        let d = routing_demand_map(&nl, &p, 8, 8);
        assert!(d.values().iter().all(|v| v.is_finite()));
    }
}
