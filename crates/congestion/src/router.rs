//! A grid-based global router.
//!
//! The paper's congestion-driven mode presumes "a routing estimation is
//! executed" before each transformation. The probabilistic bounding-box
//! estimator in the crate root is the cheap stand-in; this module provides
//! the real thing: a pattern-routing global router with capacities,
//! congestion-aware cost, and rip-up-and-reroute — enough to *validate*
//! the estimator and to measure true overflow in the experiments.
//!
//! Model: the core is divided into `nx x ny` global routing cells
//! (GCells); horizontal and vertical edges between adjacent GCells carry
//! wire capacity. Multi-pin nets are decomposed into two-pin connections
//! by a Manhattan minimum spanning tree; each connection is routed with
//! the cheapest L- or Z-shaped pattern under a congestion-aware edge
//! cost; a few rip-up-and-reroute passes re-route the nets crossing
//! overflowed edges with escalating history costs (negotiated congestion
//! in miniature).
//!
//! ```
//! use kraftwerk_congestion::router::{route, RouterConfig};
//! use kraftwerk_netlist::synth::{generate, SynthConfig};
//!
//! let nl = generate(&SynthConfig::with_size("rt", 120, 150, 6));
//! let result = route(&nl, &nl.initial_placement(), 16, 8, &RouterConfig::default());
//! assert!(result.wirelength > 0.0);
//! ```

use crate::ScalarMap;
use kraftwerk_geom::Point;
use kraftwerk_netlist::{Netlist, Placement};

/// Router parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterConfig {
    /// Wire capacity of each horizontal GCell edge (tracks).
    pub capacity_h: f64,
    /// Wire capacity of each vertical GCell edge (tracks).
    pub capacity_v: f64,
    /// Rip-up-and-reroute passes after the initial routing.
    pub reroute_passes: usize,
    /// Cost escalation per unit of overflow (the "negotiation" pressure).
    pub overflow_penalty: f64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            capacity_h: 20.0,
            capacity_v: 20.0,
            reroute_passes: 3,
            overflow_penalty: 8.0,
        }
    }
}

/// Edge usage state of the routing grid.
#[derive(Debug, Clone)]
pub struct RoutingGrid {
    nx: usize,
    ny: usize,
    /// Usage of horizontal edges: `(nx-1) * ny`, index `iy*(nx-1)+ix` for
    /// the edge between `(ix,iy)` and `(ix+1,iy)`.
    h_usage: Vec<f64>,
    /// Usage of vertical edges: `nx * (ny-1)`, index `iy*nx+ix` for the
    /// edge between `(ix,iy)` and `(ix,iy+1)`.
    v_usage: Vec<f64>,
    /// History cost per edge (same layouts), grown on overflow.
    h_history: Vec<f64>,
    v_history: Vec<f64>,
}

impl RoutingGrid {
    fn new(nx: usize, ny: usize) -> Self {
        Self {
            nx,
            ny,
            h_usage: vec![0.0; (nx - 1) * ny],
            v_usage: vec![0.0; nx * (ny - 1)],
            h_history: vec![0.0; (nx - 1) * ny],
            v_history: vec![0.0; nx * (ny - 1)],
        }
    }

    /// Horizontal edge usage between `(ix,iy)` and `(ix+1,iy)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[must_use]
    pub fn h_usage(&self, ix: usize, iy: usize) -> f64 {
        self.h_usage[iy * (self.nx - 1) + ix]
    }

    /// Vertical edge usage between `(ix,iy)` and `(ix,iy+1)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[must_use]
    pub fn v_usage(&self, ix: usize, iy: usize) -> f64 {
        self.v_usage[iy * self.nx + ix]
    }

    fn h_cost(&self, ix: usize, iy: usize, cfg: &RouterConfig) -> f64 {
        let idx = iy * (self.nx - 1) + ix;
        let over = (self.h_usage[idx] + 1.0 - cfg.capacity_h).max(0.0);
        1.0 + cfg.overflow_penalty * over + self.h_history[idx]
    }

    fn v_cost(&self, ix: usize, iy: usize, cfg: &RouterConfig) -> f64 {
        let idx = iy * self.nx + ix;
        let over = (self.v_usage[idx] + 1.0 - cfg.capacity_v).max(0.0);
        1.0 + cfg.overflow_penalty * over + self.v_history[idx]
    }

    fn add_segment(&mut self, seg: Segment, delta: f64) {
        match seg {
            Segment::H { y, x0, x1 } => {
                for x in x0..x1 {
                    self.h_usage[y * (self.nx - 1) + x] += delta;
                }
            }
            Segment::V { x, y0, y1 } => {
                for y in y0..y1 {
                    self.v_usage[y * self.nx + x] += delta;
                }
            }
        }
    }

    /// Total overflow (usage above capacity summed over all edges).
    #[must_use]
    pub fn total_overflow(&self, cfg: &RouterConfig) -> f64 {
        let h: f64 = self
            .h_usage
            .iter()
            .map(|&u| (u - cfg.capacity_h).max(0.0))
            .sum();
        let v: f64 = self
            .v_usage
            .iter()
            .map(|&u| (u - cfg.capacity_v).max(0.0))
            .sum();
        h + v
    }

    /// Peak edge utilization (usage / capacity).
    #[must_use]
    pub fn max_utilization(&self, cfg: &RouterConfig) -> f64 {
        let h = self
            .h_usage
            .iter()
            .fold(0.0f64, |m, &u| m.max(u / cfg.capacity_h));
        let v = self
            .v_usage
            .iter()
            .fold(0.0f64, |m, &u| m.max(u / cfg.capacity_v));
        h.max(v)
    }

    /// Converts edge utilizations into a per-GCell congestion map (max of
    /// the four adjacent edges' utilizations), on the given region.
    #[must_use]
    pub fn congestion(&self, region: kraftwerk_geom::Rect, cfg: &RouterConfig) -> ScalarMap {
        let mut map = ScalarMap::zeros(region, self.nx, self.ny);
        for iy in 0..self.ny {
            for ix in 0..self.nx {
                let mut u = 0.0f64;
                if ix > 0 {
                    u = u.max(self.h_usage(ix - 1, iy) / cfg.capacity_h);
                }
                if ix + 1 < self.nx {
                    u = u.max(self.h_usage(ix, iy) / cfg.capacity_h);
                }
                if iy > 0 {
                    u = u.max(self.v_usage(ix, iy - 1) / cfg.capacity_v);
                }
                if iy + 1 < self.ny {
                    u = u.max(self.v_usage(ix, iy) / cfg.capacity_v);
                }
                map.set(ix, iy, u);
            }
        }
        map
    }
}

/// A routed straight segment in GCell coordinates (`x1 > x0`, `y1 > y0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    /// Horizontal run at row `y` crossing edges `x0..x1`.
    H { y: usize, x0: usize, x1: usize },
    /// Vertical run at column `x` crossing edges `y0..y1`.
    V { x: usize, y0: usize, y1: usize },
}

/// One routed two-pin connection.
#[derive(Debug, Clone)]
struct Connection {
    a: (usize, usize),
    b: (usize, usize),
    segments: Vec<Segment>,
}

/// Routing outcome.
#[derive(Debug, Clone)]
pub struct RouteResult {
    /// Final edge usage state.
    pub grid: RoutingGrid,
    /// Total routed wirelength in GCell-edge units.
    pub wirelength: f64,
    /// Total overflow after the final pass.
    pub overflow: f64,
    /// Peak edge utilization.
    pub max_utilization: f64,
    /// Number of two-pin connections routed.
    pub connections: usize,
}

fn h_then_v(a: (usize, usize), b: (usize, usize)) -> Vec<Segment> {
    let mut segs = Vec::with_capacity(2);
    let (x0, x1) = (a.0.min(b.0), a.0.max(b.0));
    if x1 > x0 {
        segs.push(Segment::H { y: a.1, x0, x1 });
    }
    let (y0, y1) = (a.1.min(b.1), a.1.max(b.1));
    if y1 > y0 {
        segs.push(Segment::V { x: b.0, y0, y1 });
    }
    segs
}

fn v_then_h(a: (usize, usize), b: (usize, usize)) -> Vec<Segment> {
    let mut segs = Vec::with_capacity(2);
    let (y0, y1) = (a.1.min(b.1), a.1.max(b.1));
    if y1 > y0 {
        segs.push(Segment::V { x: a.0, y0, y1 });
    }
    let (x0, x1) = (a.0.min(b.0), a.0.max(b.0));
    if x1 > x0 {
        segs.push(Segment::H { y: b.1, x0, x1 });
    }
    segs
}

/// Z-shapes: horizontal-vertical-horizontal with the jog at column `mx`,
/// and the transposed variant with the jog at row `my`.
fn z_candidates(a: (usize, usize), b: (usize, usize)) -> Vec<Vec<Segment>> {
    let mut out = Vec::new();
    if a.0 != b.0 && a.1 != b.1 {
        let mx = usize::midpoint(a.0, b.0);
        if mx != a.0 && mx != b.0 {
            let mut segs = h_then_v(a, (mx, a.1));
            segs.extend(h_then_v((mx, a.1), (mx, b.1)));
            segs.extend(h_then_v((mx, b.1), b));
            out.push(segs);
        }
        let my = usize::midpoint(a.1, b.1);
        if my != a.1 && my != b.1 {
            let mut segs = v_then_h(a, (a.0, my));
            segs.extend(v_then_h((a.0, my), (b.0, my)));
            segs.extend(v_then_h((b.0, my), b));
            out.push(segs);
        }
    }
    out
}

fn segments_cost(grid: &RoutingGrid, segs: &[Segment], cfg: &RouterConfig) -> f64 {
    let mut cost = 0.0;
    for seg in segs {
        match *seg {
            Segment::H { y, x0, x1 } => {
                for x in x0..x1 {
                    cost += grid.h_cost(x, y, cfg);
                }
            }
            Segment::V { x, y0, y1 } => {
                for y in y0..y1 {
                    cost += grid.v_cost(x, y, cfg);
                }
            }
        }
    }
    cost
}

fn segments_length(segs: &[Segment]) -> f64 {
    segs.iter()
        .map(|s| match *s {
            Segment::H { x0, x1, .. } => (x1 - x0) as f64,
            Segment::V { y0, y1, .. } => (y1 - y0) as f64,
        })
        .sum()
}

fn best_route(grid: &RoutingGrid, a: (usize, usize), b: (usize, usize), cfg: &RouterConfig) -> Vec<Segment> {
    let mut candidates = vec![h_then_v(a, b), v_then_h(a, b)];
    candidates.extend(z_candidates(a, b));
    candidates
        .into_iter()
        .min_by(|s, t| {
            segments_cost(grid, s, cfg)
                .total_cmp(&segments_cost(grid, t, cfg))
        })
        .expect("at least the two L-shapes exist")
}

/// Manhattan-MST decomposition of a pin set (Prim's algorithm on GCells).
fn mst_edges(mut cells: Vec<(usize, usize)>) -> Vec<((usize, usize), (usize, usize))> {
    cells.sort_unstable();
    cells.dedup();
    if cells.len() < 2 {
        return Vec::new();
    }
    let n = cells.len();
    let dist = |a: (usize, usize), b: (usize, usize)| -> usize {
        a.0.abs_diff(b.0) + a.1.abs_diff(b.1)
    };
    let mut in_tree = vec![false; n];
    let mut best = vec![(usize::MAX, 0usize); n]; // (distance, parent)
    in_tree[0] = true;
    for i in 1..n {
        best[i] = (dist(cells[0], cells[i]), 0);
    }
    let mut edges = Vec::with_capacity(n - 1);
    for _ in 1..n {
        let (next, _) = best
            .iter()
            .enumerate()
            .filter(|(i, _)| !in_tree[*i])
            .min_by_key(|(_, (d, _))| *d)
            .expect("tree incomplete implies a candidate");
        let parent = best[next].1;
        edges.push((cells[parent], cells[next]));
        in_tree[next] = true;
        for i in 0..n {
            if !in_tree[i] {
                let d = dist(cells[next], cells[i]);
                if d < best[i].0 {
                    best[i] = (d, next);
                }
            }
        }
    }
    edges
}

/// Routes every net of the placement on an `nx x ny` GCell grid.
///
/// # Panics
///
/// Panics if `nx < 2` or `ny < 2`.
#[must_use]
pub fn route(
    netlist: &Netlist,
    placement: &Placement,
    nx: usize,
    ny: usize,
    config: &RouterConfig,
) -> RouteResult {
    assert!(nx >= 2 && ny >= 2, "routing grid needs at least 2x2 cells");
    let _timer = kraftwerk_trace::span("route.global");
    let core = netlist.core_region();
    let gcell_of = |p: Point| -> (usize, usize) {
        let fx = ((p.x - core.x_lo) / core.width() * nx as f64).floor();
        let fy = ((p.y - core.y_lo) / core.height() * ny as f64).floor();
        (
            (fx.max(0.0) as usize).min(nx - 1),
            (fy.max(0.0) as usize).min(ny - 1),
        )
    };

    // Decompose all nets into two-pin connections.
    let mut connections: Vec<Connection> = Vec::new();
    for (net_id, net) in netlist.nets() {
        let cells: Vec<(usize, usize)> = net
            .pins()
            .iter()
            .map(|&p| gcell_of(netlist.pin_position(p, placement)))
            .collect();
        for (a, b) in mst_edges(cells) {
            connections.push(Connection {
                a,
                b,
                segments: Vec::new(),
            });
        }
        let _ = net_id;
    }

    let mut grid = RoutingGrid::new(nx, ny);
    // Initial routing.
    for conn in &mut connections {
        let segs = best_route(&grid, conn.a, conn.b, config);
        for &s in &segs {
            grid.add_segment(s, 1.0);
        }
        conn.segments = segs;
    }

    // Rip-up and re-route with history escalation.
    for pass in 0..config.reroute_passes {
        let pass_overflow = grid.total_overflow(config);
        kraftwerk_trace::event(
            "route.pass",
            vec![
                ("pass", kraftwerk_trace::Value::from(pass)),
                ("overflow", kraftwerk_trace::Value::from(pass_overflow)),
            ],
        );
        if pass_overflow <= 0.0 {
            break;
        }
        // Grow history on overflowed edges.
        for (i, &u) in grid.h_usage.clone().iter().enumerate() {
            if u > config.capacity_h {
                grid.h_history[i] += 1.0;
            }
        }
        for (i, &u) in grid.v_usage.clone().iter().enumerate() {
            if u > config.capacity_v {
                grid.v_history[i] += 1.0;
            }
        }
        for conn in &mut connections {
            // Only reroute connections crossing an overflowed edge.
            let crosses_overflow = conn.segments.iter().any(|s| match *s {
                Segment::H { y, x0, x1 } => {
                    (x0..x1).any(|x| grid.h_usage(x, y) > config.capacity_h)
                }
                Segment::V { x, y0, y1 } => {
                    (y0..y1).any(|y| grid.v_usage(x, y) > config.capacity_v)
                }
            });
            if !crosses_overflow {
                continue;
            }
            for &s in &conn.segments {
                grid.add_segment(s, -1.0);
            }
            let segs = best_route(&grid, conn.a, conn.b, config);
            for &s in &segs {
                grid.add_segment(s, 1.0);
            }
            conn.segments = segs;
        }
    }

    let wirelength = connections.iter().map(|c| segments_length(&c.segments)).sum();
    let overflow = grid.total_overflow(config);
    let max_utilization = grid.max_utilization(config);
    kraftwerk_trace::event(
        "route.done",
        vec![
            ("connections", kraftwerk_trace::Value::from(connections.len())),
            ("wirelength", kraftwerk_trace::Value::from(wirelength)),
            ("overflow", kraftwerk_trace::Value::from(overflow)),
            ("max_utilization", kraftwerk_trace::Value::from(max_utilization)),
        ],
    );
    RouteResult {
        grid,
        wirelength,
        overflow,
        max_utilization,
        connections: connections.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kraftwerk_core::{GlobalPlacer, KraftwerkConfig};
    use kraftwerk_geom::Rect;
    use kraftwerk_netlist::synth::{generate, SynthConfig};

    #[test]
    fn mst_covers_all_distinct_cells() {
        let edges = mst_edges(vec![(0, 0), (3, 0), (0, 3), (3, 3), (0, 0)]);
        assert_eq!(edges.len(), 3); // 4 distinct cells -> 3 edges
        // Total MST length of the unit square corners at distance 3: 9.
        let total: usize = edges
            .iter()
            .map(|(a, b)| a.0.abs_diff(b.0) + a.1.abs_diff(b.1))
            .sum();
        assert_eq!(total, 9);
    }

    #[test]
    fn single_cell_nets_need_no_routing() {
        assert!(mst_edges(vec![(2, 2), (2, 2)]).is_empty());
    }

    #[test]
    fn l_routes_have_manhattan_length() {
        let grid = RoutingGrid::new(8, 8);
        let cfg = RouterConfig::default();
        let segs = best_route(&grid, (1, 1), (5, 4), &cfg);
        assert!((segments_length(&segs) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn routing_a_placement_produces_usage() {
        let nl = generate(&SynthConfig::with_size("rt", 200, 260, 8));
        let placement = GlobalPlacer::new(KraftwerkConfig::standard())
            .try_place(&nl)
            .expect("placement")
            .placement;
        let result = route(&nl, &placement, 20, 10, &RouterConfig::default());
        assert!(result.wirelength > 0.0);
        assert!(result.connections > 0);
        assert!(result.max_utilization > 0.0);
    }

    #[test]
    fn reroute_reduces_overflow_under_tight_capacity() {
        let nl = generate(&SynthConfig::with_size("rt2", 300, 380, 8));
        let placement = GlobalPlacer::new(KraftwerkConfig::standard())
            .try_place(&nl)
            .expect("placement")
            .placement;
        let tight = RouterConfig {
            capacity_h: 3.0,
            capacity_v: 3.0,
            reroute_passes: 0,
            ..RouterConfig::default()
        };
        let no_reroute = route(&nl, &placement, 16, 8, &tight);
        let with_reroute = route(
            &nl,
            &placement,
            16,
            8,
            &RouterConfig {
                reroute_passes: 4,
                ..tight
            },
        );
        assert!(
            with_reroute.overflow <= no_reroute.overflow,
            "reroute {} vs none {}",
            with_reroute.overflow,
            no_reroute.overflow
        );
    }

    #[test]
    fn congestion_map_matches_grid_dimensions() {
        let nl = generate(&SynthConfig::with_size("rt3", 100, 130, 5));
        let result = route(&nl, &nl.initial_placement(), 12, 6, &RouterConfig::default());
        let map = result
            .grid
            .congestion(Rect::new(0.0, 0.0, 10.0, 5.0), &RouterConfig::default());
        assert_eq!(map.nx(), 12);
        assert_eq!(map.ny(), 6);
        assert!(map.max() >= 0.0);
    }

    #[test]
    fn routing_is_deterministic() {
        let nl = generate(&SynthConfig::with_size("rt4", 150, 190, 6));
        let a = route(&nl, &nl.initial_placement(), 12, 6, &RouterConfig::default());
        let b = route(&nl, &nl.initial_placement(), 12, 6, &RouterConfig::default());
        assert_eq!(a.wirelength, b.wirelength);
        assert_eq!(a.overflow, b.overflow);
    }

    #[test]
    fn router_wirelength_tracks_hpwl() {
        // Routed length (in gcell units * pitch) should be within a small
        // factor of HPWL: both measure the same placement.
        let nl = generate(&SynthConfig::with_size("rt5", 200, 260, 8));
        let placement = GlobalPlacer::new(KraftwerkConfig::standard())
            .try_place(&nl)
            .expect("placement")
            .placement;
        let nx = 20;
        let result = route(&nl, &placement, nx, 10, &RouterConfig::default());
        let pitch = nl.core_region().width() / nx as f64;
        let routed = result.wirelength * pitch;
        let hpwl = kraftwerk_netlist::metrics::hpwl(&nl, &placement);
        assert!(
            routed > 0.4 * hpwl && routed < 4.0 * hpwl,
            "routed {routed:.0} vs hpwl {hpwl:.0}"
        );
    }
}
