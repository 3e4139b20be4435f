//! GORDIAN-class quadratic placement with recursive partitioning.
//!
//! GORDIAN \[7\] alternates global quadratic solves with recursive
//! partitioning of the cell set onto subregions, constraining each
//! partition's center of gravity to its region center. This
//! reimplementation follows the same shape with the center-of-gravity
//! constraint realized as per-cell anchors to the assigned region center
//! whose weight grows with the partitioning level — the classical
//! soft-constraint approximation. Partitioning is by position median
//! (alternating cut direction, capacity-balanced), which is what makes it
//! a *partitioning-based* placer: assignment decisions at early levels are
//! irreversible, exactly the structural weakness the Kraftwerk paper
//! argues its force-directed scheme avoids.

use kraftwerk_core::{Assembled, AssemblyScratch, NetModel, QuadraticSystem};
use kraftwerk_geom::{Point, Rect};
use kraftwerk_netlist::{Netlist, Placement};
use kraftwerk_sparse::{
    try_solve_with, CgOptions, CgWorkspace, CsrBuildScratch, CsrMatrix, DiluFactor,
    SymmetricStaging,
};

/// GORDIAN-style placer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GordianConfig {
    /// Stop partitioning when a region holds at most this many cells.
    pub cutoff_cells: usize,
    /// Anchor weight per level, as a fraction of a cell's own
    /// connectivity (diagonal); grows linearly with the level.
    pub anchor_strength: f64,
    /// Conjugate-gradient controls.
    pub cg: CgOptions,
    /// GORDIAN-L linearization (the paper's \[14\]); `true` mirrors the
    /// published GORDIAN-L, `false` the original quadratic GORDIAN.
    pub linearization: bool,
    /// Optional per-net weight multipliers (timing-driven mode).
    pub net_weights: Option<Vec<f64>>,
}

impl Default for GordianConfig {
    fn default() -> Self {
        Self {
            cutoff_cells: 12,
            anchor_strength: 0.15,
            cg: CgOptions {
                max_iterations: 300,
                rel_tolerance: 1e-6,
                abs_tolerance: 1e-12,
            },
            linearization: true,
            net_weights: None,
        }
    }
}

/// The placer; see the module documentation.
#[derive(Debug, Clone, Default)]
pub struct GordianPlacer {
    config: GordianConfig,
}

/// A region of the recursive partition with its assigned cells
/// (indices into the movable-cell numbering).
#[derive(Debug, Clone)]
struct Region {
    rect: Rect,
    cells: Vec<usize>,
}

impl GordianPlacer {
    /// Creates a placer with the given configuration.
    #[must_use]
    pub fn new(config: GordianConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &GordianConfig {
        &self.config
    }

    /// Places a netlist: alternating global solves and partitioning until
    /// every region is below the cutoff.
    ///
    /// # Panics
    ///
    /// Panics if `net_weights` is set with a length other than the net
    /// count.
    #[must_use]
    pub fn place(&self, netlist: &Netlist) -> Placement {
        if let Some(w) = &self.config.net_weights {
            assert_eq!(w.len(), netlist.num_nets(), "one weight per net required");
        }
        let system = QuadraticSystem::new(netlist);
        let n = system.num_movable();
        let mut placement = netlist.initial_placement();
        if n == 0 {
            return placement;
        }
        let eps = if self.config.linearization {
            Some(0.05 * netlist.core_region().half_perimeter())
        } else {
            None
        };

        let mut regions = vec![Region {
            rect: netlist.core_region(),
            cells: (0..n).collect(),
        }];
        let mut level = 0usize;
        let mut areas = vec![0.0; n];
        for i in 0..n {
            areas[i] = netlist.cell(system.cell_of(i)).area();
        }

        loop {
            // Global solve with anchors to current region centers.
            self.solve_with_anchors(netlist, &system, &mut placement, &regions, level, eps);
            if regions.iter().all(|r| r.cells.len() <= self.config.cutoff_cells) {
                break;
            }
            // Partition every oversized region by position median along
            // its longer edge, splitting the rectangle by area balance.
            let mut next = Vec::with_capacity(regions.len() * 2);
            for region in &regions {
                if region.cells.len() <= self.config.cutoff_cells {
                    next.push(region.clone());
                    continue;
                }
                let horizontal = region.rect.width() >= region.rect.height();
                let mut order = region.cells.clone();
                order.sort_by(|&a, &b| {
                    let pa = placement.position(system.cell_of(a));
                    let pb = placement.position(system.cell_of(b));
                    if horizontal {
                        pa.x.total_cmp(&pb.x)
                    } else {
                        pa.y.total_cmp(&pb.y)
                    }
                });
                let total_area: f64 = order.iter().map(|&i| areas[i]).sum();
                let mut acc = 0.0;
                let mut split = order.len();
                for (k, &i) in order.iter().enumerate() {
                    acc += areas[i];
                    if acc >= total_area * 0.5 {
                        split = k + 1;
                        break;
                    }
                }
                let split = split.clamp(1, order.len() - 1);
                let frac = order[..split].iter().map(|&i| areas[i]).sum::<f64>() / total_area;
                let (ra, rb) = if horizontal {
                    let cut = region.rect.x_lo + region.rect.width() * frac;
                    (
                        Rect::new(region.rect.x_lo, region.rect.y_lo, cut, region.rect.y_hi),
                        Rect::new(cut, region.rect.y_lo, region.rect.x_hi, region.rect.y_hi),
                    )
                } else {
                    let cut = region.rect.y_lo + region.rect.height() * frac;
                    (
                        Rect::new(region.rect.x_lo, region.rect.y_lo, region.rect.x_hi, cut),
                        Rect::new(region.rect.x_lo, cut, region.rect.x_hi, region.rect.y_hi),
                    )
                };
                let (cells_a, cells_b) = refine_bipartition(
                    netlist,
                    &system,
                    order[..split].to_vec(),
                    order[split..].to_vec(),
                    &areas,
                );
                next.push(Region {
                    rect: ra,
                    cells: cells_a,
                });
                next.push(Region {
                    rect: rb,
                    cells: cells_b,
                });
            }
            regions = next;
            level += 1;
            if level > 40 {
                break; // safety net; log₂(n) levels expected
            }
        }
        placement
    }

    /// One global solve with per-region center anchors of level-dependent
    /// strength.
    fn solve_with_anchors(
        &self,
        netlist: &Netlist,
        system: &QuadraticSystem,
        placement: &mut Placement,
        regions: &[Region],
        level: usize,
        eps: Option<f64>,
    ) {
        let n = system.num_movable();
        let mut asm = Assembled::default();
        let mut scratch = AssemblyScratch::default();
        system.assemble_into(
            netlist,
            placement,
            self.config.net_weights.as_deref(),
            NetModel::default(),
            eps,
            &mut asm,
            &mut scratch,
        );
        // Anchor each cell to its region center with weight proportional
        // to its own diagonal (so anchors scale with connectivity) and to
        // the level (so late levels pin cells near their regions).
        let mut anchor = vec![(Point::ORIGIN, 0.0); n];
        let strength = self.config.anchor_strength * level as f64;
        let diag_x = asm.cx.diagonal();
        let diag_y = asm.cy.diagonal();
        for region in regions {
            let c = region.rect.center();
            for &i in &region.cells {
                let w = strength * 0.5 * (diag_x[i] + diag_y[i]);
                anchor[i] = (c, w);
            }
        }
        // Each axis's anchored system is the assembled one plus the
        // anchors on its diagonal, staged into the assembly's own staging
        // so every other entry keeps the assembled matrix's bits. A system
        // the solver rejects keeps that axis's coordinates.
        let (stage_x, stage_y) = scratch.stagings_mut();
        for (i, &(_, w)) in anchor.iter().enumerate() {
            stage_x.add_diagonal(i, 2.0 * w);
            stage_y.add_diagonal(i, 2.0 * w);
        }
        let solve_axis = |staging: &SymmetricStaging,
                          d: &[f64],
                          coords: &[f64],
                          centers: &(dyn Fn(usize) -> f64 + Sync)|
         -> Vec<f64> {
            let b: Vec<f64> = (0..n).map(|i| -d[i] + 2.0 * anchor[i].1 * centers(i)).collect();
            let mut a = CsrMatrix::default();
            a.rebuild_from_staging(staging, &mut CsrBuildScratch::default());
            let factor = DiluFactor::from_matrix(&a);
            let mut ws = CgWorkspace::new();
            match try_solve_with(&a, &b, Some(coords), &factor, &self.config.cg, &mut ws) {
                Ok(_) => ws.solution().to_vec(),
                Err(_) => coords.to_vec(),
            }
        };
        let (xs0, ys0) = system.coords(placement);
        // The x and y systems are independent: solve them side by side, as
        // the placement session does (same results at any thread count).
        let (xs, ys) = kraftwerk_par::join(
            || solve_axis(stage_x, &asm.dx, &xs0, &|i| anchor[i].0.x),
            || solve_axis(stage_y, &asm.dy, &ys0, &|i| anchor[i].0.y),
        );
        system.write_back(placement, &xs, &ys);
        // GORDIAN's center-of-gravity constraint, enforced by projection:
        // translate each region's cells so their area-weighted centroid
        // sits at the region center (preserves the relative structure the
        // solve found), then clamp into the region rectangle.
        for region in regions {
            if regions.len() == 1 {
                break;
            }
            let mut cx = 0.0;
            let mut cy = 0.0;
            let mut area = 0.0;
            for &i in &region.cells {
                let cell = system.cell_of(i);
                let a = netlist.cell(cell).area();
                let p = placement.position(cell);
                cx += a * p.x;
                cy += a * p.y;
                area += a;
            }
            if area <= 0.0 {
                continue;
            }
            let center = region.rect.center();
            let shift = kraftwerk_geom::Vector::new(center.x - cx / area, center.y - cy / area);
            for &i in &region.cells {
                let cell = system.cell_of(i);
                let p = placement.position(cell) + shift;
                placement.set_position(cell, region.rect.clamp_point(p));
            }
        }
    }
}

/// Greedy Fiduccia–Mattheyses-style refinement of one bipartition: move
/// cells across the cut while the number of cut nets (among nets touching
/// this region) decreases and the area balance stays within 10% — the
/// "min-cut improvement" that distinguishes GORDIAN-class partitioning
/// from a plain position median. Returns the refined cell lists.
fn refine_bipartition(
    netlist: &Netlist,
    system: &QuadraticSystem,
    mut side_a: Vec<usize>,
    mut side_b: Vec<usize>,
    areas: &[f64],
) -> (Vec<usize>, Vec<usize>) {
    use std::collections::HashMap;
    // side of each region cell: 0 = A, 1 = B; cells outside the region do
    // not constrain the cut (they belong to other regions' refinements).
    let mut side: HashMap<usize, u8> = HashMap::with_capacity(side_a.len() + side_b.len());
    for &i in &side_a {
        side.insert(i, 0);
    }
    for &i in &side_b {
        side.insert(i, 1);
    }
    // Per net: pin counts on each side (region cells only).
    let mut net_counts: HashMap<u32, (u32, u32)> = HashMap::new();
    let mut cell_nets: HashMap<usize, Vec<u32>> = HashMap::new();
    for (&i, &sd) in &side {
        let cell = system.cell_of(i);
        let mut nets = Vec::with_capacity(netlist.cell(cell).pins().len());
        for &pid in netlist.cell(cell).pins() {
            let net = netlist.pin(pid).net().index() as u32;
            nets.push(net);
            let entry = net_counts.entry(net).or_insert((0, 0));
            if sd == 0 {
                entry.0 += 1;
            } else {
                entry.1 += 1;
            }
        }
        cell_nets.insert(i, nets);
    }
    let mut area_a: f64 = side_a.iter().map(|&i| areas[i]).sum();
    let mut area_b: f64 = side_b.iter().map(|&i| areas[i]).sum();
    let total = area_a + area_b;
    let tolerance = 0.10 * total;

    // A few greedy passes in deterministic order.
    let mut order: Vec<usize> = side.keys().copied().collect();
    order.sort_unstable();
    for _ in 0..3 {
        let mut moved = false;
        for &i in &order {
            let sd = side[&i];
            // Balance check first.
            let (na, nb) = if sd == 0 {
                (area_a - areas[i], area_b + areas[i])
            } else {
                (area_a + areas[i], area_b - areas[i])
            };
            if (na - nb).abs() > tolerance {
                continue;
            }
            // Gain: nets becoming uncut minus nets becoming cut.
            let mut gain = 0i32;
            for &net in &cell_nets[&i] {
                let (a, b) = net_counts[&net];
                let (mine, other) = if sd == 0 { (a, b) } else { (b, a) };
                if mine == 1 && other > 0 {
                    gain += 1; // moving the last pin on this side uncuts
                }
                if other == 0 && mine > 1 {
                    gain -= 1; // moving a pin to the empty side cuts
                }
            }
            if gain <= 0 {
                continue;
            }
            // Commit the move.
            for &net in &cell_nets[&i] {
                let entry = net_counts.get_mut(&net).expect("net counted");
                if sd == 0 {
                    entry.0 -= 1;
                    entry.1 += 1;
                } else {
                    entry.1 -= 1;
                    entry.0 += 1;
                }
            }
            side.insert(i, 1 - sd);
            area_a = na;
            area_b = nb;
            moved = true;
        }
        if !moved {
            break;
        }
    }
    side_a.clear();
    side_b.clear();
    for &i in &order {
        if side[&i] == 0 {
            side_a.push(i);
        } else {
            side_b.push(i);
        }
    }
    (side_a, side_b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kraftwerk_netlist::metrics;
    use kraftwerk_netlist::synth::{generate, SynthConfig};

    #[test]
    fn gordian_produces_a_spread_placement() {
        let nl = generate(&SynthConfig::with_size("gq", 200, 260, 8));
        let placement = GordianPlacer::new(GordianConfig::default()).place(&nl);
        // Spread: no single huge pile — the largest empty square is
        // bounded and the overlap is far below the piled value.
        let overlap = metrics::overlap_ratio(&nl, &placement);
        assert!(overlap < 3.0, "overlap {overlap}");
        let hpwl = metrics::hpwl(&nl, &placement);
        assert!(hpwl > 0.0);
    }

    #[test]
    fn gordian_is_deterministic() {
        let nl = generate(&SynthConfig::with_size("gq", 150, 190, 6));
        let a = GordianPlacer::new(GordianConfig::default()).place(&nl);
        let b = GordianPlacer::new(GordianConfig::default()).place(&nl);
        assert_eq!(a, b);
    }

    #[test]
    fn cells_stay_inside_the_core() {
        let nl = generate(&SynthConfig::with_size("gq", 150, 190, 6));
        let placement = GordianPlacer::new(GordianConfig::default()).place(&nl);
        let core = nl.core_region();
        for (id, cell) in nl.movable_cells() {
            let p = placement.position(id);
            assert!(core.contains(p), "{} at {p}", cell.name());
        }
    }

    #[test]
    fn weighted_nets_contract() {
        let nl = generate(&SynthConfig::with_size("gqw", 200, 260, 8));
        let plain = GordianPlacer::new(GordianConfig::default()).place(&nl);
        let target = kraftwerk_netlist::NetId::from_index(5);
        let mut weights = vec![1.0; nl.num_nets()];
        weights[target.index()] = 25.0;
        let weighted = GordianPlacer::new(GordianConfig {
            net_weights: Some(weights),
            ..GordianConfig::default()
        })
        .place(&nl);
        let before = metrics::net_hpwl(&nl, &plain, target);
        let after = metrics::net_hpwl(&nl, &weighted, target);
        assert!(after <= before + 1e-9, "{after} vs {before}");
    }

    #[test]
    fn legalizes_cleanly() {
        let nl = generate(&SynthConfig::with_size("gql", 200, 260, 8));
        let placement = GordianPlacer::new(GordianConfig::default()).place(&nl);
        let legal = kraftwerk_legalize::legalize(&nl, &placement).unwrap();
        assert!(kraftwerk_legalize::check_legality(&nl, &legal, 1e-6).is_legal());
    }
}
