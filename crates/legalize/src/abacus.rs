//! Abacus-style row legalization with obstacle-aware segments.

use kraftwerk_geom::{Point, Rect};
use kraftwerk_netlist::{CellId, CellKind, Netlist, Placement};
use std::error::Error;
use std::fmt;

/// Legalization failure.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LegalizeError {
    /// The netlist has no rows to legalize into.
    NoRows,
    /// A cell could not be placed in any row segment (capacity exhausted);
    /// carries the cell's name.
    NoRoom(String),
}

impl fmt::Display for LegalizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LegalizeError::NoRows => write!(f, "netlist defines no standard-cell rows"),
            LegalizeError::NoRoom(name) => {
                write!(f, "no row segment has room for cell `{name}`")
            }
        }
    }
}

impl Error for LegalizeError {}

impl From<LegalizeError> for kraftwerk_core::KraftwerkError {
    fn from(e: LegalizeError) -> Self {
        kraftwerk_core::KraftwerkError::Legalize(e.to_string())
    }
}

/// One Abacus cluster: a maximal group of touching cells in a segment.
#[derive(Debug, Clone)]
struct Cluster {
    /// Left edge of the cluster.
    x: f64,
    /// Total width.
    width: f64,
    /// Total weight (cell count here; Abacus supports weights).
    weight: f64,
    /// Sum of `weight_i * (desired_left_i - offset_in_cluster_i)`.
    q: f64,
    /// Cells in placement order with their widths.
    cells: Vec<(CellId, f64)>,
}

/// A free interval of a row between obstacles.
#[derive(Debug, Clone)]
struct Segment {
    x_lo: f64,
    x_hi: f64,
    y: f64,
    height: f64,
    used: f64,
    clusters: Vec<Cluster>,
}

impl Segment {
    fn free(&self) -> f64 {
        (self.x_hi - self.x_lo) - self.used
    }

    /// The final left-edge position the cell would get if appended with
    /// the given desired left edge, without mutating the segment.
    fn trial(&self, desired_left: f64, width: f64) -> f64 {
        let lo = self.x_lo;
        let hi = self.x_hi - width;
        // Virtually merge with tail clusters while overlapping.
        let mut weight = 1.0;
        let mut q = desired_left.clamp(lo, hi);
        let mut total_width = width;
        for c in self.clusters.iter().rev() {
            let pos = q / weight; // current merged-group left edge
            if c.x + c.width <= pos {
                break;
            }
            // Merge: the group must start after this cluster would end if
            // both were placed optimally together.
            q = c.q + (q - weight * c.width);
            weight += c.weight;
            total_width += c.width;
        }
        let group_lo = self.x_lo;
        let group_hi = self.x_hi - total_width;
        let group_x = (q / weight).clamp(group_lo, group_hi.max(group_lo));
        group_x + (total_width - width)
    }

    /// Appends the cell, merging clusters per Abacus.
    fn place(&mut self, cell: CellId, desired_left: f64, width: f64) {
        let lo = self.x_lo;
        let hi = (self.x_hi - width).max(lo);
        let x = desired_left.clamp(lo, hi);
        let mut cluster = Cluster {
            x,
            width,
            weight: 1.0,
            q: x,
            cells: vec![(cell, width)],
        };
        self.used += width;
        loop {
            let overlaps = self
                .clusters
                .last()
                .is_some_and(|prev| prev.x + prev.width > cluster.x);
            if !overlaps {
                break;
            }
            let prev = self.clusters.pop().expect("overlap implies a cluster");
            // Merge prev + cluster: q accumulates desired positions with
            // the new cells shifted by prev.width.
            let mut merged = Cluster {
                x: 0.0,
                width: prev.width + cluster.width,
                weight: prev.weight + cluster.weight,
                q: prev.q + (cluster.q - cluster.weight * prev.width),
                cells: prev.cells,
            };
            merged.cells.extend(cluster.cells);
            merged.x = merged.q / merged.weight;
            cluster = merged;
            let group_hi = (self.x_hi - cluster.width).max(self.x_lo);
            cluster.x = cluster.x.clamp(self.x_lo, group_hi);
        }
        let group_hi = (self.x_hi - cluster.width).max(self.x_lo);
        cluster.x = cluster.x.clamp(self.x_lo, group_hi);
        self.clusters.push(cluster);
    }
}

/// Rows processed per parallel task when building segments or
/// materializing coordinates. Fixed by input size, not thread count, so
/// the work decomposition — and with it the result — is identical at any
/// `KRAFTWERK_THREADS` setting.
const ROW_CHUNK: usize = 64;

/// Splits the rows into free segments around fixed cells and movable
/// blocks (which the row legalizer treats as pre-placed obstacles). Rows
/// are independent, so each computes its segment list in parallel; the
/// per-row lists are concatenated in row order.
fn build_segments(netlist: &Netlist, placement: &Placement) -> Vec<Segment> {
    let mut obstacles: Vec<Rect> = Vec::new();
    for (id, cell) in netlist.cells() {
        let obstacle = match cell.kind() {
            CellKind::Fixed => cell
                .fixed_position()
                .map(|p| Rect::from_center(p, cell.size())),
            CellKind::Block => Some(placement.cell_rect(id, cell.size())),
            CellKind::Standard => None,
        };
        if let Some(r) = obstacle {
            obstacles.push(r);
        }
    }
    let obstacles = &obstacles;
    let per_row: Vec<Vec<Segment>> = kraftwerk_par::par_map(netlist.rows(), ROW_CHUNK, |_, row| {
        let row_rect = row.rect();
        // Collect the x-intervals blocked in this row.
        let mut blocked: Vec<(f64, f64)> = obstacles
            .iter()
            .filter(|o| o.overlaps(&row_rect))
            .map(|o| (o.x_lo.max(row.x_lo), o.x_hi.min(row.x_hi)))
            .collect();
        blocked.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut segments = Vec::new();
        let mut cursor = row.x_lo;
        for (lo, hi) in blocked {
            if lo > cursor {
                segments.push(Segment {
                    x_lo: cursor,
                    x_hi: lo,
                    y: row.y,
                    height: row.height,
                    used: 0.0,
                    clusters: Vec::new(),
                });
            }
            cursor = cursor.max(hi);
        }
        if cursor < row.x_hi {
            segments.push(Segment {
                x_lo: cursor,
                x_hi: row.x_hi,
                y: row.y,
                height: row.height,
                used: 0.0,
                clusters: Vec::new(),
            });
        }
        segments
    });
    per_row.into_iter().flatten().collect()
}

/// Legalizes the standard cells of a global placement into rows with
/// minimal squared displacement (Abacus clustering). Movable blocks stay
/// where the global placement put them and act as obstacles; use
/// `kraftwerk-floorplan` to produce non-overlapping block locations first
/// for mixed designs.
///
/// # Errors
///
/// Returns [`LegalizeError::NoRows`] for netlists without rows and
/// [`LegalizeError::NoRoom`] when the row capacity is exhausted.
pub fn legalize(netlist: &Netlist, placement: &Placement) -> Result<Placement, LegalizeError> {
    let _timer = kraftwerk_trace::span("legalize.abacus");
    if netlist.rows().is_empty() {
        return Err(LegalizeError::NoRows);
    }
    let mut segments = build_segments(netlist, placement);
    if segments.is_empty() {
        return Err(LegalizeError::NoRows);
    }

    // Standard cells sorted by x (Abacus processes left to right).
    let mut cells: Vec<(CellId, f64, Point)> = netlist
        .cells()
        .filter(|(_, c)| c.kind() == CellKind::Standard)
        .map(|(id, c)| (id, c.size().width, placement.position(id)))
        .collect();
    cells.sort_by(|a, b| a.2.x.total_cmp(&b.2.x));

    for &(id, width, desired) in &cells {
        let desired_left = desired.x - width * 0.5;
        // Candidate segments ranked by vertical distance; widen the search
        // until one has room.
        let mut best: Option<(f64, usize, f64)> = None; // (cost, segment, x)
        let mut order: Vec<usize> = (0..segments.len()).collect();
        order.sort_by(|&a, &b| {
            let da = (segments[a].y + segments[a].height * 0.5 - desired.y).abs();
            let db = (segments[b].y + segments[b].height * 0.5 - desired.y).abs();
            da.total_cmp(&db)
        });
        let mut examined = 0;
        for &si in &order {
            let seg = &segments[si];
            if seg.free() < width {
                continue;
            }
            let dy = seg.y + seg.height * 0.5 - desired.y;
            if let Some((cost, _, _)) = best {
                // Rows are sorted by |dy|; once dy² alone exceeds the best
                // cost no further row can win.
                if dy * dy > cost && examined >= 3 {
                    break;
                }
            }
            let x = seg.trial(desired_left, width);
            let dx = x - desired_left;
            let cost = dx * dx + dy * dy;
            if best.is_none_or(|(c, _, _)| cost < c) {
                best = Some((cost, si, x));
            }
            examined += 1;
            if examined >= 12 && best.is_some() {
                break;
            }
        }
        let Some((_, si, _)) = best else {
            return Err(LegalizeError::NoRoom(netlist.cell(id).name().to_owned()));
        };
        segments[si].place(id, desired_left, width);
    }

    // Materialize final coordinates. Each segment's positions depend only
    // on its own clusters, so segments resolve in parallel; the per-segment
    // batches are applied in segment order (cells are disjoint across
    // segments, so the order is irrelevant to the result — keeping it
    // fixed just makes the merge phase deterministic by construction).
    let positions: Vec<Vec<(CellId, Point)>> =
        kraftwerk_par::par_map(&segments, ROW_CHUNK, |_, seg| {
            let mut out = Vec::new();
            for cluster in &seg.clusters {
                let mut x = cluster.x;
                for &(id, w) in &cluster.cells {
                    out.push((id, Point::new(x + w * 0.5, seg.y + seg.height * 0.5)));
                    x += w;
                }
            }
            out
        });
    let mut result = placement.clone();
    for batch in positions {
        for (id, p) in batch {
            result.set_position(id, p);
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_legality;
    use kraftwerk_geom::Size;
    use kraftwerk_netlist::metrics;
    use kraftwerk_netlist::synth::{generate, SynthConfig};
    use kraftwerk_netlist::{NetlistBuilder, PinDirection};

    #[test]
    fn legalizes_the_centered_pile() {
        let nl = generate(&SynthConfig::with_size("pile", 120, 150, 6));
        let legal = legalize(&nl, &nl.initial_placement()).unwrap();
        let report = check_legality(&nl, &legal, 1e-6);
        assert!(report.is_legal(), "{report:?}");
    }

    #[test]
    fn legalizes_a_global_placement_with_small_displacement() {
        let nl = generate(&SynthConfig::with_size("gp", 200, 260, 8));
        let global = kraftwerk_core::GlobalPlacer::new(kraftwerk_core::KraftwerkConfig::standard())
            .try_place(&nl)
            .expect("placement")
            .placement;
        let legal = legalize(&nl, &global).unwrap();
        assert!(check_legality(&nl, &legal, 1e-6).is_legal());
        // Legalization should not blow up wire length.
        let before = metrics::hpwl(&nl, &global);
        let after = metrics::hpwl(&nl, &legal);
        assert!(after < 1.8 * before, "hpwl before {before:.0} after {after:.0}");
        // And the average displacement should be modest (a few row heights).
        let avg_disp = global.total_displacement(&legal) / nl.num_movable() as f64;
        assert!(avg_disp < 6.0 * 16.0, "avg displacement {avg_disp}");
    }

    #[test]
    fn no_rows_is_an_error() {
        let mut b = NetlistBuilder::new();
        b.core_region(Rect::new(0.0, 0.0, 10.0, 10.0));
        let a = b.add_cell("a", Size::new(1.0, 1.0));
        let c = b.add_cell("c", Size::new(1.0, 1.0));
        b.add_net("n", [(a, PinDirection::Output), (c, PinDirection::Input)]);
        let nl = b.build().unwrap();
        assert_eq!(
            legalize(&nl, &nl.initial_placement()).unwrap_err(),
            LegalizeError::NoRows
        );
    }

    #[test]
    fn overflowing_capacity_is_an_error() {
        let mut b = NetlistBuilder::new();
        b.core_region(Rect::new(0.0, 0.0, 20.0, 10.0));
        b.rows(1, 10.0);
        // Three 9-wide cells into a 20-wide row: the third cannot fit.
        let ids: Vec<_> = (0..3)
            .map(|i| b.add_cell(format!("c{i}"), Size::new(9.0, 10.0)))
            .collect();
        b.add_net(
            "n",
            [
                (ids[0], PinDirection::Output),
                (ids[1], PinDirection::Input),
                (ids[2], PinDirection::Input),
            ],
        );
        let nl = b.build().unwrap();
        assert!(matches!(
            legalize(&nl, &nl.initial_placement()),
            Err(LegalizeError::NoRoom(_))
        ));
    }

    #[test]
    fn blocks_are_respected_as_obstacles() {
        let mut b = NetlistBuilder::new();
        b.core_region(Rect::new(0.0, 0.0, 100.0, 32.0));
        b.rows(2, 16.0);
        let blk = b.add_block("blk", Size::new(30.0, 32.0));
        let ids: Vec<_> = (0..8)
            .map(|i| b.add_cell(format!("c{i}"), Size::new(8.0, 16.0)))
            .collect();
        for w in ids.windows(2) {
            b.add_net(format!("n{}", w[0]), [(w[0], PinDirection::Output), (w[1], PinDirection::Input)]);
        }
        b.add_net("nb", [(blk, PinDirection::Output), (ids[0], PinDirection::Input)]);
        let nl = b.build().unwrap();
        let mut p = nl.initial_placement();
        // Park the block in the middle of the core.
        p.set_position(blk, Point::new(50.0, 16.0));
        let legal = legalize(&nl, &p).unwrap();
        // Block unmoved; no cell overlaps it.
        assert_eq!(legal.position(blk), Point::new(50.0, 16.0));
        let block_rect = legal.cell_rect(blk, nl.cell(blk).size());
        for &id in &ids {
            let r = legal.cell_rect(id, nl.cell(id).size());
            assert!(!r.overlaps(&block_rect), "cell {id} overlaps the block");
        }
        assert!(check_legality(&nl, &legal, 1e-6).is_legal());
    }

    #[test]
    fn cells_keep_left_to_right_order_within_a_cluster() {
        // Two cells piled at the same x must come out side by side in
        // x-sorted order, centered around the pile.
        let mut b = NetlistBuilder::new();
        b.core_region(Rect::new(0.0, 0.0, 40.0, 16.0));
        b.rows(1, 16.0);
        let a = b.add_cell("a", Size::new(8.0, 16.0));
        let c = b.add_cell("c", Size::new(8.0, 16.0));
        b.add_net("n", [(a, PinDirection::Output), (c, PinDirection::Input)]);
        let nl = b.build().unwrap();
        let mut p = nl.initial_placement();
        p.set_position(a, Point::new(19.0, 8.0));
        p.set_position(c, Point::new(21.0, 8.0));
        let legal = legalize(&nl, &p).unwrap();
        let xa = legal.position(a).x;
        let xc = legal.position(c).x;
        assert!(xa < xc, "order flipped: {xa} vs {xc}");
        assert!((xc - xa - 8.0).abs() < 1e-9, "cells should abut");
        // The pair stays centered near x = 20.
        assert!(((xa + xc) * 0.5 - 20.0).abs() < 1.0);
    }

    #[test]
    fn deterministic() {
        let nl = generate(&SynthConfig::with_size("det", 150, 190, 6));
        let a = legalize(&nl, &nl.initial_placement()).unwrap();
        let b = legalize(&nl, &nl.initial_placement()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_does_not_change_the_legalization() {
        let nl = generate(&SynthConfig::with_size("det-par", 150, 190, 6));
        kraftwerk_par::set_threads(1);
        let one = legalize(&nl, &nl.initial_placement()).unwrap();
        kraftwerk_par::set_threads(4);
        let four = legalize(&nl, &nl.initial_placement()).unwrap();
        kraftwerk_par::set_threads(0);
        assert_eq!(one, four);
    }
}
