//! Tetris legalization — the classical greedy baseline to Abacus, kept
//! only as the reference the Abacus displacement test compares against.
//!
//! Cells are processed left to right; each abuts the frontier (the right
//! edge of the last placed cell) of the row segment that minimizes its
//! displacement. One pass, no re-packing — fast and simple, but every
//! cell is dragged to the packing frontier where Abacus would place a
//! whole cluster optimally.

use crate::abacus::LegalizeError;
use kraftwerk_geom::{Point, Rect};
use kraftwerk_netlist::{CellId, CellKind, Netlist, Placement};

/// A row segment with a packing frontier.
struct Frontier {
    x: f64,
    x_hi: f64,
    y_center: f64,
}

/// Greedy Tetris legalization; same contract as [`crate::legalize`] but
/// single-pass greedy instead of Abacus clustering.
fn legalize_tetris(netlist: &Netlist, placement: &Placement) -> Result<Placement, LegalizeError> {
    if netlist.rows().is_empty() {
        return Err(LegalizeError::NoRows);
    }
    // Segments around obstacles (fixed cells and blocks).
    let mut obstacles: Vec<Rect> = Vec::new();
    for (id, cell) in netlist.cells() {
        match cell.kind() {
            CellKind::Fixed => {
                if let Some(p) = cell.fixed_position() {
                    obstacles.push(Rect::from_center(p, cell.size()));
                }
            }
            CellKind::Block => obstacles.push(placement.cell_rect(id, cell.size())),
            CellKind::Standard => {}
        }
    }
    let mut frontiers: Vec<Frontier> = Vec::new();
    for row in netlist.rows() {
        let row_rect = row.rect();
        let mut blocked: Vec<(f64, f64)> = obstacles
            .iter()
            .filter(|o| o.overlaps(&row_rect))
            .map(|o| (o.x_lo.max(row.x_lo), o.x_hi.min(row.x_hi)))
            .collect();
        blocked.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut cursor = row.x_lo;
        for (lo, hi) in blocked {
            if lo > cursor {
                frontiers.push(Frontier {
                    x: cursor,
                    x_hi: lo,
                    y_center: row.center_y(),
                });
            }
            cursor = cursor.max(hi);
        }
        if cursor < row.x_hi {
            frontiers.push(Frontier {
                x: cursor,
                x_hi: row.x_hi,
                y_center: row.center_y(),
            });
        }
    }

    let mut cells: Vec<(CellId, f64, Point)> = netlist
        .cells()
        .filter(|(_, c)| c.kind() == CellKind::Standard)
        .map(|(id, c)| (id, c.size().width, placement.position(id)))
        .collect();
    cells.sort_by(|a, b| a.2.x.total_cmp(&b.2.x));

    let mut result = placement.clone();
    for (id, width, desired) in cells {
        let mut best: Option<(f64, usize, f64)> = None; // (cost, frontier, x_left)
        for (fi, frontier) in frontiers.iter().enumerate() {
            if frontier.x_hi - frontier.x < width {
                continue;
            }
            // Strict packing: cells abut at the frontier, never leaving a
            // gap — the variant that stays feasible at benchmark-level row
            // utilization (gap-leaving Tetris needs <70% full rows).
            let x_left = frontier.x;
            let dx = x_left + width * 0.5 - desired.x;
            let dy = frontier.y_center - desired.y;
            let cost = dx * dx + dy * dy;
            if best.is_none_or(|(c, _, _)| cost < c) {
                best = Some((cost, fi, x_left));
            }
        }
        let Some((_, fi, x_left)) = best else {
            return Err(LegalizeError::NoRoom(netlist.cell(id).name().to_owned()));
        };
        result.set_position(id, Point::new(x_left + width * 0.5, frontiers[fi].y_center));
        frontiers[fi].x = x_left + width;
    }
    Ok(result)
}

#[test]
fn abacus_displaces_no_more_than_tetris() -> Result<(), Box<dyn std::error::Error>> {
    use crate::{check_legality, legalize};
    use kraftwerk_core::{GlobalPlacer, KraftwerkConfig};
    use kraftwerk_netlist::synth::{generate, SynthConfig};

    let nl = generate(&SynthConfig::with_size("tet2", 400, 500, 10));
    let global = GlobalPlacer::new(KraftwerkConfig::standard())
        .try_place(&nl)?
        .placement;
    let tetris = legalize_tetris(&nl, &global)?;
    let abacus = legalize(&nl, &global)?;
    // Both are real legalizations of the same global placement.
    assert!(check_legality(&nl, &tetris, 1e-6).is_legal());
    assert!(check_legality(&nl, &abacus, 1e-6).is_legal());
    let d_tetris = global.total_displacement(&tetris);
    let d_abacus = global.total_displacement(&abacus);
    assert!(
        d_abacus <= 1.1 * d_tetris,
        "abacus {d_abacus:.0} should not displace much more than tetris {d_tetris:.0}"
    );
    Ok(())
}
