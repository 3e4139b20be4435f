//! Mixed block/cell placement and floorplanning (section 5 of the paper).
//!
//! The paper's headline flexibility claim is that the force-directed
//! algorithm "is able to handle large mixed block/cell placement problems
//! without treating blocks and cells differently": blocks are just big
//! cells in the density model. This crate packages that flow:
//!
//! 1. [`place_mixed`] — run the Kraftwerk global placer on blocks and
//!    cells *together* (no special casing — that happens inside
//!    `kraftwerk-core` automatically because the density map deposits
//!    every movable rectangle);
//! 2. [`legalize_blocks`] — remove residual block/block overlap with a
//!    minimal-displacement push-apart pass (blocks stay near their global
//!    positions);
//! 3. detail-place the standard cells around the now-fixed blocks with
//!    `kraftwerk_legalize::detail_place` (blocks become row obstacles).
//!
//! [`recommended_aspect`] supports soft (flexible) blocks: it suggests the
//! aspect ratio that minimizes the block's local wire length, which a
//! caller can feed back into netlist construction — the paper's "flexible
//! block" floorplanning style where block shapes are settled during
//! placement.
//!
//! ```
//! use kraftwerk_floorplan::{place_mixed, MixedPlaceConfig};
//! use kraftwerk_netlist::synth::{generate, SynthConfig};
//!
//! let nl = generate(&SynthConfig::with_size("fp", 150, 190, 8).blocks(3));
//! let result = place_mixed(&nl, &MixedPlaceConfig::default())?;
//! assert!(result.block_overlap_area < 1e-6);
//! # Ok::<(), kraftwerk_floorplan::FloorplanError>(())
//! ```

use kraftwerk_core::{GlobalPlacer, KraftwerkConfig, KraftwerkError};
use kraftwerk_geom::{Point, Rect, Vector};
use kraftwerk_legalize::{check_legality, detail_place, LegalizeError};
use kraftwerk_netlist::{metrics, CellId, CellKind, Netlist, Placement};
use std::error::Error;
use std::fmt;

/// Mixed-placement failure.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FloorplanError {
    /// The global placer rejected the netlist (it failed validation) or
    /// its run failed before any usable placement existed.
    Placement(KraftwerkError),
    /// Standard cells could not be legalized around the blocks.
    Legalize(LegalizeError),
    /// Block area exceeds the core area.
    BlocksDoNotFit,
}

impl fmt::Display for FloorplanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FloorplanError::Placement(e) => write!(f, "global placement failed: {e}"),
            FloorplanError::Legalize(e) => write!(f, "cell legalization failed: {e}"),
            FloorplanError::BlocksDoNotFit => write!(f, "blocks exceed the core area"),
        }
    }
}

impl Error for FloorplanError {}

impl From<LegalizeError> for FloorplanError {
    fn from(e: LegalizeError) -> Self {
        FloorplanError::Legalize(e)
    }
}

impl From<FloorplanError> for KraftwerkError {
    fn from(e: FloorplanError) -> Self {
        KraftwerkError::Floorplan(e.to_string())
    }
}

/// Configuration of the mixed flow.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedPlaceConfig {
    /// Global placer configuration.
    pub placer: KraftwerkConfig,
    /// Push-apart iterations for block legalization.
    pub block_passes: usize,
}

impl Default for MixedPlaceConfig {
    fn default() -> Self {
        Self {
            placer: KraftwerkConfig::standard(),
            block_passes: 120,
        }
    }
}

/// Result of the mixed flow.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedResult {
    /// The raw global placement (blocks may still overlap slightly).
    pub global: Placement,
    /// The final placement: blocks overlap-free, cells legalized into row
    /// segments around them.
    pub legal: Placement,
    /// Residual block/block overlap after push-apart (0 when successful).
    pub block_overlap_area: f64,
    /// HPWL of the final placement.
    pub hpwl: f64,
}

/// Runs the full mixed block/cell flow; see the module documentation.
///
/// # Errors
///
/// Returns [`FloorplanError`] when blocks cannot fit the core, the global
/// placer rejects the netlist or fails, or the cell legalizer runs out of
/// row capacity.
pub fn place_mixed(netlist: &Netlist, config: &MixedPlaceConfig) -> Result<MixedResult, FloorplanError> {
    let blocks: Vec<CellId> = netlist
        .cells()
        .filter(|(_, c)| c.kind() == CellKind::Block)
        .map(|(id, _)| id)
        .collect();
    let block_area: f64 = blocks.iter().map(|&b| netlist.cell(b).area()).sum();
    if block_area > netlist.core_region().area() {
        return Err(FloorplanError::BlocksDoNotFit);
    }

    // 1. Global placement, blocks and cells together.
    let global = GlobalPlacer::new(config.placer.clone())
        .try_place(netlist)
        .map_err(FloorplanError::Placement)?
        .placement;

    // 2. Block legalization: cheap push-apart first (tiny displacements),
    //    greedy candidate packing as the fallback for dense mixes.
    let mut legal = global.clone();
    legalize_blocks(netlist, &mut legal, config.block_passes);
    if block_overlap(netlist, &legal) > 1e-9 {
        pack_blocks(netlist, &mut legal);
    }
    let block_overlap_area = block_overlap(netlist, &legal);

    // 3. Cells around blocks (blocks act as row obstacles).
    if !netlist.rows().is_empty() {
        legal = detail_place(netlist, &legal)?;
    }
    let hpwl = metrics::hpwl(netlist, &legal);
    Ok(MixedResult {
        global,
        legal,
        block_overlap_area,
        hpwl,
    })
}

/// Total pairwise overlap area among blocks.
#[must_use]
pub fn block_overlap(netlist: &Netlist, placement: &Placement) -> f64 {
    let blocks: Vec<(CellId, Rect)> = netlist
        .cells()
        .filter(|(_, c)| c.kind() == CellKind::Block)
        .map(|(id, c)| (id, placement.cell_rect(id, c.size())))
        .collect();
    let mut total = 0.0;
    for i in 0..blocks.len() {
        for j in (i + 1)..blocks.len() {
            total += blocks[i].1.overlap_area(&blocks[j].1);
        }
    }
    total
}

/// Iteratively pushes overlapping blocks apart along the axis of least
/// penetration, keeping every block inside the core. Displacements are
/// split evenly between the two blocks of a pair, so blocks drift as
/// little as possible from their global-placement locations.
pub fn legalize_blocks(netlist: &Netlist, placement: &mut Placement, passes: usize) {
    let core = netlist.core_region();
    let blocks: Vec<(CellId, kraftwerk_geom::Size)> = netlist
        .cells()
        .filter(|(_, c)| c.kind() == CellKind::Block)
        .map(|(id, c)| (id, c.size()))
        .collect();
    if blocks.len() < 2 {
        // Still clamp a lone block into the core.
        for &(id, size) in &blocks {
            clamp_block(core, placement, id, size);
        }
        return;
    }
    for _ in 0..passes {
        let mut moved = false;
        for i in 0..blocks.len() {
            for j in (i + 1)..blocks.len() {
                let (ia, sa) = blocks[i];
                let (ib, sb) = blocks[j];
                let ra = placement.cell_rect(ia, sa);
                let rb = placement.cell_rect(ib, sb);
                let Some(overlap) = ra.intersection(&rb) else {
                    continue;
                };
                moved = true;
                // Push along the axis of least penetration.
                let dx = overlap.width();
                let dy = overlap.height();
                let (va, vb) = if dx <= dy {
                    let dir = if ra.center().x <= rb.center().x { -1.0 } else { 1.0 };
                    (
                        Vector::new(dir * (dx * 0.5 + 1e-9), 0.0),
                        Vector::new(-dir * (dx * 0.5 + 1e-9), 0.0),
                    )
                } else {
                    let dir = if ra.center().y <= rb.center().y { -1.0 } else { 1.0 };
                    (
                        Vector::new(0.0, dir * (dy * 0.5 + 1e-9)),
                        Vector::new(0.0, -dir * (dy * 0.5 + 1e-9)),
                    )
                };
                placement.translate(ia, va);
                placement.translate(ib, vb);
                clamp_block(core, placement, ia, sa);
                clamp_block(core, placement, ib, sb);
            }
        }
        if !moved {
            break;
        }
    }
}

/// Greedy overlap-free packing: blocks are (re)placed in descending area
/// order at the feasible candidate position closest to their current
/// (global-placement) location. Candidate coordinates are the core edges
/// and the faces of already-packed blocks — the classical corner-stitch
/// style enumeration, exact for the block counts floorplans use.
pub fn pack_blocks(netlist: &Netlist, placement: &mut Placement) {
    let before = block_overlap(netlist, placement);
    let snapshot = placement.clone();
    let core = netlist.core_region();
    let mut blocks: Vec<(CellId, kraftwerk_geom::Size)> = netlist
        .cells()
        .filter(|(_, c)| c.kind() == CellKind::Block)
        .map(|(id, c)| (id, c.size()))
        .collect();
    blocks.sort_by(|a, b| b.1.area().total_cmp(&a.1.area()));
    let mut placed: Vec<Rect> = Vec::new();
    for &(id, size) in &blocks {
        let desired = placement.position(id);
        let half_w = size.width * 0.5;
        let half_h = size.height * 0.5;
        let mut xs = vec![core.x_lo + half_w, core.x_hi - half_w, desired.x];
        let mut ys = vec![core.y_lo + half_h, core.y_hi - half_h, desired.y];
        for r in &placed {
            xs.push(r.x_hi + half_w);
            xs.push(r.x_lo - half_w);
            ys.push(r.y_hi + half_h);
            ys.push(r.y_lo - half_h);
        }
        let mut best: Option<(f64, Point)> = None;
        for &x in &xs {
            if x - half_w < core.x_lo - 1e-9 || x + half_w > core.x_hi + 1e-9 {
                continue;
            }
            for &y in &ys {
                if y - half_h < core.y_lo - 1e-9 || y + half_h > core.y_hi + 1e-9 {
                    continue;
                }
                let candidate = Rect::from_center(Point::new(x, y), size);
                if placed.iter().any(|r| r.overlap_area(&candidate) > 1e-9) {
                    continue;
                }
                let cost = desired.distance_sq(Point::new(x, y));
                if best.is_none_or(|(c, _)| cost < c) {
                    best = Some((cost, Point::new(x, y)));
                }
            }
        }
        if let Some((_, at)) = best {
            placement.set_position(id, at);
            placed.push(Rect::from_center(at, size));
        } else {
            // No feasible spot (pathological density): leave the block and
            // let the caller observe the residual overlap.
            placed.push(placement.cell_rect(id, size));
        }
    }
    // Never make things worse than the push-apart result.
    if block_overlap(netlist, placement) > before {
        *placement = snapshot;
    }
}

fn clamp_block(core: Rect, placement: &mut Placement, id: CellId, size: kraftwerk_geom::Size) {
    let half_w = (size.width * 0.5).min(core.width() * 0.5);
    let half_h = (size.height * 0.5).min(core.height() * 0.5);
    let p = placement.position(id);
    placement.set_position(
        id,
        Point::new(
            p.x.clamp(core.x_lo + half_w, core.x_hi - half_w),
            p.y.clamp(core.y_lo + half_h, core.y_hi - half_h),
        ),
    );
}

/// Suggests an aspect ratio (width/height) for a soft block that
/// minimizes its wire length to currently placed neighbours: mostly
/// horizontal connectivity favours a tall, narrow block (pins reachable
/// along the short horizontal faces) and vice versa. The returned value
/// is clamped to `[min_aspect, max_aspect]`; callers rebuild the netlist
/// with the reshaped block.
///
/// # Panics
///
/// Panics if `block` has no pins or the aspect bounds are invalid.
#[must_use]
pub fn recommended_aspect(
    netlist: &Netlist,
    placement: &Placement,
    block: CellId,
    min_aspect: f64,
    max_aspect: f64,
) -> f64 {
    assert!(min_aspect > 0.0 && max_aspect >= min_aspect, "invalid aspect bounds");
    let pins = netlist.cell(block).pins();
    assert!(!pins.is_empty(), "block has no pins");
    let here = placement.position(block);
    let mut dx = 0.0;
    let mut dy = 0.0;
    for &pid in pins {
        let net = netlist.pin(pid).net();
        for &other in netlist.net(net).pins() {
            if netlist.pin(other).cell() == block {
                continue;
            }
            let p = netlist.pin_position(other, placement);
            dx += (p.x - here.x).abs();
            dy += (p.y - here.y).abs();
        }
    }
    if dx + dy <= 0.0 {
        return 1.0f64.clamp(min_aspect, max_aspect);
    }
    // Horizontal pull (large dx) wants a narrow block: aspect < 1.
    let aspect = (dy / dx.max(1e-12)).sqrt().max(1e-3);
    aspect.clamp(min_aspect, max_aspect)
}

/// Whether the complete mixed placement is legal: blocks disjoint and
/// in-core, standard cells row-legal around them.
#[must_use]
pub fn is_legal_mixed(netlist: &Netlist, placement: &Placement, tolerance: f64) -> bool {
    block_overlap(netlist, placement) <= tolerance
        && check_legality(netlist, placement, tolerance).is_legal()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kraftwerk_netlist::synth::{generate, SynthConfig};
    use kraftwerk_netlist::{NetlistBuilder, PinDirection};

    #[test]
    fn mixed_flow_produces_overlap_free_blocks_and_legal_cells() {
        let nl = generate(&SynthConfig::with_size("fp", 200, 260, 10).blocks(4));
        let result = place_mixed(&nl, &MixedPlaceConfig::default()).unwrap();
        assert!(result.block_overlap_area < 1e-6, "block overlap {}", result.block_overlap_area);
        assert!(is_legal_mixed(&nl, &result.legal, 1e-6));
        assert!(result.hpwl > 0.0);
    }

    #[test]
    fn blocks_barely_move_during_block_legalization_when_disjoint() {
        let nl = generate(&SynthConfig::with_size("fp2", 120, 150, 8).blocks(2));
        let global = GlobalPlacer::new(KraftwerkConfig::standard())
            .try_place(&nl)
            .expect("placement")
            .placement;
        let mut legal = global.clone();
        legalize_blocks(&nl, &mut legal, 120);
        // Whatever the push-apart did, blocks stay within the core and
        // within a block-diagonal of their global spots.
        for (id, cell) in nl.cells() {
            if cell.kind() != CellKind::Block {
                continue;
            }
            let d = global.position(id).distance(legal.position(id));
            let diag = (cell.size().width.powi(2) + cell.size().height.powi(2)).sqrt();
            assert!(d <= 3.0 * diag, "block {} moved {d}", cell.name());
        }
    }

    #[test]
    fn oversized_blocks_are_rejected() {
        let mut b = NetlistBuilder::new();
        b.core_region(Rect::new(0.0, 0.0, 10.0, 10.0));
        let blk = b.add_block("huge", kraftwerk_geom::Size::new(50.0, 50.0));
        let c = b.add_cell("c", kraftwerk_geom::Size::new(1.0, 1.0));
        b.add_net("n", [(blk, PinDirection::Output), (c, PinDirection::Input)]);
        let nl = b.build().unwrap();
        assert_eq!(
            place_mixed(&nl, &MixedPlaceConfig::default()).unwrap_err(),
            FloorplanError::BlocksDoNotFit
        );
    }

    #[test]
    fn netlists_the_placer_rejects_are_errors_not_panics() {
        let two_cells = |core: Rect, offset: Vector| {
            let mut b = NetlistBuilder::new();
            b.core_region(core);
            let a = b.add_cell("a", kraftwerk_geom::Size::new(1.0, 1.0));
            let c = b.add_cell("c", kraftwerk_geom::Size::new(1.0, 1.0));
            b.add_weighted_net(
                "n",
                1.0,
                [(a, offset, PinDirection::Output), (c, Vector::ZERO, PinDirection::Input)],
            );
            b.build().unwrap()
        };
        let nan_pin = two_cells(Rect::new(0.0, 0.0, 10.0, 10.0), Vector::new(f64::NAN, 0.0));
        let zero_width_core = two_cells(Rect::new(0.0, 0.0, 0.0, 10.0), Vector::ZERO);
        for nl in [nan_pin, zero_width_core] {
            let err = place_mixed(&nl, &MixedPlaceConfig::default()).unwrap_err();
            assert!(
                matches!(err, FloorplanError::Placement(KraftwerkError::Validation(_))),
                "{err}"
            );
            assert_eq!(KraftwerkError::from(err).exit_code(), 8);
        }
    }

    #[test]
    fn push_apart_resolves_a_stack_of_blocks() {
        let mut b = NetlistBuilder::new();
        b.core_region(Rect::new(0.0, 0.0, 100.0, 100.0));
        let ids: Vec<_> = (0..4)
            .map(|i| b.add_block(format!("b{i}"), kraftwerk_geom::Size::new(20.0, 20.0)))
            .collect();
        for w in ids.windows(2) {
            b.add_net(format!("n{}", w[0]), [(w[0], PinDirection::Output), (w[1], PinDirection::Input)]);
        }
        let nl = b.build().unwrap();
        let mut p = nl.initial_placement(); // all four at the center
        legalize_blocks(&nl, &mut p, 500);
        assert!(block_overlap(&nl, &p) < 1e-6, "overlap {}", block_overlap(&nl, &p));
        let core = nl.core_region();
        for &id in &ids {
            assert!(core.contains_rect(&p.cell_rect(id, nl.cell(id).size())));
        }
    }

    #[test]
    fn recommended_aspect_follows_connectivity_direction() {
        let mut b = NetlistBuilder::new();
        b.core_region(Rect::new(0.0, 0.0, 100.0, 100.0));
        let blk = b.add_block("blk", kraftwerk_geom::Size::new(10.0, 10.0));
        let east = b.add_fixed_cell("e", kraftwerk_geom::Size::new(1.0, 1.0), Point::new(100.0, 50.0));
        let west = b.add_fixed_cell("w", kraftwerk_geom::Size::new(1.0, 1.0), Point::new(0.0, 50.0));
        b.add_net("n1", [(blk, PinDirection::Output), (east, PinDirection::Input)]);
        b.add_net("n2", [(blk, PinDirection::Output), (west, PinDirection::Input)]);
        let nl = b.build().unwrap();
        let mut p = nl.initial_placement();
        p.set_position(blk, Point::new(50.0, 50.0));
        // Purely horizontal connectivity: want a narrow (aspect < 1) block.
        let aspect = recommended_aspect(&nl, &p, blk, 0.25, 4.0);
        assert!(aspect < 1.0, "aspect {aspect}");
    }

    #[test]
    fn pack_blocks_is_deterministic() {
        let nl = generate(&SynthConfig::with_size("fpd", 150, 190, 8).blocks(4));
        let mut a = nl.initial_placement();
        let mut b = nl.initial_placement();
        pack_blocks(&nl, &mut a);
        pack_blocks(&nl, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn mixed_flow_is_deterministic() {
        let nl = generate(&SynthConfig::with_size("fpd2", 150, 190, 8).blocks(2));
        let x = place_mixed(&nl, &MixedPlaceConfig::default()).unwrap();
        let y = place_mixed(&nl, &MixedPlaceConfig::default()).unwrap();
        assert_eq!(x.legal, y.legal);
        assert_eq!(x.hpwl, y.hpwl);
    }

    #[test]
    #[should_panic(expected = "invalid aspect bounds")]
    fn recommended_aspect_rejects_bad_bounds() {
        let nl = generate(&SynthConfig::with_size("fpb", 80, 100, 6).blocks(1));
        let block = nl
            .cells()
            .find(|(_, c)| c.kind() == CellKind::Block)
            .map(|(id, _)| id)
            .unwrap();
        let _ = recommended_aspect(&nl, &nl.initial_placement(), block, 2.0, 1.0);
    }

    #[test]
    fn block_free_netlist_mixed_flow_reduces_to_plain_flow() {
        let nl = generate(&SynthConfig::with_size("fpp", 150, 190, 6));
        let result = place_mixed(&nl, &MixedPlaceConfig::default()).unwrap();
        assert_eq!(result.block_overlap_area, 0.0);
        assert!(is_legal_mixed(&nl, &result.legal, 1e-6));
    }

    #[test]
    fn recommended_aspect_respects_bounds() {
        let nl = generate(&SynthConfig::with_size("fp3", 80, 100, 6).blocks(1));
        let block = nl
            .cells()
            .find(|(_, c)| c.kind() == CellKind::Block)
            .map(|(id, _)| id)
            .unwrap();
        let p = nl.initial_placement();
        let a = recommended_aspect(&nl, &p, block, 0.8, 1.25);
        assert!((0.8..=1.25).contains(&a));
    }
}
