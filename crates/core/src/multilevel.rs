//! Multilevel (clustered) placement — the extension the paper's
//! conclusion points at ("placing larger netlists in less time").
//!
//! The flow is a recursive V-cycle in the spirit of the Ron–Safro–Brandt
//! multigrid energy-minimization scheme, built on the Kraftwerk engine:
//!
//! 1. **Coarsen recursively** ([`cluster`] per level): heavy-edge
//!    matching merges strongly connected movable cells pairwise; each
//!    level coarsens the previous one until at most
//!    [`MultilevelConfig::coarsest_movable`] movables remain;
//! 2. **Place the coarsest level fully**: the ordinary Kraftwerk
//!    iteration on the smallest clustered netlist — fewer variables,
//!    bigger objects, same algorithm (the mixed-size claim of section 5
//!    is what makes this work unchanged);
//! 3. **Interpolate + refine per level** ([`Clustering::expand`], then a
//!    resumed ECO-style session): walking back down the hierarchy, every
//!    level seeds from its parent's placement and runs a *shrinking*
//!    number of refinement transformations — the finer the level, the
//!    fewer (and cheaper-per-variable) the corrections it needs.
//!
//! One [`PlacementSession`] scratch arena is threaded through every
//! level, so the zero-steady-state-allocation property holds per level
//! instead of paying a cold-start growth at each.
//!
//! [`try_place_multilevel`] packages the whole flow; by default it also
//! switches the net model to [`NetModel::B2B`], whose assembly is linear
//! in net degree — the combination is the supported path for designs
//! beyond ~25k cells.
//!
//! ```
//! use kraftwerk_core::{cluster, ClusteringConfig};
//! use kraftwerk_netlist::synth::{generate, SynthConfig};
//!
//! let nl = generate(&SynthConfig::with_size("ml", 200, 260, 8));
//! let clustering = cluster(&nl, &ClusteringConfig::default());
//! assert!(clustering.coarse().num_movable() < nl.num_movable());
//! ```

use crate::arena::ScratchArena;
use crate::config::{KraftwerkConfig, NetModel};
use crate::error::KraftwerkError;
use crate::session::{PlaceResult, PlacementSession};
use kraftwerk_geom::{Point, Size, Vector};
use kraftwerk_netlist::{CellId, CellKind, Netlist, NetlistBuilder, PinDirection, Placement};
use std::collections::HashMap;

/// Coarsening controls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusteringConfig {
    /// Stop coarsening once `coarse cells / original cells` drops to this
    /// ratio (each matching pass roughly halves the count).
    pub target_ratio: f64,
    /// Largest cluster area as a multiple of the average cell area;
    /// prevents snowballing super-clusters that the density model cannot
    /// spread.
    pub max_cluster_area_factor: f64,
}

impl Default for ClusteringConfig {
    fn default() -> Self {
        Self {
            target_ratio: 0.3,
            max_cluster_area_factor: 12.0,
        }
    }
}

/// Controls for the recursive multilevel V-cycle
/// ([`try_place_multilevel`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MultilevelConfig {
    /// Per-level coarsening controls. The per-level
    /// [`target_ratio`](ClusteringConfig::target_ratio) is deliberately
    /// gentler than the one-shot default (0.45 vs 0.3): several gentle
    /// levels preserve more connectivity signal than one aggressive
    /// collapse.
    pub clustering: ClusteringConfig,
    /// Stop coarsening once a level has at most this many movable cells;
    /// that level is placed with the full transformation budget.
    pub coarsest_movable: usize,
    /// Hard cap on hierarchy depth (safety valve; the coarsest-movable
    /// threshold is what normally terminates coarsening).
    pub max_levels: usize,
    /// Refinement-transformation budget at the level just above the
    /// coarsest; finer levels shrink proportionally to their size (a
    /// level with `r×` the coarsest's movables gets `refine_base/r`
    /// transformations, floored at [`refine_min`](Self::refine_min)).
    pub refine_base: usize,
    /// Minimum refinement transformations at any level.
    pub refine_min: usize,
    /// Net-model override applied to every level's session. Defaults to
    /// [`NetModel::B2B`], whose assembly is linear in net degree — the
    /// right trade at the scales that justify a multilevel run. `None`
    /// keeps the caller's configured model.
    pub net_model: Option<NetModel>,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        Self {
            clustering: ClusteringConfig {
                target_ratio: 0.45,
                max_cluster_area_factor: 12.0,
            },
            coarsest_movable: 3000,
            max_levels: 12,
            refine_base: 32,
            refine_min: 8,
            net_model: Some(NetModel::B2B),
        }
    }
}

/// The result of coarsening: the clustered netlist plus the cell↔cluster
/// maps needed to move placements between the levels.
#[derive(Debug, Clone)]
pub struct Clustering {
    coarse: Netlist,
    /// For every original cell, its cluster's cell id in `coarse`.
    cluster_of: Vec<CellId>,
    /// For every coarse cell, the original member cells.
    members: Vec<Vec<CellId>>,
}

impl Clustering {
    /// The clustered netlist.
    #[must_use]
    pub fn coarse(&self) -> &Netlist {
        &self.coarse
    }

    /// The cluster (coarse cell) an original cell belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not from the original netlist.
    #[must_use]
    pub fn cluster_of(&self, cell: CellId) -> CellId {
        self.cluster_of[cell.index()]
    }

    /// Member cells of a coarse cell.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is not from the coarse netlist.
    #[must_use]
    pub fn members(&self, cluster: CellId) -> &[CellId] {
        &self.members[cluster.index()]
    }

    /// Expands a coarse placement onto the original netlist: every member
    /// lands at its cluster's position, fanned out horizontally over the
    /// cluster's width so members do not sit exactly on top of each
    /// other, then clamped so the member's own footprint stays inside the
    /// core region even when the cluster was placed against an edge.
    #[must_use]
    pub fn expand(&self, original: &Netlist, coarse_placement: &Placement) -> Placement {
        let core = original.core_region();
        let mut placement = original.initial_placement();
        for (cluster_idx, members) in self.members.iter().enumerate() {
            let cluster_id = CellId::from_index(cluster_idx);
            let at = coarse_placement.position(cluster_id);
            let total_width: f64 = members
                .iter()
                .map(|&m| original.cell(m).size().width)
                .sum();
            let mut x = at.x - total_width * 0.5;
            for &member in members {
                if !original.cell(member).is_movable() {
                    continue;
                }
                let size = original.cell(member).size();
                let half_w = (size.width * 0.5).min(core.width() * 0.5);
                let half_h = (size.height * 0.5).min(core.height() * 0.5);
                placement.set_position(
                    member,
                    Point::new(
                        (x + size.width * 0.5).clamp(core.x_lo + half_w, core.x_hi - half_w),
                        at.y.clamp(core.y_lo + half_h, core.y_hi - half_h),
                    ),
                );
                x += size.width;
            }
        }
        placement
    }
}

/// Heavy-edge matching coarsening; see the module documentation.
///
/// Fixed cells are never merged (each remains its own singleton cluster
/// at its fixed position); blocks are not merged either, preserving
/// their identity for the mixed flows.
#[must_use]
pub fn cluster(netlist: &Netlist, config: &ClusteringConfig) -> Clustering {
    let n = netlist.num_cells();
    // Union-find over original cells.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }

    let avg_area = netlist.average_cell_area().max(1e-12);
    let max_area = config.max_cluster_area_factor * avg_area;
    let mut area: Vec<f64> = netlist.cell_ids().map(|id| netlist.cell(id).area()).collect();
    let mergeable =
        |nl: &Netlist, id: usize| nl.cell(CellId::from_index(id)).kind() == CellKind::Standard;

    let target = ((netlist.num_movable() as f64) * config.target_ratio).max(4.0) as usize;
    let mut movable_clusters = netlist.num_movable();

    // Matching passes.
    for _pass in 0..8 {
        if movable_clusters <= target {
            break;
        }
        // Connectivity between current clusters: weight 1/(k-1) per
        // shared net, the standard heavy-edge score.
        let mut scores: HashMap<(usize, usize), f64> = HashMap::new();
        for (_, net) in netlist.nets() {
            let k = net.degree();
            if !(2..=16).contains(&k) {
                continue; // huge nets carry no locality signal
            }
            let w = 1.0 / (k as f64 - 1.0);
            let roots: Vec<usize> = net
                .pins()
                .iter()
                .map(|&p| find(&mut parent, netlist.pin(p).cell().index()))
                .collect();
            for i in 0..roots.len() {
                for j in (i + 1)..roots.len() {
                    let (a, b) = (roots[i].min(roots[j]), roots[i].max(roots[j]));
                    if a != b {
                        *scores.entry((a, b)).or_insert(0.0) += w;
                    }
                }
            }
        }
        // Sort candidate pairs by score (descending) and greedily match.
        let mut pairs: Vec<((usize, usize), f64)> = scores.into_iter().collect();
        pairs.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
        let mut matched = vec![false; n];
        let mut merged_any = false;
        for ((a, b), _) in pairs {
            if matched[a] || matched[b] {
                continue;
            }
            if !mergeable(netlist, a) || !mergeable(netlist, b) {
                continue;
            }
            if area[a] + area[b] > max_area {
                continue;
            }
            parent[b] = a;
            area[a] += area[b];
            matched[a] = true;
            matched[b] = true;
            movable_clusters -= 1;
            merged_any = true;
            if movable_clusters <= target {
                break;
            }
        }
        if !merged_any {
            break;
        }
    }

    // Materialize the clustered netlist.
    let roots: Vec<usize> = (0..n).map(|i| find(&mut parent, i)).collect();
    let mut members_of_root: HashMap<usize, Vec<CellId>> = HashMap::new();
    for i in 0..n {
        members_of_root
            .entry(roots[i])
            .or_default()
            .push(CellId::from_index(i));
    }
    let mut root_list: Vec<usize> = members_of_root.keys().copied().collect();
    root_list.sort_unstable();

    let row_height = netlist.rows().first().map_or_else(
        || netlist.average_cell_area().sqrt(),
        |r| r.height,
    );
    let mut builder = NetlistBuilder::new();
    builder.name(format!("{}_coarse", netlist.name()));
    builder.core_region(netlist.core_region());
    if let Some(row) = netlist.rows().first() {
        builder.rows(netlist.rows().len(), row.height);
    }
    let mut coarse_id_of_root: HashMap<usize, CellId> = HashMap::new();
    let mut members: Vec<Vec<CellId>> = Vec::with_capacity(root_list.len());
    for &root in &root_list {
        let member_cells = &members_of_root[&root];
        let first = netlist.cell(member_cells[0]);
        let name = format!("cl_{root}");
        let coarse_id = if member_cells.len() == 1 {
            match first.kind() {
                CellKind::Fixed => builder.add_fixed_cell(
                    name,
                    first.size(),
                    first.fixed_position().expect("fixed cell has position"),
                ),
                CellKind::Block => builder.add_block(name, first.size()),
                CellKind::Standard => builder.add_cell(name, first.size()),
            }
        } else {
            // Merged standard cells: one wide cell of the combined area.
            let total_area: f64 = member_cells.iter().map(|&m| netlist.cell(m).area()).sum();
            builder.add_cell(name, Size::new(total_area / row_height, row_height))
        };
        coarse_id_of_root.insert(root, coarse_id);
        members.push(member_cells.clone());
    }

    // Nets: map pins to clusters, dedupe, drop internal nets.
    for (_, net) in netlist.nets() {
        let mut seen: Vec<(CellId, PinDirection)> = Vec::new();
        for &pid in net.pins() {
            let pin = netlist.pin(pid);
            let cluster = coarse_id_of_root[&roots[pin.cell().index()]];
            match seen.iter_mut().find(|(c, _)| *c == cluster) {
                Some((_, dir)) => {
                    if pin.direction() == PinDirection::Output {
                        *dir = PinDirection::Output;
                    }
                }
                None => seen.push((cluster, pin.direction())),
            }
        }
        if seen.len() >= 2 {
            builder.add_weighted_net(
                net.name(),
                net.weight(),
                seen.into_iter().map(|(c, d)| (c, Vector::ZERO, d)),
            );
        }
    }

    let coarse = builder.build().expect("clustered netlist is valid");
    let cluster_of = roots
        .iter()
        .map(|r| coarse_id_of_root[r])
        .collect();
    Clustering {
        coarse,
        cluster_of,
        members,
    }
}

/// Builds the coarsening hierarchy: `levels[0]` clusters `netlist`,
/// `levels[i]` clusters `levels[i-1].coarse()`, until the coarsest level
/// fits under `ml.coarsest_movable` movables, coarsening stalls, or the
/// depth cap is reached. Empty when the netlist is already small enough.
#[must_use]
pub fn build_hierarchy(netlist: &Netlist, ml: &MultilevelConfig) -> Vec<Clustering> {
    let mut levels: Vec<Clustering> = Vec::new();
    for _ in 0..ml.max_levels {
        let cur: &Netlist = levels.last().map_or(netlist, |c| c.coarse());
        if cur.num_movable() <= ml.coarsest_movable {
            break;
        }
        let next = cluster(cur, &ml.clustering);
        // No-progress guard: matching can stall (area caps, fixed cells);
        // a level that barely shrinks would only add interpolation error.
        if next.coarse().num_movable() * 50 >= cur.num_movable() * 49 {
            break;
        }
        levels.push(next);
    }
    levels
}

/// The complete multilevel V-cycle: validates the netlist at the
/// boundary ([`Netlist::validate`]), coarsens recursively, places the
/// coarsest level with the full budget, then expands and refines each
/// finer level with a shrinking number of transformations (see the
/// module docs). One scratch arena serves every level.
///
/// # Errors
///
/// Returns [`KraftwerkError::Validation`] for rejected input, like
/// [`GlobalPlacer::try_place`](crate::GlobalPlacer::try_place), and
/// propagates the first level run that fails before producing any usable
/// placement (see [`PlacementSession::try_run`] for the contract).
pub fn try_place_multilevel(
    netlist: &Netlist,
    config: KraftwerkConfig,
    ml: &MultilevelConfig,
) -> Result<PlaceResult, KraftwerkError> {
    netlist.validate()?;
    let mut cfg = config;
    if let Some(model) = ml.net_model {
        cfg.net_model = model;
    }
    // Resolve a relative wall-clock budget into one absolute deadline up
    // front: every level session clones this config, so the whole V-cycle
    // shares a single cut-off instead of restarting the clock per level.
    cfg.watchdog.deadline = cfg.watchdog.resolve_deadline();
    let levels = build_hierarchy(netlist, ml);
    kraftwerk_trace::counter("multilevel.levels", levels.len() as u64 + 1);

    // Place the coarsest level with the full transformation budget.
    let coarsest: &Netlist = levels.last().map_or(netlist, |c| c.coarse());
    let coarsest_movable = coarsest.num_movable().max(1);
    let mut session = PlacementSession::with_arena(coarsest, cfg.clone(), ScratchArena::default());
    let (mut stats, mut converged) = session.run_loop_with(|_, _| {})?;
    let mut health = session.health_snapshot();
    let (mut placement, mut arena) = session.into_parts();

    // Walk back down the hierarchy: interpolate the parent's placement
    // onto the finer level, then refine with a budget that shrinks in
    // proportion to the level's size so total work stays near-linear.
    for li in (0..levels.len()).rev() {
        let clustering = &levels[li];
        let fine: &Netlist = if li == 0 { netlist } else { levels[li - 1].coarse() };
        let expanded = clustering.expand(fine, &placement);
        let ratio = coarsest_movable as f64 / fine.num_movable().max(1) as f64;
        let budget = ((ml.refine_base as f64 * ratio).round() as usize)
            .clamp(ml.refine_min.max(1), ml.refine_base.max(1));
        let mut level_cfg = cfg.clone();
        level_cfg.max_transformations = budget;
        let mut session = PlacementSession::resume_with_arena(fine, level_cfg, expanded, arena);
        let (level_stats, level_converged) = session.run_loop_with(|_, _| {})?;
        let h = session.health_snapshot();
        health.trips += h.trips;
        health.recoveries += h.recoveries;
        health.degraded |= h.degraded;
        health.budget_exhausted |= h.budget_exhausted;
        // Levels share one deadline, so the later snapshot is the
        // authoritative remaining budget.
        if h.remaining_budget_ms.is_some() {
            health.remaining_budget_ms = h.remaining_budget_ms;
        }
        // Renumber so the combined record stays monotonic across levels.
        let offset = stats.last().map_or(0, |s| s.iteration);
        stats.extend(level_stats.into_iter().map(|mut s| {
            s.iteration += offset;
            s
        }));
        converged = level_converged;
        let parts = session.into_parts();
        placement = parts.0;
        arena = parts.1;
    }
    Ok(PlaceResult {
        placement,
        stats,
        converged,
        health,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::GlobalPlacer;
    use kraftwerk_netlist::metrics;
    use kraftwerk_netlist::synth::{generate, SynthConfig};

    fn circuit() -> Netlist {
        generate(&SynthConfig::with_size("ml", 600, 720, 12))
    }

    #[test]
    fn clustering_reduces_movable_count_to_the_target() {
        let nl = circuit();
        let c = cluster(&nl, &ClusteringConfig::default());
        let ratio = c.coarse().num_movable() as f64 / nl.num_movable() as f64;
        assert!(ratio <= 0.5, "ratio {ratio}");
        assert!(c.coarse().num_movable() >= 4);
    }

    #[test]
    fn clustering_preserves_total_movable_area() {
        let nl = circuit();
        let c = cluster(&nl, &ClusteringConfig::default());
        let a = nl.total_movable_area();
        let b = c.coarse().total_movable_area();
        assert!((a - b).abs() < 1e-6 * a, "{a} vs {b}");
    }

    #[test]
    fn fixed_cells_stay_fixed_and_singleton() {
        let nl = circuit();
        let c = cluster(&nl, &ClusteringConfig::default());
        let fixed_before = nl.num_cells() - nl.num_movable();
        let fixed_after = c.coarse().num_cells() - c.coarse().num_movable();
        assert_eq!(fixed_before, fixed_after);
        for (id, cell) in nl.cells() {
            if cell.kind() == CellKind::Fixed {
                let cl = c.cluster_of(id);
                assert_eq!(c.members(cl), &[id]);
                assert_eq!(
                    c.coarse().cell(cl).fixed_position(),
                    cell.fixed_position()
                );
            }
        }
    }

    #[test]
    fn every_original_cell_has_exactly_one_cluster() {
        let nl = circuit();
        let c = cluster(&nl, &ClusteringConfig::default());
        let mut counted = 0;
        for cluster_id in c.coarse().cell_ids() {
            counted += c.members(cluster_id).len();
            for &m in c.members(cluster_id) {
                assert_eq!(c.cluster_of(m), cluster_id);
            }
        }
        assert_eq!(counted, nl.num_cells());
    }

    #[test]
    fn cluster_area_cap_is_respected() {
        let nl = circuit();
        let cfg = ClusteringConfig::default();
        let c = cluster(&nl, &cfg);
        let cap = cfg.max_cluster_area_factor * nl.average_cell_area();
        for (_, cell) in c.coarse().cells() {
            if cell.kind() == CellKind::Standard {
                assert!(cell.area() <= cap + 1e-6, "cluster area {}", cell.area());
            }
        }
    }

    #[test]
    fn expand_covers_every_movable_cell() {
        let nl = circuit();
        let c = cluster(&nl, &ClusteringConfig::default());
        let coarse_placement = c.coarse().initial_placement();
        let flat = c.expand(&nl, &coarse_placement);
        assert_eq!(flat.len(), nl.num_cells());
        // Members land near their cluster's position.
        for cluster_id in c.coarse().cell_ids() {
            let at = coarse_placement.position(cluster_id);
            for &m in c.members(cluster_id) {
                if nl.cell(m).is_movable() {
                    let d = flat.position(m).distance(at);
                    let w = c.coarse().cell(cluster_id).size().width;
                    assert!(d <= w, "member {m} strayed {d} (cluster width {w})");
                }
            }
        }
    }

    #[test]
    fn multilevel_flow_is_competitive_with_flat_placement() {
        let nl = circuit();
        let flat = GlobalPlacer::new(KraftwerkConfig::standard())
            .try_place(&nl)
            .expect("placement");
        // Force at least one real level: the 600-cell circuit is below
        // the default coarsest threshold.
        let ml_cfg = MultilevelConfig {
            coarsest_movable: 200,
            ..MultilevelConfig::default()
        };
        let ml = try_place_multilevel(&nl, KraftwerkConfig::standard(), &ml_cfg)
            .expect("multilevel placement");
        let flat_hpwl = metrics::hpwl(&nl, &flat.placement);
        let ml_hpwl = metrics::hpwl(&nl, &ml.placement);
        assert!(
            ml_hpwl < 1.35 * flat_hpwl,
            "multilevel {ml_hpwl:.0} vs flat {flat_hpwl:.0}"
        );
    }

    #[test]
    fn multilevel_is_deterministic() {
        let nl = circuit();
        let ml_cfg = MultilevelConfig {
            coarsest_movable: 200,
            ..MultilevelConfig::default()
        };
        let a = try_place_multilevel(&nl, KraftwerkConfig::standard(), &ml_cfg)
            .expect("multilevel placement");
        let b = try_place_multilevel(&nl, KraftwerkConfig::standard(), &ml_cfg)
            .expect("multilevel placement");
        assert_eq!(a.placement, b.placement);
    }

    #[test]
    fn hierarchy_shrinks_every_level_to_the_coarsest_threshold() {
        let nl = circuit();
        let ml_cfg = MultilevelConfig {
            coarsest_movable: 100,
            ..MultilevelConfig::default()
        };
        let levels = build_hierarchy(&nl, &ml_cfg);
        assert!(!levels.is_empty(), "600 movables must coarsen below 100");
        let mut prev = nl.num_movable();
        for level in &levels {
            let now = level.coarse().num_movable();
            assert!(now < prev, "level did not shrink: {prev} -> {now}");
            prev = now;
        }
        assert!(
            prev <= ml_cfg.coarsest_movable || levels.len() == ml_cfg.max_levels,
            "coarsest level still has {prev} movables"
        );
        // A netlist already below the threshold yields an empty hierarchy.
        assert!(build_hierarchy(&nl, &MultilevelConfig::default()).is_empty());
    }

    #[test]
    fn expand_conserves_total_movable_area_through_the_hierarchy() {
        let nl = circuit();
        let ml_cfg = MultilevelConfig {
            coarsest_movable: 100,
            ..MultilevelConfig::default()
        };
        let levels = build_hierarchy(&nl, &ml_cfg);
        let total = nl.total_movable_area();
        for level in &levels {
            let coarse_total = level.coarse().total_movable_area();
            assert!(
                (coarse_total - total).abs() < 1e-6 * total,
                "movable area drifted: {total} -> {coarse_total}"
            );
        }
    }

    #[test]
    fn expand_keeps_every_member_inside_the_core_region() {
        let nl = circuit();
        let c = cluster(&nl, &ClusteringConfig::default());
        let core = nl.core_region();
        // Park every cluster at the corners and edges of the core: the
        // naive fan-out would push wide members outside.
        let mut coarse_placement = c.coarse().initial_placement();
        let corners = [
            Point::new(core.x_lo, core.y_lo),
            Point::new(core.x_hi, core.y_lo),
            Point::new(core.x_lo, core.y_hi),
            Point::new(core.x_hi, core.y_hi),
        ];
        for (i, id) in c.coarse().cell_ids().enumerate() {
            if c.coarse().cell(id).is_movable() {
                coarse_placement.set_position(id, corners[i % corners.len()]);
            }
        }
        let flat = c.expand(&nl, &coarse_placement);
        for (id, cell) in nl.cells() {
            if !cell.is_movable() {
                continue;
            }
            let p = flat.position(id);
            let half_w = (cell.size().width * 0.5).min(core.width() * 0.5);
            let half_h = (cell.size().height * 0.5).min(core.height() * 0.5);
            assert!(
                p.x >= core.x_lo + half_w - 1e-9 && p.x <= core.x_hi - half_w + 1e-9,
                "cell {id} x={} outside [{}, {}]",
                p.x,
                core.x_lo + half_w,
                core.x_hi - half_w
            );
            assert!(
                p.y >= core.y_lo + half_h - 1e-9 && p.y <= core.y_hi - half_h + 1e-9,
                "cell {id} y={} outside the core",
                p.y
            );
        }
    }

    #[test]
    fn cluster_maps_are_identical_at_any_thread_count() {
        // Clustering is sequential by construction; this pins the
        // contract: the cell→cluster map and the member lists must be
        // bitwise identical at 1, 2 and 8 worker threads.
        let nl = circuit();
        let mut maps: Vec<(Vec<CellId>, Vec<Vec<CellId>>)> = Vec::new();
        for threads in [1usize, 2, 8] {
            kraftwerk_par::set_threads(threads);
            let c = cluster(&nl, &ClusteringConfig::default());
            let cluster_of: Vec<CellId> = nl.cell_ids().map(|id| c.cluster_of(id)).collect();
            let members: Vec<Vec<CellId>> = c
                .coarse()
                .cell_ids()
                .map(|id| c.members(id).to_vec())
                .collect();
            maps.push((cluster_of, members));
        }
        kraftwerk_par::set_threads(0);
        assert_eq!(maps[0], maps[1], "1 vs 2 threads");
        assert_eq!(maps[0], maps[2], "1 vs 8 threads");
    }
}
