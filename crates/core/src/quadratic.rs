//! Assembly of the quadratic placement system of section 2.
//!
//! The objective `½ pᵀ C p + dᵀ p + const` sums, over every clique edge,
//! the squared Euclidean distance between the two pin positions times the
//! edge weight. Its gradient is `C p + d`; a placement is in equilibrium
//! under additional forces `e` when `C p + d + e = 0` (equation 3).
//!
//! The x and y systems share the sparsity pattern but differ in their
//! right-hand sides (pin offsets, fixed-pin coordinates) and — when
//! GORDIAN-L linearization is on — in their edge weights, so both are
//! assembled explicitly.

use crate::config::NetModel;
use kraftwerk_geom::Point;
use kraftwerk_netlist::{CellId, Netlist, Placement};
use kraftwerk_sparse::{CsrBuildScratch, CsrMatrix, SymmetricStaging};

/// Largest net degree ever expanded as a clique, regardless of the
/// configured model or threshold. A k-pin clique stages `k(k-1)/2`
/// couplings per axis; past this cap (a 65k-pin clock net would stage
/// ~2 G couplings) the assembly silently falls back to the star model,
/// which is linear in `k`.
pub const CLIQUE_DEGREE_CAP: usize = 256;

/// Nets with at most this many movable pins join the ordering graph of
/// [`QuadraticSystem::new`] as cliques, longer ones as chains of
/// consecutive pins, so the graph stays linear in the pin count.
const ORDER_CLIQUE_PINS: usize = 16;

/// Maps movable cells to matrix indices and assembles `C`/`d` per axis.
///
/// The matrix rows follow the reverse Cuthill–McKee order of the movable
/// cells over the net graph, a pure function of the netlist computed once
/// per system. The DILU preconditioner's convergence depends on the order
/// of its unknowns; this order gives it a banded matrix whatever labels
/// the input file gave its cells. Map between cells and rows with
/// [`cell_of`](Self::cell_of), [`movable_index`](Self::movable_index) and
/// [`coords`](Self::coords).
#[derive(Debug, Clone)]
pub struct QuadraticSystem {
    movable_of_cell: Vec<Option<u32>>,
    cell_of_movable: Vec<CellId>,
}

/// One axis-separable assembled system: `C_x x + d_x = 0` and
/// `C_y y + d_y = 0` describe the unconstrained wire-length optimum.
#[derive(Debug, Clone, Default)]
pub struct Assembled {
    /// x-axis connectivity matrix.
    pub cx: CsrMatrix,
    /// y-axis connectivity matrix.
    pub cy: CsrMatrix,
    /// x-axis linear term.
    pub dx: Vec<f64>,
    /// y-axis linear term.
    pub dy: Vec<f64>,
}

/// Reusable buffers for [`QuadraticSystem::assemble_into`]: the per-axis
/// symmetric staging (dense diagonal plus one entry per coupling), the
/// CSR build scratch, and the per-net pin buffer. Holding one of these
/// across placement iterations makes re-assembly allocation-free once
/// the buffers have grown to the design's size.
#[derive(Debug, Default)]
pub struct AssemblyScratch {
    stage_x: SymmetricStaging,
    stage_y: SymmetricStaging,
    csr_build: CsrBuildScratch,
    pins: Vec<PinInfo>,
}

impl AssemblyScratch {
    /// The x and y stagings the most recent
    /// [`assemble_into`](QuadraticSystem::assemble_into) built its
    /// matrices from. Terms added here and rebuilt into a new matrix
    /// change only the entries they touch: every other entry is summed in
    /// the same order and keeps the assembled matrix's bits.
    pub fn stagings_mut(&mut self) -> (&mut SymmetricStaging, &mut SymmetricStaging) {
        (&mut self.stage_x, &mut self.stage_y)
    }
}

/// Everything the per-net expansion needs to know about a pin.
#[derive(Debug, Clone, Copy)]
struct PinInfo {
    /// Matrix index when the pin's cell is movable.
    movable: Option<u32>,
    /// Pin offset from the cell center (movable pins).
    offset: (f64, f64),
    /// Current absolute pin position (for linearization and star
    /// centroids; for fixed pins this is also the anchor coordinate).
    pos: (f64, f64),
}

impl QuadraticSystem {
    /// Builds the movable-cell index for a netlist: matrix row `k` holds
    /// the `k`-th movable cell in reverse Cuthill–McKee order.
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        let mut input_of_cell = vec![u32::MAX; netlist.num_cells()];
        let mut movable = Vec::with_capacity(netlist.num_movable());
        for (id, cell) in netlist.cells() {
            if cell.is_movable() {
                input_of_cell[id.index()] = movable.len() as u32;
                movable.push(id);
            }
        }
        let order = reverse_cuthill_mckee(netlist, &input_of_cell, movable.len());
        let cell_of_movable: Vec<CellId> = order.iter().map(|&v| movable[v as usize]).collect();
        let mut movable_of_cell = vec![None; netlist.num_cells()];
        for (k, cell) in cell_of_movable.iter().enumerate() {
            movable_of_cell[cell.index()] = Some(k as u32);
        }
        Self {
            movable_of_cell,
            cell_of_movable,
        }
    }

    /// Number of movable cells (the matrix dimension).
    #[must_use]
    pub fn num_movable(&self) -> usize {
        self.cell_of_movable.len()
    }

    /// Matrix index of a cell, `None` when fixed.
    #[must_use]
    pub fn movable_index(&self, cell: CellId) -> Option<usize> {
        self.movable_of_cell[cell.index()].map(|i| i as usize)
    }

    /// Cell owning a matrix index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.num_movable()`.
    #[must_use]
    pub fn cell_of(&self, index: usize) -> CellId {
        self.cell_of_movable[index]
    }

    /// Extracts movable-cell coordinates as two dense vectors.
    #[must_use]
    pub fn coords(&self, placement: &Placement) -> (Vec<f64>, Vec<f64>) {
        let xs = self
            .cell_of_movable
            .iter()
            .map(|&c| placement.position(c).x)
            .collect();
        let ys = self
            .cell_of_movable
            .iter()
            .map(|&c| placement.position(c).y)
            .collect();
        (xs, ys)
    }

    /// In-place variant of [`QuadraticSystem::coords`], reusing the output
    /// vectors' storage.
    pub fn coords_into(&self, placement: &Placement, xs: &mut Vec<f64>, ys: &mut Vec<f64>) {
        xs.clear();
        ys.clear();
        xs.extend(self.cell_of_movable.iter().map(|&c| placement.position(c).x));
        ys.extend(self.cell_of_movable.iter().map(|&c| placement.position(c).y));
    }

    /// Writes solved coordinates back into a placement.
    ///
    /// # Panics
    ///
    /// Panics if the vectors are not `num_movable()` long.
    pub fn write_back(&self, placement: &mut Placement, xs: &[f64], ys: &[f64]) {
        assert_eq!(xs.len(), self.num_movable(), "xs length mismatch");
        assert_eq!(ys.len(), self.num_movable(), "ys length mismatch");
        for (i, &cell) in self.cell_of_movable.iter().enumerate() {
            placement.set_position(cell, Point::new(xs[i], ys[i]));
        }
    }

    /// Assembles the x/y systems for the current placement.
    ///
    /// * `extra_weights` — per-net multipliers on top of the static net
    ///   weights (timing criticality); `None` means all ones.
    /// * `model` — clique / star / hybrid decomposition.
    /// * `linearization_epsilon` — when `Some(eps)`, every edge weight is
    ///   divided per-axis by `max(|Δ|, eps)` of the current edge length
    ///   (GORDIAN-L); `None` keeps the pure quadratic objective.
    ///
    /// A tiny center anchor (`1e-6` of the mean diagonal) is added to
    /// every movable cell so components not connected to any fixed pin
    /// still yield a positive definite system.
    ///
    /// # Panics
    ///
    /// Panics if `extra_weights` is provided with a length other than the
    /// net count.
    #[must_use]
    pub fn assemble(
        &self,
        netlist: &Netlist,
        placement: &Placement,
        extra_weights: Option<&[f64]>,
        model: NetModel,
        linearization_epsilon: Option<f64>,
    ) -> Assembled {
        let mut out = Assembled::default();
        self.assemble_into(
            netlist,
            placement,
            extra_weights,
            model,
            linearization_epsilon,
            &mut out,
            &mut AssemblyScratch::default(),
        );
        out
    }

    /// In-place variant of [`QuadraticSystem::assemble`]: rebuilds `out`
    /// reusing its matrices' storage and the staging buffers in `ws`.
    /// After the first call the rebuild performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `extra_weights` is provided with a length other than the
    /// net count.
    #[allow(clippy::too_many_arguments)] // mirrors `assemble` plus the two reuse buffers
    pub fn assemble_into(
        &self,
        netlist: &Netlist,
        placement: &Placement,
        extra_weights: Option<&[f64]>,
        model: NetModel,
        linearization_epsilon: Option<f64>,
        out: &mut Assembled,
        ws: &mut AssemblyScratch,
    ) {
        if let Some(w) = extra_weights {
            assert_eq!(w.len(), netlist.num_nets(), "extra_weights length mismatch");
        }
        let n = self.num_movable();
        let AssemblyScratch { stage_x, stage_y, csr_build, pins } = ws;
        stage_x.reset(n);
        stage_y.reset(n);
        out.dx.clear();
        out.dx.resize(n, 0.0);
        out.dy.clear();
        out.dy.resize(n, 0.0);
        let (dx, dy) = (&mut out.dx[..], &mut out.dy[..]);
        // B2B divides each edge weight by the current edge length exactly
        // once (that division *is* the model's linearization), flooring at
        // the configured GORDIAN-L epsilon when linearization is on and at
        // a small fraction of the core half-perimeter otherwise.
        let b2b_eps = linearization_epsilon
            .unwrap_or_else(|| 1e-3 * netlist.core_region().half_perimeter().max(1.0));

        for (net_id, net) in netlist.nets() {
            let k = net.degree();
            if k < 2 {
                continue;
            }
            let w_extra = extra_weights.map_or(1.0, |w| w[net_id.index()]);
            let w_net = net.weight() * w_extra;
            if w_net == 0.0 {
                continue;
            }
            pins.clear();
            for &pid in net.pins() {
                let pin = netlist.pin(pid);
                let movable = self.movable_of_cell[pin.cell().index()];
                let base = placement.position(pin.cell());
                let pos = (base.x + pin.offset().x, base.y + pin.offset().y);
                pins.push(PinInfo {
                    movable,
                    offset: (pin.offset().x, pin.offset().y),
                    pos,
                });
            }

            if model == NetModel::B2B {
                let w_base = w_net / (2.0 * (k as f64 - 1.0));
                b2b_axis(stage_x, dx, pins, Axis::X, w_base, b2b_eps);
                b2b_axis(stage_y, dy, pins, Axis::Y, w_base, b2b_eps);
                continue;
            }

            // The cap applies to every model: an over-threshold Hybrid net
            // already goes to the star, and a pure Clique past the cap
            // falls back to the star too rather than staging O(k²)
            // couplings.
            let use_clique = match model {
                NetModel::Clique => k <= CLIQUE_DEGREE_CAP,
                NetModel::Star | NetModel::B2B => false,
                NetModel::Hybrid { clique_threshold } => {
                    k <= clique_threshold.min(CLIQUE_DEGREE_CAP)
                }
            };

            if use_clique {
                let w_edge = w_net / k as f64;
                for i in 0..k {
                    for j in (i + 1)..k {
                        add_edge(
                            stage_x,
                            stage_y,
                            dx,
                            dy,
                            pins[i],
                            pins[j],
                            w_edge,
                            linearization_epsilon,
                        );
                    }
                }
            } else {
                // Star with the current centroid held fixed; weight chosen
                // so the pull on a pin matches the clique's aggregate pull
                // (w·(k-1)/k toward the mean of the other pins).
                let cxd = pins.iter().map(|p| p.pos.0).sum::<f64>() / k as f64;
                let cyd = pins.iter().map(|p| p.pos.1).sum::<f64>() / k as f64;
                let w_star = w_net * (k as f64 - 1.0) / k as f64;
                let centroid = PinInfo {
                    movable: None,
                    offset: (0.0, 0.0),
                    pos: (cxd, cyd),
                };
                for &pin in pins.iter() {
                    add_edge(
                        stage_x,
                        stage_y,
                        dx,
                        dy,
                        pin,
                        centroid,
                        w_star,
                        linearization_epsilon,
                    );
                }
            }
        }

        // Tiny center anchor: regularizes floating components. The anchor
        // scale comes from the mean diagonal, which the staging keeps as a
        // running total, so the anchors go into the same staging and each
        // axis converts to CSR exactly once.
        let center = netlist.core_region().center();
        let delta_x = 1e-6 * (stage_x.diagonal_total() / n.max(1) as f64 + 1.0);
        let delta_y = 1e-6 * (stage_y.diagonal_total() / n.max(1) as f64 + 1.0);
        for i in 0..n {
            stage_x.add_diagonal(i, 2.0 * delta_x);
            dx[i] -= 2.0 * delta_x * center.x;
            stage_y.add_diagonal(i, 2.0 * delta_y);
            dy[i] -= 2.0 * delta_y * center.y;
        }
        let csr = kraftwerk_trace::span("place.csr_build");
        out.cx.rebuild_from_staging(stage_x, csr_build);
        out.cy.rebuild_from_staging(stage_y, csr_build);
        csr.finish();
    }

    /// The negative gradient `-(C p + d)` at the given coordinates — the
    /// spring force currently acting on every movable cell. ECO restarts
    /// use this to initialize the accumulated force so an existing
    /// placement starts in equilibrium (any placement satisfies equation
    /// (3) for a suitable `e`; section 5, "ECO and Interaction with Logic
    /// Synthesis").
    #[must_use]
    pub fn spring_force(&self, assembled: &Assembled, xs: &[f64], ys: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut fx = Vec::new();
        let mut fy = Vec::new();
        self.spring_force_into(assembled, xs, ys, &mut fx, &mut fy);
        (fx, fy)
    }

    /// In-place variant of [`QuadraticSystem::spring_force`], reusing the
    /// output vectors' storage.
    pub fn spring_force_into(
        &self,
        assembled: &Assembled,
        xs: &[f64],
        ys: &[f64],
        fx: &mut Vec<f64>,
        fy: &mut Vec<f64>,
    ) {
        let n = self.num_movable();
        fx.clear();
        fx.resize(n, 0.0);
        fy.clear();
        fy.resize(n, 0.0);
        assembled.cx.spmv(xs, fx);
        assembled.cy.spmv(ys, fy);
        for i in 0..n {
            fx[i] = -(fx[i] + assembled.dx[i]);
            fy[i] = -(fy[i] + assembled.dy[i]);
        }
    }
}

/// Calls `edge(a, b)` for every edge of the ordering graph: the movable
/// pins of each net (as `input_of_cell` numbers them, `u32::MAX` for a
/// fixed cell) pairwise when there are at most [`ORDER_CLIQUE_PINS`] of
/// them, else each with the next. Same-cell pairs are skipped.
fn for_each_order_edge(
    netlist: &Netlist,
    input_of_cell: &[u32],
    pins: &mut Vec<u32>,
    mut edge: impl FnMut(u32, u32),
) {
    for (_, net) in netlist.nets() {
        pins.clear();
        pins.extend(
            net.pins()
                .iter()
                .map(|&pid| input_of_cell[netlist.pin(pid).cell().index()])
                .filter(|&v| v != u32::MAX),
        );
        let mut pair = |a: u32, b: u32| {
            if a != b {
                edge(a, b);
            }
        };
        if pins.len() <= ORDER_CLIQUE_PINS {
            for (i, &a) in pins.iter().enumerate() {
                for &b in &pins[i + 1..] {
                    pair(a, b);
                }
            }
        } else {
            for w in pins.windows(2) {
                pair(w[0], w[1]);
            }
        }
    }
}

/// The reverse Cuthill–McKee order of the `n` movable cells over the
/// ordering graph (see [`for_each_order_edge`]): `order[k]` is the input
/// number of the cell in row `k`.
///
/// Each component is numbered breadth-first from the last vertex of a
/// breadth-first run from its lowest-(degree, index) vertex — a
/// pseudo-peripheral start — visiting neighbours by (degree, index); the
/// whole numbering is then reversed. Every step is a counting sort or a
/// linear scan, so the order costs time linear in the graph's size.
fn reverse_cuthill_mckee(netlist: &Netlist, input_of_cell: &[u32], n: usize) -> Vec<u32> {
    // The symmetric adjacency, by counting sort of the edge list.
    let mut pins = Vec::new();
    let mut start = vec![0usize; n + 1];
    for_each_order_edge(netlist, input_of_cell, &mut pins, |a, b| {
        start[a as usize + 1] += 1;
        start[b as usize + 1] += 1;
    });
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut fill = start.clone();
    let mut adj = vec![0u32; start[n]];
    for_each_order_edge(netlist, input_of_cell, &mut pins, |a, b| {
        adj[fill[a as usize]] = b;
        fill[a as usize] += 1;
        adj[fill[b as usize]] = a;
        fill[b as usize] += 1;
    });
    // Drop repeated neighbours (cells sharing several nets) in place.
    let mut seen = vec![u32::MAX; n];
    let mut kept = 0;
    for v in 0..n {
        let (lo, hi) = (start[v], start[v + 1]);
        start[v] = kept;
        for e in lo..hi {
            let u = adj[e];
            if seen[u as usize] != v as u32 {
                seen[u as usize] = v as u32;
                adj[kept] = u;
                kept += 1;
            }
        }
    }
    start[n] = kept;
    adj.truncate(kept);
    let degree = |v: usize| start[v + 1] - start[v];

    // Vertices by (degree, index): a stable counting sort on the degree.
    let max_degree = (0..n).map(degree).max().unwrap_or(0);
    let mut slot = vec![0usize; max_degree + 2];
    for v in 0..n {
        slot[degree(v) + 1] += 1;
    }
    for d in 0..=max_degree {
        slot[d + 1] += slot[d];
    }
    let mut by_degree = vec![0u32; n];
    for v in 0..n {
        by_degree[slot[degree(v)]] = v as u32;
        slot[degree(v)] += 1;
    }
    // Each neighbour list in (degree, index) order: scatter every vertex,
    // taken in that order, into its neighbours' lists.
    fill.copy_from_slice(&start);
    let mut sorted = vec![0u32; kept];
    for &v in &by_degree {
        for &u in &adj[start[v as usize]..start[v as usize + 1]] {
            sorted[fill[u as usize]] = v;
            fill[u as usize] += 1;
        }
    }
    drop(adj);

    let mut visited = vec![false; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let breadth_first = |root: u32, visited: &mut [bool], order: &mut Vec<u32>| {
        let mut head = order.len();
        visited[root as usize] = true;
        order.push(root);
        while head < order.len() {
            let v = order[head] as usize;
            head += 1;
            for &u in &sorted[start[v]..start[v + 1]] {
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    order.push(u);
                }
            }
        }
    };
    for &root in &by_degree {
        if visited[root as usize] {
            continue;
        }
        let first = order.len();
        breadth_first(root, &mut visited, &mut order);
        let peripheral = order[order.len() - 1];
        for &v in &order[first..] {
            visited[v as usize] = false;
        }
        order.truncate(first);
        breadth_first(peripheral, &mut visited, &mut order);
    }
    order.reverse();
    order
}

/// Which coordinate a [`b2b_axis`] expansion reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Axis {
    X,
    Y,
}

impl Axis {
    fn of(self, p: PinInfo) -> (f64, f64) {
        match self {
            Axis::X => (p.offset.0, p.pos.0),
            Axis::Y => (p.offset.1, p.pos.1),
        }
    }
}

/// Bound-to-bound expansion of one net on one axis: the two extreme pins
/// connect to each other and every interior pin connects to both
/// extremes, each edge weighted `w_base / max(len, eps)` with
/// `w_base = w/(2(k−1))`. Summing the edge gradients at the reference
/// placement gives exactly `+w` on the upper extreme, `−w` on the lower
/// and `0` on interior pins — the HPWL gradient — for every degree.
///
/// Extreme selection is index-deterministic: the *first* pin achieving
/// the minimum and the *last* pin achieving the maximum, so ties (fully
/// overlapping pins) still yield two distinct endpoints and the edge set
/// is identical at every thread count.
fn b2b_axis(c: &mut SymmetricStaging, d: &mut [f64], pins: &[PinInfo], axis: Axis, w_base: f64, eps: f64) {
    let coord = |p: PinInfo| axis.of(p).1;
    let (mut lo, mut hi) = (0usize, 0usize);
    for i in 1..pins.len() {
        if coord(pins[i]) < coord(pins[lo]) {
            lo = i;
        }
        if coord(pins[i]) >= coord(pins[hi]) {
            hi = i;
        }
    }
    let mut edge = |a: PinInfo, b: PinInfo| {
        let (a_off, a_pos) = axis.of(a);
        let (b_off, b_pos) = axis.of(b);
        let w = w_base / (a_pos - b_pos).abs().max(eps);
        add_axis_edge(c, d, a.movable, b.movable, a_off, b_off, a_pos, b_pos, w);
    };
    edge(pins[lo], pins[hi]);
    for (i, &p) in pins.iter().enumerate() {
        if i == lo || i == hi {
            continue;
        }
        edge(p, pins[lo]);
        edge(p, pins[hi]);
    }
}

/// Adds one two-point connection to both axis systems.
#[allow(clippy::too_many_arguments)]
fn add_edge(
    cx: &mut SymmetricStaging,
    cy: &mut SymmetricStaging,
    dx: &mut [f64],
    dy: &mut [f64],
    a: PinInfo,
    b: PinInfo,
    weight: f64,
    linearization_epsilon: Option<f64>,
) {
    let (wx, wy) = match linearization_epsilon {
        Some(eps) => (
            weight / (a.pos.0 - b.pos.0).abs().max(eps),
            weight / (a.pos.1 - b.pos.1).abs().max(eps),
        ),
        None => (weight, weight),
    };
    add_axis_edge(cx, dx, a.movable, b.movable, a.offset.0, b.offset.0, a.pos.0, b.pos.0, wx);
    add_axis_edge(cy, dy, a.movable, b.movable, a.offset.1, b.offset.1, a.pos.1, b.pos.1, wy);
}

/// The cost term `w (u_a + o_a - u_b - o_b)²` on one axis, where `u` is a
/// variable for movable pins and the absolute pin coordinate for fixed
/// ones. Contributes `2w` entries to `C` and offset terms to `d`. When
/// both pins sit on the same movable cell the term is a constant (`u`
/// cancels), so it contributes nothing.
#[allow(clippy::too_many_arguments)]
fn add_axis_edge(
    c: &mut SymmetricStaging,
    d: &mut [f64],
    a_mov: Option<u32>,
    b_mov: Option<u32>,
    a_off: f64,
    b_off: f64,
    a_pos: f64,
    b_pos: f64,
    w: f64,
) {
    let w2 = 2.0 * w;
    match (a_mov, b_mov) {
        (Some(i), Some(j)) if i == j => {}
        (Some(i), Some(j)) => {
            let (i, j) = (i as usize, j as usize);
            c.add_diagonal(i, w2);
            c.add_diagonal(j, w2);
            c.add_coupling(i, j, -w2);
            d[i] += w2 * (a_off - b_off);
            d[j] += w2 * (b_off - a_off);
        }
        (Some(i), None) => {
            let i = i as usize;
            c.add_diagonal(i, w2);
            d[i] += w2 * (a_off - b_pos);
        }
        (None, Some(j)) => {
            let j = j as usize;
            c.add_diagonal(j, w2);
            d[j] += w2 * (b_off - a_pos);
        }
        (None, None) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KraftwerkConfig, PlacementSession};
    use kraftwerk_geom::{Rect, Size, Vector};
    use kraftwerk_netlist::format::{read_netlist, write_netlist};
    use kraftwerk_netlist::synth::mcnc;
    use kraftwerk_netlist::{NetlistBuilder, PinDirection};
    use kraftwerk_sparse::{try_solve_with, CgOptions, CgWorkspace, CsrMatrix, DiluFactor};
    use rand::{Rng, SeedableRng};

    /// pad(0,5) -- a -- b -- pad(10,5): the classic 1-D spring chain.
    fn chain() -> (Netlist, CellId, CellId) {
        let mut bld = NetlistBuilder::new();
        bld.core_region(Rect::new(0.0, 0.0, 10.0, 10.0));
        let a = bld.add_cell("a", Size::new(1.0, 1.0));
        let b = bld.add_cell("b", Size::new(1.0, 1.0));
        let p0 = bld.add_fixed_cell("p0", Size::new(0.5, 0.5), Point::new(0.0, 5.0));
        let p1 = bld.add_fixed_cell("p1", Size::new(0.5, 0.5), Point::new(10.0, 5.0));
        bld.add_net("n0", [(p0, PinDirection::Output), (a, PinDirection::Input)]);
        bld.add_net("n1", [(a, PinDirection::Output), (b, PinDirection::Input)]);
        bld.add_net("n2", [(b, PinDirection::Output), (p1, PinDirection::Input)]);
        (bld.build().unwrap(), a, b)
    }

    fn solve_assembled(sys: &QuadraticSystem, asm: &Assembled) -> (Vec<f64>, Vec<f64>) {
        let solve_axis = |c: &CsrMatrix, d: &[f64]| {
            let b: Vec<f64> = d.iter().map(|v| -v).collect();
            let factor = DiluFactor::from_matrix(c);
            let mut ws = CgWorkspace::new();
            let stats = try_solve_with(c, &b, None, &factor, &CgOptions::default(), &mut ws)
                .expect("an assembled system is finite");
            assert!(stats.converged);
            ws.solution().to_vec()
        };
        let _ = sys;
        (solve_axis(&asm.cx, &asm.dx), solve_axis(&asm.cy, &asm.dy))
    }

    #[test]
    fn chain_equilibrium_is_evenly_spaced() {
        let (nl, a, b) = chain();
        let sys = QuadraticSystem::new(&nl);
        assert_eq!(sys.num_movable(), 2);
        let asm = sys.assemble(&nl, &nl.initial_placement(), None, NetModel::Clique, None);
        let (xs, ys) = solve_assembled(&sys, &asm);
        let ia = sys.movable_index(a).unwrap();
        let ib = sys.movable_index(b).unwrap();
        // Minimum of (x_a-0)² + (x_b-x_a)² + (10-x_b)² is x = 10/3, 20/3.
        assert!((xs[ia] - 10.0 / 3.0).abs() < 1e-5, "{}", xs[ia]);
        assert!((xs[ib] - 20.0 / 3.0).abs() < 1e-5, "{}", xs[ib]);
        assert!((ys[ia] - 5.0).abs() < 1e-5);
        assert!((ys[ib] - 5.0).abs() < 1e-5);
    }

    #[test]
    fn matrices_are_symmetric_and_positive_diagonal() {
        let (nl, _, _) = chain();
        let sys = QuadraticSystem::new(&nl);
        let asm = sys.assemble(&nl, &nl.initial_placement(), None, NetModel::Clique, None);
        assert_eq!(asm.cx.asymmetry(), 0.0);
        assert_eq!(asm.cy.asymmetry(), 0.0);
        for v in asm.cx.diagonal() {
            assert!(v > 0.0);
        }
    }

    #[test]
    fn extra_weights_scale_the_pull() {
        let (nl, a, _) = chain();
        let sys = QuadraticSystem::new(&nl);
        // Weight the pad-to-a net heavily: a moves toward the pad.
        let weights = vec![10.0, 1.0, 1.0];
        let asm = sys.assemble(&nl, &nl.initial_placement(), Some(&weights), NetModel::Clique, None);
        let (xs, _) = solve_assembled(&sys, &asm);
        let ia = sys.movable_index(a).unwrap();
        assert!(xs[ia] < 2.0, "a should sit near the left pad, got {}", xs[ia]);
    }

    #[test]
    fn pin_offsets_shift_the_optimum() {
        let mut bld = NetlistBuilder::new();
        bld.core_region(Rect::new(0.0, 0.0, 10.0, 10.0));
        let a = bld.add_cell("a", Size::new(1.0, 1.0));
        let p = bld.add_fixed_cell("p", Size::new(0.5, 0.5), Point::new(5.0, 5.0));
        bld.add_weighted_net(
            "n",
            1.0,
            [
                (a, Vector::new(1.0, 0.0), PinDirection::Output),
                (p, Vector::ZERO, PinDirection::Input),
            ],
        );
        let nl = bld.build().unwrap();
        let sys = QuadraticSystem::new(&nl);
        let asm = sys.assemble(&nl, &nl.initial_placement(), None, NetModel::Clique, None);
        let (xs, _) = solve_assembled(&sys, &asm);
        // Pin at center+1 must land on the pad: cell center at 4.
        assert!((xs[0] - 4.0).abs() < 1e-4, "{}", xs[0]);
    }

    #[test]
    fn floating_cells_are_anchored_to_the_core_center() {
        let mut bld = NetlistBuilder::new();
        bld.core_region(Rect::new(0.0, 0.0, 10.0, 10.0));
        let a = bld.add_cell("a", Size::new(1.0, 1.0));
        let b = bld.add_cell("b", Size::new(1.0, 1.0));
        bld.add_net("n", [(a, PinDirection::Output), (b, PinDirection::Input)]);
        let nl = bld.build().unwrap();
        let sys = QuadraticSystem::new(&nl);
        let asm = sys.assemble(&nl, &nl.initial_placement(), None, NetModel::Clique, None);
        let (xs, ys) = solve_assembled(&sys, &asm);
        for i in 0..2 {
            assert!((xs[i] - 5.0).abs() < 1e-3, "{}", xs[i]);
            assert!((ys[i] - 5.0).abs() < 1e-3);
        }
    }

    #[test]
    fn star_and_clique_agree_for_two_pin_nets() {
        let (nl, a, b) = chain();
        let sys = QuadraticSystem::new(&nl);
        // For 2-pin nets the star weight is w/2 toward the midpoint; the
        // equilibrium of the whole chain still lands at the same spot once
        // iterated, but a single solve differs. Instead check the hybrid
        // model with a high threshold reduces to the clique exactly.
        let asm_clique = sys.assemble(&nl, &nl.initial_placement(), None, NetModel::Clique, None);
        let asm_hybrid = sys.assemble(
            &nl,
            &nl.initial_placement(),
            None,
            NetModel::Hybrid { clique_threshold: 30 },
            None,
        );
        let (x1, _) = solve_assembled(&sys, &asm_clique);
        let (x2, _) = solve_assembled(&sys, &asm_hybrid);
        let ia = sys.movable_index(a).unwrap();
        let ib = sys.movable_index(b).unwrap();
        assert!((x1[ia] - x2[ia]).abs() < 1e-9);
        assert!((x1[ib] - x2[ib]).abs() < 1e-9);
    }

    #[test]
    fn star_model_pulls_toward_the_centroid() {
        // 5-pin net, all pins movable, star model: solving from a spread
        // placement gathers everything at the centroid.
        let mut bld = NetlistBuilder::new();
        bld.core_region(Rect::new(0.0, 0.0, 10.0, 10.0));
        let ids: Vec<_> = (0..5)
            .map(|i| bld.add_cell(format!("c{i}"), Size::new(1.0, 1.0)))
            .collect();
        let anchor = bld.add_fixed_cell("p", Size::new(0.5, 0.5), Point::new(2.0, 2.0));
        bld.add_net(
            "big",
            ids.iter()
                .enumerate()
                .map(|(i, &id)| {
                    (
                        id,
                        if i == 0 { PinDirection::Output } else { PinDirection::Input },
                    )
                })
                .collect::<Vec<_>>(),
        );
        bld.add_net("tie", [(ids[0], PinDirection::Output), (anchor, PinDirection::Input)]);
        let nl = bld.build().unwrap();
        let sys = QuadraticSystem::new(&nl);
        let mut p = nl.initial_placement();
        for (i, &id) in ids.iter().enumerate() {
            p.set_position(id, Point::new(i as f64 * 2.0, 8.0));
        }
        let asm = sys.assemble(&nl, &p, None, NetModel::Star, None);
        let (xs, _) = solve_assembled(&sys, &asm);
        // All big-net members are pulled toward the (fixed) centroid x=4,
        // and the anchored cell additionally toward x=2.
        for (i, &id) in ids.iter().enumerate() {
            let xi = xs[sys.movable_index(id).unwrap()];
            if i == 0 {
                assert!(xi < 4.0, "anchored cell {xi}");
            } else {
                assert!((xi - 4.0).abs() < 1e-4, "member {i} at {xi}");
            }
        }
    }

    #[test]
    fn linearization_downweights_long_edges() {
        let (nl, a, b) = chain();
        let sys = QuadraticSystem::new(&nl);
        let mut p = nl.initial_placement();
        p.set_position(a, Point::new(1.0, 5.0));
        p.set_position(b, Point::new(9.0, 5.0));
        let asm = sys.assemble(&nl, &p, None, NetModel::Clique, Some(0.01));
        // Edge a-b has length 8; edge p0-a length 1. After linearization
        // the a-b x-coupling is weaker than the p0-a one.
        let ia = sys.movable_index(a).unwrap();
        let ib = sys.movable_index(b).unwrap();
        let coupling_ab = -asm.cx.get(ia, ib);
        // p0-a contributes only to the diagonal; reconstruct it:
        let diag_a = asm.cx.get(ia, ia);
        let pad_edge = diag_a - coupling_ab - 2e-6 * 1.0; // subtract anchor order-of-magnitude
        assert!(pad_edge > coupling_ab, "pad edge {pad_edge} vs ab {coupling_ab}");
    }

    #[test]
    fn spring_force_is_zero_at_equilibrium() {
        let (nl, _, _) = chain();
        let sys = QuadraticSystem::new(&nl);
        let asm = sys.assemble(&nl, &nl.initial_placement(), None, NetModel::Clique, None);
        let (xs, ys) = solve_assembled(&sys, &asm);
        let (fx, fy) = sys.spring_force(&asm, &xs, &ys);
        for i in 0..2 {
            assert!(fx[i].abs() < 1e-5, "fx {}", fx[i]);
            assert!(fy[i].abs() < 1e-5);
        }
    }

    #[test]
    fn spring_force_points_downhill() {
        let (nl, a, _) = chain();
        let sys = QuadraticSystem::new(&nl);
        let mut p = nl.initial_placement();
        p.set_position(a, Point::new(9.0, 5.0)); // far right of its optimum
        let (xs, ys) = sys.coords(&p);
        let asm = sys.assemble(&nl, &p, None, NetModel::Clique, None);
        let (fx, _) = sys.spring_force(&asm, &xs, &ys);
        let ia = sys.movable_index(a).unwrap();
        assert!(fx[ia] < 0.0, "force should pull a leftward, got {}", fx[ia]);
    }

    #[test]
    fn b2b_matches_linearized_clique_on_two_pin_nets() {
        // Degree 2 is where the models coincide exactly: one edge of
        // per-axis weight w/(2·max(len, eps)) either way.
        let (nl, a, b) = chain();
        let sys = QuadraticSystem::new(&nl);
        let mut p = nl.initial_placement();
        p.set_position(a, Point::new(2.0, 4.0));
        p.set_position(b, Point::new(7.0, 6.0));
        let eps = Some(0.01);
        let asm_c = sys.assemble(&nl, &p, None, NetModel::Clique, eps);
        let asm_b = sys.assemble(&nl, &p, None, NetModel::B2B, eps);
        let ia = sys.movable_index(a).unwrap();
        let ib = sys.movable_index(b).unwrap();
        for (mc, mb) in [(&asm_c.cx, &asm_b.cx), (&asm_c.cy, &asm_b.cy)] {
            assert_eq!(mc.get(ia, ib), mb.get(ia, ib));
            assert_eq!(mc.get(ia, ia), mb.get(ia, ia));
            assert_eq!(mc.get(ib, ib), mb.get(ib, ib));
        }
        assert_eq!(asm_c.dx, asm_b.dx);
        assert_eq!(asm_c.dy, asm_b.dy);
    }

    #[test]
    fn b2b_gradient_is_the_hpwl_gradient() {
        // Degree-4 net at distinct positions: the B2B spring force at the
        // reference placement is -w on the per-axis max pin, +w on the min
        // pin and ~0 on interior pins — exactly -w·∇HPWL.
        let mut bld = NetlistBuilder::new();
        bld.core_region(Rect::new(0.0, 0.0, 20.0, 20.0));
        let ids: Vec<_> = (0..4)
            .map(|i| bld.add_cell(format!("c{i}"), Size::new(1.0, 1.0)))
            .collect();
        bld.add_weighted_net(
            "n",
            2.0,
            ids.iter()
                .enumerate()
                .map(|(i, &id)| {
                    (
                        id,
                        Vector::ZERO,
                        if i == 0 { PinDirection::Output } else { PinDirection::Input },
                    )
                })
                .collect::<Vec<_>>(),
        );
        let nl = bld.build().unwrap();
        let sys = QuadraticSystem::new(&nl);
        let mut p = nl.initial_placement();
        let xs_ref = [2.0, 5.0, 9.0, 14.0];
        let ys_ref = [3.0, 11.0, 6.0, 8.0];
        for (i, &id) in ids.iter().enumerate() {
            p.set_position(id, Point::new(xs_ref[i], ys_ref[i]));
        }
        let asm = sys.assemble(&nl, &p, None, NetModel::B2B, None);
        let (xs, ys) = sys.coords(&p);
        let (fx, fy) = sys.spring_force(&asm, &xs, &ys);
        let w = 2.0;
        let expected_x = [w, 0.0, 0.0, -w]; // min pin pulled right, max left
        let expected_y = [w, -w, 0.0, 0.0];
        for (i, &id) in ids.iter().enumerate() {
            let m = sys.movable_index(id).unwrap();
            assert!(
                (fx[m] - expected_x[i]).abs() < 1e-3,
                "fx[{i}] = {} expected {}",
                fx[m],
                expected_x[i]
            );
            assert!(
                (fy[m] - expected_y[i]).abs() < 1e-3,
                "fy[{i}] = {} expected {}",
                fy[m],
                expected_y[i]
            );
        }
    }

    #[test]
    fn b2b_handles_fully_overlapping_pins() {
        // All pins at the same point: first-min/last-max tie-breaking
        // still yields two distinct extremes and the eps floor keeps the
        // weights finite.
        let mut bld = NetlistBuilder::new();
        bld.core_region(Rect::new(0.0, 0.0, 10.0, 10.0));
        let ids: Vec<_> = (0..3)
            .map(|i| bld.add_cell(format!("c{i}"), Size::new(1.0, 1.0)))
            .collect();
        bld.add_net(
            "n",
            ids.iter()
                .enumerate()
                .map(|(i, &id)| {
                    (
                        id,
                        if i == 0 { PinDirection::Output } else { PinDirection::Input },
                    )
                })
                .collect::<Vec<_>>(),
        );
        let nl = bld.build().unwrap();
        let sys = QuadraticSystem::new(&nl);
        let mut p = nl.initial_placement();
        for &id in &ids {
            p.set_position(id, Point::new(5.0, 5.0));
        }
        let asm = sys.assemble(&nl, &p, None, NetModel::B2B, None);
        for v in asm.cx.diagonal() {
            assert!(v.is_finite() && v > 0.0, "diagonal {v}");
        }
        let (xs, ys) = solve_assembled(&sys, &asm);
        for i in 0..3 {
            assert!(xs[i].is_finite() && ys[i].is_finite());
        }
    }

    #[test]
    fn clique_past_the_degree_cap_falls_back_to_star() {
        // A net over CLIQUE_DEGREE_CAP pins must assemble linearly in k
        // (the star expansion), not stage O(k²) couplings.
        let k = CLIQUE_DEGREE_CAP + 1;
        let mut bld = NetlistBuilder::new();
        bld.core_region(Rect::new(0.0, 0.0, 100.0, 100.0));
        let ids: Vec<_> = (0..k)
            .map(|i| bld.add_cell(format!("c{i}"), Size::new(1.0, 1.0)))
            .collect();
        bld.add_net(
            "huge",
            ids.iter()
                .enumerate()
                .map(|(i, &id)| {
                    (
                        id,
                        if i == 0 { PinDirection::Output } else { PinDirection::Input },
                    )
                })
                .collect::<Vec<_>>(),
        );
        let nl = bld.build().unwrap();
        let sys = QuadraticSystem::new(&nl);
        let p = nl.initial_placement();
        let asm_clique = sys.assemble(&nl, &p, None, NetModel::Clique, None);
        let asm_star = sys.assemble(&nl, &p, None, NetModel::Star, None);
        assert_eq!(asm_clique.cx.nnz(), asm_star.cx.nnz());
        assert_eq!(asm_clique.cx.get(0, 0), asm_star.cx.get(0, 0));
        assert_eq!(asm_clique.dx, asm_star.dx);
        // A star of k pins touches only the diagonal: k entries, far from
        // the k(k-1)/2 off-diagonal pairs a clique would stage.
        assert!(asm_clique.cx.nnz() <= k, "nnz {}", asm_clique.cx.nnz());
    }

    /// pad(2,5) -- c -- pad(8,5), optionally plus a net listing `c` twice.
    fn pads_and_cell(self_net: bool) -> Netlist {
        let mut bld = NetlistBuilder::new();
        bld.core_region(Rect::new(0.0, 0.0, 10.0, 10.0));
        let c = bld.add_cell("c", Size::new(1.0, 1.0));
        let p0 = bld.add_fixed_cell("p0", Size::new(0.5, 0.5), Point::new(2.0, 5.0));
        let p1 = bld.add_fixed_cell("p1", Size::new(0.5, 0.5), Point::new(8.0, 5.0));
        bld.add_net("n0", [(p0, PinDirection::Output), (c, PinDirection::Input)]);
        bld.add_net("n1", [(c, PinDirection::Output), (p1, PinDirection::Input)]);
        if self_net {
            bld.add_net("loop", [(c, PinDirection::Output), (c, PinDirection::Input)]);
        }
        bld.build().unwrap()
    }

    #[test]
    fn same_cell_couplings_leave_the_system_unchanged() {
        // Both pins of the self-net sit on one cell: the term is a
        // constant, so C and d must be exactly those of the netlist
        // without it, for every model that couples pin pairs.
        let plain = pads_and_cell(false);
        let looped = pads_and_cell(true);
        let sys = QuadraticSystem::new(&looped);
        for (model, eps) in [
            (NetModel::Clique, None),
            (NetModel::Clique, Some(0.01)),
            (NetModel::Hybrid { clique_threshold: 30 }, None),
            (NetModel::B2B, None),
        ] {
            let a = sys.assemble(&plain, &plain.initial_placement(), None, model, eps);
            let b = sys.assemble(&looped, &looped.initial_placement(), None, model, eps);
            assert_eq!(a.cx, b.cx, "{model:?}");
            assert_eq!(a.cy, b.cy, "{model:?}");
            assert_eq!(a.dx, b.dx, "{model:?}");
            assert_eq!(a.dy, b.dy, "{model:?}");
            // The cell rests midway between the pads, not pulled toward 0.
            let (xs, _) = solve_assembled(&sys, &b);
            assert!((xs[0] - 5.0).abs() < 1e-4, "{model:?}: {}", xs[0]);
        }
    }

    #[test]
    fn coords_roundtrip_through_write_back() {
        let (nl, a, b) = chain();
        let sys = QuadraticSystem::new(&nl);
        let mut p = nl.initial_placement();
        p.set_position(a, Point::new(1.0, 2.0));
        p.set_position(b, Point::new(3.0, 4.0));
        let (xs, ys) = sys.coords(&p);
        let mut q = nl.initial_placement();
        sys.write_back(&mut q, &xs, &ys);
        assert_eq!(q.position(a), Point::new(1.0, 2.0));
        assert_eq!(q.position(b), Point::new(3.0, 4.0));
        // Fixed cells untouched.
        assert_eq!(
            q.position(CellId::from_index(2)),
            nl.cell(CellId::from_index(2)).fixed_position().unwrap()
        );
    }

    /// `netlist` with its cell and net lines shuffled by `seed`: the same
    /// circuit under other labels, as a netlist from another tool arrives.
    fn relabeled(netlist: &Netlist, seed: u64) -> Netlist {
        let text = write_netlist(netlist);
        let (mut cells, mut nets, mut header) = (Vec::new(), Vec::new(), Vec::new());
        for line in text.lines() {
            match line.split(' ').next() {
                Some("cell") => cells.push(line),
                Some("net") => nets.push(line),
                _ => header.push(line),
            }
        }
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for lines in [&mut cells, &mut nets] {
            for i in (1..lines.len()).rev() {
                lines.swap(i, rng.gen_range(0..i + 1));
            }
        }
        let lines = header.iter().chain(&cells).chain(&nets);
        let text: String = lines.map(|l| format!("{l}\n")).collect();
        read_netlist(&text).expect("relabeled netlist parses")
    }

    /// The mean `|i − j|` over the stored off-diagonal entries of `c`,
    /// with row `i` renumbered to `label(i)`: how far, on average, the
    /// matrix couples rows from each other.
    fn mean_bandwidth(c: &CsrMatrix, label: impl Fn(usize) -> usize) -> f64 {
        let (count, sum) = (0..c.dim())
            .flat_map(|i| c.row(i).map(move |(j, _)| (i, j)))
            .filter(|(i, j)| i != j)
            .fold((0usize, 0usize), |(n, s), (i, j)| (n + 1, s + label(i).abs_diff(label(j))));
        sum as f64 / count.max(1) as f64
    }

    #[test]
    fn the_matrix_order_is_a_thread_independent_permutation_of_the_movable_cells() {
        let nl = relabeled(&mcnc::by_name("primary1"), 3);
        let orders: Vec<Vec<CellId>> = [1, 2, 8]
            .into_iter()
            .map(|threads| {
                kraftwerk_par::set_threads(threads);
                let sys = QuadraticSystem::new(&nl);
                (0..sys.num_movable()).map(|k| sys.cell_of(k)).collect()
            })
            .collect();
        kraftwerk_par::set_threads(0);
        assert!(orders.iter().all(|o| *o == orders[0]), "the order depends on the thread count");
        let sys = QuadraticSystem::new(&nl);
        assert_eq!(sys.num_movable(), nl.num_movable());
        let mut seen = vec![false; nl.num_cells()];
        for (k, &cell) in orders[0].iter().enumerate() {
            assert!(nl.cell(cell).is_movable(), "row {k} holds a fixed cell");
            assert!(!std::mem::replace(&mut seen[cell.index()], true), "cell {cell:?} in two rows");
            assert_eq!(sys.movable_index(cell), Some(k));
        }
        for (id, cell) in nl.cells() {
            assert_eq!(sys.movable_index(id).is_some(), cell.is_movable());
        }
    }

    #[test]
    fn reverse_cuthill_mckee_bands_the_matrix_of_a_relabeled_netlist() {
        let nl = relabeled(&mcnc::by_name("struct"), 5);
        let sys = QuadraticSystem::new(&nl);
        let asm = sys.assemble(&nl, &nl.initial_placement(), None, NetModel::Clique, None);
        // Input order: movable cells as the file lists them.
        let mut input = vec![usize::MAX; nl.num_cells()];
        for (k, (id, _)) in nl.movable_cells().enumerate() {
            input[id.index()] = k;
        }
        // Struct's shuffled input couples rows 647 apart on average, its
        // reverse Cuthill–McKee order 111 apart.
        let input_band = mean_bandwidth(&asm.cx, |i| input[sys.cell_of(i).index()]);
        let rcm_band = mean_bandwidth(&asm.cx, |i| i);
        assert!(
            rcm_band * 4.0 < input_band,
            "mean bandwidth {rcm_band:.1} in matrix order against {input_band:.1} in input order"
        );
    }

    /// Mean x + y DILU-CG iterations over the first `transforms` fast-mode
    /// transformations of `netlist`.
    fn cg_iterations_per_transformation(netlist: &Netlist, transforms: usize) -> f64 {
        let mut session = PlacementSession::new(netlist, KraftwerkConfig::fast());
        let total: usize = (0..transforms)
            .map(|_| {
                session
                    .try_transform()
                    .expect("transformation")
                    .cg_iterations
            })
            .sum();
        total as f64 / transforms as f64
    }

    #[test]
    fn relabeling_the_input_barely_moves_the_cg_iteration_count() {
        // Numbered as the file lists its cells, these two relabelings of
        // primary2 needed 1.92× and 1.97× the generator order's DILU-CG
        // iterations (63.8 and 65.4 against 33.2 per transformation); in
        // reverse Cuthill–McKee order all three need 31–33.
        let nl = mcnc::by_name("primary2");
        let base = cg_iterations_per_transformation(&nl, 10);
        for seed in [1, 3] {
            let shuffled = cg_iterations_per_transformation(&relabeled(&nl, seed), 10);
            assert!(
                (shuffled / base - 1.0).abs() < 0.15,
                "labels {seed}: {shuffled:.1} CG iterations per transformation, \
                 {base:.1} in generator order"
            );
        }
    }
}
