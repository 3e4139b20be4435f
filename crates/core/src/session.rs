//! The iterative algorithm of section 4: placement transformations with
//! accumulated additional forces.

use crate::arena::ScratchArena;
use crate::config::KraftwerkConfig;
use crate::error::KraftwerkError;
use crate::quadratic::QuadraticSystem;
use kraftwerk_field::{
    density_map_into, largest_empty_square, ForceField, MultigridSolver, ScalarMap,
};
use kraftwerk_netlist::{metrics, Netlist, Placement};
use kraftwerk_sparse::{try_solve_with, SolverError};
use kraftwerk_trace::Histogram;

/// Per-transformation progress record.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationStats {
    /// 1-based transformation number.
    pub iteration: usize,
    /// Half-perimeter wire length after the transformation.
    pub hpwl: f64,
    /// Area of the largest empty square (stopping criterion input).
    pub empty_square_area: f64,
    /// Peak density deviation before the transformation.
    pub peak_density: f64,
    /// Conjugate-gradient iterations spent (x + y solves).
    pub cg_iterations: usize,
    /// Magnitude of the strongest newly added force.
    pub max_force: f64,
    /// Largest realized per-cell move of this transformation (after the
    /// trust region, before the core clamp) — the watchdog's divergence
    /// signal.
    pub max_displacement: f64,
    /// Whether both conjugate-gradient solves met their tolerance before
    /// the iteration cap.
    pub cg_converged: bool,
}

/// Structured health record of a guarded placement run: how often the
/// watchdog intervened and whether the result is a degraded (checkpointed)
/// placement rather than a normally terminated one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunHealth {
    /// Watchdog trips observed (each either recovered from or fatal).
    pub trips: usize,
    /// Successful rollback-and-retry recoveries performed.
    pub recoveries: usize,
    /// `true` when the run gave up and returned the best-so-far
    /// checkpoint instead of a normally terminated placement.
    pub degraded: bool,
    /// `true` when the optional wall-clock budget cut the run short.
    pub budget_exhausted: bool,
    /// Wall-clock milliseconds left of the optional budget when the
    /// health record was taken (`None` when the run had no budget, so
    /// budget-free runs stay bitwise comparable). A serving daemon
    /// translates this into the client-visible remaining deadline.
    pub remaining_budget_ms: Option<u64>,
}

impl RunHealth {
    /// Whether the run completed without any watchdog intervention.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.trips == 0 && !self.degraded && !self.budget_exhausted
    }
}

/// Result of a completed placement run.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceResult {
    /// The final global placement.
    pub placement: Placement,
    /// Per-iteration statistics, in order.
    pub stats: Vec<IterationStats>,
    /// Whether the paper's stopping criterion fired (as opposed to the
    /// iteration cap or the stall guard).
    pub converged: bool,
    /// Watchdog health record (all zeros/false for an untroubled run).
    pub health: RunHealth,
}

impl PlaceResult {
    /// Number of placement transformations performed.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.stats.len()
    }
}

/// A stateful placement run: owns the evolving placement and the
/// accumulated additional-force vector, and exposes one
/// [`try_transform`](PlacementSession::try_transform) step per call so callers can
/// interleave their own logic (timing-weight updates, congestion maps,
/// trade-off recording) between transformations — exactly how the paper's
/// timing and congestion flows are described in section 5.
#[derive(Debug)]
pub struct PlacementSession<'a> {
    netlist: &'a Netlist,
    config: KraftwerkConfig,
    system: QuadraticSystem,
    placement: Placement,
    /// Whether the very first transformation already holds the placement
    /// in equilibrium (`true` for ECO/resume sessions) or starts with the
    /// unconstrained quadratic solve (`false` for fresh runs, where the
    /// everything-at-the-center start must be allowed to relax).
    hold_from_start: bool,
    extra_weights: Option<Vec<f64>>,
    demand: Option<(ScalarMap, f64)>,
    iteration: usize,
    last_empty_square: Vec<f64>,
    arena: ScratchArena,
    wd: WatchdogState,
    hists: SessionHistograms,
}

/// Per-session histogram accumulators, flushed into the trace stream at
/// the end of every traced transformation. Inert (a relaxed load per
/// sample) while no trace sink is installed.
#[derive(Debug)]
struct SessionHistograms {
    /// CG iterations per transformation (x + y solves combined).
    cg_iterations: Histogram,
    /// Per-cell realized displacement, per transformation.
    displacement: Histogram,
    /// Overfull (positive) density-bin deviations, per transformation.
    density_overflow: Histogram,
    /// Peak force-field magnitude per Poisson solve.
    field_magnitude: Histogram,
}

impl Default for SessionHistograms {
    fn default() -> Self {
        Self {
            cg_iterations: Histogram::new("place.cg_iterations"),
            displacement: Histogram::new("place.displacement"),
            density_overflow: Histogram::new("place.density_overflow"),
            field_magnitude: Histogram::new("place.field_magnitude"),
        }
    }
}

impl SessionHistograms {
    fn flush(&self) {
        self.cg_iterations.flush();
        self.displacement.flush();
        self.density_overflow.flush();
        self.field_magnitude.flush();
    }
}

/// Largest snapshot grid side: density/potential captures downsample to
/// at most this many bins per axis before hitting the trace stream.
const SNAPSHOT_MAX_SIDE: usize = 32;

/// Largest number of cell positions captured per `cells` snapshot.
const SNAPSHOT_MAX_CELLS: usize = 512;

/// Wire-length relaxation: the fraction of the holding force released
/// each transformation, so the springs keep pulling cells toward the
/// (linearized) wire-length optimum while the density forces push them
/// apart.
const RELAXATION: f64 = 0.05;

/// Downsamples `map` and emits it as one grid snapshot record.
fn emit_grid_snapshot(kind: &'static str, iteration: usize, map: &ScalarMap) {
    let small = map.downsampled(SNAPSHOT_MAX_SIDE, SNAPSHOT_MAX_SIDE);
    kraftwerk_trace::snapshot(
        kind,
        iteration as u64,
        small.nx(),
        small.ny(),
        small.values().to_vec(),
    );
}

/// The one guard of a transformation phase: opens the phase's
/// [`kraftwerk_trace::span`] and, while a trace sink is installed,
/// samples the worker-pool utilization counters and (when `--alloc-stats`
/// tracking is on) the heap counters at phase entry, emitting the deltas
/// as `par.utilization` / `alloc` events under the span's name at phase
/// exit.
///
/// All telemetry-side work runs under [`kraftwerk_trace::alloc::untracked`]
/// so the act of measuring never shows up in the heap measurement, and
/// nothing here reads a clock or touches an atomic unless a sink is
/// installed — an untraced, untracked run pays two branch tests per phase.
struct PhaseScope {
    phase: &'static str,
    span: kraftwerk_trace::SpanGuard,
    base: Option<PhaseBase>,
}

/// What a traced [`PhaseScope`] samples at phase entry.
struct PhaseBase {
    alloc: Option<kraftwerk_trace::alloc::AllocStats>,
    started: std::time::Instant,
    util: kraftwerk_par::UtilizationSnapshot,
}

impl PhaseScope {
    fn begin(phase: &'static str, tracing: bool) -> Self {
        let span = kraftwerk_trace::span(phase);
        let base = tracing.then(|| {
            kraftwerk_trace::alloc::untracked(|| PhaseBase {
                alloc: kraftwerk_trace::alloc::tracking().then(kraftwerk_trace::alloc::stats),
                started: std::time::Instant::now(),
                util: kraftwerk_par::UtilizationSnapshot::capture(),
            })
        });
        Self { phase, span, base }
    }

    fn finish(self) {
        use kraftwerk_trace::Value;
        let Self { phase, span, base } = self;
        if let Some(base) = base {
            let alloc = base.alloc.map(|b| kraftwerk_trace::alloc::stats().since(&b));
            kraftwerk_trace::alloc::untracked(move || {
                if let Some(delta) = alloc {
                    kraftwerk_trace::event(
                        kraftwerk_trace::ALLOC_EVENT,
                        vec![
                            ("phase", Value::from(phase)),
                            ("allocs", Value::from(delta.allocs)),
                            ("deallocs", Value::from(delta.deallocs)),
                            ("bytes", Value::from(delta.bytes_allocated)),
                            ("peak_bytes", Value::from(delta.peak_bytes)),
                        ],
                    );
                }
                let wall_s = base.started.elapsed().as_secs_f64();
                let spun = kraftwerk_par::UtilizationSnapshot::capture().since(&base.util);
                kraftwerk_trace::event(
                    kraftwerk_trace::UTILIZATION_EVENT,
                    vec![
                        ("span", Value::from(phase)),
                        ("wall_s", Value::from(wall_s)),
                        ("busy_s", Value::from(spun.busy_seconds())),
                        ("chunks", Value::from(spun.total_chunks())),
                        ("threads", Value::from(kraftwerk_par::current_threads())),
                        ("workers", Value::from(spun.workers_engaged())),
                    ],
                );
            });
        }
        span.finish();
    }
}

/// The watchdog trips when a held transformation moves a cell farther
/// than this fraction of the core diagonal: the trust region bounds a
/// healthy step at a small fraction of the die.
const MAX_STEP_FRACTION: f64 = 0.35;

/// The watchdog trips after this many consecutive transformations in
/// which a CG solve hit its iteration cap before meeting its tolerance.
const CG_STALL_STREAK: usize = 8;

/// Recoveries (rollback + damp + ladder step) in one session, counted
/// across all trips, before the run gives up with the checkpointed
/// result. The multilevel flow runs one session per level, so each level
/// gets its own allowance.
const MAX_RECOVERIES: usize = 3;

/// A best-so-far snapshot the watchdog can roll the session back to.
#[derive(Debug, Clone)]
struct Checkpoint {
    placement: Placement,
    iteration: usize,
    /// Length of `last_empty_square` at snapshot time (rollback truncates
    /// the history so the stall guard sees a consistent timeline).
    empty_len: usize,
    hpwl: f64,
    peak_density: f64,
}

/// Mutable watchdog bookkeeping carried by the session.
#[derive(Debug)]
struct WatchdogState {
    checkpoint: Option<Checkpoint>,
    /// Consecutive transformations in which a CG solve missed its
    /// tolerance.
    cg_streak: usize,
    trips: usize,
    recoveries: usize,
    degraded: bool,
    budget_exhausted: bool,
    /// Monotonic whole-run deadline, resolved once at session start from
    /// [`WatchdogConfig::resolve_deadline`] and checked before every
    /// transformation by the run loop.
    deadline: Option<std::time::Instant>,
    /// Multiplies the force-step target; halved on every recovery.
    damping: f64,
    /// One-shot force-scale fault injection, consumed by the next
    /// transformation (so a rollback retry runs unperturbed).
    boost_once: Option<f64>,
}

impl Default for WatchdogState {
    fn default() -> Self {
        Self {
            checkpoint: None,
            cg_streak: 0,
            trips: 0,
            recoveries: 0,
            degraded: false,
            budget_exhausted: false,
            deadline: None,
            damping: 1.0,
            boost_once: None,
        }
    }
}

impl<'a> PlacementSession<'a> {
    /// Starts a fresh run: all movable cells at the core center, zero
    /// accumulated force (section 4.2 step 1).
    #[must_use]
    pub fn new(netlist: &'a Netlist, config: KraftwerkConfig) -> Self {
        if config.threads != 0 {
            kraftwerk_par::set_threads(config.threads);
        }
        let wd = WatchdogState {
            deadline: config.watchdog.resolve_deadline(),
            ..WatchdogState::default()
        };
        Self {
            netlist,
            config,
            system: QuadraticSystem::new(netlist),
            placement: netlist.initial_placement(),
            hold_from_start: false,
            extra_weights: None,
            demand: None,
            iteration: 0,
            last_empty_square: Vec::new(),
            arena: ScratchArena::default(),
            wd,
            hists: SessionHistograms::default(),
        }
    }

    /// Resumes from an existing placement treated as an equilibrium of
    /// equation (3) (any placement is one for a suitable `e`). Used for
    /// ECO restarts and for the second phase of the meet-timing flow:
    /// subsequent transformations only move cells as far as *new* density
    /// or weight deviations demand (section 5, minimal disturbance).
    #[must_use]
    pub fn resume(netlist: &'a Netlist, config: KraftwerkConfig, placement: Placement) -> Self {
        let mut session = Self::new(netlist, config);
        session.placement = placement;
        session.hold_from_start = true;
        session
    }

    /// Fresh session reusing a scratch arena from a previous session
    /// (possibly over a *different* netlist — every buffer reshapes on
    /// use). The multilevel driver threads one arena through all
    /// hierarchy levels, and the serving daemon pools arenas across
    /// requests, so the zero-steady-state-allocation property holds per
    /// run instead of paying a cold-start growth at each.
    #[must_use]
    pub fn with_arena(netlist: &'a Netlist, config: KraftwerkConfig, arena: ScratchArena) -> Self {
        let mut session = Self::new(netlist, config);
        session.arena = arena;
        session
    }

    /// [`Self::resume`] reusing a scratch arena (see
    /// [`Self::with_arena`]).
    #[must_use]
    pub fn resume_with_arena(
        netlist: &'a Netlist,
        config: KraftwerkConfig,
        placement: Placement,
        arena: ScratchArena,
    ) -> Self {
        let mut session = Self::with_arena(netlist, config, arena);
        session.placement = placement;
        session.hold_from_start = true;
        session
    }

    /// Tears the session down into its final placement and the scratch
    /// arena, for reuse by the next hierarchy level or the next request.
    #[must_use]
    pub fn into_parts(self) -> (Placement, ScratchArena) {
        (self.placement, self.arena)
    }

    /// Watchdog health accumulated so far: attached to [`PlaceResult`]
    /// by [`Self::try_run`], and read directly by drivers using
    /// [`Self::run_loop_with`].
    #[must_use]
    pub fn health_snapshot(&self) -> RunHealth {
        RunHealth {
            trips: self.wd.trips,
            recoveries: self.wd.recoveries,
            degraded: self.wd.degraded,
            budget_exhausted: self.wd.budget_exhausted,
            remaining_budget_ms: self
                .remaining_budget()
                .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
        }
    }

    /// Wall-clock time left of the optional whole-run budget; `None` when
    /// the session has no deadline. Zero once the deadline has passed.
    #[must_use]
    pub fn remaining_budget(&self) -> Option<std::time::Duration> {
        self.wd
            .deadline
            .map(|d| d.saturating_duration_since(std::time::Instant::now()))
    }

    /// Sets per-net weight multipliers (timing criticality). Takes effect
    /// from the next transformation: the placement relaxes toward the new
    /// weighting (critical nets contract) while the held equilibrium keeps
    /// everything else in place.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != netlist.num_nets()`.
    pub fn set_extra_weights(&mut self, weights: Vec<f64>) {
        assert_eq!(
            weights.len(),
            self.netlist.num_nets(),
            "one weight per net required"
        );
        self.extra_weights = Some(weights);
    }

    /// Injects an additional supply/demand map (congestion or heat,
    /// section 5) blended into the density with the given weight before
    /// every force computation.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] (as
    /// [`KraftwerkError::Solver`]) and keeps the previous map when `map`
    /// does not use the session's [`grid_dims`](PlacementSession::grid_dims).
    pub fn set_demand_map(&mut self, map: ScalarMap, weight: f64) -> Result<(), KraftwerkError> {
        let (nx, ny) = self.grid_dims();
        let axes = [("demand map nx", nx, map.nx()), ("demand map ny", ny, map.ny())];
        for (what, expected, got) in axes {
            if got != expected {
                return Err(SolverError::DimensionMismatch { what, expected, got }.into());
            }
        }
        self.demand = Some((map, weight));
        Ok(())
    }

    /// Removes the injected demand map.
    pub fn clear_demand_map(&mut self) {
        self.demand = None;
    }

    /// Density grid dimensions `(nx, ny)` used by this session.
    #[must_use]
    pub fn grid_dims(&self) -> (usize, usize) {
        let core = self.netlist.core_region();
        let bins = self.config.grid_bins_for(self.system.num_movable());
        if core.width() >= core.height() {
            let ny = ((core.height() / core.width() * bins as f64).round() as usize).max(8);
            (bins, ny)
        } else {
            let nx = ((core.width() / core.height() * bins as f64).round() as usize).max(8);
            (nx, bins)
        }
    }

    /// The evolving placement.
    #[must_use]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Transformations performed so far.
    #[must_use]
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    fn linearization_eps(&self) -> Option<f64> {
        if self.config.linearization {
            let core = self.netlist.core_region();
            Some(self.config.linearization_epsilon * core.half_perimeter())
        } else {
            None
        }
    }

    fn empty_square_resolution(&self) -> usize {
        let avg = self.netlist.average_cell_area();
        if avg <= 0.0 {
            return 64;
        }
        let core = self.netlist.core_region();
        let longer = core.width().max(core.height());
        // Resolve half the side length of the threshold square.
        let side = (self.config.stop_empty_square_factor * avg).sqrt();
        ((longer / (side * 0.5)).ceil() as usize).clamp(32, 512)
    }

    /// Capacities of the scratch arena's growable buffers, in a fixed
    /// order. The arena grows to the design's size during the first
    /// transformation and is reused afterwards; two equal signatures
    /// around a block of transformations prove the block performed no new
    /// heap allocation from these pools. Exposed for tests and memory
    /// diagnostics.
    #[must_use]
    pub fn scratch_capacity_signature(&self) -> Vec<usize> {
        self.arena.capacity_signature()
    }

    /// The raw transformation step: all the numerics of
    /// [`try_transform`](PlacementSession::try_transform), no guardrails except
    /// the solver-input checks. Errors leave `self.iteration` advanced;
    /// the watchdog's rollback restores it.
    fn transform_inner(&mut self) -> Result<IterationStats, SolverError> {
        let tracing = kraftwerk_trace::enabled();
        let iter_started = tracing.then(std::time::Instant::now);
        let boost = self.wd.boost_once.take().unwrap_or(self.config.force_scale_boost);
        self.iteration += 1;
        // Snapshot cadence: first transformation plus every Nth after it.
        let snap_due = tracing
            && self.config.snapshot_every > 0
            && (self.iteration == 1 || self.iteration.is_multiple_of(self.config.snapshot_every));
        let core = self.netlist.core_region();
        let (nx, ny) = self.grid_dims();
        let lin_eps = self.linearization_eps();
        let ScratchArena {
            assembly,
            asm,
            hold_asm,
            stiffness,
            raw,
            hx,
            hy,
            sx,
            sy,
            bx,
            by,
            xs0,
            ys0,
            px,
            py,
            cg_x,
            cg_y,
            density: density_slot,
            density_scratch,
            mg,
            field: field_slot,
        } = &mut self.arena;

        // 1. Density deviation of the current placement (eq. 4), plus any
        //    injected congestion/heat demand.
        let density_scope = PhaseScope::begin("place.density_map", tracing);
        let density =
            density_slot.get_or_insert_with(|| ScalarMap::zeros(core, nx, ny));
        density_map_into(self.netlist, &self.placement, nx, ny, density, density_scratch);
        if let Some((map, weight)) = &self.demand {
            density.add_scaled(map, *weight);
            density.balance();
        }
        let peak_density = density.max();
        if tracing {
            // Positive deviations are the overfull bins the field will
            // push against; the distribution shows how concentrated the
            // remaining overlap is.
            for &d in density.values() {
                if d > 0.0 {
                    self.hists.density_overflow.record(d);
                }
            }
            if snap_due {
                // Snapshot copies are telemetry: they stay out of the
                // heap accounting, like every other record.
                let kind = kraftwerk_trace::SNAPSHOT_DENSITY;
                kraftwerk_trace::alloc::untracked(|| {
                    emit_grid_snapshot(kind, self.iteration, density);
                });
            }
        }
        density_scope.finish();

        // 2. + 3. Force field (eq. 9 / Poisson solve) and the quadratic
        //    system of the current placement. Neither reads the other's
        //    output (the solve reads the density map, the assembly the
        //    placement) and they write disjoint arena slots, so they run
        //    as the two branches of one join: concurrently when the worker
        //    pool has more than one thread, inline (field first) at one.
        //    On large grids the solve's V-cycle passes fan out from the
        //    field branch, so the assembly's thread helps with the solve
        //    once the assembly is done. The results are identical at any
        //    thread count.
        let density: &ScalarMap = density;
        let iteration = self.iteration;
        let (system, netlist, placement) = (&self.system, self.netlist, &self.placement);
        let extra_weights = self.extra_weights.as_deref();
        let net_model = self.config.net_model;
        // The two branches overlap in time, so they share one phase guard
        // (per-branch heap deltas would double-count each other); each
        // branch keeps a plain span of its own.
        let field_assembly_scope = PhaseScope::begin("place.field_assembly", tracing);
        let (field, ()) = kraftwerk_par::join(
            move || {
                let timer = kraftwerk_trace::span("place.field_solve");
                let solver = MultigridSolver {
                    // Force directions only need a few correct digits; the
                    // default 1e-7 residual target would spend V-cycles on
                    // accuracy the displacement cap throws away.
                    tolerance: 1e-4,
                    ..MultigridSolver::new()
                };
                let field = field_slot.get_or_insert_with(|| ForceField::zeros(core, nx, ny));
                solver.solve_reusing(density, mg, field);
                if snap_due {
                    kraftwerk_trace::alloc::untracked(|| {
                        if let Some(phi) = solver.potential_map(density, mg) {
                            let kind = kraftwerk_trace::SNAPSHOT_POTENTIAL;
                            emit_grid_snapshot(kind, iteration, &phi);
                        }
                    });
                }
                timer.finish();
                &*field
            },
            || {
                let timer = kraftwerk_trace::span("place.force_assembly");
                system.assemble_into(
                    netlist,
                    placement,
                    extra_weights,
                    net_model,
                    lin_eps,
                    asm,
                    assembly,
                );
                // The factors' diagonals are the per-cell stiffness the
                // force scale must be expressed in.
                let precond = kraftwerk_trace::span("place.precond");
                px.refresh_from(&asm.cx);
                py.refresh_from(&asm.cy);
                precond.finish();
                timer.finish();
            },
        );
        field_assembly_scope.finish();
        if tracing {
            // Deterministic per-solve summary (bitwise identical at any
            // thread count, unlike a wall-clock sample): the strongest
            // force the field produced this transformation.
            self.hists.field_magnitude.record(field.max_magnitude());
        }

        // 4. Scale per section 4.1: the strongest force equals the pull of
        //    a net of length K(W+H). A cell whose spring stiffness is
        //    `C_ii` pulled by such a net comes to rest K(W+H) away, so the
        //    scale is chosen to make the largest *induced displacement*
        //    equal K(W+H). (Expressing the cap in displacement rather than
        //    raw force keeps the step size meaningful under GORDIAN-L
        //    linearization, where edge weights — and with them all force
        //    units — shrink with 1/length.)
        let rhs_scope = PhaseScope::begin("place.force_rhs", tracing);
        let n = self.system.num_movable();
        // Robust stiffness floor: cells that are barely connected (only
        // the regularization anchor) must not collapse the global scale.
        // Selecting the middle element picks the same value a full sort
        // would (`total_cmp` is a total order), in linear time.
        let (diag_x, diag_y) = (px.diagonal(), py.diagonal());
        stiffness.clear();
        stiffness.extend(diag_x.iter().zip(diag_y).map(|(a, b)| 0.5 * (a + b)));
        let mid = stiffness.len() / 2;
        let (_, &mut median, _) = stiffness.select_nth_unstable_by(mid, f64::total_cmp);
        let median_stiffness = median.max(1e-12);
        let floor = 0.05 * median_stiffness;
        raw.clear();
        let mut max_disp = 0.0f64;
        for i in 0..n {
            let cell = self.system.cell_of(i);
            let f = field.force_at(self.placement.position(cell));
            let stiffness = (0.5 * (diag_x[i] + diag_y[i])).max(floor);
            max_disp = max_disp.max(f.norm() / stiffness);
            raw.push(f);
        }
        // Calibration note (see DESIGN.md): the paper expresses the cap
        // as the force of a net of length K(W+H). Interpreted literally as
        // a displacement it spans whole-die distances, leapfrogging the
        // density structure the force was derived from, so the target is
        // expressed in density-grid bins instead (the natural length scale
        // of the field) and additionally modulated by how overfull the
        // worst bin still is — as the distribution evens out, the steps
        // shrink instead of amplifying discretization noise. K keeps its
        // role as the speed/quality dial.
        let bin_diag = (density.dx() * density.dx() + density.dy() * density.dy()).sqrt();
        // Far from convergence (heavily overfull bins) the flow may take
        // proportionally larger steps, but only as far as the die demands:
        // the boost cap is sized so the iteration budget suffices to cross
        // the die, which matters on large dies where the grid-resolution
        // cap makes bins big in cells yet small relative to the die. Near
        // convergence the steps shrink with the density deviation.
        let base = self.config.k * 8.0 * bin_diag;
        let needed_rate =
            core.width().max(core.height()) / (0.6 * self.config.max_transformations as f64);
        let boost_cap = (needed_rate / base.max(1e-12)).clamp(1.0, 6.0);
        let overfill = peak_density.clamp(0.35, boost_cap);
        // `damping` is 1.0 unless the watchdog recovered from a trip
        // (multiplying by exactly 1.0 leaves the healthy path bitwise
        // unchanged); `boost` is the fault-injection multiplier.
        let target =
            (base * overfill).min(0.25 * core.width().min(core.height())) * self.wd.damping;
        let scale = if max_disp > 1e-12 { target / max_disp } else { 0.0 } * boost;

        // 5. Build the equilibrium equation C p + d + e = 0. The
        //    accumulated force vector `e` of equation (3) is kept in
        //    *re-derived* form: instead of summing raw forces across
        //    iterations (whose units drift by orders of magnitude as
        //    GORDIAN-L reweights every edge), the holding part of `e` is
        //    recomputed each transformation as exactly the force that
        //    keeps the current placement in equilibrium under the current
        //    weights — the placement itself carries the force history.
        //    Algebraically this is the paper's accumulation with the unit
        //    drift factored out; the same reformulation underlies the
        //    published successor of this algorithm (Kraftwerk2).
        //
        //    The one case where the paper's `e` deliberately lags the
        //    system is a net-weight update (timing flow): then the hold is
        //    computed under the *previous* weights so the newly weighted
        //    nets contract. `hold_asm` is the assembly the hold force is
        //    derived from.
        self.system.coords_into(&self.placement, xs0, ys0);
        let use_hold = self.hold_from_start || self.iteration > 1;
        if use_hold {
            // The hold is always derived under the *base* (unweighted)
            // system. This mirrors the paper exactly: the accumulated `e`
            // contains only density-force history, so when timing weights
            // scale the springs, the weighted nets feel a persistent net
            // pull toward contraction until a new balance with the density
            // forces is reached — not a one-shot nudge.
            let hold = if self.extra_weights.is_some() {
                self.system.assemble_into(
                    self.netlist,
                    &self.placement,
                    None,
                    self.config.net_model,
                    lin_eps,
                    hold_asm,
                    assembly,
                );
                &*hold_asm
            } else {
                &*asm
            };
            self.system.spring_force_into(hold, xs0, ys0, sx, sy);
            // Release a `RELAXATION` fraction of the hold so the springs
            // keep optimizing wire length against the density forces.
            let keep = 1.0 - RELAXATION;
            hx.clear();
            hx.extend(sx.iter().map(|v| -v * keep));
            hy.clear();
            hy.extend(sy.iter().map(|v| -v * keep));
        } else {
            hx.clear();
            hx.resize(n, 0.0);
            hy.clear();
            hy.resize(n, 0.0);
        }

        //    Right-hand side: C p = -d + f_hold + f_density.
        let mut max_force = 0.0f64;
        bx.clear();
        by.clear();
        for i in 0..n {
            let f = raw[i] * scale;
            max_force = max_force.max(f.norm());
            bx.push(-asm.dx[i] + hx[i] + f.x);
            by.push(-asm.dy[i] + hy[i] + f.y);
        }
        rhs_scope.finish();

        // 6. Solve, warm-started from the current placement. The x and y
        //    systems are independent, so the two conjugate-gradient solves
        //    run concurrently when the worker pool has more than one
        //    thread (each keeps its own workspace and factor, so the
        //    results are identical to the sequential order).
        let cg_opts = &self.config.cg;
        // The two axis solves overlap in time, so they share one phase
        // guard (per-axis heap deltas would double-count each other).
        let solve_scope = PhaseScope::begin("place.solve_xy", tracing);
        let (rx, ry) = kraftwerk_par::join(
            || {
                let timer = kraftwerk_trace::span("place.solve_x");
                let stats = try_solve_with(&asm.cx, bx, Some(xs0.as_slice()), &*px, cg_opts, cg_x);
                timer.finish();
                stats
            },
            || {
                let timer = kraftwerk_trace::span("place.solve_y");
                let stats = try_solve_with(&asm.cy, by, Some(ys0.as_slice()), &*py, cg_opts, cg_y);
                timer.finish();
                stats
            },
        );
        solve_scope.finish();
        let (rx, ry) = (rx?, ry?);

        //    Trust region: the per-cell displacement estimate used for the
        //    force scale cannot see coupled modes (a whole chain of cells
        //    pushed the same way moves much further than any one spring
        //    suggests), so the *realized* move is capped at the same
        //    target by blending toward the solve result. Skipped on the
        //    unconstrained first solve of a fresh run.
        let cg_iters = rx.iterations + ry.iterations;
        // A fault-injected force scale (`boost != 1.0`) bypasses the trust
        // region, otherwise the injected divergence would be silently
        // capped and the watchdog would have nothing to detect.
        if use_hold && boost == 1.0 {
            let xs1 = cg_x.solution_mut();
            let ys1 = cg_y.solution_mut();
            for i in 0..n {
                let dx = xs1[i] - xs0[i];
                let dy = ys1[i] - ys0[i];
                let move_len = (dx * dx + dy * dy).sqrt();
                if move_len > target {
                    let blend = target / move_len;
                    xs1[i] = xs0[i] + dx * blend;
                    ys1[i] = ys0[i] + dy * blend;
                }
            }
        }
        // Realized step size after the trust region, before the core
        // clamp: the watchdog's divergence signal.
        let mut max_displacement = 0.0f64;
        {
            let xs1 = cg_x.solution();
            let ys1 = cg_y.solution();
            for i in 0..n {
                let dx = xs1[i] - xs0[i];
                let dy = ys1[i] - ys0[i];
                let move_len = (dx * dx + dy * dy).sqrt();
                if tracing {
                    self.hists.displacement.record(move_len);
                }
                max_displacement = max_displacement.max(move_len);
            }
        }
        self.system
            .write_back(&mut self.placement, cg_x.solution(), cg_y.solution());
        self.clamp_into_core();
        if snap_due {
            kraftwerk_trace::alloc::untracked(|| self.emit_cells_snapshot());
        }

        // 7. Progress metrics.
        let metrics_scope = PhaseScope::begin("place.metrics", tracing);
        let empty_square_area =
            largest_empty_square(self.netlist, &self.placement, self.empty_square_resolution());
        self.last_empty_square.push(empty_square_area);
        let hpwl = metrics::hpwl(self.netlist, &self.placement);
        metrics_scope.finish();
        let stats = IterationStats {
            iteration: self.iteration,
            hpwl,
            empty_square_area,
            peak_density,
            cg_iterations: cg_iters,
            max_force,
            max_displacement,
            cg_converged: rx.converged && ry.converged,
        };
        if tracing {
            let wall_s = iter_started.map_or(0.0, |t| t.elapsed().as_secs_f64());
            self.hists.cg_iterations.record(cg_iters as f64);
            // The record and the histogram flush allocate; telemetry stays
            // out of the heap accounting.
            kraftwerk_trace::alloc::untracked(|| {
                kraftwerk_trace::event(
                    kraftwerk_trace::ITERATION_EVENT,
                    vec![
                        ("iteration", kraftwerk_trace::Value::from(stats.iteration)),
                        ("hpwl", kraftwerk_trace::Value::from(stats.hpwl)),
                        ("peak_density", kraftwerk_trace::Value::from(stats.peak_density)),
                        (
                            "empty_square_area",
                            kraftwerk_trace::Value::from(stats.empty_square_area),
                        ),
                        (
                            "cg_iterations",
                            kraftwerk_trace::Value::from(stats.cg_iterations),
                        ),
                        ("max_force", kraftwerk_trace::Value::from(stats.max_force)),
                        (
                            "max_displacement",
                            kraftwerk_trace::Value::from(stats.max_displacement),
                        ),
                        ("wall_s", kraftwerk_trace::Value::from(wall_s)),
                    ],
                );
                self.hists.flush();
            });
        }
        Ok(stats)
    }

    /// Emits a `cells` snapshot: up to [`SNAPSHOT_MAX_CELLS`] movable-cell
    /// positions, stride-sampled deterministically, stored interleaved as
    /// `x0, y0, x1, y1, ...` with `nx = count` and `ny = 2`.
    fn emit_cells_snapshot(&self) {
        let n = self.system.num_movable();
        if n == 0 {
            return;
        }
        let stride = n.div_ceil(SNAPSHOT_MAX_CELLS).max(1);
        let mut values = Vec::with_capacity(2 * n.div_ceil(stride));
        for i in (0..n).step_by(stride) {
            let cell = self.system.cell_of(i);
            let p = self.placement.position(cell);
            values.push(p.x);
            values.push(p.y);
        }
        let count = values.len() / 2;
        kraftwerk_trace::snapshot(
            kraftwerk_trace::SNAPSHOT_CELLS,
            self.iteration as u64,
            count,
            2,
            values,
        );
    }

    /// Executes one *placement transformation* (section 4.1):
    /// density → force field → scale to `K(W+H)` → accumulate → re-solve.
    ///
    /// When a [`kraftwerk_trace`] sink is installed, each phase (density
    /// map, Poisson solve, force assembly, right-hand side, CG x/y solves,
    /// metrics) runs under a named span and the returned stats are also
    /// emitted as one `iteration` event, so a
    /// [`RunRecorder`](kraftwerk_trace::RunRecorder) yields one JSONL
    /// record per transformation with per-phase wall times attached.
    ///
    /// All intermediate buffers live in the session's scratch arena: after
    /// the first transformation the steady-state loop reuses them without
    /// further heap allocation. The system matrices and their DILU factors
    /// are rebuilt every transformation. The Poisson solve and the system
    /// assembly, and then the x and y conjugate-gradient solves, run
    /// concurrently when more than one worker thread is configured;
    /// results are bitwise identical at any thread count.
    ///
    /// The transformation runs under the watchdog: it checks the outcome
    /// for divergence (non-finite metrics or solver input, runaway
    /// displacement, CG stall streaks), and on a trip rolls back to the
    /// best-so-far checkpoint, damps the force step, escalates down the
    /// recovery ladder and retries.
    ///
    /// # Errors
    ///
    /// Returns [`KraftwerkError::Solver`] on unrecoverable solver input
    /// errors and [`KraftwerkError::Diverged`] when the recovery budget is
    /// exhausted (or no checkpoint exists to roll back to). The session is
    /// left on its last checkpoint in that case, so callers may still read
    /// [`placement`](PlacementSession::placement).
    pub fn try_transform(&mut self) -> Result<IterationStats, KraftwerkError> {
        // Sessions that already carry a meaningful placement (ECO resumes,
        // sessions with completed transformations) get a rollback point
        // even before any watchdog-accepted progress.
        if self.wd.checkpoint.is_none() && (self.iteration > 0 || self.hold_from_start) {
            let hpwl = metrics::hpwl(self.netlist, &self.placement);
            self.snapshot_checkpoint(hpwl, f64::INFINITY);
        }
        loop {
            let trip: &'static str = match self.transform_inner() {
                Ok(stats) => match self.judge(&stats) {
                    None => {
                        self.note_progress(&stats);
                        return Ok(stats);
                    }
                    Some(reason) => reason,
                },
                Err(e) if e.is_recoverable() => "non-finite solver input",
                Err(e) => return Err(e.into()),
            };
            self.wd.trips += 1;
            kraftwerk_trace::counter("watchdog.trips", 1);
            let exhausted = self.wd.recoveries >= MAX_RECOVERIES;
            // Roll back even when giving up: the session promises to sit on
            // its last checkpoint after an Err, not on the diverged state.
            let rolled = self.rollback();
            if exhausted || !rolled {
                kraftwerk_trace::event(
                    kraftwerk_trace::WATCHDOG_EVENT,
                    vec![
                        ("iteration", kraftwerk_trace::Value::from(self.iteration)),
                        ("reason", kraftwerk_trace::Value::from(trip)),
                        ("action", kraftwerk_trace::Value::from("give_up")),
                        ("recoveries", kraftwerk_trace::Value::from(self.wd.recoveries)),
                    ],
                );
                return Err(KraftwerkError::Diverged {
                    iteration: self.iteration,
                    reason: trip,
                });
            }
            self.wd.recoveries += 1;
            kraftwerk_trace::counter("watchdog.recoveries", 1);
            self.escalate(trip);
            kraftwerk_trace::event(
                kraftwerk_trace::WATCHDOG_EVENT,
                vec![
                    ("iteration", kraftwerk_trace::Value::from(self.iteration)),
                    ("reason", kraftwerk_trace::Value::from(trip)),
                    ("action", kraftwerk_trace::Value::from("rollback")),
                    ("recoveries", kraftwerk_trace::Value::from(self.wd.recoveries)),
                    ("damping", kraftwerk_trace::Value::from(self.wd.damping)),
                ],
            );
        }
    }

    /// Checks an accepted transformation's stats against the watchdog
    /// thresholds; returns the trip reason, or `None` when healthy.
    fn judge(&mut self, stats: &IterationStats) -> Option<&'static str> {
        if !stats.hpwl.is_finite()
            || !stats.max_force.is_finite()
            || !stats.max_displacement.is_finite()
        {
            return Some("non-finite coordinates");
        }
        // The unconstrained first solve of a fresh run legitimately moves
        // cells across the whole die; only held transformations (where the
        // trust region bounds a healthy step) are judged on displacement.
        let used_hold = self.hold_from_start || self.iteration > 1;
        if used_hold {
            let core = self.netlist.core_region();
            let diag = (core.width() * core.width() + core.height() * core.height()).sqrt();
            if stats.max_displacement > MAX_STEP_FRACTION * diag {
                return Some("runaway displacement");
            }
        }
        if stats.cg_converged {
            self.wd.cg_streak = 0;
        } else {
            self.wd.cg_streak += 1;
            if self.wd.cg_streak >= CG_STALL_STREAK {
                return Some("cg stall streak");
            }
        }
        None
    }

    /// Folds an accepted transformation into the best-so-far bookkeeping
    /// and snapshots a checkpoint when it improves on the previous one.
    fn note_progress(&mut self, stats: &IterationStats) {
        // During spreading HPWL legitimately grows while density falls, so
        // "best" is driven by peak density with HPWL as the tie-breaker.
        let improves = match &self.wd.checkpoint {
            None => true,
            Some(cp) => {
                stats.peak_density < cp.peak_density
                    || (stats.peak_density <= cp.peak_density && stats.hpwl < cp.hpwl)
            }
        };
        if improves {
            self.snapshot_checkpoint(stats.hpwl, stats.peak_density);
        }
    }

    /// Records the current session state as the rollback checkpoint,
    /// reusing the previous checkpoint's allocation.
    fn snapshot_checkpoint(&mut self, hpwl: f64, peak_density: f64) {
        match &mut self.wd.checkpoint {
            Some(cp) => {
                cp.placement.clone_from(&self.placement);
                cp.iteration = self.iteration;
                cp.empty_len = self.last_empty_square.len();
                cp.hpwl = hpwl;
                cp.peak_density = peak_density;
            }
            None => {
                self.wd.checkpoint = Some(Checkpoint {
                    placement: self.placement.clone(),
                    iteration: self.iteration,
                    empty_len: self.last_empty_square.len(),
                    hpwl,
                    peak_density,
                });
            }
        }
    }

    /// Restores the checkpointed placement, iteration counter, and
    /// stopping-criterion history; `false` when no checkpoint exists.
    fn rollback(&mut self) -> bool {
        let Some(cp) = &self.wd.checkpoint else {
            return false;
        };
        self.placement.clone_from(&cp.placement);
        self.iteration = cp.iteration;
        self.last_empty_square.truncate(cp.empty_len);
        self.wd.cg_streak = 0;
        true
    }

    /// One step down the recovery ladder: always damp the force step,
    /// and after a CG stall double the solver's iteration budget.
    fn escalate(&mut self, trip: &'static str) {
        self.wd.damping *= 0.5;
        if trip == "cg stall streak" {
            self.config.cg.max_iterations *= 2;
        }
    }

    /// Fault injection for robustness tests: the *next* transformation
    /// multiplies its force scale by `boost` and bypasses the trust
    /// region; a watchdog rollback retry runs unperturbed again. See also
    /// [`KraftwerkConfig::force_scale_boost`] for the persistent variant.
    pub fn inject_force_scale_boost(&mut self, boost: f64) {
        self.wd.boost_once = Some(boost);
    }

    /// Keeps every movable cell's footprint inside the core region. The
    /// paper's supply function `A(x,y)` is zero outside the core, so
    /// escaped cells see pure demand and are pushed back eventually;
    /// clamping applies that correction immediately instead of spending
    /// transformations on it.
    fn clamp_into_core(&mut self) {
        let core = self.netlist.core_region();
        for i in 0..self.system.num_movable() {
            let cell_id = self.system.cell_of(i);
            let size = self.netlist.cell(cell_id).size();
            let half_w = (size.width * 0.5).min(core.width() * 0.5);
            let half_h = (size.height * 0.5).min(core.height() * 0.5);
            let p = self.placement.position(cell_id);
            let clamped = kraftwerk_geom::Point::new(
                p.x.clamp(core.x_lo + half_w, core.x_hi - half_w),
                p.y.clamp(core.y_lo + half_h, core.y_hi - half_h),
            );
            if clamped != p {
                self.placement.set_position(cell_id, clamped);
            }
        }
    }

    /// Whether the paper's stopping criterion holds: no empty square
    /// larger than `stop_empty_square_factor` times the average cell area
    /// (section 4.2 step 3). `false` before the first transformation.
    #[must_use]
    pub fn is_converged(&self) -> bool {
        match self.last_empty_square.last() {
            None => false,
            Some(&area) => {
                area <= self.config.stop_empty_square_factor * self.netlist.average_cell_area()
            }
        }
    }

    /// Whether the stall guard tripped: the empty-square area improved by
    /// less than 1% over the configured window.
    #[must_use]
    pub fn is_stalled(&self) -> bool {
        let w = self.config.stall_window;
        if w == 0 {
            return false;
        }
        // Never stall out during the early pile phase: spreading from the
        // centered start needs a latency proportional to the die extent
        // over the per-iteration displacement target before the
        // empty-square metric starts moving at all. Resumed sessions start
        // spread, so only the plain window applies.
        let latency = if self.hold_from_start { w } else { (3 * w).max(16) };
        if self.last_empty_square.len() < latency + 1 {
            return false;
        }
        let now = self.last_empty_square[self.last_empty_square.len() - 1];
        let then = self.last_empty_square[self.last_empty_square.len() - 1 - w];
        now > then * 0.99
    }

    /// Runs transformations until convergence, stall, the iteration cap,
    /// or the optional wall-clock budget, and consumes the session. When a
    /// transformation diverges beyond the watchdog's recovery budget but a
    /// best-so-far checkpoint exists, the run *still succeeds* — it
    /// returns the checkpointed placement with [`RunHealth::degraded`] set
    /// rather than discarding the usable work.
    ///
    /// # Errors
    ///
    /// Returns an error only when the pipeline fails before any usable
    /// placement exists (solver input errors or first-iteration
    /// divergence with nothing to roll back to).
    pub fn try_run(mut self) -> Result<PlaceResult, KraftwerkError> {
        let (stats, converged) = self.run_loop_with(|_, _| {})?;
        let health = self.health_snapshot();
        Ok(PlaceResult {
            placement: self.placement,
            stats,
            converged,
            health,
        })
    }

    /// The transformation loop behind [`try_run`](Self::try_run), usable
    /// without consuming the session: the multilevel driver runs one
    /// session per hierarchy level and needs the placement *and* the
    /// scratch arena back afterwards ([`Self::into_parts`]). `observe` is
    /// called once for every *accepted* transformation, after the
    /// watchdog has judged it, with the stats and the current placement.
    /// The serving daemon uses it to stream progress frames and write
    /// crash-safe position journals without a process-global trace sink
    /// (which could not be scoped per concurrent job).
    pub fn run_loop_with(
        &mut self,
        mut observe: impl FnMut(&IterationStats, &Placement),
    ) -> Result<(Vec<IterationStats>, bool), KraftwerkError> {
        let mut stats: Vec<IterationStats> = Vec::new();
        if self.system.num_movable() == 0 {
            return Ok((stats, true));
        }
        // A resumed (ECO) session may already satisfy the stopping
        // criterion; don't churn a converged placement.
        if self.hold_from_start {
            let area = largest_empty_square(
                self.netlist,
                &self.placement,
                self.empty_square_resolution(),
            );
            if area <= self.config.stop_empty_square_factor * self.netlist.average_cell_area() {
                self.last_empty_square.push(area);
                return Ok((stats, true));
            }
        }
        let mut failure: Option<KraftwerkError> = None;
        while self.iteration < self.config.max_transformations {
            if self.wd.deadline.is_some_and(|d| std::time::Instant::now() >= d) {
                self.wd.budget_exhausted = true;
                kraftwerk_trace::counter("watchdog.budget_exhausted", 1);
                break;
            }
            match self.try_transform() {
                Ok(st) => {
                    // A recovery rewinds the iteration counter; drop the
                    // stale tail so the record stays monotonic.
                    while stats.last().is_some_and(|s| s.iteration >= st.iteration) {
                        stats.pop();
                    }
                    observe(&st, &self.placement);
                    stats.push(st);
                    if self.is_converged() || self.is_stalled() {
                        break;
                    }
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = failure {
            // Give up gracefully: fall back to the checkpointed best if
            // one exists, otherwise surface the error.
            if !self.rollback() {
                return Err(e);
            }
            self.wd.degraded = true;
            while stats.last().is_some_and(|s| s.iteration > self.iteration) {
                stats.pop();
            }
            kraftwerk_trace::counter("watchdog.degraded_runs", 1);
        }
        let converged = self.is_converged();
        Ok((stats, converged))
    }
}

/// The one-call front door: global placement with a fixed configuration.
///
/// See the crate-level example. For timing-driven flows and map injection
/// use [`PlacementSession`] directly.
#[derive(Debug, Clone, Default)]
pub struct GlobalPlacer {
    config: KraftwerkConfig,
}

impl GlobalPlacer {
    /// Creates a placer with the given configuration.
    #[must_use]
    pub fn new(config: KraftwerkConfig) -> Self {
        Self { config }
    }

    /// Places a netlist from scratch: validates it at the boundary
    /// ([`Netlist::validate`]) and runs the watchdog-guarded session.
    ///
    /// # Errors
    ///
    /// Returns [`KraftwerkError::Validation`] for rejected input and the
    /// [`PlacementSession::try_run`] errors for runs that fail before any
    /// usable placement exists. A diverged run with a usable checkpoint
    /// returns `Ok` with [`RunHealth::degraded`] set.
    pub fn try_place(&self, netlist: &Netlist) -> Result<PlaceResult, KraftwerkError> {
        netlist.validate()?;
        PlacementSession::new(netlist, self.config.clone()).try_run()
    }

    /// Incremental (ECO) placement: adapts an existing placement to the
    /// netlist with minimal disturbance (section 5). Cells only move where
    /// density deviations or netlist changes create new forces.
    ///
    /// # Errors
    ///
    /// Same contract as [`try_place`](GlobalPlacer::try_place).
    pub fn try_place_incremental(
        &self,
        netlist: &Netlist,
        existing: Placement,
    ) -> Result<PlaceResult, KraftwerkError> {
        netlist.validate()?;
        PlacementSession::resume(netlist, self.config.clone(), existing).try_run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kraftwerk_netlist::synth::{generate, SynthConfig};
    use kraftwerk_netlist::{metrics, NetlistBuilder, PinDirection};

    fn small() -> Netlist {
        generate(&SynthConfig::with_size("small", 150, 190, 6))
    }

    #[test]
    fn placement_spreads_and_reduces_overlap() {
        let nl = small();
        let result = GlobalPlacer::new(KraftwerkConfig::standard())
            .try_place(&nl)
            .expect("placement");
        assert!(!result.stats.is_empty());
        let overlap = metrics::overlap_ratio(&nl, &result.placement);
        assert!(overlap < 0.7, "overlap ratio {overlap}");
        // Cells stay essentially inside the core.
        let outside = metrics::out_of_core_ratio(&nl, &result.placement);
        assert!(outside < 0.05, "out of core {outside}");
    }

    #[test]
    fn empty_square_area_shrinks_over_iterations() {
        let nl = small();
        let result = GlobalPlacer::new(KraftwerkConfig::standard())
            .try_place(&nl)
            .expect("placement");
        let first = result.stats.first().unwrap().empty_square_area;
        let last = result.stats.last().unwrap().empty_square_area;
        assert!(last < first, "no spreading: first {first} last {last}");
    }

    #[test]
    fn placement_is_deterministic() {
        let nl = small();
        let placer = GlobalPlacer::new(KraftwerkConfig::standard());
        let a = placer.try_place(&nl).expect("placement");
        let b = placer.try_place(&nl).expect("placement");
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.stats.len(), b.stats.len());
    }

    #[test]
    fn steady_state_transform_reuses_the_scratch_arena() {
        let nl = small();
        let mut session = PlacementSession::new(&nl, KraftwerkConfig::standard());
        // Warm-up: the arena grows to the design's size during the first
        // transformations (the hold path only activates on the second).
        session.try_transform().expect("transformation");
        session.try_transform().expect("transformation");
        let before = session.scratch_capacity_signature();
        for _ in 0..4 {
            session.try_transform().expect("transformation");
        }
        assert_eq!(
            before,
            session.scratch_capacity_signature(),
            "steady-state transformations must not grow the scratch arena"
        );
    }

    #[test]
    fn thread_count_does_not_change_the_placement() {
        let nl = small();
        let placer = GlobalPlacer::new(KraftwerkConfig::standard());
        kraftwerk_par::set_threads(1);
        let one = placer.try_place(&nl).expect("placement");
        kraftwerk_par::set_threads(2);
        let two = placer.try_place(&nl).expect("placement");
        kraftwerk_par::set_threads(0);
        assert_eq!(one.placement, two.placement);
        assert_eq!(one.stats, two.stats);
    }

    #[test]
    fn fast_mode_uses_fewer_transformations() {
        let nl = small();
        let std_run = GlobalPlacer::new(KraftwerkConfig::standard())
            .try_place(&nl)
            .expect("placement");
        let fast_run = GlobalPlacer::new(KraftwerkConfig::fast())
            .try_place(&nl)
            .expect("placement");
        // Fast mode never needs more transformations, and does each on a
        // coarser grid with looser solver tolerances (the speed win on
        // tiny test circuits is mostly per-iteration cost).
        assert!(
            fast_run.iterations() <= std_run.iterations(),
            "fast {} vs standard {}",
            fast_run.iterations(),
            std_run.iterations()
        );
    }

    #[test]
    fn beats_a_random_placement_on_wire_length() {
        use rand::{Rng, SeedableRng};
        let nl = small();
        let result = GlobalPlacer::new(KraftwerkConfig::standard())
            .try_place(&nl)
            .expect("placement");
        let ours = metrics::hpwl(&nl, &result.placement);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        let core = nl.core_region();
        let mut random = nl.initial_placement();
        for (id, cell) in nl.cells() {
            if cell.is_movable() {
                random.set_position(
                    id,
                    kraftwerk_geom::Point::new(
                        rng.gen_range(core.x_lo..core.x_hi),
                        rng.gen_range(core.y_lo..core.y_hi),
                    ),
                );
            }
        }
        let rand_hpwl = metrics::hpwl(&nl, &random);
        assert!(
            ours < 0.6 * rand_hpwl,
            "ours {ours:.0} should be well below random {rand_hpwl:.0}"
        );
    }

    #[test]
    fn eco_restart_barely_moves_an_unchanged_design() {
        let nl = small();
        let placer = GlobalPlacer::new(KraftwerkConfig::standard());
        let first = placer.try_place(&nl).expect("placement");
        let eco = placer
            .try_place_incremental(&nl, first.placement.clone())
            .expect("incremental placement");
        let core = nl.core_region();
        let moved = first.placement.max_displacement(&eco.placement);
        assert!(
            moved < 0.15 * core.half_perimeter(),
            "ECO on unchanged netlist moved cells by {moved}"
        );
    }

    #[test]
    fn extra_weights_shorten_the_weighted_net() {
        let nl = small();
        let cfg = KraftwerkConfig::standard();
        let base = GlobalPlacer::new(cfg.clone())
            .try_place(&nl)
            .expect("placement");
        // Heavily weight net 0.
        let target = kraftwerk_netlist::NetId::from_index(0);
        let mut weights = vec![1.0; nl.num_nets()];
        weights[target.index()] = 20.0;
        let mut session = PlacementSession::new(&nl, cfg);
        session.set_extra_weights(weights);
        let weighted = session.try_run().expect("placement run");
        let before = metrics::net_hpwl(&nl, &base.placement, target);
        let after = metrics::net_hpwl(&nl, &weighted.placement, target);
        assert!(
            after < before,
            "weighted net should shrink: {after:.2} vs {before:.2}"
        );
    }

    #[test]
    fn empty_netlist_is_handled() {
        let mut b = NetlistBuilder::new();
        b.core_region(kraftwerk_geom::Rect::new(0.0, 0.0, 10.0, 10.0));
        let p0 = b.add_fixed_cell("p0", kraftwerk_geom::Size::new(1.0, 1.0), kraftwerk_geom::Point::new(0.0, 5.0));
        let p1 = b.add_fixed_cell("p1", kraftwerk_geom::Size::new(1.0, 1.0), kraftwerk_geom::Point::new(10.0, 5.0));
        b.add_net("n", [(p0, PinDirection::Output), (p1, PinDirection::Input)]);
        let nl = b.build().unwrap();
        let result = GlobalPlacer::new(KraftwerkConfig::standard())
            .try_place(&nl)
            .expect("placement");
        assert!(result.converged);
        assert!(result.stats.is_empty());
    }

    #[test]
    fn session_grid_dims_follow_aspect_ratio() {
        let nl = small();
        let session = PlacementSession::new(&nl, KraftwerkConfig::standard());
        let (nx, ny) = session.grid_dims();
        let core = nl.core_region();
        if core.width() > core.height() {
            assert!(nx >= ny);
        } else {
            assert!(ny >= nx);
        }
    }

    #[test]
    fn demand_map_injection_shifts_the_placement() {
        use kraftwerk_field::ScalarMap;
        let nl = generate(&SynthConfig::with_size("demand", 150, 190, 6));
        let cfg = KraftwerkConfig::standard();
        let plain = GlobalPlacer::new(cfg.clone())
            .try_place(&nl)
            .expect("placement")
            .placement;

        // Synthetic demand: the left half of the core is "congested".
        let mut session = PlacementSession::new(&nl, cfg.clone());
        let (nx, ny) = session.grid_dims();
        let mut demand = ScalarMap::zeros(nl.core_region(), nx, ny);
        for iy in 0..ny {
            for ix in 0..nx / 2 {
                demand.set(ix, iy, 1.0);
            }
        }
        demand.balance();
        session.set_demand_map(demand, 1.5).expect("map uses grid_dims");
        let result = session.try_run().expect("placement run");

        // Mass shifts to the right relative to the plain run.
        let mean_x = |p: &kraftwerk_netlist::Placement| {
            let mut s = 0.0;
            let mut n = 0.0;
            for (id, c) in nl.movable_cells() {
                s += p.position(id).x * c.area();
                n += c.area();
            }
            s / n
        };
        assert!(
            mean_x(&result.placement) > mean_x(&plain) + 0.02 * nl.core_region().width(),
            "demand map did not push cells right: {} vs {}",
            mean_x(&result.placement),
            mean_x(&plain)
        );
    }

    #[test]
    fn clearing_the_demand_map_restores_plain_behaviour() {
        use kraftwerk_field::ScalarMap;
        let nl = generate(&SynthConfig::with_size("demand2", 100, 130, 5));
        let cfg = KraftwerkConfig::standard();
        let mut with_clear = PlacementSession::new(&nl, cfg.clone());
        let (nx, ny) = with_clear.grid_dims();
        let mut demand = ScalarMap::zeros(nl.core_region(), nx, ny);
        demand.set(0, 0, 5.0);
        demand.balance();
        with_clear.set_demand_map(demand, 1.0).expect("map uses grid_dims");
        with_clear.clear_demand_map();
        let a = with_clear.try_run().expect("placement run");
        let b = GlobalPlacer::new(cfg).try_place(&nl).expect("placement");
        assert_eq!(a.placement, b.placement);
    }

    #[test]
    fn tall_die_grid_dims_flip_orientation() {
        use kraftwerk_geom::{Rect, Size};
        use kraftwerk_netlist::NetlistBuilder;
        let mut bld = NetlistBuilder::new();
        bld.core_region(Rect::new(0.0, 0.0, 50.0, 400.0));
        let a = bld.add_cell("a", Size::new(4.0, 4.0));
        let c = bld.add_cell("c", Size::new(4.0, 4.0));
        bld.add_net("n", [(a, PinDirection::Output), (c, PinDirection::Input)]);
        let nl = bld.build().unwrap();
        let session = PlacementSession::new(&nl, KraftwerkConfig::standard());
        let (nx, ny) = session.grid_dims();
        assert!(ny > nx, "tall die should have more vertical bins: {nx}x{ny}");
    }

    #[test]
    fn iteration_stats_are_internally_consistent() {
        let nl = generate(&SynthConfig::with_size("stats", 150, 190, 6));
        let result = GlobalPlacer::new(KraftwerkConfig::standard())
            .try_place(&nl)
            .expect("placement");
        for (i, st) in result.stats.iter().enumerate() {
            assert_eq!(st.iteration, i + 1);
            assert!(st.hpwl.is_finite() && st.hpwl > 0.0);
            assert!(st.empty_square_area >= 0.0);
            assert!(st.peak_density.is_finite());
        }
    }
}
