//! The traced replay of the placer calls.
//!
//! It issues the public API sequence of `GlobalPlacer::try_place` and
//! `try_place_multilevel` call for call, recording spans around each call
//! and running probes inside the per-transformation observer. Probes are
//! pure functions of the placement they are handed, so the replay places
//! exactly what the production call places; the workloads check this by
//! comparing wire lengths. Probe time is kept apart so it can be taken
//! out of the replay's wall time.

use crate::report::PerLayer;
use crate::spans::Trace;
use crate::stats::{mean, median};
use kraftwerk_core::{
    build_hierarchy, IterationStats, KraftwerkConfig, KraftwerkError, MultilevelConfig, NetModel,
    PlaceResult, PlacementSession, QuadraticSystem, ScratchArena,
};
use kraftwerk_field::{density_map_into, largest_empty_square, DensityScratch, ScalarMap};
use kraftwerk_netlist::{metrics, Netlist};
use std::hint::black_box;
use std::time::Instant;

/// Per-layer measurements accumulated over every replayed flow.
#[derive(Debug, Default)]
pub struct Layers {
    /// Session constructor times, seconds.
    pub session_new_s: Vec<f64>,
    /// Accepted transformations, all levels.
    pub transforms: usize,
    /// Finest-level transformation times without probes, seconds.
    pub finest_transform_s: Vec<f64>,
    /// CG iterations summed over finest-level transformations.
    pub finest_cg_iters: usize,
    /// Accepted transformations whose CG solves missed tolerance.
    pub cg_unconverged: usize,
    /// Probe times, seconds.
    pub hpwl_probe_s: Vec<f64>,
    /// `density_map_into` probe times, seconds.
    pub density_probe_s: Vec<f64>,
    /// `largest_empty_square` probe times, seconds.
    pub empty_probe_s: Vec<f64>,
    /// `QuadraticSystem::assemble` probe times, seconds.
    pub assemble_probe_s: Vec<f64>,
    /// Most hierarchy levels seen.
    pub levels: usize,
    /// Time in `build_hierarchy`, seconds.
    pub coarsen_s: f64,
    /// Time in coarse-level transformation loops, seconds.
    pub coarse_levels_s: f64,
    /// Time in `Clustering::expand`, seconds.
    pub expand_s: f64,
    /// Placer-call wall time without probes, seconds.
    pub placer_s: f64,
    /// Watchdog trips.
    pub trips: usize,
    /// Peak density after each input's last transformation.
    pub final_peak: Vec<f64>,
    /// Time in `legalize`, seconds.
    pub abacus_s: f64,
    /// Time in `refine`, seconds.
    pub refine_s: f64,
    /// Flow wall time without probes, seconds.
    pub flow_s: f64,
    /// Summed global-to-legal displacement of movable cells.
    pub disp_sum: f64,
    /// Movable cells the displacement was summed over.
    pub disp_cells: usize,
    /// Time spent in probes and probe set-up, seconds.
    pub probe_s: f64,
}

/// Daemon-side layer numbers; all zero for the placement workloads.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeLayers {
    /// See [`PerLayer::outside_job_share`].
    pub outside_job_share: f64,
    /// See [`PerLayer::decode_share`].
    pub decode_share: f64,
    /// See [`PerLayer::tail_ratio`].
    pub tail_ratio: f64,
    /// See [`PerLayer::arena_hit_frac`].
    pub arena_hit_frac: f64,
    /// See [`PerLayer::busy_retries`].
    pub busy_retries: f64,
    /// See [`PerLayer::degraded_retries`].
    pub degraded_retries: f64,
}

impl Layers {
    /// The per-layer metrics. `passes` is the number of replay passes over
    /// the inputs; `read_s`/`validate_s` hold one list of timings per input.
    pub fn per_layer(
        &self,
        passes: usize,
        read_s: &[Vec<f64>],
        validate_s: &[Vec<f64>],
        serve: ServeLayers,
        replay_mismatches: usize,
        overhead_frac: f64,
    ) -> PerLayer {
        let ms = |v: &[f64]| mean(v) * 1e3;
        let per_pass = |n: usize| n as f64 / passes as f64;
        let sum_of_medians =
            |lists: &[Vec<f64>]| lists.iter().map(|l| median(l)).sum::<f64>() * 1e3;
        PerLayer {
            read_ms: sum_of_medians(read_s),
            validate_ms: sum_of_medians(validate_s),
            hpwl_ms: ms(&self.hpwl_probe_s),
            session_new_ms: ms(&self.session_new_s),
            transforms: per_pass(self.transforms),
            transform_ms: ms(&self.finest_transform_s),
            assemble_ms: ms(&self.assemble_probe_s),
            levels: self.levels as f64,
            coarsen_share: self.coarsen_s / self.placer_s,
            coarse_levels_share: self.coarse_levels_s / self.placer_s,
            expand_share: self.expand_s / self.placer_s,
            watchdog_trips: per_pass(self.trips),
            cg_iters_per_transform: self.finest_cg_iters as f64
                / self.finest_transform_s.len() as f64,
            cg_unconverged: per_pass(self.cg_unconverged),
            density_map_ms: ms(&self.density_probe_s),
            empty_square_ms: ms(&self.empty_probe_s),
            final_peak_density: mean(&self.final_peak),
            abacus_share: share(self.abacus_s, self.flow_s),
            refine_share: share(self.refine_s, self.flow_s),
            mean_disp_um: share(self.disp_sum, self.disp_cells as f64),
            outside_job_share: serve.outside_job_share,
            decode_share: serve.decode_share,
            tail_ratio: serve.tail_ratio,
            arena_hit_frac: serve.arena_hit_frac,
            busy_retries: serve.busy_retries,
            degraded_retries: serve.degraded_retries,
            replay_mismatches: replay_mismatches as f64,
            overhead_frac,
        }
    }
}

/// `part / whole`, or 0 when the layer never ran.
fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Replays the placer call: flat `try_place` or the multilevel V-cycle.
/// Returns the result and the placer-call time without probes.
///
/// # Errors
///
/// The placer's own errors, unchanged.
pub fn place(
    netlist: &Netlist,
    config: &KraftwerkConfig,
    multilevel: Option<&MultilevelConfig>,
    trace: &mut Trace,
    layers: &mut Layers,
) -> Result<(PlaceResult, f64), KraftwerkError> {
    let probes_before = layers.probe_s;
    let started = Instant::now();
    let span = trace.begin("core.place");
    let result = match multilevel {
        None => flat(netlist, config, trace, layers),
        Some(ml) => v_cycle(netlist, config, ml, trace, layers),
    };
    trace.end(span);
    let place_s = started.elapsed().as_secs_f64() - (layers.probe_s - probes_before);
    layers.placer_s += place_s;
    if let Ok(r) = &result {
        layers.trips += r.health.trips;
    }
    result.map(|r| (r, place_s))
}

fn validate(netlist: &Netlist, trace: &mut Trace) -> Result<(), KraftwerkError> {
    Ok(trace.time("netlist.validate", || netlist.validate()).0?)
}

fn timed_session<'a>(
    trace: &mut Trace,
    layers: &mut Layers,
    make: impl FnOnce() -> PlacementSession<'a>,
) -> PlacementSession<'a> {
    let (session, took) = trace.time("core.session_new", make);
    layers.session_new_s.push(took);
    session
}

/// `GlobalPlacer::try_place`: validate, one session, one loop.
fn flat(
    netlist: &Netlist,
    config: &KraftwerkConfig,
    trace: &mut Trace,
    layers: &mut Layers,
) -> Result<PlaceResult, KraftwerkError> {
    validate(netlist, trace)?;
    layers.levels = layers.levels.max(1);
    let mut session = timed_session(trace, layers, || {
        PlacementSession::new(netlist, config.clone())
    });
    let (stats, converged) = run_level(&mut session, netlist, config, true, trace, layers)?;
    let health = session.health_snapshot();
    let (placement, _) = session.into_parts();
    Ok(PlaceResult {
        placement,
        stats,
        converged,
        health,
    })
}

/// `try_place_multilevel`, preceded by the validation `kraftwerk place
/// --multilevel` performs: coarsen, place the coarsest level with the full
/// budget, then expand and refine each finer level on a shrinking budget.
/// A copy of `try_place_multilevel`'s loop, kept by hand: a change there
/// that moves the result shows as `trace.replay_mismatches`, one that
/// moves only time does not.
fn v_cycle(
    netlist: &Netlist,
    config: &KraftwerkConfig,
    ml: &MultilevelConfig,
    trace: &mut Trace,
    layers: &mut Layers,
) -> Result<PlaceResult, KraftwerkError> {
    validate(netlist, trace)?;
    let mut cfg = config.clone();
    if let Some(model) = ml.net_model {
        cfg.net_model = model;
    }
    cfg.watchdog.deadline = cfg.watchdog.resolve_deadline();
    let (levels, took) = trace.time("core.coarsen", || build_hierarchy(netlist, ml));
    layers.coarsen_s += took;
    layers.levels = layers.levels.max(levels.len() + 1);

    let coarsest: &Netlist = levels.last().map_or(netlist, |c| c.coarse());
    let coarsest_movable = coarsest.num_movable().max(1);
    let mut session = timed_session(trace, layers, || {
        PlacementSession::with_arena(coarsest, cfg.clone(), ScratchArena::default())
    });
    let (mut stats, mut converged) = run_level(
        &mut session,
        coarsest,
        &cfg,
        levels.is_empty(),
        trace,
        layers,
    )?;
    let mut health = session.health_snapshot();
    let (mut placement, mut arena) = session.into_parts();

    for li in (0..levels.len()).rev() {
        let clustering = &levels[li];
        let fine: &Netlist = if li == 0 {
            netlist
        } else {
            levels[li - 1].coarse()
        };
        let (expanded, took) = trace.time("core.expand", || clustering.expand(fine, &placement));
        layers.expand_s += took;
        let ratio = coarsest_movable as f64 / fine.num_movable().max(1) as f64;
        let budget = ((ml.refine_base as f64 * ratio).round() as usize)
            .clamp(ml.refine_min.max(1), ml.refine_base.max(1));
        let mut level_cfg = cfg.clone();
        level_cfg.max_transformations = budget;
        let mut session = timed_session(trace, layers, || {
            PlacementSession::resume_with_arena(fine, level_cfg, expanded, arena)
        });
        let (level_stats, level_converged) =
            run_level(&mut session, fine, &cfg, li == 0, trace, layers)?;
        let h = session.health_snapshot();
        health.trips += h.trips;
        health.recoveries += h.recoveries;
        health.degraded |= h.degraded;
        health.budget_exhausted |= h.budget_exhausted;
        if h.remaining_budget_ms.is_some() {
            health.remaining_budget_ms = h.remaining_budget_ms;
        }
        let offset = stats.last().map_or(0, |s| s.iteration);
        stats.extend(level_stats.into_iter().map(|mut s| {
            s.iteration += offset;
            s
        }));
        converged = level_converged;
        (placement, arena) = session.into_parts();
    }
    Ok(PlaceResult {
        placement,
        stats,
        converged,
        health,
    })
}

/// One level's transformation loop with the observer. Probes run on the
/// finest level only, where their per-call cost is the one the
/// production flow pays at the input's size.
fn run_level(
    session: &mut PlacementSession<'_>,
    netlist: &Netlist,
    cfg: &KraftwerkConfig,
    finest: bool,
    trace: &mut Trace,
    layers: &mut Layers,
) -> Result<(Vec<IterationStats>, bool), KraftwerkError> {
    let span = trace.begin(if finest {
        "core.finest_level"
    } else {
        "core.coarse_level"
    });
    let setup = Instant::now();
    let mut probes = finest.then(|| Probes::new(netlist, cfg, session.grid_dims()));
    let mut probe_s = setup.elapsed().as_secs_f64();
    let started = Instant::now();
    let mut last = started;
    let run = session.run_loop_with(|st, placement| {
        let now = Instant::now();
        trace.add("core.transform", last, now);
        layers.transforms += 1;
        layers.cg_unconverged += usize::from(!st.cg_converged);
        if let Some(p) = probes.as_mut() {
            layers.finest_transform_s.push((now - last).as_secs_f64());
            layers.finest_cg_iters += st.cg_iterations;
            p.run(netlist, placement, trace, layers);
        }
        last = Instant::now();
        probe_s += (last - now).as_secs_f64();
    });
    trace.end(span);
    layers.probe_s += probe_s;
    if !finest {
        layers.coarse_levels_s += started.elapsed().as_secs_f64() - probe_s;
    }
    let (stats, converged) = run?;
    if let (true, Some(last)) = (finest, stats.last()) {
        layers.final_peak.push(last.peak_density);
    }
    Ok((stats, converged))
}

/// Probe state for one level: the buffers the session would use, built
/// once outside the timed calls.
struct Probes {
    system: QuadraticSystem,
    density: ScalarMap,
    scratch: DensityScratch,
    dims: (usize, usize),
    resolution: usize,
    model: NetModel,
    lin_eps: Option<f64>,
}

impl Probes {
    fn new(netlist: &Netlist, cfg: &KraftwerkConfig, dims: (usize, usize)) -> Self {
        let core = netlist.core_region();
        Self {
            system: QuadraticSystem::new(netlist),
            density: ScalarMap::zeros(core, dims.0, dims.1),
            scratch: DensityScratch::default(),
            dims,
            resolution: empty_square_resolution(netlist, cfg),
            model: cfg.net_model,
            lin_eps: cfg
                .linearization
                .then(|| cfg.linearization_epsilon * core.half_perimeter()),
        }
    }

    fn run(
        &mut self,
        netlist: &Netlist,
        placement: &kraftwerk_netlist::Placement,
        trace: &mut Trace,
        layers: &mut Layers,
    ) {
        let Self {
            system,
            density,
            scratch,
            dims: (nx, ny),
            resolution,
            model,
            lin_eps,
        } = self;
        let mut probe = |name, f: &mut dyn FnMut()| trace.time(name, f).1;
        layers
            .hpwl_probe_s
            .push(probe("netlist.hpwl_probe", &mut || {
                black_box(metrics::hpwl(netlist, placement));
            }));
        layers
            .density_probe_s
            .push(probe("field.density_map_probe", &mut || {
                density_map_into(netlist, placement, *nx, *ny, density, scratch);
            }));
        layers
            .empty_probe_s
            .push(probe("field.empty_square_probe", &mut || {
                black_box(largest_empty_square(netlist, placement, *resolution));
            }));
        layers
            .assemble_probe_s
            .push(probe("core.assemble_probe", &mut || {
                black_box(system.assemble(netlist, placement, None, *model, *lin_eps));
            }));
    }
}

/// The session's empty-square resolution: bins along the longer core edge
/// resolving half the side of the stopping criterion's threshold square.
/// A copy of a private formula of `PlacementSession`, kept by hand: a
/// change there alters only this probe's cost, which no check catches.
fn empty_square_resolution(netlist: &Netlist, cfg: &KraftwerkConfig) -> usize {
    let avg = netlist.average_cell_area();
    if avg <= 0.0 {
        return 64;
    }
    let core = netlist.core_region();
    let longer = core.width().max(core.height());
    let side = (cfg.stop_empty_square_factor * avg).sqrt();
    ((longer / (side * 0.5)).ceil() as usize).clamp(32, 512)
}
