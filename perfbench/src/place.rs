//! The placement workloads, `mcnc-flat` and `scale50k`: the flow of
//! `kraftwerk place` (placer call, `legalize`, two `refine` passes) on
//! every input, pass after pass, for the measured time.

use crate::host;
use crate::inputs::{self, Input, Workload};
use crate::replay::{self, Layers, ServeLayers};
use crate::report::EndToEnd;
use crate::spans::Trace;
use crate::stats::{mean, median, quartiles};
use crate::Outcome;
use kraftwerk_core::{
    try_place_multilevel, GlobalPlacer, KraftwerkConfig, MultilevelConfig, PlaceResult,
};
use kraftwerk_legalize::{check_legality, legalize, refine};
use kraftwerk_netlist::format::read_netlist;
use kraftwerk_netlist::{metrics, Netlist, Placement};
use std::time::{Duration, Instant};

/// Layout units (um) to meters.
const METERS: f64 = 1e-6;

const SETUP_MIN_REPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_secs(4);

/// Whether set-up, after `reps` repeats begun at `started`, repeats once
/// more: at least [`SETUP_MIN_REPS`] times, and until [`SETUP_BUDGET`] has
/// passed. On a shared host the time of one repeat drifts by a third over
/// seconds, so the median must span seconds of host time, not a count of
/// repeats (a 20 ms repeat would otherwise sample one moment).
pub fn setup_again(reps: usize, started: Instant) -> bool {
    reps < SETUP_MIN_REPS || started.elapsed() < SETUP_BUDGET
}

/// Parsed inputs plus their per-repeat read and validate timings.
pub struct SetUp {
    /// The parsed netlists of the last repeat.
    pub netlists: Vec<Netlist>,
    /// Median wall time of one repeat over all inputs, seconds.
    pub setup_s: f64,
    /// `read_netlist` times per input, seconds.
    pub read_s: Vec<Vec<f64>>,
    /// `Netlist::validate` times per input, seconds.
    pub validate_s: Vec<Vec<f64>>,
}

/// Reads and validates every input, several times; the set-up cost is
/// the median repeat.
///
/// # Errors
///
/// The first input that fails to parse or validate.
pub fn set_up(inputs: &[Input]) -> Result<SetUp, String> {
    let mut read_s = vec![Vec::new(); inputs.len()];
    let mut validate_s = vec![Vec::new(); inputs.len()];
    let mut reps = Vec::new();
    let mut netlists = Vec::new();
    let started = Instant::now();
    while setup_again(reps.len(), started) {
        netlists.clear();
        let mut total = 0.0;
        for (i, input) in inputs.iter().enumerate() {
            let t = Instant::now();
            let netlist = read_netlist(&input.text).map_err(|e| format!("{}: {e}", input.name))?;
            let read = t.elapsed().as_secs_f64();
            let t = Instant::now();
            netlist
                .validate()
                .map_err(|e| format!("{}: {e}", input.name))?;
            let checked = t.elapsed().as_secs_f64();
            read_s[i].push(read);
            validate_s[i].push(checked);
            total += read + checked;
            netlists.push(netlist);
        }
        reps.push(total);
    }
    Ok(SetUp {
        netlists,
        setup_s: median(&reps),
        read_s,
        validate_s,
    })
}

/// What one flow produced.
struct Flow {
    place_s: f64,
    hpwl: f64,
    transforms: usize,
}

/// Checks one finished flow: usable health, a legal placement, finite
/// wire length.
fn check(netlist: &Netlist, result: &PlaceResult, legal: &Placement) -> Result<f64, String> {
    if result.health.degraded || result.health.budget_exhausted {
        return Err(format!("unhealthy run: {:?}", result.health));
    }
    let report = check_legality(netlist, legal, 1e-6);
    if !report.is_legal() {
        return Err(format!("illegal placement: {report:?}"));
    }
    let hpwl = metrics::hpwl(netlist, legal);
    if !hpwl.is_finite() {
        return Err(format!("non-finite wire length {hpwl}"));
    }
    Ok(hpwl)
}

fn config(workload: Workload) -> (KraftwerkConfig, Option<MultilevelConfig>) {
    match workload {
        Workload::Scale50k => (KraftwerkConfig::fast(), Some(MultilevelConfig::default())),
        _ => (KraftwerkConfig::standard(), None),
    }
}

/// The production flow, timed from the placer call to the end of
/// `refine` like `kraftwerk place`.
fn production(netlist: &Netlist, workload: Workload) -> Result<Flow, String> {
    let (cfg, ml) = config(workload);
    let started = Instant::now();
    let result = match &ml {
        Some(ml) => netlist
            .validate()
            .map_err(Into::into)
            .and_then(|()| try_place_multilevel(netlist, cfg, ml)),
        None => GlobalPlacer::new(cfg).try_place(netlist),
    }
    .map_err(|e| e.to_string())?;
    let mut legal = legalize(netlist, &result.placement).map_err(|e| e.to_string())?;
    refine(netlist, &mut legal, 2);
    let place_s = started.elapsed().as_secs_f64();
    Ok(Flow {
        place_s,
        hpwl: check(netlist, &result, &legal)?,
        transforms: result.iterations(),
    })
}

/// The same flow through the traced replay; `place_s` excludes probes.
fn traced(
    netlist: &Netlist,
    workload: Workload,
    trace: &mut Trace,
    layers: &mut Layers,
) -> Result<Flow, String> {
    let (cfg, ml) = config(workload);
    let flow = trace.begin("flow");
    let probes_before = layers.probe_s;
    let started = Instant::now();
    let placed = replay::place(netlist, &cfg, ml.as_ref(), trace, layers)
        .map_err(|e| e.to_string())
        .and_then(|(result, _)| {
            let (legal, took) =
                trace.time("legalize.abacus", || legalize(netlist, &result.placement));
            layers.abacus_s += took;
            let mut legal = legal.map_err(|e| e.to_string())?;
            layers.refine_s += trace
                .time("legalize.refine", || refine(netlist, &mut legal, 2))
                .1;
            Ok((result, legal))
        });
    let place_s = started.elapsed().as_secs_f64() - (layers.probe_s - probes_before);
    trace.end(flow);
    let (result, legal) = placed?;
    layers.flow_s += place_s;
    for (id, _) in netlist.movable_cells() {
        layers.disp_sum += legal.position(id).distance(result.placement.position(id));
        layers.disp_cells += 1;
    }
    Ok(Flow {
        place_s,
        hpwl: check(netlist, &result, &legal)?,
        transforms: result.iterations(),
    })
}

/// Runs `mcnc-flat` or `scale50k` for `seconds` of measured time. Every
/// pass places each circuit under fresh labels (see [`Input::relabeled`]),
/// and per circuit the mean over passes counts: the transformation count
/// of a circuit depends on its labels (biomed takes 36 or 48), so the mean
/// over labels is the quantity that repeats, where a median of a few
/// passes jumps between the two modes.
pub fn run(workload: Workload, seed: u64, seconds: f64, mut trace: Option<&mut Trace>) -> Outcome {
    let circuits = match workload {
        Workload::Scale50k => vec![inputs::scale50k()],
        _ => inputs::mcnc_flat(),
    };
    let relabel = |pass: usize| -> Vec<Input> {
        circuits
            .iter()
            .map(|c| c.relabeled(inputs::labels(seed, pass)))
            .collect()
    };
    let mut out = Outcome::new();
    host::reset_peak_rss();
    let setup = match set_up(&relabel(0)) {
        Ok(s) => s,
        Err(e) => return out.abort(e),
    };

    let n = circuits.len();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut replay_times: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut hpwl: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut transforms: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut mismatches = 0usize;
    let mut layers = Layers::default();
    let mut netlists = setup.netlists;
    let mut passes = 0usize;
    let mut parse_s = 0.0;
    let phase = Instant::now();
    loop {
        let pass_started = Instant::now();
        for (i, netlist) in netlists.iter().enumerate() {
            let name = &circuits[i].name;
            let flow = out.op(name, production(netlist, workload));
            if let Some(f) = &flow {
                times[i].push(f.place_s);
                hpwl[i].push(f.hpwl * METERS);
                transforms[i].push(f.transforms as f64);
            }
            if let Some(trace) = trace.as_deref_mut() {
                match traced(netlist, workload, trace, &mut layers) {
                    Ok(r) => {
                        replay_times[i].push(r.place_s);
                        if flow.is_some_and(|f| f.hpwl.to_bits() != r.hpwl.to_bits()) {
                            mismatches += 1;
                        }
                    }
                    Err(e) => {
                        out.note(format!("replay of {name} failed: {e}"));
                        mismatches += 1;
                    }
                }
            }
        }
        passes += 1;
        let elapsed = phase.elapsed().as_secs_f64();
        if elapsed + pass_started.elapsed().as_secs_f64() > seconds {
            break;
        }
        // The next pass's inputs are parsed between the timed flows, and
        // that time is not part of the measured wall time.
        let pause = Instant::now();
        netlists = match relabel(passes)
            .iter()
            .map(|input| read_netlist(&input.text).map_err(|e| format!("{}: {e}", input.name)))
            .collect()
        {
            Ok(parsed) => parsed,
            Err(e) => return out.abort(e),
        };
        parse_s += pause.elapsed().as_secs_f64();
    }
    let wall_s = phase.elapsed().as_secs_f64() - parse_s;

    for (i, circuit) in circuits.iter().enumerate() {
        let [q1, q2, q3] = quartiles(&times[i]).unwrap_or([f64::NAN; 3]);
        out.note(format!(
            "input {} place_s mean={} q1={q1} median={q2} q3={q3} hpwl_m={} transforms={} flows={}",
            circuit.name,
            mean(&times[i]),
            mean(&hpwl[i]),
            mean(&transforms[i]),
            times[i].len(),
        ));
    }
    let sum_of_means = |lists: &[Vec<f64>]| lists.iter().map(|l| mean(l)).sum::<f64>();
    out.metrics = if trace.is_some() {
        let overhead = sum_of_means(&replay_times) / sum_of_means(&times) - 1.0;
        layers
            .per_layer(
                passes,
                &setup.read_s,
                &setup.validate_s,
                ServeLayers::default(),
                mismatches,
                overhead,
            )
            .entries()
    } else {
        EndToEnd {
            place_s: sum_of_means(&times),
            ops_per_s: times.iter().map(Vec::len).sum::<usize>() as f64 / wall_s,
            hpwl_m: sum_of_means(&hpwl),
            setup_s: setup.setup_s,
            peak_rss_mb: host::peak_rss_mib(),
        }
        .entries()
    };
    out
}
