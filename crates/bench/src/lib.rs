//! Shared harness for the paper's experiments.
//!
//! Every table binary (`table1` … `table4`, `fastmode`, `ablation`) builds
//! on the flows defined here, so "wire length" and "CPU time" always mean
//! the same thing: **legalized** half-perimeter wire length (converted to
//! meters, 1 layout unit = 1 µm) and wall-clock seconds for the complete
//! global placement + legalization + refinement flow.
//!
//! Results are cached as small CSV files under `bench_results/` so the
//! derived tables (2 and 4) can be regenerated without re-running the
//! placers.
//!
//! All harness binaries print through [`kraftwerk_trace::Console`] (get
//! one with [`console`]) so `--quiet`/`-v` mean the same thing
//! everywhere.

use kraftwerk_baselines::{AnnealingConfig, AnnealingPlacer, GordianConfig, GordianPlacer};
use kraftwerk_core::{try_place_multilevel, GlobalPlacer, KraftwerkConfig, MultilevelConfig};
use kraftwerk_legalize::{check_legality, legalize, refine};
use kraftwerk_netlist::{metrics, Netlist, Placement};
use kraftwerk_timing::{optimize_timing_legalized, CriticalityTracker, DelayModel, Sta};
use kraftwerk_trace::json::JsonObject;
use kraftwerk_trace::Console;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub mod compare;

/// The shared reporter for harness binaries: built from the conventional
/// CLI flags (`--quiet`/`-q`, `--verbose`/`-v`) of the current process.
#[must_use]
pub fn console() -> Console {
    let args: Vec<String> = std::env::args().collect();
    let has = |f: &str| args.iter().any(|a| a == f);
    Console::from_flags(has("--quiet") || has("-q"), has("--verbose") || has("-v"))
}

/// Layout units (µm) to meters.
pub const UNITS_TO_METERS: f64 = 1e-6;

/// One completed placement flow.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// The legalized placement.
    pub placement: Placement,
    /// Legalized half-perimeter wire length in meters.
    pub wirelength_m: f64,
    /// Wall-clock seconds for the complete flow.
    pub seconds: f64,
    /// Whether the final placement passed the legality check.
    pub legal: bool,
    /// Placement transformations the Kraftwerk flows performed, summed
    /// over every level of the multilevel flow; 0 for the baseline
    /// placers.
    pub iterations: usize,
}

fn finish(netlist: &Netlist, global: Placement, iterations: usize, started: Instant) -> FlowResult {
    let mut legal = legalize(netlist, &global).expect("row capacity");
    refine(netlist, &mut legal, 2);
    let seconds = started.elapsed().as_secs_f64();
    FlowResult {
        wirelength_m: metrics::hpwl(netlist, &legal) * UNITS_TO_METERS,
        legal: check_legality(netlist, &legal, 1e-6).is_legal(),
        placement: legal,
        seconds,
        iterations,
    }
}

/// The Kraftwerk flow (standard or any other config).
///
/// # Panics
///
/// Panics when the benchmark netlist fails validation or the watchdog
/// cannot recover the run — generated benchmarks always place, so either
/// indicates harness misuse, not a measurement.
#[must_use]
pub fn run_kraftwerk(netlist: &Netlist, config: KraftwerkConfig) -> FlowResult {
    let started = Instant::now();
    let result = GlobalPlacer::new(config)
        .try_place(netlist)
        .unwrap_or_else(|e| panic!("benchmark placement failed: {e}"));
    assert!(
        result.health.is_clean(),
        "benchmark run needed watchdog recovery: {:?}",
        result.health
    );
    let iterations = result.iterations();
    finish(netlist, result.placement, iterations, started)
}

/// The multilevel Kraftwerk flow: V-cycle clustering hierarchy with the
/// bound-to-bound net model — the documented path for netlists beyond
/// ~25k cells (the `scale*` tiers).
///
/// # Panics
///
/// Panics when the netlist fails to place or the watchdog had to degrade
/// the run. Recovered watchdog trips are tolerated: across a deep
/// hierarchy an occasional trip on a coarse level is expected and the
/// refinement levels absorb it.
#[must_use]
pub fn run_kraftwerk_multilevel(
    netlist: &Netlist,
    config: KraftwerkConfig,
    ml: &MultilevelConfig,
) -> FlowResult {
    let started = Instant::now();
    let result = try_place_multilevel(netlist, config, ml)
        .unwrap_or_else(|e| panic!("benchmark placement failed: {e}"));
    assert!(
        !result.health.degraded && !result.health.budget_exhausted,
        "benchmark run degraded: {:?}",
        result.health
    );
    let iterations = result.iterations();
    finish(netlist, result.placement, iterations, started)
}

/// The TimberWolf-class simulated annealing flow.
#[must_use]
pub fn run_annealing(netlist: &Netlist, config: AnnealingConfig) -> FlowResult {
    let started = Instant::now();
    let (global, _) = AnnealingPlacer::new(config).place(netlist);
    finish(netlist, global, 0, started)
}

/// The GORDIAN-class quadratic/partitioning flow.
#[must_use]
pub fn run_gordian(netlist: &Netlist, config: GordianConfig) -> FlowResult {
    let started = Instant::now();
    let global = GordianPlacer::new(config).place(netlist);
    finish(netlist, global, 0, started)
}

/// One `BENCH_place.json` row: what `kraftwerk bench --json` records
/// of a Kraftwerk flow and `kraftwerk bench --compare` gates on. Wall
/// time is left out on purpose: speed is measured by the repeated
/// same-host runs of `perfbench` (see `BENCHMARK.json`), not by single
/// shots.
#[derive(Debug, Clone)]
pub struct JsonRun {
    /// Circuit name.
    pub netlist: String,
    /// Movable cell count.
    pub cells: usize,
    /// Net count.
    pub nets: usize,
    /// Mode label (one of [`MODES`]).
    pub mode: String,
    /// Worker threads the data-parallel runtime used for this run.
    pub threads: usize,
    /// Legalized half-perimeter wire length in meters.
    pub hpwl_m: f64,
    /// Placement transformations performed.
    pub iterations: usize,
    /// Whether the final placement passed the legality check.
    pub legal: bool,
}

impl JsonRun {
    /// The row for `result`, a flow run on `netlist` in `mode`.
    #[must_use]
    pub fn new(netlist: &Netlist, mode: &str, result: &FlowResult) -> Self {
        JsonRun {
            netlist: netlist.name().to_owned(),
            cells: netlist.num_movable(),
            nets: netlist.num_nets(),
            mode: mode.to_owned(),
            threads: kraftwerk_par::current_threads(),
            hpwl_m: result.wirelength_m,
            iterations: result.iterations,
            legal: result.legal,
        }
    }
}

/// Serializes `--json` runs into the `BENCH_place.json` schema.
#[must_use]
pub fn bench_json(runs: &[JsonRun]) -> String {
    let mut out = String::from("{\"bench\":\"place\",\"host_cpus\":");
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    out.push_str(&cpus.to_string());
    out.push_str(",\"runs\":[");
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut o = JsonObject::new();
        o.str_field("netlist", &run.netlist);
        o.u64_field("cells", run.cells as u64);
        o.u64_field("nets", run.nets as u64);
        o.str_field("mode", &run.mode);
        o.u64_field("threads", run.threads as u64);
        o.f64_field("hpwl_m", run.hpwl_m);
        o.u64_field("iterations", run.iterations as u64);
        o.bool_field("legal", run.legal);
        out.push_str(&o.finish());
    }
    out.push_str("]}");
    out
}

/// Timing measurement of a finished flow: longest path in ns.
#[must_use]
pub fn longest_path(netlist: &Netlist, placement: &Placement, model: DelayModel) -> f64 {
    Sta::new(netlist, model)
        .expect("synthetic circuits are acyclic")
        .analyze(placement)
        .max_delay
}

/// One timing experiment outcome (a Table 3 cell pair plus CPU).
#[derive(Debug, Clone, Copy)]
pub struct TimingOutcome {
    /// Longest path without timing optimization (ns).
    pub without_ns: f64,
    /// Longest path with timing optimization (ns).
    pub with_ns: f64,
    /// Wall-clock seconds for the timing-driven flow.
    pub seconds: f64,
}

/// Kraftwerk timing-driven flow (the paper's iterative net weighting,
/// measured on legal placements).
#[must_use]
pub fn run_kraftwerk_timing(netlist: &Netlist, model: DelayModel) -> TimingOutcome {
    let cfg = KraftwerkConfig::standard();
    let plain = run_kraftwerk(netlist, cfg.clone());
    let started = Instant::now();
    let optimized = optimize_timing_legalized(netlist, model, cfg, 3)
        .expect("synthetic circuits are acyclic")
        .placement;
    TimingOutcome {
        without_ns: longest_path(netlist, &plain.placement, model),
        with_ns: longest_path(netlist, &optimized, model),
        seconds: started.elapsed().as_secs_f64(),
    }
}

/// Timing-driven baseline: iterate (place → STA → net weights) a few
/// times with a baseline placer — the net-weighting scheme TimberWolf-TD
/// \[20\] and SPEED \[21\] style flows use.
#[must_use]
pub fn run_baseline_timing(
    netlist: &Netlist,
    model: DelayModel,
    iterations: usize,
    mut place: impl FnMut(Option<Vec<f64>>) -> FlowResult,
) -> TimingOutcome {
    let sta = Sta::new(netlist, model).expect("synthetic circuits are acyclic");
    let plain = place(None);
    let without_ns = sta.analyze(&plain.placement).max_delay;
    let started = Instant::now();
    let mut tracker = CriticalityTracker::new(netlist.num_nets());
    let mut weights = {
        let report = sta.analyze(&plain.placement);
        tracker.update(&report)
    };
    let mut best = without_ns;
    for _ in 0..iterations {
        let result = place(Some(weights.clone()));
        let report = sta.analyze(&result.placement);
        best = best.min(report.max_delay);
        weights = tracker.update(&report);
    }
    TimingOutcome {
        without_ns,
        with_ns: best,
        seconds: started.elapsed().as_secs_f64(),
    }
}

/// Zero-wire lower bound of a circuit (Table 4).
#[must_use]
pub fn lower_bound(netlist: &Netlist, model: DelayModel) -> f64 {
    Sta::new(netlist, model)
        .expect("synthetic circuits are acyclic")
        .lower_bound()
}

/// Exploitation of the optimization potential (Table 4):
/// `(without − with) / (without − bound)`.
#[must_use]
pub fn exploitation(outcome: TimingOutcome, bound: f64) -> f64 {
    let potential = outcome.without_ns - bound;
    if potential <= 0.0 {
        0.0
    } else {
        (outcome.without_ns - outcome.with_ns) / potential
    }
}

/// Directory for cached experiment results (created on demand).
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = Path::new("bench_results");
    std::fs::create_dir_all(dir).expect("create bench_results/");
    dir.to_path_buf()
}

/// Writes rows of `;`-separated values with a header line.
///
/// # Panics
///
/// Panics on I/O errors (harness tooling).
pub fn write_csv(name: &str, header: &str, rows: &[Vec<String>]) {
    let mut out = String::from(header);
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(";"));
        out.push('\n');
    }
    std::fs::write(results_dir().join(name), out).expect("write results csv");
}

/// Reads a CSV written by [`write_csv`]; `None` when absent.
#[must_use]
pub fn read_csv(name: &str) -> Option<Vec<Vec<String>>> {
    let text = std::fs::read_to_string(results_dir().join(name)).ok()?;
    Some(
        text.lines()
            .skip(1)
            .map(|l| l.split(';').map(str::to_owned).collect())
            .collect(),
    )
}

/// Every `kraftwerk bench` mode label, in measurement order. A
/// `multilevel-` label runs the multilevel flow on the scale tiers; the
/// others run the flat flow on the Table 1 circuits.
pub const MODES: [&str; 3] = ["standard", "fast", "multilevel-b2b"];

/// Parses a `--modes` selection: comma-separated labels of [`MODES`],
/// returned in [`MODES`] order without repeats.
///
/// # Errors
///
/// Names the first label that is not in [`MODES`], so a typo can never
/// select nothing and pass.
pub fn parse_modes(spec: &str) -> Result<Vec<&'static str>, String> {
    let labels: Vec<&str> = spec.split(',').map(str::trim).collect();
    if let Some(unknown) = labels.iter().find(|label| !MODES.contains(label)) {
        return Err(format!(
            "--modes: unknown mode `{unknown}` (expected {})",
            MODES.join(", ")
        ));
    }
    Ok(MODES
        .into_iter()
        .filter(|mode| labels.contains(mode))
        .collect())
}

/// The placer config a bench mode label runs, or `None` for a label no
/// flow reproduces. Both `kraftwerk bench --json` (measuring) and
/// [`compare::run_compare`] (gating) build their configs here, so a
/// committed row is always rerun with the config that produced it.
#[must_use]
pub fn config_for_mode(mode: &str) -> Option<KraftwerkConfig> {
    match mode {
        "standard" => Some(KraftwerkConfig::standard()),
        // The multilevel flow runs the fast preset; its default
        // `MultilevelConfig` selects the bound-to-bound net model.
        "fast" | "multilevel-b2b" => Some(KraftwerkConfig::fast()),
        _ => None,
    }
}

/// The circuits used for a run: all of Table 1, or the subset below
/// `max_cells` when quick mode is requested.
#[must_use]
pub fn table1_circuits(max_cells: usize) -> Vec<kraftwerk_netlist::synth::mcnc::Preset> {
    kraftwerk_netlist::synth::mcnc::TABLE1
        .iter()
        .copied()
        .filter(|p| p.cells <= max_cells)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kraftwerk_netlist::synth::{generate, SynthConfig};

    #[test]
    fn flows_produce_legal_placements() {
        let nl = generate(&SynthConfig::with_size("harness", 150, 190, 6));
        let kw = run_kraftwerk(&nl, KraftwerkConfig::standard());
        assert!(kw.legal);
        assert!(kw.wirelength_m > 0.0);
        let sa = run_annealing(&nl, AnnealingConfig::default());
        assert!(sa.legal);
        let gq = run_gordian(&nl, GordianConfig::default());
        assert!(gq.legal);
    }

    #[test]
    fn bench_rows_count_transformations_and_carry_no_wall_time() {
        let nl = generate(&SynthConfig::with_size("jsonrun", 120, 150, 6));
        let result = run_kraftwerk(&nl, KraftwerkConfig::fast());
        assert!(result.legal);
        let run = JsonRun::new(&nl, "fast", &result);
        assert_eq!(run.netlist, "jsonrun");
        assert_eq!(run.mode, "fast");
        assert!(run.threads >= 1);
        let json = bench_json(std::slice::from_ref(&run));
        let parsed = kraftwerk_trace::json::parse(&json).expect("valid JSON");
        let runs = parsed
            .get("runs")
            .and_then(|r| r.as_array())
            .expect("runs array");
        assert_eq!(runs.len(), 1);
        let row = &runs[0];
        assert_eq!(
            row.get("netlist")
                .and_then(kraftwerk_trace::json::Json::as_str),
            Some("jsonrun")
        );
        assert!(
            row.get("iterations")
                .and_then(kraftwerk_trace::json::Json::as_f64)
                .is_some_and(|n| n > 0.0),
            "no transformations counted: {json}"
        );
        for key in ["wall_s", "phases"] {
            assert!(row.get(key).is_none(), "row carries `{key}`: {json}");
        }
    }

    #[test]
    fn multilevel_flow_produces_legal_placements() {
        let nl = generate(&SynthConfig::with_size("mlharness", 400, 480, 10));
        let ml = MultilevelConfig {
            coarsest_movable: 100,
            ..MultilevelConfig::default()
        };
        let result = run_kraftwerk_multilevel(&nl, KraftwerkConfig::fast(), &ml);
        assert!(result.legal);
        assert!(result.iterations > 0, "no transformations counted");
    }

    #[test]
    fn mode_selections_reject_typos_and_mixed_lists() {
        let err = parse_modes("standrd").expect_err("typo");
        assert!(err.contains("`standrd`"), "{err}");
        let err = parse_modes("fast,multilevel-bb2").expect_err("mixed list");
        assert!(err.contains("`multilevel-bb2`"), "{err}");
        assert!(parse_modes("").is_err());
        assert_eq!(
            parse_modes(" fast,standard,fast"),
            Ok(vec!["standard", "fast"])
        );
        assert_eq!(parse_modes("multilevel-b2b"), Ok(vec!["multilevel-b2b"]));
    }

    #[test]
    fn exploitation_math() {
        let outcome = TimingOutcome {
            without_ns: 10.0,
            with_ns: 7.0,
            seconds: 1.0,
        };
        assert!((exploitation(outcome, 4.0) - 0.5).abs() < 1e-12);
        assert_eq!(exploitation(outcome, 10.0), 0.0);
    }

    #[test]
    fn csv_roundtrip() {
        write_csv(
            "test_roundtrip.csv",
            "a;b",
            &[vec!["1".into(), "x".into()], vec!["2".into(), "y".into()]],
        );
        let rows = read_csv("test_roundtrip.csv").expect("written");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1][1], "y");
        let _ = std::fs::remove_file(results_dir().join("test_roundtrip.csv"));
    }

    #[test]
    fn quick_circuit_filter() {
        assert_eq!(table1_circuits(usize::MAX).len(), 9);
        assert_eq!(table1_circuits(2000).len(), 3);
    }
}
