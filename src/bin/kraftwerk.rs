//! `kraftwerk` — command-line placement driver.
//!
//! ```text
//! kraftwerk place      <netlist> [-o placement.pl] [--fast] [--multilevel] [--svg out.svg]
//!                                [--threads N] [--trace run.jsonl] [--profile] [--alloc-stats]
//!                                [--snapshot-every N] [--k F] [--force-scale F]
//!                                [-v|--verbose] [-q|--quiet]
//! kraftwerk inspect    <telemetry>... [-o report.html] [--perfetto trace.json] [--service]
//! kraftwerk bench      [--json] [--compare baseline.json] [-o out.json] [--max-cells N]
//!                      [--modes standard,fast,multilevel-b2b]
//! kraftwerk timing     <netlist> [--requirement NS] [-v|--verbose] [-q|--quiet]
//! kraftwerk gen        <name> <cells> <nets> <rows> [--seed N] [--blocks N] [-o netlist.kw]
//! kraftwerk stats      <netlist>
//! kraftwerk check      <netlist> <placement>
//! kraftwerk route      <netlist> <placement>
//! kraftwerk bookshelf  <netlist> [<placement>] [-o dir]
//! ```
//!
//! Netlists use the text format of `kraftwerk::netlist::format` (see the
//! `gen` subcommand to create one).
//!
//! `place` telemetry: `--trace run.jsonl` writes the run's one artifact,
//! a JSONL stream with one record per placement transformation, closed
//! by a `summary` record with the cumulative phase profile.
//! `--snapshot-every N` captures downsampled density/potential fields
//! and cell positions every N transformations, `--profile` prints the
//! phase profile as a table, and `-v` streams per-iteration progress to
//! stderr. See the README "Observability" and "Inspecting runs" sections
//! for the record schema.
//!
//! `place --alloc-stats` switches the counting global allocator's
//! accounting on around the run and prints the per-phase heap table
//! after it (the arena claim as a runtime-verified metric); with
//! `--trace` the same per-phase rows land in the stream as `alloc`
//! records.
//!
//! `inspect` turns the `--trace` JSONL stream into a self-contained HTML
//! dashboard. With two or more inputs it renders a cross-run comparison
//! instead (overlaid convergence curves, phase deltas, peak memory,
//! parallel efficiency); with `--perfetto <json>` it exports the Chrome
//! trace-event document (it loads in Perfetto) instead of (or alongside
//! `-o`) the dashboard.
//! `bench --json` measures the Table 1 subset (and the scale tiers the
//! `--max-cells` budget reaches); `bench --compare` re-measures against a
//! committed `BENCH_place.json` baseline and exits non-zero on an HPWL
//! regression beyond 2% or an illegal placement. Both check `--modes`
//! against the known mode labels, and `--compare` fails when the
//! selection keeps no baseline row. Wall time is printed, never gated.
//!
//! `--threads N` sets the worker-thread count of the data-parallel
//! runtime (`0` or absent: the `KRAFTWERK_THREADS` environment variable,
//! then the machine's parallelism). The placement is bitwise identical at
//! every setting — see the README "Parallelism & determinism" section.
//!
//! Every failure prints a one-line `error:` diagnostic to stderr — never a
//! panic backtrace — and exits with the stage's code from the
//! `KraftwerkError` taxonomy: `2` usage (an unknown subcommand or flag),
//! `3` I/O, `4` parse, `5`
//! build/validation, `6` solver/divergence, `7` legalization, `8`
//! floorplan, `9` timing (`1` is anything uncategorized). `place
//! --force-scale <f>` multiplies the force scale (fault injection for the
//! watchdog — see the README "Robustness & recovery" section).

use kraftwerk::geom::svg::SvgCanvas;
use kraftwerk::legalize::{check_legality, detail_place};
use kraftwerk::netlist::format::{read_netlist, read_placement, write_netlist, write_placement};
use kraftwerk::netlist::stats::NetlistStats;
use kraftwerk::netlist::synth::{generate, SynthConfig};
use kraftwerk::netlist::{metrics, CellKind, Netlist, Placement};
use kraftwerk::placer::{GlobalPlacer, KraftwerkConfig, KraftwerkError};
use kraftwerk::timing::{meet_requirements, optimize_timing_legalized, DelayModel, Sta};
use std::process::ExitCode;

/// The counting allocator behind `place --alloc-stats`. It forwards
/// every request to the system allocator and its counters stay dormant
/// (one relaxed atomic load per allocation) until tracking is switched
/// on, so the untracked paths pay nothing measurable.
#[global_allocator]
static GLOBAL: kraftwerk::trace::alloc::CountingAllocator =
    kraftwerk::trace::alloc::CountingAllocator::system();

/// A rendered diagnostic plus the process exit code it maps to.
struct CliError {
    message: String,
    code: u8,
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError { message, code: 1 }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError {
            message: message.to_string(),
            code: 1,
        }
    }
}

impl From<KraftwerkError> for CliError {
    fn from(e: KraftwerkError) -> Self {
        CliError {
            message: e.to_string(),
            code: e.exit_code() as u8,
        }
    }
}

impl CliError {
    /// Wraps a pipeline error with the file it came from.
    fn at(path: &str, e: KraftwerkError) -> Self {
        CliError {
            message: format!("{path}: {e}"),
            code: e.exit_code() as u8,
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  kraftwerk place     <netlist> [-o <placement>] [--fast] [--multilevel] [--svg <file>]\n                      [--threads <n>] [--trace <jsonl>] [--profile] [--alloc-stats]\n                      [--snapshot-every <n>] [--k <f>] [--force-scale <f>] [-v|--verbose] [-q|--quiet]\n  kraftwerk serve     [--addr <host:port>] [--workers <n>] [--queue-cap <n>] [--deadline <s>]\n                      [--journal-dir <dir>] [--max-bytes <n>]\n                      [--metrics-addr <host:port>] [--report-dir <dir>]\n  kraftwerk inspect   <telemetry>... [-o <html>] [--perfetto <json>] [--service]\n  kraftwerk bench     [--json] [--compare <baseline>] [-o <json>] [--max-cells <n>]\n                      [--modes <a,b>] [-v|--verbose] [-q|--quiet]\n  kraftwerk timing    <netlist> [--requirement <ns>] [-v|--verbose] [-q|--quiet]\n  kraftwerk gen       <name> <cells> <nets> <rows> [--seed <n>] [--blocks <n>] [-o <file>]\n  kraftwerk stats     <netlist>\n  kraftwerk check     <netlist> <placement>\n  kraftwerk route     <netlist> <placement>\n  kraftwerk bookshelf <netlist> [<placement>] [-o <dir>]"
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<Netlist, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        CliError::from(KraftwerkError::Io {
            path: path.to_string(),
            message: e.to_string(),
        })
    })?;
    read_netlist(&text).map_err(|e| CliError::at(path, KraftwerkError::Parse(e)))
}

/// Looks up the value of `flag`. `Ok(None)` when the flag is absent; an
/// error when it is present but last, or followed by another flag — a
/// dangling flag used to be silently ignored.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(value) if !value.starts_with('-') => Ok(Some(value.clone())),
        _ => Err(format!("{flag} requires a value")),
    }
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Rejects — usage taxonomy, exit 2 — any `-`-prefixed argument of
/// `cmd` that is neither one of its value flags nor one of its
/// switches (both space-separated lists), before anything runs or is
/// written, so a mistyped flag is never silently ignored. Values never
/// start with `-` (see [`flag_value`]), so every such argument is a flag.
fn check_flags(cmd: &str, args: &[String], values: &str, switches: &str) -> Result<(), CliError> {
    let known = |arg: &str| values.split(' ').chain(switches.split(' ')).any(|f| f == arg);
    match args.iter().find(|a| a.starts_with('-') && !known(a)) {
        Some(flag) => Err(CliError {
            message: format!("{cmd}: unknown flag `{flag}` (run `kraftwerk` for usage)"),
            code: 2,
        }),
        None => Ok(()),
    }
}

/// Fails fast — I/O taxonomy, exit 3 — when the directory that will hold
/// the output `path` does not exist, so a long placement never dies at
/// its final write.
fn require_parent_dir(path: &str) -> Result<(), CliError> {
    let parent = std::path::Path::new(path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = parent {
        if !dir.is_dir() {
            return Err(kerr(KraftwerkError::Io {
                path: path.to_string(),
                message: format!("output directory `{}` does not exist", dir.display()),
            }));
        }
    }
    Ok(())
}

/// Shorthand: any pipeline-stage error into its `CliError` with the
/// taxonomy exit code.
fn kerr(e: impl Into<KraftwerkError>) -> CliError {
    CliError::from(e.into())
}

/// Writes `content` to `path`, mapping failure to the I/O exit code.
fn write_file(path: &str, content: String) -> Result<(), CliError> {
    std::fs::write(path, content).map_err(|e| {
        kerr(KraftwerkError::Io {
            path: path.to_string(),
            message: e.to_string(),
        })
    })
}

fn snapshot(netlist: &Netlist, placement: &Placement, path: &str) -> Result<(), CliError> {
    let core = netlist.core_region();
    let mut svg = SvgCanvas::new(core.inflate(core.width() * 0.03), 900.0);
    for row in netlist.rows() {
        svg.rect(&row.rect(), "#f2f2f2", 1.0);
    }
    for (id, cell) in netlist.cells() {
        let color = match cell.kind() {
            CellKind::Standard => "#4682b4",
            CellKind::Block => "#c06030",
            CellKind::Fixed => "#333333",
        };
        svg.rect(&placement.cell_rect(id, cell.size()), color, 0.6);
    }
    write_file(path, svg.finish())
}

fn cmd_place(args: &[String]) -> Result<(), CliError> {
    use kraftwerk::trace::{
        alloc, Console, FanoutSink, ProgressSink, RunRecorder, Value, Verbosity,
    };
    use std::sync::Arc;

    check_flags(
        "place",
        args,
        "-o --svg --threads --trace --snapshot-every --k --force-scale",
        "--fast --multilevel --profile --alloc-stats -v --verbose -q --quiet",
    )?;
    let console = Console::from_flags(
        has_flag(args, "--quiet") || has_flag(args, "-q"),
        has_flag(args, "--verbose") || has_flag(args, "-v"),
    );
    // Validate every value-taking flag before the (possibly long) run.
    let trace_path = flag_value(args, "--trace")?;
    let out_path = flag_value(args, "-o")?;
    let svg_path = flag_value(args, "--svg")?;
    let profile = has_flag(args, "--profile");
    let alloc_stats = has_flag(args, "--alloc-stats");
    let Some(input) = args.first().filter(|a| !a.starts_with('-')) else {
        return Err("place: missing netlist path (it comes before the flags)".into());
    };
    // Output locations must be writable before the (possibly long) run.
    for path in [&trace_path, &out_path, &svg_path].into_iter().flatten() {
        require_parent_dir(path)?;
    }
    let threads = match flag_value(args, "--threads")? {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("--threads: `{v}` is not a number"))?,
        None => 0,
    };
    // Fault injection for the watchdog: multiply the force scale so the
    // transformation loop diverges on purpose (README "Robustness &
    // recovery").
    let force_scale = match flag_value(args, "--force-scale")? {
        Some(v) => {
            let f: f64 = v
                .parse()
                .map_err(|_| format!("--force-scale: `{v}` is not a number"))?;
            if !f.is_finite() || f <= 0.0 {
                return Err(format!("--force-scale: `{v}` must be finite and positive").into());
            }
            f
        }
        None => 1.0,
    };
    let snapshot_every = match flag_value(args, "--snapshot-every")? {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("--snapshot-every: `{v}` is not a number"))?,
        None => 0,
    };
    // Movement-force weight K (the paper's convergence-speed knob);
    // defaults to the mode's value when absent. EXPERIMENTS.md overlays
    // recorded runs at different K through `kraftwerk inspect`.
    let k_override = match flag_value(args, "--k")? {
        Some(v) => {
            let k: f64 = v
                .parse()
                .map_err(|_| format!("--k: `{v}` is not a number"))?;
            if !k.is_finite() || k <= 0.0 {
                return Err(format!("--k: `{v}` must be finite and positive").into());
            }
            Some(k)
        }
        None => None,
    };
    let netlist = load(input)?;
    let fast = has_flag(args, "--fast");
    let mut config = if fast {
        KraftwerkConfig::fast()
    } else {
        KraftwerkConfig::standard()
    }
    .with_threads(threads)
    .with_snapshot_every(snapshot_every);
    if let Some(k) = k_override {
        config = config.with_k(k);
    }
    config.force_scale_boost = force_scale;

    // Telemetry: one recorder feeds --trace, --profile and --alloc-stats;
    // verbose mode additionally streams per-iteration progress to stderr.
    let recorder =
        (trace_path.is_some() || profile || alloc_stats).then(|| Arc::new(RunRecorder::new()));
    if let Some(rec) = &recorder {
        rec.set_meta("netlist", Value::from(netlist.name()));
        rec.set_meta("cells", Value::from(netlist.num_movable()));
        rec.set_meta("nets", Value::from(netlist.num_nets()));
        rec.set_meta("mode", Value::from(if fast { "fast" } else { "standard" }));
        rec.set_meta("threads", Value::from(threads));
        rec.set_meta("k", Value::from(config.k));
        // Config provenance: where the thread count came from, so two
        // reports are comparable without the shell history that produced
        // them.
        if let Ok(value) = std::env::var("KRAFTWERK_THREADS") {
            rec.set_meta("env.KRAFTWERK_THREADS", Value::from(value));
        }
        rec.set_meta("alloc.tracking", Value::from(alloc_stats));
    }
    let progress = (console.verbosity() == Verbosity::Verbose)
        .then(|| Arc::new(ProgressSink::new(console)));
    match (&recorder, &progress) {
        (Some(rec), Some(p)) => kraftwerk::trace::install(Arc::new(
            FanoutSink::new().with(rec.clone()).with(p.clone()),
        )),
        (Some(rec), None) => kraftwerk::trace::install(rec.clone()),
        (None, Some(p)) => kraftwerk::trace::install(p.clone()),
        (None, None) => {}
    }

    // Heap accounting: the counting global allocator is always installed;
    // `--alloc-stats` switches its counters on around the run only, so the
    // totals leave out the CLI's own set-up and reporting.
    alloc::set_tracking(alloc_stats);
    let started = std::time::Instant::now();
    let place_result = if has_flag(args, "--multilevel") {
        kraftwerk::placer::try_place_multilevel(
            &netlist,
            config,
            &kraftwerk::placer::MultilevelConfig::default(),
        )
    } else {
        GlobalPlacer::new(config).try_place(&netlist)
    };
    let global = match place_result {
        Ok(g) => g,
        Err(e) => {
            alloc::set_tracking(false);
            kraftwerk::trace::uninstall();
            return Err(kerr(e));
        }
    };
    if !global.health.is_clean() {
        console.info(format!(
            "watchdog: {} trips, {} recoveries{}{}",
            global.health.trips,
            global.health.recoveries,
            if global.health.degraded { ", degraded (checkpointed best returned)" } else { "" },
            if global.health.budget_exhausted { ", budget exhausted" } else { "" },
        ));
    }
    let legal_result = detail_place(&netlist, &global.placement);
    let elapsed = started.elapsed().as_secs_f64();
    // Spread: the mean distance legalization moves a movable cell, in
    // rows. A global placement that met the stop test scores about one
    // row; tens of rows mean legalization did the spreading.
    let spread_rows = legal_result.as_ref().ok().map(|legal| {
        let row_height = netlist.rows().first().map_or(1.0, |row| row.height);
        legal.total_displacement(&global.placement)
            / netlist.num_movable().max(1) as f64
            / row_height
    });
    alloc::set_tracking(false);
    let alloc_totals = alloc::stats();
    kraftwerk::trace::uninstall();

    if let Some(rec) = &recorder {
        rec.set_meta("converged", Value::from(global.converged));
        if let Some(spread) = spread_rows {
            rec.set_meta("spread_rows", Value::from(spread));
        }
        rec.set_meta("health.trips", Value::from(global.health.trips));
        rec.set_meta("health.recoveries", Value::from(global.health.recoveries));
        rec.set_meta("health.degraded", Value::from(global.health.degraded));
        rec.set_meta(
            "health.budget_exhausted",
            Value::from(global.health.budget_exhausted),
        );
        rec.set_meta(
            "threads.resolved",
            Value::from(kraftwerk::par::current_threads()),
        );
        let run = rec.report();
        if let Some(path) = &trace_path {
            write_file(path, run.to_jsonl())?;
            console.info(format!("wrote {path}"));
        }
        // Explicitly requested tables: printed even under --quiet.
        if profile {
            println!("{}", run.profile_table());
        }
        if alloc_stats {
            println!(
                "{}process totals: {} allocs / {} deallocs, {} bytes allocated, \
                 peak {} bytes in use\n",
                run.alloc_table(),
                alloc_totals.allocs,
                alloc_totals.deallocs,
                alloc_totals.bytes_allocated,
                alloc_totals.peak_bytes
            );
        }
    }
    let legal = legal_result.map_err(kerr)?;

    let report = check_legality(&netlist, &legal, 1e-6);
    console.info(format!(
        "placed {} ({} cells, {} nets): hpwl {:.0}, {} transformations, converged: {}, \
         spread {:.2} rows, {elapsed:.2}s, legal: {}",
        netlist.name(),
        netlist.num_movable(),
        netlist.num_nets(),
        metrics::hpwl(&netlist, &legal),
        global.iterations(),
        global.converged,
        spread_rows.unwrap_or(f64::NAN),
        report.is_legal(),
    ));
    let out = out_path.unwrap_or_else(|| format!("{input}.pl"));
    write_file(&out, write_placement(&netlist, &legal))?;
    console.info(format!("wrote {out}"));
    if let Some(svg_path) = svg_path {
        snapshot(&netlist, &legal, &svg_path)?;
        console.info(format!("wrote {svg_path}"));
    }
    Ok(())
}

/// `kraftwerk inspect <telemetry>... [-o report.html] [--perfetto
/// trace.json] [--service]`: renders recorded runs (`--trace` JSONL
/// streams). One input yields the single-run HTML dashboard and/or a
/// Chrome trace-event export; two or more yield the cross-run
/// comparison document. With `--service` the inputs are
/// service telemetry instead — `loadgen --latency-out` job records
/// and/or a scraped `/metrics` snapshot — rendered as the deployment
/// dashboard (latency percentiles, queue depth, throughput, outcomes).
fn cmd_inspect(args: &[String]) -> Result<(), CliError> {
    use kraftwerk::trace::Console;

    check_flags("inspect", args, "-o --perfetto", "--service -v --verbose -q --quiet")?;
    let console = Console::from_flags(
        has_flag(args, "--quiet") || has_flag(args, "-q"),
        has_flag(args, "--verbose") || has_flag(args, "-v"),
    );
    // Every non-flag argument that is not a flag's value is a telemetry
    // file, so inputs may appear before or after flags.
    let mut inputs: Vec<&String> = Vec::new();
    let mut skip_next = false;
    for arg in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if arg.starts_with('-') {
            skip_next = matches!(arg.as_str(), "-o" | "--perfetto");
            continue;
        }
        inputs.push(arg);
    }
    if inputs.is_empty() {
        return Err("inspect: missing telemetry path (a --trace JSONL stream)".into());
    }
    let perfetto_path = flag_value(args, "--perfetto")?;
    let out_flag = flag_value(args, "-o")?;
    if has_flag(args, "--service") {
        if perfetto_path.is_some() {
            return Err("inspect: --service and --perfetto are exclusive".into());
        }
        // Concatenate every input: loadgen job records and scraped
        // /metrics snapshots can share one dashboard.
        let mut text = String::new();
        for input in &inputs {
            let chunk = std::fs::read_to_string(input).map_err(|e| {
                kerr(KraftwerkError::Io {
                    path: (*input).clone(),
                    message: e.to_string(),
                })
            })?;
            text.push_str(&chunk);
            if !text.ends_with('\n') {
                text.push('\n');
            }
        }
        let data = kraftwerk::inspect::parse_service(&text).map_err(|e| CliError {
            message: format!("{}: {e}", inputs[0]),
            code: 4,
        })?;
        let out = out_flag.unwrap_or_else(|| "service.html".to_string());
        require_parent_dir(&out)?;
        write_file(&out, kraftwerk::inspect::render_service(&data))?;
        console.info(format!(
            "wrote {out} ({} job records, {} snapshot histograms)",
            data.jobs.len(),
            data.histograms.len()
        ));
        return Ok(());
    }
    let mut runs: Vec<(String, kraftwerk::trace::RunReport)> = Vec::new();
    for input in &inputs {
        let text = std::fs::read_to_string(input).map_err(|e| {
            kerr(KraftwerkError::Io {
                path: (*input).clone(),
                message: e.to_string(),
            })
        })?;
        let run = kraftwerk::inspect::read_run(&text).map_err(|e| CliError {
            message: format!("{input}: {e}"),
            // Unreadable telemetry is a parse failure in the taxonomy.
            code: 4,
        })?;
        runs.push(((*input).clone(), run));
    }

    if runs.len() > 1 {
        if perfetto_path.is_some() {
            return Err("inspect: --perfetto takes exactly one telemetry input".into());
        }
        let out = out_flag.unwrap_or_else(|| "compare.html".to_string());
        require_parent_dir(&out)?;
        write_file(&out, kraftwerk::inspect::render_comparison(&runs))?;
        console.info(format!("wrote {out} ({} runs)", runs.len()));
        return Ok(());
    }

    let (input, run) = &runs[0];
    if let Some(path) = &perfetto_path {
        require_parent_dir(path)?;
        write_file(path, kraftwerk::inspect::render_perfetto(run))?;
        console.info(format!("wrote {path}"));
    }
    // With --perfetto and no -o, the trace is the only requested output.
    if perfetto_path.is_none() || out_flag.is_some() {
        let out = out_flag.unwrap_or_else(|| format!("{input}.html"));
        require_parent_dir(&out)?;
        write_file(&out, kraftwerk::inspect::render(run))?;
        console.info(format!("wrote {out}"));
    }
    Ok(())
}

/// `kraftwerk bench`: `--json` measures the Table 1 subset fresh;
/// `--compare <baseline>` re-measures and gates against a committed
/// `BENCH_place.json` (HPWL drift and legality).
fn cmd_bench(args: &[String]) -> Result<(), CliError> {
    use kraftwerk::bench::compare::{parse_baseline, run_compare, select_rows, HPWL_TOLERANCE};
    use kraftwerk::bench::{
        config_for_mode, parse_modes, run_kraftwerk, run_kraftwerk_multilevel, table1_circuits,
        JsonRun, MODES,
    };
    use kraftwerk::netlist::synth::{generate, mcnc, scale};
    use kraftwerk::trace::Console;

    check_flags(
        "bench",
        args,
        "--compare -o --max-cells --modes",
        "--json -v --verbose -q --quiet",
    )?;
    let console = Console::from_flags(
        has_flag(args, "--quiet") || has_flag(args, "-q"),
        has_flag(args, "--verbose") || has_flag(args, "-v"),
    );
    let max_cells = match flag_value(args, "--max-cells")? {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("--max-cells: `{v}` is not a number"))?,
        None => 2000,
    };
    // --modes narrows the run to some modes, so the cheap MCNC sweep and
    // the big multilevel scale tiers can run in separate invocations with
    // different --max-cells budgets.
    let modes = match flag_value(args, "--modes")? {
        Some(spec) => Some(parse_modes(&spec).map_err(|message| CliError { message, code: 2 })?),
        None => None,
    };
    let out = flag_value(args, "-o")?;
    if let Some(path) = &out {
        require_parent_dir(path)?;
    }

    if let Some(baseline_path) = flag_value(args, "--compare")? {
        let text = std::fs::read_to_string(&baseline_path).map_err(|e| {
            kerr(KraftwerkError::Io {
                path: baseline_path.clone(),
                message: e.to_string(),
            })
        })?;
        let baseline = parse_baseline(&text).map_err(|e| CliError {
            message: format!("{baseline_path}: {e}"),
            code: 4,
        })?;
        let baseline = select_rows(baseline, modes.as_deref()).map_err(|e| CliError {
            message: format!("bench: {baseline_path}: {e}, so nothing would be compared"),
            code: 2,
        })?;
        let report = run_compare(&baseline, max_cells);
        console.info(report.summary_table());
        match &out {
            Some(path) => {
                write_file(path, report.to_json())?;
                console.info(format!("wrote {path}"));
            }
            // The machine-readable verdict is the command's output.
            None => println!("{}", report.to_json()),
        }
        if !report.passed() {
            return Err(format!(
                "bench: HPWL regression beyond {:.2}% or illegal placement against \
                 {baseline_path}",
                HPWL_TOLERANCE * 100.0
            )
            .into());
        }
        return Ok(());
    }

    if !has_flag(args, "--json") {
        return Err("bench: pass --json to measure or --compare <baseline> to gate".into());
    }
    let (ml_modes, mcnc_modes): (Vec<&str>, Vec<&str>) = modes
        .unwrap_or_else(|| MODES.to_vec())
        .into_iter()
        .partition(|m| m.starts_with("multilevel-"));
    let mut runs = Vec::new();
    let mut record = |netlist: &kraftwerk::netlist::Netlist, mode: &str, result| {
        let run = JsonRun::new(netlist, mode, &result);
        // The wall time is console output only: single shots are no
        // speed measurement, so the rows leave it out.
        console.info(format!(
            "{} ({mode}): hpwl {:.6} m in {:.2}s over {} transformations",
            run.netlist, run.hpwl_m, result.seconds, run.iterations
        ));
        runs.push(run);
    };
    for preset in table1_circuits(if mcnc_modes.is_empty() { 0 } else { max_cells }) {
        let netlist = generate(&mcnc::config_for(preset));
        for &mode in &mcnc_modes {
            let config = config_for_mode(mode).ok_or("bench: mode without a config")?;
            record(&netlist, mode, run_kraftwerk(&netlist, config));
        }
    }
    // Scaling-curve tiers (10k → 1M cells) run in the multilevel +
    // bound-to-bound flow, the documented path past ~25k cells. They only
    // enter the measurement when --max-cells is raised to reach them, so
    // the default quick run stays quick.
    let ml = kraftwerk::placer::MultilevelConfig::default();
    for tier in scale::TIERS.iter().filter(|t| !ml_modes.is_empty() && t.cells <= max_cells) {
        let netlist = generate(&scale::config_for(*tier));
        for &mode in &ml_modes {
            let config = config_for_mode(mode).ok_or("bench: mode without a config")?;
            record(
                &netlist,
                mode,
                run_kraftwerk_multilevel(&netlist, config, &ml),
            );
        }
    }
    let json = kraftwerk::bench::bench_json(&runs);
    match &out {
        Some(path) => {
            write_file(path, json)?;
            console.info(format!("wrote {path} ({} runs)", runs.len()));
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn cmd_timing(args: &[String]) -> Result<(), CliError> {
    use kraftwerk::trace::Console;

    check_flags("timing", args, "--requirement", "-v --verbose -q --quiet")?;
    let console = Console::from_flags(
        has_flag(args, "--quiet") || has_flag(args, "-q"),
        has_flag(args, "--verbose") || has_flag(args, "-v"),
    );
    let Some(input) = args.first().filter(|a| !a.starts_with('-')) else {
        return Err("timing: missing netlist path (it comes before the flags)".into());
    };
    let netlist = load(input)?;
    // Validate at the boundary, as `place` does, before the analysis.
    netlist.validate().map_err(kerr)?;
    let model = DelayModel::default();
    let sta = Sta::new(&netlist, model).map_err(kerr)?;
    console.info(format!("zero-wire lower bound: {:.3} ns", sta.lower_bound()));
    if let Some(req) = flag_value(args, "--requirement")? {
        let requirement: f64 = req.parse().map_err(|_| format!("bad requirement `{req}`"))?;
        let result = meet_requirements(&netlist, model, KraftwerkConfig::standard(), requirement, 60)
            .map_err(kerr)?;
        console.info(format!(
            "requirement {requirement} ns: met = {} ({} trade-off points recorded)",
            result.met,
            result.curve.len()
        ));
        for p in &result.curve {
            console.info(format!(
                "  step {:3}  delay {:8.3} ns  hpwl {:10.0}",
                p.iteration, p.max_delay, p.hpwl
            ));
        }
    } else {
        let result = optimize_timing_legalized(&netlist, model, KraftwerkConfig::standard(), 3)
            .map_err(kerr)?;
        console.info(format!(
            "timing-driven placement: longest path {:.3} ns, hpwl {:.0}",
            sta.analyze(&result.placement).max_delay,
            metrics::hpwl(&netlist, &result.placement),
        ));
    }
    Ok(())
}

/// Reads and parses a placement file against `netlist` with taxonomy
/// exit codes (I/O → 3, parse → 4).
fn load_placement(netlist: &Netlist, path: &str) -> Result<Placement, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        kerr(KraftwerkError::Io {
            path: path.to_string(),
            message: e.to_string(),
        })
    })?;
    read_placement(netlist, &text).map_err(|e| CliError::at(path, KraftwerkError::Parse(e)))
}

fn cmd_gen(args: &[String]) -> Result<(), CliError> {
    check_flags("gen", args, "--seed --blocks -o", "")?;
    if args.len() < 4 {
        return Err("gen: need <name> <cells> <nets> <rows>".into());
    }
    let parse = |s: &String, what: &str| -> Result<usize, String> {
        s.parse().map_err(|_| format!("bad {what} `{s}`"))
    };
    let name = args[0].clone();
    let cells = parse(&args[1], "cell count")?;
    let nets = parse(&args[2], "net count")?;
    let rows = parse(&args[3], "row count")?;
    let mut synth = SynthConfig::with_size(name.clone(), cells, nets, rows);
    if let Some(seed) = flag_value(args, "--seed")? {
        synth = synth.seed(
            seed.parse()
                .map_err(|_| CliError::from(format!("gen: bad --seed `{seed}`")))?,
        );
    }
    if let Some(blocks) = flag_value(args, "--blocks")? {
        synth = synth.blocks(
            blocks
                .parse()
                .map_err(|_| CliError::from(format!("gen: bad --blocks `{blocks}`")))?,
        );
    }
    let netlist = generate(&synth);
    let out = flag_value(args, "-o")?.unwrap_or_else(|| format!("{name}.kw"));
    write_file(&out, write_netlist(&netlist))?;
    println!("wrote {out} ({} cells, {} nets, {} rows)", netlist.num_cells(), netlist.num_nets(), rows);
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), CliError> {
    check_flags("stats", args, "", "")?;
    let Some(input) = args.first() else {
        return Err("stats: missing netlist path".into());
    };
    let netlist = load(input)?;
    println!("{}", NetlistStats::collect(&netlist));
    Ok(())
}

fn cmd_check(args: &[String]) -> Result<(), CliError> {
    check_flags("check", args, "", "")?;
    let (Some(nl_path), Some(pl_path)) = (args.first(), args.get(1)) else {
        return Err(String::from("check: need <netlist> <placement>").into());
    };
    let netlist = load(nl_path)?;
    let placement = load_placement(&netlist, pl_path)?;
    let report = check_legality(&netlist, &placement, 1e-6);
    println!(
        "hpwl {:.0}, legal: {} ({} overlapping pairs, {} off-row, {} out of core)",
        metrics::hpwl(&netlist, &placement),
        report.is_legal(),
        report.overlapping_pairs,
        report.off_row_cells,
        report.out_of_core_cells,
    );
    if report.is_legal() {
        Ok(())
    } else {
        Err(kerr(KraftwerkError::Legalize(
            "placement is not legal".to_string(),
        )))
    }
}

fn cmd_route(args: &[String]) -> Result<(), CliError> {
    use kraftwerk::congestion::router::{route, RouterConfig};
    check_flags("route", args, "", "")?;
    let (Some(nl_path), Some(pl_path)) = (args.first(), args.get(1)) else {
        return Err(String::from("route: need <netlist> <placement>").into());
    };
    let netlist = load(nl_path)?;
    let placement = load_placement(&netlist, pl_path)?;
    let nx = 32;
    let ny = ((netlist.core_region().height() / netlist.core_region().width() * nx as f64)
        .round() as usize)
        .max(4);
    let result = route(&netlist, &placement, nx, ny, &RouterConfig::default());
    println!(
        "routed {} connections on a {nx}x{ny} grid: wirelength {:.0} gcell edges, overflow {:.0}, peak utilization {:.2}",
        result.connections, result.wirelength, result.overflow, result.max_utilization
    );
    Ok(())
}

fn cmd_bookshelf(args: &[String]) -> Result<(), CliError> {
    use kraftwerk::netlist::format::bookshelf;
    check_flags("bookshelf", args, "-o", "")?;
    let Some(nl_path) = args.first() else {
        return Err(String::from("bookshelf: missing netlist path").into());
    };
    let netlist = load(nl_path)?;
    let placement = match args.get(1).filter(|a| !a.starts_with('-')) {
        Some(pl_path) => Some(load_placement(&netlist, pl_path)?),
        None => None,
    };
    let dir = flag_value(args, "-o")?.unwrap_or_else(|| format!("{}_bookshelf", netlist.name()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{dir}: {e}"))?;
    for (ext, content) in bookshelf::write(&netlist, placement.as_ref()) {
        let path = format!("{dir}/{}.{ext}", netlist.name());
        write_file(&path, content)?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `kraftwerk serve`: run the placement daemon until SIGTERM/SIGINT or a
/// client `shutdown` frame, then print the job totals. `--addr :0` picks
/// a free port; the bound address is printed (and flushed) first so
/// scripts can scrape it. `KRAFTWERK_FAULT=<class>` injects a
/// daemon-wide fault into every job (see the README fault matrix).
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    use std::io::Write as _;

    check_flags(
        "serve",
        args,
        "--addr --workers --queue-cap --deadline --journal-dir --max-bytes --metrics-addr \
         --report-dir",
        "",
    )?;
    let mut cfg = kraftwerk::serve::ServeConfig::default();
    if let Some(addr) = flag_value(args, "--addr")? {
        cfg.addr = addr;
    }
    if let Some(n) = flag_value(args, "--workers")? {
        cfg.workers = n
            .parse::<usize>()
            .map_err(|_| "--workers expects a positive integer".to_string())?
            .max(1);
    }
    if let Some(n) = flag_value(args, "--queue-cap")? {
        cfg.queue_capacity = n
            .parse::<usize>()
            .map_err(|_| "--queue-cap expects a positive integer".to_string())?
            .max(1);
    }
    if let Some(s) = flag_value(args, "--deadline")? {
        let v: f64 = s
            .parse()
            .map_err(|_| "--deadline expects seconds".to_string())?;
        if !v.is_finite() || v <= 0.0 {
            return Err("--deadline expects positive finite seconds".into());
        }
        cfg.default_deadline_s = v;
    }
    if let Some(dir) = flag_value(args, "--journal-dir")? {
        cfg.journal_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(n) = flag_value(args, "--max-bytes")? {
        cfg.max_frame_bytes = n
            .parse::<usize>()
            .map_err(|_| "--max-bytes expects a byte count".to_string())?
            .max(1024);
    }
    if let Some(addr) = flag_value(args, "--metrics-addr")? {
        cfg.metrics_addr = Some(addr);
    }
    if let Some(dir) = flag_value(args, "--report-dir")? {
        cfg.report_dir = Some(std::path::PathBuf::from(dir));
    }

    let server = kraftwerk::serve::Server::bind(cfg).map_err(|e| CliError {
        message: format!("bind failed: {e}"),
        code: KraftwerkError::Io {
            path: String::new(),
            message: String::new(),
        }
        .exit_code() as u8,
    })?;
    println!("listening on {}", server.local_addr());
    if let Some(addr) = server.metrics_addr() {
        println!("metrics on http://{addr}/metrics");
    }
    let _ = std::io::stdout().flush();
    let summary = server.run().map_err(|e| format!("serve failed: {e}"))?;
    println!(
        "served: ok={} degraded={} failed={} rejected={} arena_reuses={} connections={}",
        summary.jobs_ok,
        summary.jobs_degraded,
        summary.jobs_failed,
        summary.jobs_rejected,
        summary.arena_reuses,
        summary.connections
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "place" => cmd_place(rest),
        "serve" => cmd_serve(rest),
        "inspect" => cmd_inspect(rest),
        "bench" => cmd_bench(rest),
        "timing" => cmd_timing(rest),
        "gen" => cmd_gen(rest),
        "stats" => cmd_stats(rest),
        "check" => cmd_check(rest),
        "route" => cmd_route(rest),
        "bookshelf" => cmd_bookshelf(rest),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError { message, code }) => {
            eprintln!("error: {message}");
            ExitCode::from(code.max(1))
        }
    }
}
