//! The run-data model and its parser.
//!
//! `kraftwerk inspect` reads the placer's one run artifact, the `--trace`
//! **JSONL stream**: one iteration record per line with
//! `meta`/`snapshot`/`watchdog`/`convergence`/`histogram`/`alloc`/
//! `utilization` lines interleaved, closed by one `summary` line that
//! carries the run's cumulative phase profile. The daemon's
//! `--report-dir` files have the same shape.
//!
//! The stream collapses into one [`RunData`]. Parsing is strict about
//! structure (bad JSON is an error) but lenient about content: unknown
//! record types and missing optional metrics are kept or skipped, never
//! fatal, so dashboards stay renderable across schema evolution.

use kraftwerk_trace::json::{self, Json};

/// One placement transformation, as recorded by the trace layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IterationPoint {
    /// 1-based transformation number.
    pub iteration: u64,
    /// Half-perimeter wire length after the transformation.
    pub hpwl: Option<f64>,
    /// Peak density deviation before the move (the overflow signal).
    pub peak_density: Option<f64>,
    /// Conjugate-gradient iterations spent (x + y solves).
    pub cg_iterations: Option<f64>,
    /// Largest realized cell displacement.
    pub max_displacement: Option<f64>,
    /// Wall-clock seconds for the transformation.
    pub wall_s: Option<f64>,
    /// Per-phase seconds within the transformation, in record order.
    pub phases: Vec<(String, f64)>,
}

/// One captured field snapshot (density, potential, or cell positions).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotGrid {
    /// `"density"`, `"potential"`, or `"cells"`.
    pub kind: String,
    /// Transformation the capture belongs to.
    pub iteration: u64,
    /// Grid columns (for `cells`: the number of sampled positions).
    pub nx: usize,
    /// Grid rows (for `cells`: always 2 — interleaved x, y).
    pub ny: usize,
    /// Row-major bin values, `values[iy * nx + ix]`.
    pub values: Vec<f64>,
}

/// One accumulated histogram (log2 buckets, sparse).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramData {
    /// Metric name, e.g. `place.displacement`.
    pub name: String,
    /// `(bucket index, count)` pairs ascending by index.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramData {
    /// Total samples across all buckets.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|&(_, c)| c).sum()
    }
}

/// One timeline event (currently the watchdog's trips and recoveries).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimelinePoint {
    /// Event type tag (`"watchdog"`).
    pub kind: String,
    /// Transformation the event fired at.
    pub iteration: u64,
    /// `"rollback"` or `"give_up"` for watchdog events.
    pub action: String,
    /// Human-readable detail (trip reason, recovery count, …).
    pub detail: String,
}

/// Cumulative cost of one span name across the run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseCost {
    /// Span name, e.g. `place.field_solve`.
    pub name: String,
    /// Completed calls.
    pub calls: u64,
    /// Total seconds.
    pub seconds: f64,
}

/// One retained solver-convergence record (a CG residual trajectory or
/// a multigrid V-cycle curve).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConvergenceTrace {
    /// Solver tag: `cg` or `multigrid`.
    pub solver: String,
    /// The placement transformation the solve ran inside.
    pub iteration: u64,
    /// Residual curve (`residual_trajectory` / `relative_residuals`),
    /// empty when the record carries neither.
    pub curve: Vec<f64>,
    /// Whether the solve reported convergence (absent when the record
    /// carries no `converged` field).
    pub converged: Option<bool>,
    /// Every other numeric field of the record, in emission order
    /// (`dim`, `iterations`, `residual`, `levels`, `cycles`, …).
    pub metrics: Vec<(String, f64)>,
}

/// Per-phase heap accounting for one instrumented phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AllocPoint {
    /// Instrumented phase name, e.g. `place.density_map`.
    pub phase: String,
    /// Phase executions folded into this stat.
    pub samples: u64,
    /// Total allocations across all samples.
    pub allocs: u64,
    /// Total deallocations across all samples.
    pub deallocs: u64,
    /// Total bytes allocated across all samples.
    pub bytes: u64,
    /// Highest process-wide bytes-in-use peak observed.
    pub peak_bytes: u64,
}

/// Worker-pool utilization for one instrumented span.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UtilizationPoint {
    /// Instrumented span name, e.g. `place.field_solve`.
    pub span: String,
    /// Span executions folded into this stat.
    pub samples: u64,
    /// Total wall-clock seconds across all samples.
    pub wall_s: f64,
    /// Total busy seconds summed over every participating thread.
    pub busy_s: f64,
    /// Total chunk bodies executed.
    pub chunks: u64,
    /// Largest configured thread count seen.
    pub threads: u64,
    /// Parallel efficiency as recorded (busy / (wall × threads)).
    pub efficiency: f64,
}

/// Everything the dashboard renders, independent of the input format.
#[derive(Debug, Clone, Default)]
pub struct RunData {
    /// Run metadata (`netlist`, `mode`, `health.trips`, …) as strings.
    pub meta: Vec<(String, String)>,
    /// Per-transformation records in stream order.
    pub iterations: Vec<IterationPoint>,
    /// Captured field snapshots in stream order.
    pub snapshots: Vec<SnapshotGrid>,
    /// Accumulated histograms.
    pub histograms: Vec<HistogramData>,
    /// Watchdog (and future) timeline events.
    pub timeline: Vec<TimelinePoint>,
    /// Cumulative per-phase cost, most expensive first, as the stream's
    /// `summary` line lists it (empty when the stream has none).
    pub profile: Vec<PhaseCost>,
    /// Retained solver-convergence records, in stream order.
    pub convergence: Vec<ConvergenceTrace>,
    /// Per-phase heap accounting (empty unless allocation tracking ran).
    pub alloc: Vec<AllocPoint>,
    /// Per-span worker-pool utilization.
    pub utilization: Vec<UtilizationPoint>,
}

impl RunData {
    /// The highest iteration number seen anywhere in the run.
    #[must_use]
    pub fn last_iteration(&self) -> u64 {
        let from_records = self.iterations.iter().map(|p| p.iteration).max();
        let from_timeline = self.timeline.iter().map(|t| t.iteration).max();
        from_records.unwrap_or(0).max(from_timeline.unwrap_or(0))
    }

    /// Meta value lookup.
    #[must_use]
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Snapshots of one kind, in capture order.
    #[must_use]
    pub fn snapshots_of(&self, kind: &str) -> Vec<&SnapshotGrid> {
        self.snapshots.iter().filter(|s| s.kind == kind).collect()
    }

    /// Convergence records of one solver, in stream order.
    #[must_use]
    pub fn convergence_of(&self, solver: &str) -> Vec<&ConvergenceTrace> {
        self.convergence.iter().filter(|c| c.solver == solver).collect()
    }

    /// The highest `peak_bytes` across every instrumented phase.
    #[must_use]
    pub fn peak_bytes(&self) -> u64 {
        self.alloc.iter().map(|a| a.peak_bytes).max().unwrap_or(0)
    }
}

/// A problem reading a telemetry artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InspectError {
    /// The input was not parseable telemetry; the payload says why.
    Parse(String),
    /// The input parsed but contains no run data to render.
    Empty,
}

impl std::fmt::Display for InspectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InspectError::Parse(why) => write!(f, "unreadable telemetry: {why}"),
            InspectError::Empty => write!(f, "no iteration records found in the input"),
        }
    }
}

impl std::error::Error for InspectError {}

/// Renders a parsed JSON scalar for the meta table.
fn scalar_to_string(value: &Json) -> String {
    match value {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(v) => {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                format!("{v:.0}")
            } else {
                format!("{v}")
            }
        }
        Json::Str(s) => s.clone(),
        Json::Arr(_) => "[…]".to_string(),
        Json::Obj(_) => "{…}".to_string(),
    }
}

fn get_f64(obj: &Json, key: &str) -> Option<f64> {
    obj.get(key).and_then(Json::as_f64)
}

fn get_u64(obj: &Json, key: &str) -> Option<u64> {
    get_f64(obj, key).filter(|v| *v >= 0.0).map(|v| v as u64)
}

/// Decodes one parsed iteration record (a JSONL line without `type`).
fn decode_iteration(obj: &Json) -> Option<IterationPoint> {
    let iteration = get_u64(obj, "iteration")?;
    let mut phases = Vec::new();
    if let Some(fields) = obj.get("phases").and_then(Json::as_object) {
        for (name, seconds) in fields {
            if let Some(s) = seconds.as_f64() {
                phases.push((name.clone(), s));
            }
        }
    }
    Some(IterationPoint {
        iteration,
        hpwl: get_f64(obj, "hpwl"),
        peak_density: get_f64(obj, "peak_density"),
        cg_iterations: get_f64(obj, "cg_iterations"),
        max_displacement: get_f64(obj, "max_displacement"),
        wall_s: get_f64(obj, "wall_s"),
        phases,
    })
}

fn decode_histogram(obj: &Json) -> Option<HistogramData> {
    let name = obj.get("name").and_then(Json::as_str)?.to_string();
    let mut buckets = Vec::new();
    for pair in obj.get("buckets").and_then(Json::as_array).unwrap_or(&[]) {
        let items = pair.as_array().unwrap_or(&[]);
        if let (Some(index), Some(count)) = (
            items.first().and_then(Json::as_f64),
            items.get(1).and_then(Json::as_f64),
        ) {
            if (0.0..256.0).contains(&index) && count >= 0.0 {
                buckets.push((index as u8, count as u64));
            }
        }
    }
    Some(HistogramData { name, buckets })
}

fn decode_snapshot(obj: &Json) -> Option<SnapshotGrid> {
    let kind = obj.get("kind").and_then(Json::as_str)?.to_string();
    let nx = get_u64(obj, "nx")? as usize;
    let ny = get_u64(obj, "ny")? as usize;
    let values: Vec<f64> = obj
        .get("values")
        .and_then(Json::as_array)?
        .iter()
        .map(|v| v.as_f64().unwrap_or(f64::NAN))
        .collect();
    if values.len() != nx.checked_mul(ny)? {
        return None;
    }
    Some(SnapshotGrid {
        kind,
        iteration: get_u64(obj, "iteration").unwrap_or(0),
        nx,
        ny,
        values,
    })
}

/// Decodes one `type:"convergence"` record. Arrays become the residual
/// curve (first array field wins), `converged` is kept as a flag, and
/// every other numeric field lands in `metrics` so new solver outputs
/// surface without a schema change.
fn decode_convergence(obj: &Json) -> Option<ConvergenceTrace> {
    let solver = obj.get("solver").and_then(Json::as_str)?.to_string();
    let mut trace = ConvergenceTrace {
        solver,
        iteration: get_u64(obj, "iteration").unwrap_or(0),
        ..ConvergenceTrace::default()
    };
    for (key, value) in obj.as_object().unwrap_or(&[]) {
        match key.as_str() {
            "type" | "solver" | "iteration" => {}
            "converged" => {
                trace.converged = match value {
                    Json::Bool(b) => Some(*b),
                    other => other.as_f64().map(|v| v != 0.0),
                };
            }
            _ => {
                if let Some(items) = value.as_array() {
                    if trace.curve.is_empty() {
                        trace.curve =
                            items.iter().filter_map(Json::as_f64).collect();
                    }
                } else if let Some(v) = value.as_f64() {
                    trace.metrics.push((key.clone(), v));
                }
            }
        }
    }
    Some(trace)
}

fn decode_alloc(obj: &Json) -> Option<AllocPoint> {
    Some(AllocPoint {
        phase: obj.get("phase").and_then(Json::as_str)?.to_string(),
        samples: get_u64(obj, "samples").unwrap_or(0),
        allocs: get_u64(obj, "allocs").unwrap_or(0),
        deallocs: get_u64(obj, "deallocs").unwrap_or(0),
        bytes: get_u64(obj, "bytes").unwrap_or(0),
        peak_bytes: get_u64(obj, "peak_bytes").unwrap_or(0),
    })
}

fn decode_utilization(obj: &Json) -> Option<UtilizationPoint> {
    Some(UtilizationPoint {
        span: obj.get("span").and_then(Json::as_str)?.to_string(),
        samples: get_u64(obj, "samples").unwrap_or(0),
        wall_s: get_f64(obj, "wall_s").unwrap_or(0.0),
        busy_s: get_f64(obj, "busy_s").unwrap_or(0.0),
        chunks: get_u64(obj, "chunks").unwrap_or(0),
        threads: get_u64(obj, "threads").unwrap_or(0),
        efficiency: get_f64(obj, "efficiency").unwrap_or(0.0),
    })
}

/// Decodes a typed line into a [`TimelinePoint`]. The
/// detail string concatenates every field except the ones shown
/// structurally, so new watchdog fields surface without a schema change.
fn decode_timeline(kind: &str, obj: &Json) -> TimelinePoint {
    let mut detail = String::new();
    for (key, value) in obj.as_object().unwrap_or(&[]) {
        if matches!(key.as_str(), "type" | "iteration" | "action") {
            continue;
        }
        if !detail.is_empty() {
            detail.push_str(", ");
        }
        detail.push_str(key);
        detail.push('=');
        detail.push_str(&scalar_to_string(value));
    }
    TimelinePoint {
        kind: kind.to_string(),
        iteration: get_u64(obj, "iteration").unwrap_or(0),
        action: obj
            .get("action")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        detail,
    }
}

/// Merges one histogram into the accumulated set (JSONL streams may
/// carry many flushes of the same metric).
fn merge_histogram(into: &mut Vec<HistogramData>, hist: HistogramData) {
    if let Some(existing) = into.iter_mut().find(|h| h.name == hist.name) {
        for (index, count) in hist.buckets {
            if let Some(slot) = existing.buckets.iter_mut().find(|(i, _)| *i == index) {
                slot.1 += count;
            } else {
                existing.buckets.push((index, count));
            }
        }
        existing.buckets.sort_by_key(|&(i, _)| i);
    } else {
        into.push(hist);
    }
}

/// Folds one typed object (`type` field present) into the run.
fn fold_typed(run: &mut RunData, kind: &str, obj: &Json) {
    match kind {
        "meta" => {
            for (key, value) in obj.as_object().unwrap_or(&[]) {
                if key != "type" {
                    run.meta.push((key.clone(), scalar_to_string(value)));
                }
            }
        }
        "histogram" => {
            if let Some(hist) = decode_histogram(obj) {
                merge_histogram(&mut run.histograms, hist);
            }
        }
        "snapshot" => {
            if let Some(snapshot) = decode_snapshot(obj) {
                run.snapshots.push(snapshot);
            }
        }
        "convergence" => {
            if let Some(trace) = decode_convergence(obj) {
                run.convergence.push(trace);
            }
        }
        "alloc" => {
            if let Some(point) = decode_alloc(obj) {
                run.alloc.push(point);
            }
        }
        "utilization" => {
            if let Some(point) = decode_utilization(obj) {
                run.utilization.push(point);
            }
        }
        "summary" => {
            for entry in obj.get("profile").and_then(Json::as_array).unwrap_or(&[]) {
                if let Some(name) = entry.get("phase").and_then(Json::as_str) {
                    run.profile.push(PhaseCost {
                        name: name.to_string(),
                        calls: get_u64(entry, "calls").unwrap_or(0),
                        seconds: get_f64(entry, "total_s").unwrap_or(0.0),
                    });
                }
            }
        }
        other => run.timeline.push(decode_timeline(other, obj)),
    }
}

/// Parses a `--trace` JSONL stream, one record per non-empty line, into
/// a [`RunData`].
///
/// # Errors
///
/// [`InspectError::Parse`] when a line is not valid JSON,
/// [`InspectError::Empty`] when the stream has no iteration record.
pub fn parse_run(text: &str) -> Result<RunData, InspectError> {
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Err(InspectError::Empty);
    }
    let mut run = RunData::default();
    for (number, line) in trimmed.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let obj = json::parse(line)
            .map_err(|e| InspectError::Parse(format!("line {}: {e}", number + 1)))?;
        if let Some(kind) = obj.get("type").and_then(Json::as_str) {
            // Borrow juggling: `kind` borrows from `obj`, so copy it out.
            let kind = kind.to_string();
            fold_typed(&mut run, &kind, &obj);
        } else if let Some(point) = decode_iteration(&obj) {
            run.iterations.push(point);
        }
    }
    if run.iterations.is_empty() {
        return Err(InspectError::Empty);
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    const JSONL: &str = concat!(
        "{\"type\":\"meta\",\"netlist\":\"demo\",\"mode\":\"fast\",\"k\":0.2}\n",
        "{\"iteration\":1,\"hpwl\":100.0,\"peak_density\":2.5,\"cg_iterations\":40,",
        "\"max_displacement\":9.0,\"wall_s\":0.01,\"phases\":{\"place.solve_x\":0.004,",
        "\"place.density_map\":0.001}}\n",
        "{\"type\":\"snapshot\",\"kind\":\"density\",\"iteration\":1,\"nx\":2,\"ny\":2,",
        "\"values\":[0.5,-0.5,1.5,-1.5]}\n",
        "{\"type\":\"watchdog\",\"iteration\":1,\"reason\":\"hpwl explosion\",",
        "\"action\":\"rollback\",\"recoveries\":1}\n",
        "{\"iteration\":2,\"hpwl\":90.0,\"peak_density\":2.0,\"cg_iterations\":30,",
        "\"max_displacement\":5.0,\"wall_s\":0.02,\"phases\":{\"place.solve_x\":0.009}}\n",
        "{\"type\":\"histogram\",\"name\":\"place.displacement\",\"count\":3,",
        "\"buckets\":[[10,2],[12,1]]}\n",
        "{\"type\":\"histogram\",\"name\":\"place.displacement\",\"count\":2,",
        "\"buckets\":[[10,1],[13,1]]}\n",
        "{\"type\":\"summary\",\"total_s\":0.05,\"profile\":[",
        "{\"phase\":\"place.solve_x\",\"calls\":2,\"total_s\":0.013,\"mean_s\":0.0065},",
        "{\"phase\":\"legalize.abacus\",\"calls\":1,\"total_s\":0.004,\"mean_s\":0.004},",
        "{\"phase\":\"place.density_map\",\"calls\":1,\"total_s\":0.001,\"mean_s\":0.001}],",
        "\"counters\":{\"cg.solves\":4},\"gauges\":{},\"events\":{\"watchdog\":1}}\n",
    );

    #[test]
    fn jsonl_stream_parses_into_all_sections() {
        let run = parse_run(JSONL).expect("stream parses");
        assert_eq!(run.meta_value("netlist"), Some("demo"));
        assert_eq!(run.meta_value("k"), Some("0.2"));
        assert_eq!(run.iterations.len(), 2);
        assert_eq!(run.iterations[0].hpwl, Some(100.0));
        assert_eq!(run.iterations[1].iteration, 2);
        assert_eq!(run.snapshots.len(), 1);
        assert_eq!(run.snapshots[0].kind, "density");
        assert_eq!(run.timeline.len(), 1);
        assert_eq!(run.timeline[0].action, "rollback");
        assert!(run.timeline[0].detail.contains("reason=hpwl explosion"));
        // The two flushes of the same histogram merged.
        assert_eq!(run.histograms.len(), 1);
        assert_eq!(run.histograms[0].buckets, vec![(10, 3), (12, 1), (13, 1)]);
        assert_eq!(run.histograms[0].total(), 5);
        // The profile is the summary line's, in its order: it includes
        // legalization, which ran after the last iteration record.
        let names: Vec<&str> = run.profile.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["place.solve_x", "legalize.abacus", "place.density_map"]);
        assert_eq!(run.profile[0].calls, 2);
        assert!((run.profile[0].seconds - 0.013).abs() < 1e-12);
        // The summary line is no timeline event.
        assert_eq!(run.timeline.len(), 1);
        assert_eq!(run.last_iteration(), 2);
    }

    #[test]
    fn a_stream_without_a_summary_line_has_no_profile() {
        let run = parse_run("{\"iteration\":1,\"hpwl\":1.0,\"phases\":{\"place.solve_x\":0.5}}")
            .expect("iteration line carries the run");
        assert!(run.profile.is_empty());
    }

    #[test]
    fn resource_and_convergence_records_parse() {
        let jsonl = concat!(
            "{\"iteration\":1,\"hpwl\":10.0,\"phases\":{}}\n",
            "{\"type\":\"convergence\",\"solver\":\"cg\",\"iteration\":1,\"dim\":128,",
            "\"iterations\":9,\"residual\":1e-8,\"converged\":true,",
            "\"residual_trajectory\":[1.0,0.5,0.01]}\n",
            "{\"type\":\"convergence\",\"solver\":\"multigrid\",\"iteration\":1,",
            "\"levels\":5,\"cycles\":2}\n",
            "{\"type\":\"alloc\",\"phase\":\"place.field_solve\",\"samples\":3,",
            "\"allocs\":12,\"deallocs\":12,\"bytes\":4096,\"peak_bytes\":8192}\n",
            "{\"type\":\"utilization\",\"span\":\"place.solve_xy\",\"samples\":3,",
            "\"wall_s\":0.5,\"busy_s\":0.9,\"chunks\":24,\"threads\":2,\"efficiency\":0.9}\n",
        );
        let run = parse_run(jsonl).expect("stream parses");
        assert_eq!(run.convergence.len(), 2);
        let cg = &run.convergence[0];
        assert_eq!(cg.solver, "cg");
        assert_eq!(cg.iteration, 1);
        assert_eq!(cg.curve, vec![1.0, 0.5, 0.01]);
        assert_eq!(cg.converged, Some(true));
        assert!(cg.metrics.iter().any(|(k, v)| k == "iterations" && *v == 9.0));
        let multigrid = &run.convergence[1];
        assert!(multigrid.curve.is_empty());
        assert_eq!(multigrid.converged, None);
        assert!(multigrid.metrics.iter().any(|(k, v)| k == "levels" && *v == 5.0));
        assert_eq!(run.convergence_of("cg").len(), 1);
        assert_eq!(run.alloc.len(), 1);
        assert_eq!(run.alloc[0].phase, "place.field_solve");
        assert_eq!(run.alloc[0].peak_bytes, 8192);
        assert_eq!(run.peak_bytes(), 8192);
        assert_eq!(run.utilization.len(), 1);
        assert_eq!(run.utilization[0].span, "place.solve_xy");
        assert_eq!(run.utilization[0].threads, 2);
        assert!((run.utilization[0].efficiency - 0.9).abs() < 1e-12);
        // None of the typed resource records leak into the timeline.
        assert!(run.timeline.is_empty());
    }

    #[test]
    fn bad_and_empty_inputs_are_typed_errors() {
        assert!(matches!(parse_run("   "), Err(InspectError::Empty)));
        assert!(matches!(parse_run("not json"), Err(InspectError::Parse(_))));
        assert!(matches!(
            parse_run("{\"type\":\"histogram\",\"name\":\"only\",\"buckets\":[]}"),
            Err(InspectError::Empty)
        ));
        // A record with a mismatched snapshot payload is dropped, not fatal.
        let run = parse_run(concat!(
            "{\"iteration\":1,\"hpwl\":1.0,\"phases\":{}}\n",
            "{\"type\":\"snapshot\",\"kind\":\"density\",\"iteration\":1,\"nx\":3,\"ny\":3,\"values\":[1.0]}\n",
        ))
        .expect("iteration line carries the run");
        assert!(run.snapshots.is_empty());
    }
}
