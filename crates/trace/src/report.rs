//! Run-level telemetry aggregation: the event stream folded into
//! per-iteration JSONL records plus a cumulative phase profile.

use crate::event::{TraceEvent, Value};
use crate::json::JsonObject;
use crate::sink::TraceSink;
use crate::snapshot::SnapshotRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Name of the structured event that closes one placement transformation.
/// Spans and counters emitted since the previous such event are attributed
/// to the record it produces.
pub const ITERATION_EVENT: &str = "iteration";

/// Name of the structured event the placement watchdog emits on every
/// trip, rollback, and give-up. Counted under `events` in the run
/// summary, so degraded runs are visible in the `--trace` stream.
pub const WATCHDOG_EVENT: &str = "watchdog";

/// Name of the per-phase heap-accounting event the placement session
/// emits while `--alloc-stats` tracking is on and a sink is installed;
/// folded into [`RunReport::alloc`].
pub const ALLOC_EVENT: &str = "alloc";

/// Name of the per-span worker-pool utilization event; folded into
/// [`RunReport::utilization`].
pub const UTILIZATION_EVENT: &str = "par.utilization";

/// Solver events retained as [`ConvergenceRecord`]s (the `".solve"`
/// suffix is stripped into the record's `solver` tag).
pub const CONVERGENCE_EVENTS: [&str; 2] = ["cg.solve", "multigrid.solve"];

/// Upper bound on retained [`ConvergenceRecord`]s per run. Solver events
/// beyond the cap still count under `events`, but their residual curves
/// are dropped — the report stays bounded on arbitrarily long runs.
pub const CONVERGENCE_CAP: usize = 512;

/// One per-transformation record: the fields of the `iteration` event plus
/// the per-phase wall times observed since the previous record.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Fields of the `iteration` event, in emission order
    /// (`iteration`, `hpwl`, `peak_density`, `cg_iterations`, …).
    pub fields: Vec<(String, Value)>,
    /// Seconds spent per span name during this transformation.
    pub phases: Vec<(String, f64)>,
}

impl IterationRecord {
    /// The 1-based transformation number (0 when the field is absent).
    #[must_use]
    pub fn iteration(&self) -> u64 {
        self.get("iteration").and_then(Value::as_u64).unwrap_or(0)
    }

    /// Field lookup by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Encodes the record as one JSON object (one JSONL line, no newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        for (key, value) in &self.fields {
            let mut raw = String::new();
            value.write_json(&mut raw);
            o.raw_field(key, &raw);
        }
        let mut phases = JsonObject::new();
        for (name, seconds) in &self.phases {
            phases.f64_field(name, *seconds);
        }
        o.raw_field("phases", &phases.finish());
        o.finish()
    }
}

/// Aggregated cost of one span name across the whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Span name.
    pub name: String,
    /// Number of completed spans.
    pub calls: u64,
    /// Total seconds across all calls.
    pub seconds: f64,
}

impl PhaseStat {
    /// Mean seconds per call (0 when there were none).
    #[must_use]
    pub fn mean_seconds(&self) -> f64 {
        if self.calls > 0 {
            self.seconds / self.calls as f64
        } else {
            0.0
        }
    }
}

/// Merged histogram buckets for one metric across the whole run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramStat {
    /// Histogram name (e.g. `place.displacement`).
    pub name: String,
    /// Sparse `(bucket index, count)` pairs, ascending by index; bucket
    /// semantics are defined by [`bucket_bounds`](crate::bucket_bounds).
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramStat {
    /// Total samples across all buckets.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|(_, c)| c).sum()
    }

    /// Encodes the merged histogram as one JSON object (one JSONL line,
    /// no newline) — same shape as the originating `histogram` events.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str_field("type", "histogram");
        o.str_field("name", &self.name);
        o.u64_field("count", self.count());
        o.raw_field("buckets", &write_sparse_buckets(&self.buckets));
        o.finish()
    }
}

/// Encodes sparse histogram buckets as a JSON array of `[index, count]`
/// pairs.
fn write_sparse_buckets(buckets: &[(u8, u64)]) -> String {
    let mut raw = String::from("[");
    for (i, (idx, count)) in buckets.iter().enumerate() {
        if i > 0 {
            raw.push(',');
        }
        let _ = write!(raw, "[{idx},{count}]");
    }
    raw.push(']');
    raw
}

/// One retained structured event (watchdog trips/recoveries), kept with
/// its full field list so dashboards can render a run timeline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimelineEvent {
    /// Originating event name (currently always [`WATCHDOG_EVENT`]).
    pub name: String,
    /// How many iteration records the recorder had folded when the event
    /// arrived (not serialized): the watchdog judges a transformation
    /// after its record, so the event follows that record in the stream.
    pub position: u64,
    /// Field key/value pairs, in emission order.
    pub fields: Vec<(String, Value)>,
}

impl TimelineEvent {
    /// Field lookup by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Encodes the event as one JSON object (one JSONL line, no
    /// newline): `{"type":"<name>", ...fields}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str_field("type", &self.name);
        for (key, value) in &self.fields {
            let mut raw = String::new();
            value.write_json(&mut raw);
            o.raw_field(key, &raw);
        }
        o.finish()
    }
}

/// One retained solver-convergence event (a CG residual trajectory or a
/// multigrid V-cycle residual curve), tagged with the placement
/// transformation it ran inside.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConvergenceRecord {
    /// Solver tag: `cg` or `multigrid`.
    pub solver: String,
    /// The 1-based position, among the run's iteration records, of the
    /// transformation the solve belongs to. In a flat run it equals that
    /// record's `iteration`; a multilevel run restarts the records'
    /// numbering at every level, while this position keeps counting.
    pub iteration: u64,
    /// Fields of the originating event, in emission order.
    pub fields: Vec<(String, Value)>,
}

impl ConvergenceRecord {
    /// Field lookup by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Encodes the record as one JSON object (one JSONL line, no
    /// newline): `{"type":"convergence","solver":...,"iteration":...}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str_field("type", "convergence");
        o.str_field("solver", &self.solver);
        o.u64_field("iteration", self.iteration);
        for (key, value) in &self.fields {
            let mut raw = String::new();
            value.write_json(&mut raw);
            o.raw_field(key, &raw);
        }
        o.finish()
    }
}

/// Per-phase heap accounting aggregated across the whole run (counts
/// sum, peaks take the maximum).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AllocStat {
    /// Instrumented phase name (e.g. `place.density_map`).
    pub phase: String,
    /// Samples folded in (one per phase execution).
    pub samples: u64,
    /// Total allocations across all samples.
    pub allocs: u64,
    /// Total deallocations across all samples.
    pub deallocs: u64,
    /// Total bytes allocated across all samples.
    pub bytes: u64,
    /// Highest process-wide peak (bytes in use) observed at any sample.
    pub peak_bytes: u64,
    /// Allocations in the most recent sample — the steady-state probe:
    /// after arena warm-up this reads zero for the hot phases.
    pub last_allocs: u64,
}

impl AllocStat {
    /// Encodes the stat as one JSON object (one JSONL line, no newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str_field("type", "alloc");
        o.str_field("phase", &self.phase);
        o.u64_field("samples", self.samples);
        o.u64_field("allocs", self.allocs);
        o.u64_field("deallocs", self.deallocs);
        o.u64_field("bytes", self.bytes);
        o.u64_field("peak_bytes", self.peak_bytes);
        o.u64_field("last_allocs", self.last_allocs);
        o.finish()
    }
}

/// Per-span worker-pool utilization aggregated across the whole run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UtilizationStat {
    /// Instrumented span name (e.g. `place.field_solve`).
    pub span: String,
    /// Samples folded in (one per span execution).
    pub samples: u64,
    /// Total wall-clock seconds across all samples.
    pub wall_seconds: f64,
    /// Total busy seconds summed over every worker (and the publisher).
    pub busy_seconds: f64,
    /// Total chunks executed.
    pub chunks: u64,
    /// Largest configured thread count seen.
    pub threads: u64,
}

impl UtilizationStat {
    /// Parallel efficiency: busy time over the `threads × wall` budget
    /// (1.0 = every configured thread busy the entire span). Each thread
    /// counts only its outermost chunks, so a span that is the process's
    /// only user of the pool stays at or below 1.0; the counters are
    /// process-wide, so concurrent daemon jobs see each other's work.
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        let budget = self.wall_seconds * self.threads.max(1) as f64;
        if budget > 0.0 {
            self.busy_seconds / budget
        } else {
            0.0
        }
    }

    /// Encodes the stat as one JSON object (one JSONL line, no newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str_field("type", "utilization");
        o.str_field("span", &self.span);
        o.u64_field("samples", self.samples);
        o.f64_field("wall_s", self.wall_seconds);
        o.f64_field("busy_s", self.busy_seconds);
        o.u64_field("chunks", self.chunks);
        o.u64_field("threads", self.threads);
        o.f64_field("efficiency", self.efficiency());
        o.finish()
    }
}

/// The digested outcome of a traced run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Caller-supplied run metadata (netlist name, sizes, flags).
    pub meta: Vec<(String, Value)>,
    /// One record per placement transformation, in order.
    pub iterations: Vec<IterationRecord>,
    /// Cumulative per-phase profile, most expensive first.
    pub profile: Vec<PhaseStat>,
    /// Counter totals.
    pub counters: Vec<(String, u64)>,
    /// Latest gauge samples.
    pub gauges: Vec<(String, f64)>,
    /// Counts of structured events by name (excluding `iteration`).
    pub events: Vec<(String, u64)>,
    /// Merged histogram buckets per metric, sorted by name.
    pub histograms: Vec<HistogramStat>,
    /// Field/position snapshots, in emission order.
    pub snapshots: Vec<SnapshotRecord>,
    /// Retained watchdog events, in emission order.
    pub timeline: Vec<TimelineEvent>,
    /// Retained solver-convergence records, in emission order (capped at
    /// [`CONVERGENCE_CAP`]).
    pub convergence: Vec<ConvergenceRecord>,
    /// Per-phase heap accounting (empty unless allocation tracking was
    /// on), sorted by phase name.
    pub alloc: Vec<AllocStat>,
    /// Per-span worker-pool utilization, sorted by span name.
    pub utilization: Vec<UtilizationStat>,
    /// Wall-clock seconds from recorder creation to report.
    pub total_seconds: f64,
}

impl RunReport {
    /// The run as JSONL, one record per line with a trailing newline —
    /// the `--trace` output format and the run's one artifact.
    ///
    /// When run metadata was set, the stream opens with one
    /// `{"type":"meta",...}` line. Then comes one line per placement
    /// transformation; iteration records have no `"type"` field.
    /// Snapshot, watchdog-timeline and convergence records interleave
    /// after the iteration record they belong to, each as its own line
    /// carrying a distinguishing `"type"` field. They are placed by the
    /// record position the recorder tagged them with, so they stay with
    /// their transformation when a multilevel run restarts the iteration
    /// numbers. Histogram, alloc and utilization records follow, and one
    /// `{"type":"summary",...}` line closes the stream: `total_s`, the
    /// cumulative `profile` (every span, including those after the last
    /// transformation such as legalization), `counters`, `gauges` and
    /// `events`.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        if !self.meta.is_empty() {
            let mut o = JsonObject::new();
            o.str_field("type", "meta");
            for (key, value) in &self.meta {
                let mut raw = String::new();
                value.write_json(&mut raw);
                o.raw_field(key, &raw);
            }
            out.push_str(&o.finish());
            out.push('\n');
        }
        let mut snap_cursor = 0usize;
        let mut time_cursor = 0usize;
        let mut conv_cursor = 0usize;
        for (position, record) in (1u64..).zip(&self.iterations) {
            out.push_str(&record.to_json());
            out.push('\n');
            while snap_cursor < self.snapshots.len()
                && self.snapshots[snap_cursor].position <= position
            {
                out.push_str(&self.snapshots[snap_cursor].to_json());
                out.push('\n');
                snap_cursor += 1;
            }
            while time_cursor < self.timeline.len()
                && self.timeline[time_cursor].position <= position
            {
                out.push_str(&self.timeline[time_cursor].to_json());
                out.push('\n');
                time_cursor += 1;
            }
            while conv_cursor < self.convergence.len()
                && self.convergence[conv_cursor].iteration <= position
            {
                out.push_str(&self.convergence[conv_cursor].to_json());
                out.push('\n');
                conv_cursor += 1;
            }
        }
        for snap in &self.snapshots[snap_cursor.min(self.snapshots.len())..] {
            out.push_str(&snap.to_json());
            out.push('\n');
        }
        for event in &self.timeline[time_cursor.min(self.timeline.len())..] {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        for record in &self.convergence[conv_cursor.min(self.convergence.len())..] {
            out.push_str(&record.to_json());
            out.push('\n');
        }
        for hist in &self.histograms {
            out.push_str(&hist.to_json());
            out.push('\n');
        }
        for stat in &self.alloc {
            out.push_str(&stat.to_json());
            out.push('\n');
        }
        for stat in &self.utilization {
            out.push_str(&stat.to_json());
            out.push('\n');
        }
        out.push_str(&self.summary_json());
        out.push('\n');
        out
    }

    /// The closing `{"type":"summary",...}` record of [`to_jsonl`](Self::to_jsonl).
    fn summary_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str_field("type", "summary");
        o.f64_field("total_s", self.total_seconds);
        let mut profile = String::from("[");
        for (i, stat) in self.profile.iter().enumerate() {
            if i > 0 {
                profile.push(',');
            }
            let mut p = JsonObject::new();
            p.str_field("phase", &stat.name);
            p.u64_field("calls", stat.calls);
            p.f64_field("total_s", stat.seconds);
            p.f64_field("mean_s", stat.mean_seconds());
            profile.push_str(&p.finish());
        }
        profile.push(']');
        o.raw_field("profile", &profile);
        let mut counters = JsonObject::new();
        for (name, value) in &self.counters {
            counters.u64_field(name, *value);
        }
        o.raw_field("counters", &counters.finish());
        let mut gauges = JsonObject::new();
        for (name, value) in &self.gauges {
            gauges.f64_field(name, *value);
        }
        o.raw_field("gauges", &gauges.finish());
        let mut events = JsonObject::new();
        for (name, value) in &self.events {
            events.u64_field(name, *value);
        }
        o.raw_field("events", &events.finish());
        o.finish()
    }

    /// A human-readable cumulative phase profile (the `--profile` view).
    /// Rows nest: a phase's time includes the spans that ran inside it
    /// (`place.field_assembly` holds `place.field_solve`, which holds
    /// `multigrid.solve`), so the rows do not add up to the run time.
    #[must_use]
    pub fn profile_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>7} {:>11} {:>10}",
            "phase", "calls", "total [s]", "mean [ms]"
        );
        for stat in &self.profile {
            let _ = writeln!(
                out,
                "{:<24} {:>7} {:>11.4} {:>10.3}",
                stat.name,
                stat.calls,
                stat.seconds,
                1e3 * stat.mean_seconds()
            );
        }
        out
    }

    /// A human-readable per-phase heap table (the `--alloc-stats` view):
    /// samples, allocations, bytes, the highest peak and the allocations
    /// of the last sample, one row per instrumented phase.
    #[must_use]
    pub fn alloc_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>10} {:>12} {:>12} {:>10}",
            "phase", "samples", "allocs", "bytes", "peak bytes", "last"
        );
        for a in &self.alloc {
            let _ = writeln!(
                out,
                "{:<24} {:>8} {:>10} {:>12} {:>12} {:>10}",
                a.phase, a.samples, a.allocs, a.bytes, a.peak_bytes, a.last_allocs
            );
        }
        out
    }
}

#[derive(Debug, Default)]
struct RecorderState {
    meta: Vec<(String, Value)>,
    pending_phases: Vec<(String, f64)>,
    iterations: Vec<IterationRecord>,
    profile: BTreeMap<String, (u64, f64)>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    events: BTreeMap<String, u64>,
    histograms: BTreeMap<String, BTreeMap<u8, u64>>,
    snapshots: Vec<SnapshotRecord>,
    timeline: Vec<TimelineEvent>,
    convergence: Vec<ConvergenceRecord>,
    alloc: BTreeMap<String, AllocStat>,
    utilization: BTreeMap<String, UtilizationStat>,
}

/// A [`TraceSink`] that folds the event stream into a [`RunReport`]:
/// spans accumulate into the phase profile and attach to the next
/// [`ITERATION_EVENT`]; counters sum; gauges keep their latest sample.
///
/// Install it (usually via `Arc`) around a run, then call
/// [`report`](RunRecorder::report):
///
/// ```
/// use std::sync::Arc;
/// let recorder = Arc::new(kraftwerk_trace::RunRecorder::new());
/// kraftwerk_trace::install(recorder.clone());
/// // ... traced work ...
/// kraftwerk_trace::uninstall();
/// let report = recorder.report();
/// assert_eq!(report.iterations.len(), 0);
/// ```
#[derive(Debug)]
pub struct RunRecorder {
    state: Mutex<RecorderState>,
    started: Instant,
}

impl Default for RunRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl RunRecorder {
    /// Creates an empty recorder; the report's `total_seconds` counts from
    /// here.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: Mutex::new(RecorderState::default()),
            started: Instant::now(),
        }
    }

    /// Attaches run metadata (netlist name, cell counts, mode flags)
    /// surfaced as the stream's opening `meta` record.
    ///
    /// # Panics
    ///
    /// Panics if the recorder lock is poisoned.
    pub fn set_meta(&self, key: &str, value: Value) {
        let mut state = self.state.lock().expect("recorder poisoned");
        if let Some(slot) = state.meta.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            state.meta.push((key.to_string(), value));
        }
    }

    /// Digests everything received so far into a [`RunReport`].
    ///
    /// # Panics
    ///
    /// Panics if the recorder lock is poisoned.
    #[must_use]
    pub fn report(&self) -> RunReport {
        let state = self.state.lock().expect("recorder poisoned");
        let mut profile: Vec<PhaseStat> = state
            .profile
            .iter()
            .map(|(name, (calls, seconds))| PhaseStat {
                name: name.clone(),
                calls: *calls,
                seconds: *seconds,
            })
            .collect();
        profile.sort_by(|a, b| b.seconds.total_cmp(&a.seconds));
        RunReport {
            meta: state.meta.clone(),
            iterations: state.iterations.clone(),
            profile,
            counters: state.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: state.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            events: state.events.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: state
                .histograms
                .iter()
                .map(|(name, buckets)| HistogramStat {
                    name: name.clone(),
                    buckets: buckets.iter().map(|(i, c)| (*i, *c)).collect(),
                })
                .collect(),
            snapshots: state.snapshots.clone(),
            timeline: state.timeline.clone(),
            convergence: state.convergence.clone(),
            alloc: state.alloc.values().cloned().collect(),
            utilization: state.utilization.values().cloned().collect(),
            total_seconds: self.started.elapsed().as_secs_f64(),
        }
    }
}

impl TraceSink for RunRecorder {
    fn event(&self, event: &TraceEvent) {
        let mut state = self.state.lock().expect("recorder poisoned");
        match event {
            TraceEvent::Span { name, seconds } => {
                let entry = state.profile.entry((*name).to_string()).or_insert((0, 0.0));
                entry.0 += 1;
                entry.1 += seconds;
                if let Some(slot) = state
                    .pending_phases
                    .iter_mut()
                    .find(|(n, _)| n == name)
                {
                    slot.1 += seconds;
                } else {
                    state.pending_phases.push(((*name).to_string(), *seconds));
                }
            }
            TraceEvent::Counter { name, value } => {
                *state.counters.entry((*name).to_string()).or_insert(0) += value;
            }
            TraceEvent::Gauge { name, value } => {
                state.gauges.insert((*name).to_string(), *value);
            }
            TraceEvent::Event { name, fields } if *name == ITERATION_EVENT => {
                let phases = std::mem::take(&mut state.pending_phases);
                state.iterations.push(IterationRecord {
                    fields: fields
                        .iter()
                        .map(|(k, v)| ((*k).to_string(), v.clone()))
                        .collect(),
                    phases,
                });
            }
            TraceEvent::Event { name, fields } => {
                *state.events.entry((*name).to_string()).or_insert(0) += 1;
                let field =
                    |key: &str| fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
                let field_u64 = |key: &str| field(key).and_then(Value::as_u64).unwrap_or(0);
                let field_f64 = |key: &str| field(key).and_then(Value::as_f64).unwrap_or(0.0);
                if *name == WATCHDOG_EVENT {
                    let position = state.iterations.len() as u64;
                    state.timeline.push(TimelineEvent {
                        name: (*name).to_string(),
                        position,
                        fields: fields
                            .iter()
                            .map(|(k, v)| ((*k).to_string(), v.clone()))
                            .collect(),
                    });
                } else if *name == ALLOC_EVENT {
                    let phase = field("phase").and_then(Value::as_str).unwrap_or("?").to_string();
                    let stat = state.alloc.entry(phase.clone()).or_insert_with(|| AllocStat {
                        phase,
                        ..AllocStat::default()
                    });
                    stat.samples += 1;
                    stat.allocs += field_u64("allocs");
                    stat.deallocs += field_u64("deallocs");
                    stat.bytes += field_u64("bytes");
                    stat.peak_bytes = stat.peak_bytes.max(field_u64("peak_bytes"));
                    stat.last_allocs = field_u64("allocs");
                } else if *name == UTILIZATION_EVENT {
                    let span = field("span").and_then(Value::as_str).unwrap_or("?").to_string();
                    let stat =
                        state.utilization.entry(span.clone()).or_insert_with(|| UtilizationStat {
                            span,
                            ..UtilizationStat::default()
                        });
                    stat.samples += 1;
                    stat.wall_seconds += field_f64("wall_s");
                    stat.busy_seconds += field_f64("busy_s");
                    stat.chunks += field_u64("chunks");
                    stat.threads = stat.threads.max(field_u64("threads"));
                } else if CONVERGENCE_EVENTS.contains(name)
                    && state.convergence.len() < CONVERGENCE_CAP
                {
                    let iteration = state.iterations.len() as u64 + 1;
                    state.convergence.push(ConvergenceRecord {
                        solver: name.trim_end_matches(".solve").to_string(),
                        iteration,
                        fields: fields
                            .iter()
                            .map(|(k, v)| ((*k).to_string(), v.clone()))
                            .collect(),
                    });
                }
            }
            TraceEvent::Histogram { name, buckets } => {
                let merged = state.histograms.entry((*name).to_string()).or_default();
                for (index, count) in buckets {
                    *merged.entry(*index).or_insert(0) += count;
                }
            }
            TraceEvent::Snapshot { kind, iteration, nx, ny, values } => {
                let position = state.iterations.len() as u64 + 1;
                state.snapshots.push(SnapshotRecord {
                    kind: (*kind).to_string(),
                    iteration: *iteration,
                    position,
                    nx: *nx as usize,
                    ny: *ny as usize,
                    values: values.clone(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn iteration_event(n: u64, hpwl: f64) -> TraceEvent {
        TraceEvent::Event {
            name: ITERATION_EVENT,
            fields: vec![
                ("iteration", Value::UInt(n)),
                ("hpwl", Value::Float(hpwl)),
            ],
        }
    }

    #[test]
    fn spans_attach_to_the_next_iteration_record() {
        let recorder = RunRecorder::new();
        recorder.event(&TraceEvent::Span { name: "a", seconds: 0.1 });
        recorder.event(&TraceEvent::Span { name: "b", seconds: 0.2 });
        recorder.event(&TraceEvent::Span { name: "a", seconds: 0.3 });
        recorder.event(&iteration_event(1, 100.0));
        recorder.event(&TraceEvent::Span { name: "a", seconds: 0.5 });
        recorder.event(&iteration_event(2, 90.0));
        let report = recorder.report();
        assert_eq!(report.iterations.len(), 2);
        assert_eq!(report.iterations[0].phases.len(), 2);
        let a0 = report.iterations[0]
            .phases
            .iter()
            .find(|(n, _)| n == "a")
            .unwrap()
            .1;
        assert!((a0 - 0.4).abs() < 1e-12);
        assert_eq!(report.iterations[1].phases, vec![("a".to_string(), 0.5)]);
        // Profile accumulates across iterations, most expensive first.
        assert_eq!(report.profile[0].name, "a");
        assert_eq!(report.profile[0].calls, 3);
        assert!((report.profile[0].seconds - 0.9).abs() < 1e-12);
    }

    #[test]
    fn counters_sum_and_gauges_keep_latest() {
        let recorder = RunRecorder::new();
        recorder.event(&TraceEvent::Counter { name: "c", value: 2 });
        recorder.event(&TraceEvent::Counter { name: "c", value: 3 });
        recorder.event(&TraceEvent::Gauge { name: "g", value: 1.0 });
        recorder.event(&TraceEvent::Gauge { name: "g", value: 7.5 });
        let report = recorder.report();
        assert_eq!(report.counters, vec![("c".to_string(), 5)]);
        assert_eq!(report.gauges, vec![("g".to_string(), 7.5)]);
    }

    #[test]
    fn jsonl_has_one_parseable_line_per_iteration() {
        let recorder = RunRecorder::new();
        for n in 1..=3 {
            recorder.event(&TraceEvent::Span { name: "p", seconds: 0.01 });
            recorder.event(&iteration_event(n, 50.0 * n as f64));
        }
        let report = recorder.report();
        let jsonl = report.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4, "three iterations and the summary");
        let mut prev = 0u64;
        for line in &lines[..3] {
            let v = parse(line).expect("parseable line");
            let n = v.get("iteration").and_then(Json::as_f64).unwrap() as u64;
            assert!(n > prev, "iterations strictly increasing");
            prev = n;
            assert!(v.get("hpwl").is_some());
            assert!(v.get("phases").and_then(|p| p.get("p")).is_some());
        }
    }

    #[test]
    fn summary_line_closes_the_stream_with_profile_and_totals() {
        let recorder = RunRecorder::new();
        recorder.set_meta("netlist", Value::from("demo"));
        recorder.set_meta("cells", Value::from(150usize));
        recorder.set_meta("netlist", Value::from("demo2"));
        recorder.event(&TraceEvent::Span { name: "p", seconds: 1.0 });
        recorder.event(&iteration_event(1, 42.0));
        recorder.event(&TraceEvent::Event { name: "cg.solve", fields: vec![] });
        // A span after the last transformation (legalization) still
        // reaches the profile.
        recorder.event(&TraceEvent::Span { name: "late", seconds: 0.5 });
        recorder.event(&TraceEvent::Counter { name: "c", value: 4 });
        let jsonl = recorder.report().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        let meta = parse(lines[0]).expect("meta line");
        assert_eq!(meta.get("type").and_then(Json::as_str), Some("meta"));
        assert_eq!(meta.get("netlist").and_then(Json::as_str), Some("demo2"));
        let summary = parse(lines[lines.len() - 1]).expect("summary line");
        assert_eq!(summary.get("type").and_then(Json::as_str), Some("summary"));
        assert!(summary.get("total_s").and_then(Json::as_f64).is_some());
        let profile = summary.get("profile").and_then(Json::as_array).unwrap();
        assert_eq!(profile[0].get("phase").and_then(Json::as_str), Some("p"));
        assert_eq!(profile[0].get("calls").and_then(Json::as_f64), Some(1.0));
        assert_eq!(profile[1].get("phase").and_then(Json::as_str), Some("late"));
        assert_eq!(profile[1].get("mean_s").and_then(Json::as_f64), Some(0.5));
        assert_eq!(
            summary.get("counters").and_then(|c| c.get("c")).and_then(Json::as_f64),
            Some(4.0)
        );
        assert_eq!(
            summary.get("events").and_then(|e| e.get("cg.solve")).and_then(Json::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn convergence_events_fold_with_iteration_tags_and_cap() {
        let recorder = RunRecorder::new();
        recorder.event(&TraceEvent::Event {
            name: "cg.solve",
            fields: vec![
                ("iterations", Value::UInt(12)),
                ("residual_trajectory", Value::from(vec![1.0, 0.1, 0.01])),
            ],
        });
        recorder.event(&iteration_event(1, 100.0));
        recorder.event(&TraceEvent::Event {
            name: "multigrid.solve",
            fields: vec![("cycles", Value::UInt(3))],
        });
        recorder.event(&iteration_event(2, 90.0));
        let report = recorder.report();
        assert_eq!(report.convergence.len(), 2);
        assert_eq!(report.convergence[0].solver, "cg");
        assert_eq!(report.convergence[0].iteration, 1);
        assert_eq!(report.convergence[1].solver, "multigrid");
        assert_eq!(report.convergence[1].iteration, 2);
        let line = parse(&report.convergence[0].to_json()).unwrap();
        assert_eq!(line.get("type").and_then(Json::as_str), Some("convergence"));
        assert_eq!(line.get("solver").and_then(Json::as_str), Some("cg"));
        // Retention is bounded; the events map still counts everything.
        let capped = RunRecorder::new();
        for _ in 0..(CONVERGENCE_CAP + 10) {
            capped.event(&TraceEvent::Event { name: "cg.solve", fields: vec![] });
        }
        let capped = capped.report();
        assert_eq!(capped.convergence.len(), CONVERGENCE_CAP);
        assert_eq!(
            capped.events.iter().find(|(n, _)| n == "cg.solve").map(|(_, c)| *c),
            Some(CONVERGENCE_CAP as u64 + 10)
        );
    }

    #[test]
    fn alloc_and_utilization_events_aggregate_per_key() {
        let recorder = RunRecorder::new();
        for (allocs, peak) in [(3u64, 1000u64), (1, 2000)] {
            recorder.event(&TraceEvent::Event {
                name: ALLOC_EVENT,
                fields: vec![
                    ("phase", Value::from("place.density_map")),
                    ("allocs", Value::UInt(allocs)),
                    ("deallocs", Value::UInt(allocs)),
                    ("bytes", Value::UInt(allocs * 64)),
                    ("peak_bytes", Value::UInt(peak)),
                ],
            });
        }
        for busy in [0.06f64, 0.08] {
            recorder.event(&TraceEvent::Event {
                name: UTILIZATION_EVENT,
                fields: vec![
                    ("span", Value::from("place.field_solve")),
                    ("wall_s", Value::Float(0.05)),
                    ("busy_s", Value::Float(busy)),
                    ("chunks", Value::UInt(40)),
                    ("threads", Value::UInt(2)),
                ],
            });
        }
        let report = recorder.report();
        assert_eq!(report.alloc.len(), 1);
        let alloc = &report.alloc[0];
        assert_eq!(alloc.phase, "place.density_map");
        assert_eq!(alloc.samples, 2);
        assert_eq!(alloc.allocs, 4);
        assert_eq!(alloc.bytes, 256);
        assert_eq!(alloc.peak_bytes, 2000, "peaks max, not sum");
        assert_eq!(alloc.last_allocs, 1, "steady-state probe keeps the latest sample");
        assert_eq!(report.utilization.len(), 1);
        let util = &report.utilization[0];
        assert_eq!(util.samples, 2);
        assert_eq!(util.chunks, 80);
        assert!((util.busy_seconds - 0.14).abs() < 1e-12);
        assert!((util.efficiency() - 0.7).abs() < 1e-9, "busy / (wall * threads)");
        // Both serialize as typed JSONL lines.
        let jsonl = report.to_jsonl();
        let typed = |kind: &str| {
            jsonl
                .lines()
                .map(|l| parse(l).unwrap())
                .find(|v| v.get("type").and_then(Json::as_str) == Some(kind))
                .unwrap_or_else(|| panic!("no {kind} line"))
        };
        assert_eq!(typed("alloc").get("last_allocs").and_then(Json::as_f64), Some(1.0));
        assert!(typed("utilization").get("efficiency").and_then(Json::as_f64).is_some());
        // The heap table shows the same row.
        let table = report.alloc_table();
        let row: Vec<&str> = table.lines().nth(1).unwrap().split_whitespace().collect();
        assert_eq!(row, ["place.density_map", "2", "4", "256", "2000", "1"]);
    }

    #[test]
    fn convergence_lines_interleave_by_iteration() {
        let recorder = RunRecorder::new();
        recorder.event(&TraceEvent::Event { name: "cg.solve", fields: vec![] });
        recorder.event(&iteration_event(1, 10.0));
        recorder.event(&TraceEvent::Event { name: "multigrid.solve", fields: vec![] });
        recorder.event(&iteration_event(2, 9.0));
        let jsonl = recorder.report().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 5);
        // iteration 1, its convergence record, iteration 2, its record,
        // then the summary.
        assert!(lines[1].contains("\"solver\":\"cg\""));
        assert!(lines[3].contains("\"solver\":\"multigrid\""));
        for line in lines {
            parse(line).expect("every line parses");
        }
    }

    #[test]
    fn convergence_lines_follow_their_transformation_when_numbering_restarts() {
        // Two multilevel levels, each numbering its records from 1: every
        // convergence line must follow the record of the transformation
        // that ran the solve, not the first record with a larger number.
        let recorder = RunRecorder::new();
        for level_iterations in [3u64, 2] {
            for n in 1..=level_iterations {
                recorder.event(&TraceEvent::Event {
                    name: "multigrid.solve",
                    fields: vec![("level_iteration", Value::UInt(n))],
                });
                recorder.event(&iteration_event(n, 10.0 - n as f64));
            }
        }
        let jsonl = recorder.report().to_jsonl();
        let lines: Vec<Json> = jsonl.lines().map(|l| parse(l).unwrap()).collect();
        let mut last_record: Option<u64> = None;
        let mut solves = 0;
        for line in &lines {
            let field = |key| line.get(key).and_then(Json::as_f64).map(|v| v as u64);
            match line.get("type").and_then(Json::as_str) {
                None => last_record = field("iteration"),
                Some("convergence") => {
                    solves += 1;
                    assert_eq!(last_record, field("level_iteration"), "misplaced: {line:?}");
                }
                _ => {}
            }
        }
        assert_eq!(solves, 5);
    }

    #[test]
    fn snapshot_and_watchdog_lines_follow_their_transformation_when_numbering_restarts() {
        // Two multilevel levels numbered 1–3 and 1–2. Every snapshot is
        // taken inside its transformation (before the record) and every
        // watchdog event judges one (after the record); each line must
        // follow that record, not the first record with a larger number.
        let recorder = RunRecorder::new();
        for (level, level_iterations) in [(1u64, 3u64), (2, 2)] {
            for n in 1..=level_iterations {
                let tag = (10 * level + n) as f64;
                recorder.event(&TraceEvent::Snapshot {
                    kind: crate::SNAPSHOT_DENSITY,
                    iteration: n,
                    nx: 1,
                    ny: 1,
                    values: vec![tag],
                });
                recorder.event(&iteration_event(n, tag));
                recorder.event(&TraceEvent::Event {
                    name: WATCHDOG_EVENT,
                    fields: vec![("iteration", Value::UInt(n)), ("tag", Value::Float(tag))],
                });
            }
        }
        let jsonl = recorder.report().to_jsonl();
        let lines: Vec<Json> = jsonl.lines().map(|l| parse(l).unwrap()).collect();
        let mut last_tag: Option<f64> = None;
        let (mut snapshots, mut events) = (0, 0);
        for line in &lines {
            match line.get("type").and_then(Json::as_str) {
                None => last_tag = line.get("hpwl").and_then(Json::as_f64),
                Some("snapshot") => {
                    snapshots += 1;
                    let values = line.get("values").and_then(Json::as_array).unwrap();
                    assert_eq!(last_tag, values[0].as_f64(), "misplaced: {line:?}");
                }
                Some(WATCHDOG_EVENT) => {
                    events += 1;
                    assert_eq!(last_tag, line.get("tag").and_then(Json::as_f64), "misplaced: {line:?}");
                }
                _ => {}
            }
        }
        assert_eq!((snapshots, events), (5, 5));
    }

    #[test]
    fn profile_table_lists_every_phase() {
        let recorder = RunRecorder::new();
        recorder.event(&TraceEvent::Span { name: "slow", seconds: 2.0 });
        recorder.event(&TraceEvent::Span { name: "quick", seconds: 0.5 });
        let table = recorder.report().profile_table();
        assert!(table.contains("slow"));
        assert!(table.contains("quick"));
        let slow_line = table.lines().position(|l| l.contains("slow")).unwrap();
        let quick_line = table.lines().position(|l| l.contains("quick")).unwrap();
        assert!(slow_line < quick_line, "sorted by total time");
        // Rows nest, so a share-of-run column would count nested time
        // twice; the table has none.
        assert!(!table.contains('%'), "{table}");
    }
}
