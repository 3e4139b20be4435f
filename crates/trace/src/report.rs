//! Run-level telemetry aggregation: the event stream folded into
//! per-iteration JSONL records plus a cumulative phase profile, and the
//! reader that turns such a stream back into the same [`RunReport`].

use crate::event::{TraceEvent, Value};
use crate::json::{self, Json, JsonObject};
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
        write_fields(&mut o, &self.fields);
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

/// Appends `fields` to a record, in order (read back by [`values`]).
fn write_fields(o: &mut JsonObject, fields: &[(String, Value)]) {
    for (key, value) in fields {
        let mut raw = String::new();
        value.write_json(&mut raw);
        o.raw_field(key, &raw);
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
    /// Originating event name: [`WATCHDOG_EVENT`] from the recorder, or
    /// any `type` [`RunReport::from_jsonl`] does not know.
    pub name: String,
    /// How many iteration records the recorder had folded when the event
    /// arrived (not serialized): the watchdog judges a transformation
    /// after its record, so the event follows that record in the stream.
    /// [`RunReport::from_jsonl`] reads it back from the record the line
    /// follows.
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
        write_fields(&mut o, &self.fields);
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
        write_fields(&mut o, &self.fields);
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
    /// numbers. The last record is followed by all that remain of the three
    /// kinds, in that order. Histogram, alloc and utilization records
    /// follow, and one `{"type":"summary",...}` line closes the stream:
    /// `total_s`, the cumulative `profile` (every span, including those
    /// after the last transformation such as legalization), `counters`,
    /// `gauges` and `events`.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut lines = Vec::new();
        if !self.meta.is_empty() {
            let mut o = JsonObject::new();
            o.str_field("type", "meta");
            write_fields(&mut o, &self.meta);
            lines.push(o.finish());
        }
        let mut snapshots = self.snapshots.iter().peekable();
        let mut timeline = self.timeline.iter().peekable();
        let mut convergence = self.convergence.iter().peekable();
        // After each record the items placed up to it, and after the last
        // one (or alone, in a stream without records) every item left.
        let positions = (1..self.iterations.len() as u64).chain([u64::MAX]);
        for (index, position) in positions.enumerate() {
            lines.extend(self.iterations.get(index).map(IterationRecord::to_json));
            while let Some(snapshot) = snapshots.next_if(|s| s.position <= position) {
                lines.push(snapshot.to_json());
            }
            while let Some(event) = timeline.next_if(|t| t.position <= position) {
                lines.push(event.to_json());
            }
            while let Some(record) = convergence.next_if(|c| c.iteration <= position) {
                lines.push(record.to_json());
            }
        }
        lines.extend(self.histograms.iter().map(HistogramStat::to_json));
        lines.extend(self.alloc.iter().map(AllocStat::to_json));
        lines.extend(self.utilization.iter().map(UtilizationStat::to_json));
        lines.push(self.summary_json());
        format!("{}\n", lines.join("\n"))
    }

    /// Reads a `--trace` stream back: the inverse of
    /// [`to_jsonl`](Self::to_jsonl), so for every stream `s` it wrote,
    /// `RunReport::from_jsonl(s)?.to_jsonl() == s` byte for byte.
    /// Integral numbers read back as integers (exact up to 2^53, like every
    /// number the JSON parser reads) and `null` as NaN. A snapshot or
    /// timeline line takes as its position the number of iteration records
    /// before it, so it is written back in the same place.
    ///
    /// The reader is lenient about content: a line whose `type` it does not
    /// know becomes a timeline event, repeated histogram lines merge, and a
    /// stream without a `summary` line has an empty profile. It drops an
    /// untyped line without a non-negative `iteration` number, a snapshot
    /// whose `values` do not fill `nx · ny`, a typed line without its name
    /// field, a line that is not an object, and object-valued fields, which
    /// no [`Value`] holds.
    ///
    /// # Errors
    ///
    /// A line that is not valid JSON, named by its 1-based number.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut report = Self::default();
        for (number, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let record = json::parse(line).map_err(|e| format!("line {}: {e}", number + 1))?;
            let Some(members) = record.as_object() else {
                continue;
            };
            let records = report.iterations.len() as u64;
            match record.get("type").and_then(Json::as_str) {
                // A record carries its transformation number; other
                // untyped objects are not records.
                None if uint(&record, "iteration").is_none() => {}
                None => {
                    report.iterations.push(IterationRecord {
                        fields: values(members, &["phases"]),
                        phases: record
                            .get("phases")
                            .and_then(Json::as_object)
                            .unwrap_or_default()
                            .iter()
                            .filter_map(|(name, seconds)| Some((name.clone(), float(seconds)?)))
                            .collect(),
                    });
                }
                Some("meta") => report.meta.extend(values(members, &["type"])),
                Some("snapshot") => report.snapshots.extend(read_snapshot(&record, records)),
                Some("convergence") => {
                    if let Some(solver) = text_at(&record, "solver") {
                        report.convergence.push(ConvergenceRecord {
                            solver,
                            iteration: uint_at(&record, "iteration"),
                            fields: values(members, &["type", "solver", "iteration"]),
                        });
                    }
                }
                Some("histogram") => {
                    if let Some(name) = text_at(&record, "name") {
                        merge_histogram(&mut report.histograms, name, read_buckets(&record));
                    }
                }
                Some("alloc") => {
                    if let Some(phase) = text_at(&record, "phase") {
                        report.alloc.push(AllocStat {
                            phase,
                            samples: uint_at(&record, "samples"),
                            allocs: uint_at(&record, "allocs"),
                            deallocs: uint_at(&record, "deallocs"),
                            bytes: uint_at(&record, "bytes"),
                            peak_bytes: uint_at(&record, "peak_bytes"),
                            last_allocs: uint_at(&record, "last_allocs"),
                        });
                    }
                }
                Some("utilization") => {
                    if let Some(span) = text_at(&record, "span") {
                        report.utilization.push(UtilizationStat {
                            span,
                            samples: uint_at(&record, "samples"),
                            wall_seconds: float_at(&record, "wall_s"),
                            busy_seconds: float_at(&record, "busy_s"),
                            chunks: uint_at(&record, "chunks"),
                            threads: uint_at(&record, "threads"),
                        });
                    }
                }
                Some("summary") => read_summary(&mut report, &record),
                Some(name) => {
                    report.timeline.push(TimelineEvent {
                        name: name.to_string(),
                        position: records,
                        fields: values(members, &["type"]),
                    });
                }
            }
        }
        Ok(report)
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

/// A parsed JSON value as a field [`Value`]: integral numbers read back
/// as integers, `null` as NaN. Objects have no `Value`.
fn value(json: &Json) -> Option<Value> {
    // Every integer up to 2^53 is exact in f64; -0 keeps its sign as a float.
    const EXACT: f64 = 9_007_199_254_740_992.0;
    Some(match json {
        Json::Null => Value::Float(f64::NAN),
        Json::Bool(b) => Value::Bool(*b),
        Json::Num(v)
            if v.fract() != 0.0 || v.abs() > EXACT || (*v == 0.0 && v.is_sign_negative()) =>
        {
            Value::Float(*v)
        }
        Json::Num(v) if *v >= 0.0 => Value::UInt(*v as u64),
        Json::Num(v) => Value::Int(*v as i64),
        Json::Str(s) => Value::Str(s.clone()),
        Json::Arr(items) => Value::Array(items.iter().filter_map(value).collect()),
        Json::Obj(_) => return None,
    })
}

/// An object's members as fields, without the keys in `skip`.
fn values(members: &[(String, Json)], skip: &[&str]) -> Vec<(String, Value)> {
    members
        .iter()
        .filter(|(key, _)| !skip.contains(&key.as_str()))
        .filter_map(|(key, json)| Some((key.clone(), value(json)?)))
        .collect()
}

/// A number, or NaN for `null` (how the writer encodes NaN).
fn float(json: &Json) -> Option<f64> {
    match json {
        Json::Null => Some(f64::NAN),
        other => other.as_f64(),
    }
}

/// The float member `key` (0 when absent).
fn float_at(record: &Json, key: &str) -> f64 {
    record.get(key).and_then(float).unwrap_or(0.0)
}

/// The member `key` as an integer, when it is a number that is not negative.
fn uint(record: &Json, key: &str) -> Option<u64> {
    let v = record.get(key)?.as_f64()?;
    (v >= 0.0).then_some(v as u64)
}

/// The integral member `key` (0 when absent or negative).
fn uint_at(record: &Json, key: &str) -> u64 {
    uint(record, key).unwrap_or(0)
}

/// The string member `key`.
fn text_at(record: &Json, key: &str) -> Option<String> {
    record.get(key).and_then(Json::as_str).map(str::to_string)
}

/// A `snapshot` line, unless its `values` do not fill `nx · ny`.
fn read_snapshot(record: &Json, position: u64) -> Option<SnapshotRecord> {
    let nx = record.get("nx")?.as_f64()? as usize;
    let ny = record.get("ny")?.as_f64()? as usize;
    let values: Vec<f64> = record
        .get("values")?
        .as_array()?
        .iter()
        .map(|v| v.as_f64().unwrap_or(f64::NAN))
        .collect();
    (values.len() == nx.checked_mul(ny)?).then_some(SnapshotRecord {
        kind: text_at(record, "kind")?,
        iteration: uint_at(record, "iteration"),
        position,
        nx,
        ny,
        values,
    })
}

/// A `histogram` line's `[index, count]` pairs.
fn read_buckets(record: &Json) -> Vec<(u8, u64)> {
    let pairs = record
        .get("buckets")
        .and_then(Json::as_array)
        .unwrap_or_default();
    pairs
        .iter()
        .filter_map(|pair| {
            let pair = pair.as_array()?;
            let (index, count) = (pair.first()?.as_f64()?, pair.get(1)?.as_f64()?);
            ((0.0..256.0).contains(&index) && count >= 0.0).then_some((index as u8, count as u64))
        })
        .collect()
}

/// Adds one histogram line to the run's, merging lines of the same name.
fn merge_histogram(into: &mut Vec<HistogramStat>, name: String, buckets: Vec<(u8, u64)>) {
    let Some(hist) = into.iter_mut().find(|h| h.name == name) else {
        into.push(HistogramStat { name, buckets });
        return;
    };
    for (index, count) in buckets {
        match hist.buckets.iter_mut().find(|(i, _)| *i == index) {
            Some(slot) => slot.1 += count,
            None => hist.buckets.push((index, count)),
        }
    }
    hist.buckets.sort_by_key(|&(i, _)| i);
}

/// The `summary` line: total time, profile, counters, gauges and events.
fn read_summary(report: &mut RunReport, record: &Json) {
    let members = |key| {
        record
            .get(key)
            .and_then(Json::as_object)
            .unwrap_or_default()
    };
    let count = |(name, v): &(String, Json)| Some((name.clone(), v.as_f64()? as u64));
    report.total_seconds = float_at(record, "total_s");
    report.profile = record
        .get("profile")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|entry| {
            Some(PhaseStat {
                name: text_at(entry, "phase")?,
                calls: uint_at(entry, "calls"),
                seconds: float_at(entry, "total_s"),
            })
        })
        .collect();
    report.counters = members("counters").iter().filter_map(count).collect();
    report.gauges = members("gauges")
        .iter()
        .filter_map(|(name, v)| Some((name.clone(), float(v)?)))
        .collect();
    report.events = members("events").iter().filter_map(count).collect();
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

    // The reader: `from_jsonl` is the inverse of `to_jsonl`, and lenient
    // about content it did not write.

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
        let run = RunReport::from_jsonl(JSONL).expect("stream parses");
        let meta = |key| run.meta.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        assert_eq!(meta("netlist"), Some(&Value::from("demo")));
        assert_eq!(meta("k"), Some(&Value::Float(0.2)));
        assert_eq!(run.iterations.len(), 2);
        assert_eq!(
            run.iterations[0].get("hpwl").and_then(Value::as_f64),
            Some(100.0)
        );
        assert_eq!(run.iterations[1].iteration(), 2);
        assert_eq!(run.snapshots.len(), 1);
        assert_eq!(run.snapshots[0].kind, "density");
        assert_eq!(run.timeline.len(), 1);
        assert_eq!(
            run.timeline[0].get("action").and_then(Value::as_str),
            Some("rollback")
        );
        assert_eq!(
            run.timeline[0].get("reason").and_then(Value::as_str),
            Some("hpwl explosion")
        );
        // The two flushes of the same histogram merged.
        assert_eq!(run.histograms.len(), 1);
        assert_eq!(run.histograms[0].buckets, vec![(10, 3), (12, 1), (13, 1)]);
        assert_eq!(run.histograms[0].count(), 5);
        // The profile is the summary line's, in its order: it includes
        // legalization, which ran after the last iteration record.
        let names: Vec<&str> = run.profile.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            ["place.solve_x", "legalize.abacus", "place.density_map"]
        );
        assert_eq!(run.profile[0].calls, 2);
        assert!((run.profile[0].seconds - 0.013).abs() < 1e-12);
        // The summary line is no timeline event.
        assert_eq!(run.timeline.len(), 1);
        let last = run.iterations.iter().map(IterationRecord::iteration).max();
        assert_eq!(last, Some(2));
    }

    #[test]
    fn a_stream_without_a_summary_line_has_no_profile() {
        let run = RunReport::from_jsonl(
            "{\"iteration\":1,\"hpwl\":1.0,\"phases\":{\"place.solve_x\":0.5}}",
        )
        .expect("iteration line carries the run");
        assert_eq!(run.iterations.len(), 1);
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
        let run = RunReport::from_jsonl(jsonl).expect("stream parses");
        assert_eq!(run.convergence.len(), 2);
        let cg = &run.convergence[0];
        assert_eq!(cg.solver, "cg");
        assert_eq!(cg.iteration, 1);
        let Some(Value::Array(curve)) = cg.get("residual_trajectory") else {
            panic!("no residual curve: {cg:?}");
        };
        let curve: Vec<f64> = curve.iter().filter_map(Value::as_f64).collect();
        assert_eq!(curve, vec![1.0, 0.5, 0.01]);
        assert_eq!(cg.get("converged"), Some(&Value::Bool(true)));
        assert_eq!(cg.get("iterations").and_then(Value::as_u64), Some(9));
        let multigrid = &run.convergence[1];
        assert!(multigrid
            .fields
            .iter()
            .all(|(_, v)| !matches!(v, Value::Array(_))));
        assert_eq!(multigrid.get("converged"), None);
        assert_eq!(multigrid.get("levels").and_then(Value::as_u64), Some(5));
        assert_eq!(
            run.convergence.iter().filter(|c| c.solver == "cg").count(),
            1
        );
        assert_eq!(run.alloc.len(), 1);
        assert_eq!(run.alloc[0].phase, "place.field_solve");
        assert_eq!(run.alloc[0].peak_bytes, 8192);
        assert_eq!(run.alloc.iter().map(|a| a.peak_bytes).max(), Some(8192));
        assert_eq!(run.utilization.len(), 1);
        assert_eq!(run.utilization[0].span, "place.solve_xy");
        assert_eq!(run.utilization[0].threads, 2);
        assert!((run.utilization[0].efficiency() - 0.9).abs() < 1e-12);
        // None of the typed resource records leak into the timeline.
        assert!(run.timeline.is_empty());
    }

    #[test]
    fn bad_and_empty_inputs_are_typed_errors() {
        let empty = RunReport::from_jsonl("   ").expect("blank input reads");
        assert!(empty.iterations.is_empty());
        let err = RunReport::from_jsonl("{\"iteration\":1,\"phases\":{}}\nnot json")
            .expect_err("malformed line");
        assert!(err.starts_with("line 2: "), "{err}");
        let histogram_only =
            RunReport::from_jsonl("{\"type\":\"histogram\",\"name\":\"only\",\"buckets\":[]}")
                .expect("reads");
        assert!(histogram_only.iterations.is_empty());
        assert_eq!(histogram_only.histograms.len(), 1);
        // An untyped object without a transformation number (a Perfetto
        // export, say) is no iteration record.
        let none = RunReport::from_jsonl("{\"traceEvents\":[]}\n{\"iteration\":-1}");
        assert!(none.expect("reads").iterations.is_empty());
        // A record with a mismatched snapshot payload is dropped, not fatal.
        let run = RunReport::from_jsonl(concat!(
            "{\"iteration\":1,\"hpwl\":1.0,\"phases\":{}}\n",
            "{\"type\":\"snapshot\",\"kind\":\"density\",\"iteration\":1,\"nx\":3,\"ny\":3,\"values\":[1.0]}\n",
        ))
        .expect("iteration line carries the run");
        assert!(run.snapshots.is_empty());
    }

    /// One random event as the placer's sinks see it: iteration records
    /// whose numbers restart, snapshots, watchdog and solver events (before
    /// and after any record, so some trail the last one), resource samples
    /// and awkward numbers (NaN, -0, integral floats, floats past 2^53).
    fn any_event(pick: u64, level_iteration: &mut u64) -> TraceEvent {
        let x = [f64::NAN, -0.0, 3.0, -4.0, 0.1, 1e300][(pick / 11 % 6) as usize];
        let event = |name, fields| TraceEvent::Event { name, fields };
        match pick % 11 {
            0 | 1 => {
                *level_iteration = if pick.is_multiple_of(6) {
                    1
                } else {
                    *level_iteration + 1
                };
                let fields = vec![
                    ("iteration", Value::UInt(*level_iteration)),
                    ("hpwl", Value::Float(x)),
                ];
                event(ITERATION_EVENT, fields)
            }
            2 => TraceEvent::Span {
                name: "a",
                seconds: x,
            },
            3 => TraceEvent::Counter {
                name: "c",
                value: pick,
            },
            4 => TraceEvent::Gauge {
                name: "g",
                value: x,
            },
            5 => TraceEvent::Snapshot {
                kind: crate::SNAPSHOT_CELLS,
                iteration: *level_iteration,
                nx: 2,
                ny: 1,
                values: vec![x, 1.0],
            },
            6 => event(WATCHDOG_EVENT, vec![("reason", Value::from("r\"\n"))]),
            7 => event(
                CONVERGENCE_EVENTS[pick as usize % 2],
                vec![("residuals", Value::from(vec![x, 1.0]))],
            ),
            8 => event(
                ALLOC_EVENT,
                vec![("phase", Value::from("a")), ("allocs", Value::UInt(pick))],
            ),
            9 => event(
                UTILIZATION_EVENT,
                vec![("span", Value::from("b")), ("wall_s", Value::Float(x))],
            ),
            _ => TraceEvent::Histogram {
                name: "h",
                buckets: vec![(pick as u8, pick % 9)],
            },
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]
        #[test]
        fn every_written_stream_reads_back_to_itself(seed in 0u64..u64::MAX) {
            let recorder = RunRecorder::new();
            recorder.set_meta("k", Value::Float(1.0));
            recorder.set_meta("gone", Value::Float(f64::NAN));
            let (mut draw, mut level_iteration) = (seed, 0);
            for _ in 0..seed % 40 {
                draw = draw.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                recorder.event(&any_event(draw >> 33, &mut level_iteration));
            }
            // Only a hand-built report places a timeline event beyond the
            // last record.
            let mut report = recorder.report();
            let late = TimelineEvent { name: "late".to_string(), position: u64::MAX, fields: vec![] };
            report.timeline.push(late);
            let jsonl = report.to_jsonl();
            let items = report.iterations.len() + report.snapshots.len() + report.timeline.len()
                + report.convergence.len() + report.histograms.len() + report.alloc.len()
                + report.utilization.len();
            proptest::prop_assert_eq!(jsonl.lines().count(), items + 2, "meta + items + summary");
            let back = RunReport::from_jsonl(&jsonl).expect("a written stream reads");
            proptest::prop_assert_eq!(back.to_jsonl(), jsonl);
        }
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
