//! Chrome trace-event export (loads in Perfetto / `chrome://tracing`).
//!
//! The placer's telemetry records durations, not wall-clock instants, so
//! this exporter *synthesizes* a deterministic timeline: transformation
//! `n` starts where transformation `n-1` ended, and the phases inside a
//! transformation are laid out back-to-back from its start. The span
//! tree (process → placement track → phase track) therefore mirrors the
//! JSONL report exactly, and two exports of the same report are
//! byte-identical — timestamps carry no machine noise.
//!
//! Track layout:
//!
//! * tid 1 `placement` — one complete (`X`) event per transformation.
//! * tid 2 `phases` — the per-phase spans inside each transformation.
//! * tid 3 `solvers` — instant events for retained convergence records,
//!   pinned to the start of the transformation they ran inside.
//! * tid 4 `resources` — instant events for per-phase heap accounting
//!   and per-span pool utilization (run-level aggregates).
//! * counter tracks — `hpwl`, `peak density`, `cg iterations` sampled at
//!   each transformation start.

use crate::{curve, meta_text, metric, number};
use kraftwerk_trace::json::JsonObject;
use kraftwerk_trace::{RunReport, Value};

/// Process id for every emitted event (one process per report).
const PID: u64 = 1;

/// Microseconds per second (trace-event timestamps are µs).
const US: f64 = 1e6;

/// One trace event under construction.
fn event(name: &str, ph: &str, tid: u64, ts_us: f64) -> JsonObject {
    let mut o = JsonObject::new();
    o.str_field("name", name);
    o.str_field("ph", ph);
    o.u64_field("pid", PID);
    o.u64_field("tid", tid);
    o.f64_field("ts", ts_us);
    o
}

/// Metadata event naming a process or thread track.
fn metadata(kind: &str, tid: Option<u64>, name: &str) -> String {
    let mut o = JsonObject::new();
    o.str_field("name", kind);
    o.str_field("ph", "M");
    o.u64_field("pid", PID);
    if let Some(tid) = tid {
        o.u64_field("tid", tid);
    }
    let mut args = JsonObject::new();
    args.str_field("name", name);
    o.raw_field("args", &args.finish());
    o.finish()
}

/// Counter sample on its own counter track.
fn counter(name: &str, ts_us: f64, value: f64) -> String {
    let mut o = event(name, "C", 0, ts_us);
    let mut args = JsonObject::new();
    args.f64_field("value", value);
    o.raw_field("args", &args.finish());
    o.finish()
}

/// Renders a run as a Chrome trace-event JSON document:
/// `{"traceEvents":[...],"displayTimeUnit":"ms"}`.
#[must_use]
pub fn render_perfetto(run: &RunReport) -> String {
    let mut events: Vec<String> = Vec::new();
    let netlist = meta_text(run, "netlist").unwrap_or_else(|| "run".to_string());
    events.push(metadata("process_name", None, &format!("kraftwerk {netlist}")));
    events.push(metadata("thread_name", Some(1), "placement"));
    events.push(metadata("thread_name", Some(2), "phases"));
    if !run.convergence.is_empty() {
        events.push(metadata("thread_name", Some(3), "solvers"));
    }
    if !run.alloc.is_empty() || !run.utilization.is_empty() {
        events.push(metadata("thread_name", Some(4), "resources"));
    }

    // Synthesized clock: each transformation starts where the previous
    // one ended. `starts[k]` is the start of the record at position
    // `k + 1`, so each solver instant is pinned inside the transformation
    // its record position names — also in a multilevel stream, whose
    // levels restart the records' iteration numbers.
    let mut clock_us = 0.0f64;
    let mut starts: Vec<f64> = Vec::new();
    for point in &run.iterations {
        let phase_sum: f64 = point.phases.iter().map(|(_, s)| s.max(0.0)).sum();
        let wall_us = metric(point, "wall_s").unwrap_or(phase_sum).max(0.0) * US;
        let iteration = point.iteration();
        starts.push(clock_us);

        let mut span = event(&format!("iteration {iteration}"), "X", 1, clock_us);
        span.f64_field("dur", wall_us);
        let mut args = JsonObject::new();
        for key in ["hpwl", "peak_density", "cg_iterations", "max_displacement"] {
            if let Some(v) = metric(point, key) {
                args.f64_field(key, v);
            }
        }
        span.raw_field("args", &args.finish());
        events.push(span.finish());

        let mut phase_clock = clock_us;
        for (name, seconds) in &point.phases {
            let dur_us = seconds.max(0.0) * US;
            let mut phase = event(name, "X", 2, phase_clock);
            phase.f64_field("dur", dur_us);
            events.push(phase.finish());
            phase_clock += dur_us;
        }
        for (name, key) in [
            ("hpwl", "hpwl"),
            ("peak density", "peak_density"),
            ("cg iterations", "cg_iterations"),
        ] {
            if let Some(v) = metric(point, key) {
                events.push(counter(name, clock_us, v));
            }
        }
        // A transformation occupies at least the span of its phases even
        // when `wall_s` was not recorded or under-reports them.
        clock_us += wall_us.max(phase_clock - clock_us);
    }

    for trace in &run.convergence {
        let ts = usize::try_from(trace.iteration)
            .ok()
            .and_then(|position| starts.get(position.checked_sub(1)?))
            .map_or(clock_us, |&t| t);
        let mut o = event(&format!("{}.solve", trace.solver), "i", 3, ts);
        o.str_field("s", "t");
        let mut args = JsonObject::new();
        args.u64_field("iteration", trace.iteration);
        for (key, value) in trace.fields.iter().filter(|(key, _)| key != "converged") {
            if let Some(v) = number(value) {
                args.f64_field(key, v);
            }
        }
        let converged = match trace.get("converged") {
            Some(Value::Bool(b)) => Some(*b),
            other => other.and_then(number).map(|v| v != 0.0),
        };
        if let Some(converged) = converged {
            args.bool_field("converged", converged);
        }
        let curve = curve(&trace.fields);
        if let (Some(first), Some(last)) = (curve.first(), curve.last()) {
            args.u64_field("curve_points", curve.len() as u64);
            args.f64_field("curve_first", *first);
            args.f64_field("curve_last", *last);
        }
        o.raw_field("args", &args.finish());
        events.push(o.finish());
    }

    for stat in &run.alloc {
        let mut o = event(&format!("alloc {}", stat.phase), "i", 4, 0.0);
        o.str_field("s", "t");
        let mut args = JsonObject::new();
        args.u64_field("samples", stat.samples);
        args.u64_field("allocs", stat.allocs);
        args.u64_field("deallocs", stat.deallocs);
        args.u64_field("bytes", stat.bytes);
        args.u64_field("peak_bytes", stat.peak_bytes);
        o.raw_field("args", &args.finish());
        events.push(o.finish());
    }
    for stat in &run.utilization {
        let mut o = event(&format!("utilization {}", stat.span), "i", 4, 0.0);
        o.str_field("s", "t");
        let mut args = JsonObject::new();
        args.u64_field("samples", stat.samples);
        args.f64_field("wall_s", stat.wall_seconds);
        args.f64_field("busy_s", stat.busy_seconds);
        args.u64_field("chunks", stat.chunks);
        args.u64_field("threads", stat.threads);
        args.f64_field("efficiency", stat.efficiency());
        o.raw_field("args", &args.finish());
        events.push(o.finish());
    }

    let mut out = String::with_capacity(events.iter().map(String::len).sum::<usize>() + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(e);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read_run;
    use kraftwerk_trace::json::{self, Json};

    const JSONL: &str = concat!(
        "{\"type\":\"meta\",\"netlist\":\"demo\",\"mode\":\"fast\"}\n",
        "{\"iteration\":1,\"hpwl\":100.0,\"peak_density\":2.5,\"cg_iterations\":40,",
        "\"wall_s\":0.01,\"phases\":{\"place.solve_x\":0.004,\"place.density_map\":0.001}}\n",
        "{\"type\":\"convergence\",\"solver\":\"cg\",\"iteration\":1,\"dim\":64,",
        "\"iterations\":12,\"residual\":1e-9,\"converged\":true,",
        "\"residual_trajectory\":[1.0,0.1,0.001]}\n",
        "{\"iteration\":2,\"hpwl\":90.0,\"wall_s\":0.02,\"phases\":{\"place.solve_x\":0.009}}\n",
        "{\"type\":\"alloc\",\"phase\":\"place.solve_xy\",\"samples\":2,\"allocs\":0,",
        "\"deallocs\":0,\"bytes\":0,\"peak_bytes\":4096}\n",
        "{\"type\":\"utilization\",\"span\":\"place.field_solve\",\"samples\":2,",
        "\"wall_s\":0.01,\"busy_s\":0.018,\"chunks\":16,\"threads\":2,\"efficiency\":0.9}\n",
    );

    fn events(doc: &Json) -> Vec<Json> {
        doc.get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array")
            .to_vec()
    }

    #[test]
    fn export_is_valid_json_with_the_expected_span_tree() {
        let run = read_run(JSONL).expect("stream parses");
        let trace = render_perfetto(&run);
        let doc = json::parse(&trace).expect("export is valid JSON");
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
        let events = events(&doc);
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.contains(&"iteration 1"));
        assert!(names.contains(&"iteration 2"));
        assert!(names.contains(&"place.solve_x"));
        assert!(names.contains(&"cg.solve"));
        assert!(names.contains(&"alloc place.solve_xy"));
        assert!(names.contains(&"utilization place.field_solve"));
        assert!(names.contains(&"hpwl"));
        // One complete event per transformation, with durations in µs.
        let spans: Vec<&Json> = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Json::as_str) == Some("X")
                    && e.get("tid").and_then(Json::as_f64) == Some(1.0)
            })
            .collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("ts").and_then(Json::as_f64), Some(0.0));
        assert_eq!(spans[0].get("dur").and_then(Json::as_f64), Some(10_000.0));
        // Iteration 2 starts where iteration 1 ended.
        assert_eq!(spans[1].get("ts").and_then(Json::as_f64), Some(10_000.0));
        // The solver instant is pinned inside transformation 1.
        let solve = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("cg.solve"))
            .expect("solver instant present");
        assert_eq!(solve.get("ts").and_then(Json::as_f64), Some(0.0));
        let args = solve.get("args").expect("solver args");
        assert_eq!(args.get("iterations").and_then(Json::as_f64), Some(12.0));
        assert_eq!(args.get("curve_points").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn export_is_deterministic() {
        let run = read_run(JSONL).expect("stream parses");
        assert_eq!(render_perfetto(&run), render_perfetto(&run));
    }

    #[test]
    fn missing_wall_clock_falls_back_to_the_phase_sum() {
        let run = read_run(concat!(
            "{\"iteration\":1,\"phases\":{\"a\":0.5,\"b\":0.25}}\n",
            "{\"iteration\":2,\"phases\":{}}\n",
        ))
        .expect("stream parses");
        let trace = render_perfetto(&run);
        let doc = json::parse(&trace).expect("valid JSON");
        let events = events(&doc);
        let second = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("iteration 2"))
            .expect("second span");
        assert_eq!(
            second.get("ts").and_then(Json::as_f64),
            Some(750_000.0),
            "iteration 2 starts after a+b"
        );
    }
}
