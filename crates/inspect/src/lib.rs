//! # kraftwerk-inspect — run dashboards for placement telemetry
//!
//! Turns the telemetry the placer already writes (the `--trace` JSONL
//! stream, also written per job by the daemon's `--report-dir`) into a
//! **self-contained HTML dashboard**: convergence curves, a
//! flamegraph-style phase breakdown, the watchdog trip/recovery
//! timeline, density/potential heatmaps, and log2-bucket histogram
//! charts — all as inline SVG, no scripts, no network, no dependencies
//! beyond `kraftwerk-trace`.
//!
//! ```
//! let jsonl = "{\"iteration\":1,\"hpwl\":42.0,\"phases\":{\"place.solve_x\":0.01}}";
//! let html = kraftwerk_inspect::render_report(jsonl)?;
//! assert!(html.starts_with("<!DOCTYPE html>"));
//! # Ok::<(), kraftwerk_inspect::InspectError>(())
//! ```
//!
//! There is one run model, and it lives in `kraftwerk-trace`: the
//! stream's writer ([`RunReport::to_jsonl`]) and its reader
//! ([`RunReport::from_jsonl`]) sit side by side there, and this crate only
//! renders. The CLI front-end is `kraftwerk inspect run.jsonl -o
//! report.html`. Two more renderers take the same [`RunReport`]:
//! [`render_perfetto`] exports a Chrome trace-event JSON document that
//! loads in Perfetto (`kraftwerk inspect run.jsonl --perfetto
//! trace.json`), and [`render_comparison`] overlays several runs —
//! convergence curves, phase deltas, peak memory, parallel efficiency —
//! in one document (`kraftwerk inspect a.jsonl b.jsonl -o cmp.html`).
//! A fourth renderer, [`render_service`], takes service telemetry
//! instead of solver telemetry — `loadgen --latency-out` job records or
//! a scraped `/metrics` snapshot — and renders the deployment view
//! (`kraftwerk inspect --service jobs.jsonl`).
//!
//! Like the rest of the pipeline, this crate is panic-free on arbitrary
//! input: malformed telemetry becomes a typed [`InspectError`], partial
//! telemetry renders a partial dashboard with placeholders.

mod compare;
mod html;
mod perfetto;
mod service;
mod svg;

pub use compare::render_comparison;
pub use html::render;
pub use perfetto::render_perfetto;
pub use service::{parse_service, render_service, ServiceData, ServiceJob, ServiceSample};
pub use svg::{
    empty_chart, esc, fmt_value, heatmap, histogram_chart, line_chart, phase_breakdown, scatter,
    timeline_strip, PhaseSlice, Series, TimelineMark, CHART_H, CHART_W,
};

use kraftwerk_trace::{IterationRecord, RunReport, Value};

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

/// Reads a `--trace` JSONL stream for rendering.
///
/// # Errors
///
/// [`InspectError::Parse`] when a line is not valid JSON,
/// [`InspectError::Empty`] when the stream has no iteration record.
pub fn read_run(text: &str) -> Result<RunReport, InspectError> {
    let run = RunReport::from_jsonl(text).map_err(InspectError::Parse)?;
    if run.iterations.is_empty() {
        return Err(InspectError::Empty);
    }
    Ok(run)
}

/// Reads a `--trace` JSONL stream and renders the full dashboard.
///
/// # Errors
///
/// Propagates [`InspectError`] from [`read_run`]: malformed JSON or an
/// input with no iteration records.
pub fn render_report(text: &str) -> Result<String, InspectError> {
    Ok(render(&read_run(text)?))
}

/// A numeric field as a chart value: booleans and `null` (read back as
/// NaN) are not plotted.
fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Bool(_) => None,
        other => other.as_f64().filter(|v| !v.is_nan()),
    }
}

/// One per-transformation metric (`hpwl`, `peak_density`, …) of a record.
fn metric(record: &IterationRecord, key: &str) -> Option<f64> {
    record.get(key).and_then(number)
}

/// A field value as table text: strings bare, lists elided, every other
/// value as its JSON encoding.
fn display(value: &Value) -> String {
    match value {
        Value::Str(s) => s.clone(),
        Value::Array(_) => "[…]".to_string(),
        scalar => {
            let mut out = String::new();
            scalar.write_json(&mut out);
            out
        }
    }
}

/// The first value of a run metadata key, as table text.
fn meta_text(run: &RunReport, key: &str) -> Option<String> {
    run.meta
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| display(v))
}

/// The last transformation number the run mentions, in its records or
/// its timeline events.
fn last_iteration(run: &RunReport) -> u64 {
    let events = run
        .timeline
        .iter()
        .filter_map(|t| t.get("iteration")?.as_u64());
    run.iterations
        .iter()
        .map(IterationRecord::iteration)
        .chain(events)
        .max()
        .unwrap_or(0)
}

/// A solve's residual curve: the first list field with a number in it.
fn curve(fields: &[(String, Value)]) -> Vec<f64> {
    fields
        .iter()
        .filter_map(|(_, value)| match value {
            Value::Array(items) => Some(items.iter().filter_map(number).collect::<Vec<_>>()),
            _ => None,
        })
        .find(|curve| !curve.is_empty())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_report_end_to_end() {
        let html = render_report(
            "{\"iteration\":1,\"hpwl\":10.0,\"phases\":{\"place.solve_x\":0.5}}\n",
        )
        .expect("valid stream renders");
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</html>"));
        assert!(matches!(
            render_report("garbage"),
            Err(InspectError::Parse(_))
        ));
        assert!(matches!(read_run("   "), Err(InspectError::Empty)));
        assert!(matches!(
            read_run("{\"type\":\"histogram\",\"name\":\"only\",\"buckets\":[]}"),
            Err(InspectError::Empty)
        ));
        assert!(matches!(
            read_run("{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"),
            Err(InspectError::Empty)
        ));
    }

    #[test]
    fn table_text_matches_the_stream() {
        let run = read_run(concat!(
            "{\"type\":\"meta\",\"netlist\":\"demo\",\"k\":0.2,\"cells\":150,",
            "\"neg\":-0,\"flag\":true,\"gone\":null,\"list\":[1,2]}\n",
            "{\"iteration\":3,\"hpwl\":null,\"cg_iterations\":40,\"phases\":{}}\n",
            "{\"type\":\"watchdog\",\"iteration\":7,\"action\":\"rollback\"}\n",
        ))
        .expect("stream reads");
        let texts: Vec<String> = run.meta.iter().map(|(_, v)| display(v)).collect();
        assert_eq!(texts, ["demo", "0.2", "150", "-0", "true", "null", "[…]"]);
        assert_eq!(meta_text(&run, "k").as_deref(), Some("0.2"));
        assert_eq!(metric(&run.iterations[0], "hpwl"), None, "null is no point");
        assert_eq!(metric(&run.iterations[0], "cg_iterations"), Some(40.0));
        assert_eq!(last_iteration(&run), 7);
        let fields = [
            (
                "empty".to_string(),
                Value::Array(vec![Value::Float(f64::NAN)]),
            ),
            ("residuals".to_string(), Value::from(vec![1.0, 0.5])),
        ];
        assert_eq!(curve(&fields), [1.0, 0.5]);
    }
}
