//! # kraftwerk-inspect — run dashboards for placement telemetry
//!
//! Turns the telemetry the placer already writes (the `--trace` JSONL
//! stream, also written per job by the daemon's `--report-dir`) into a
//! **self-contained HTML dashboard**: convergence curves, a
//! flamegraph-style phase breakdown, the watchdog trip/recovery
//! timeline, density/potential heatmaps, and log2-bucket histogram
//! charts — all as inline SVG, no scripts, no network, no dependencies
//! beyond `kraftwerk-trace` for the JSON codec and bucket bounds.
//!
//! ```
//! let jsonl = "{\"iteration\":1,\"hpwl\":42.0,\"phases\":{\"place.solve_x\":0.01}}";
//! let html = kraftwerk_inspect::render_report(jsonl)?;
//! assert!(html.starts_with("<!DOCTYPE html>"));
//! # Ok::<(), kraftwerk_inspect::InspectError>(())
//! ```
//!
//! The CLI front-end is `kraftwerk inspect run.jsonl -o report.html`.
//! Two more renderers share the same [`RunData`] model:
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
mod model;
mod perfetto;
mod service;
mod svg;

pub use compare::render_comparison;
pub use html::render;
pub use model::{
    parse_run, AllocPoint, ConvergenceTrace, HistogramData, InspectError, IterationPoint,
    PhaseCost, RunData, SnapshotGrid, TimelinePoint, UtilizationPoint,
};
pub use perfetto::render_perfetto;
pub use service::{parse_service, render_service, ServiceData, ServiceJob, ServiceSample};
pub use svg::{
    empty_chart, esc, fmt_value, heatmap, histogram_chart, line_chart, phase_breakdown, scatter,
    timeline_strip, PhaseSlice, Series, TimelineMark, CHART_H, CHART_W,
};

/// Parses a `--trace` JSONL stream and renders the full dashboard.
///
/// # Errors
///
/// Propagates [`InspectError`] from [`parse_run`]: malformed JSON or an
/// input with no iteration records.
pub fn render_report(text: &str) -> Result<String, InspectError> {
    Ok(render(&parse_run(text)?))
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
        assert!(render_report("garbage").is_err());
    }
}
