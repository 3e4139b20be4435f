//! Service dashboard: the deployment-level view of the placement daemon.
//!
//! Two input shapes share one renderer:
//!
//! - **Per-job records** — the JSONL stream `loadgen --latency-out`
//!   writes (one `{"type":"job",...}` object per completed job with
//!   trace id, end-to-end latency, server wall time, queue depth at
//!   admission, and outcome). This yields the full dashboard: latency
//!   percentile curves, queue-depth and throughput timelines, and
//!   per-outcome breakdowns.
//! - **A scraped metrics snapshot** — the Prometheus text exposition
//!   from the daemon's `/metrics` sidecar, saved to a file. This yields
//!   the server-side SLO histograms (queue wait, solve wall) with
//!   estimated p50/p90/p99 and a table of every counter and gauge.
//!
//! [`parse_service`] sniffs the shape (JSON object lines vs exposition
//! lines), so the CLI needs only one flag: `kraftwerk inspect --service
//! <file>`.

use kraftwerk_trace::json::{parse, Json};
use kraftwerk_trace::{bucket_index, estimate_percentile, HistogramStat};

use crate::html::section;
use crate::svg::{
    self, empty_chart, fmt_value, histogram_chart, line_chart, Series,
};
use crate::InspectError;

/// One completed job as recorded by `loadgen --latency-out`.
#[derive(Debug, Clone)]
pub struct ServiceJob {
    /// Job id.
    pub id: String,
    /// Client-supplied trace id, when recorded.
    pub trace_id: Option<String>,
    /// Concurrency level the job ran under.
    pub concurrency: u64,
    /// Terminal status (`ok`/`degraded`/`error`/`busy`).
    pub status: String,
    /// End-to-end client latency, milliseconds.
    pub latency_ms: f64,
    /// Daemon-reported job wall time, milliseconds.
    pub server_wall_ms: f64,
    /// Final HPWL (NaN for error outcomes).
    pub hpwl: f64,
    /// Busy rejections absorbed before the job was admitted.
    pub busy_retries: u64,
    /// Queue depth reported by the `queued` ack, when recorded.
    pub queue_depth: Option<f64>,
    /// Submission time, milliseconds from the load run's start.
    pub start_ms: f64,
    /// Completion time, milliseconds from the load run's start.
    pub end_ms: f64,
}

/// One counter or gauge sample from a scraped metrics snapshot.
#[derive(Debug, Clone)]
pub struct ServiceSample {
    /// Series name with its label set, as exposed (`name{k="v"}`).
    pub series: String,
    /// Sample value.
    pub value: f64,
}

/// Parsed service telemetry: per-job records, a metrics snapshot, or
/// both (concatenated inputs).
#[derive(Debug, Clone, Default)]
pub struct ServiceData {
    /// Completed jobs (empty for snapshot-only input).
    pub jobs: Vec<ServiceJob>,
    /// Snapshot histograms, sparse log2 buckets (empty for job input).
    pub histograms: Vec<HistogramStat>,
    /// Snapshot counters and gauges (empty for job input).
    pub samples: Vec<ServiceSample>,
}

/// Parses service telemetry, accepting either the `loadgen
/// --latency-out` JSONL stream or a saved `/metrics` exposition.
///
/// # Errors
///
/// [`InspectError::Parse`] when a JSON line is malformed;
/// [`InspectError::Empty`] when nothing renderable was found.
pub fn parse_service(text: &str) -> Result<ServiceData, InspectError> {
    let mut data = ServiceData::default();
    // Histogram accumulation: (series key, (bucket, cumulative count)).
    let mut hist: Vec<(String, Vec<(u8, u64)>)> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('{') {
            let record = parse(line).map_err(InspectError::Parse)?;
            if record.get("type").and_then(Json::as_str) == Some("job") {
                data.jobs.push(parse_job(&record));
            }
        } else {
            parse_exposition_line(line, &mut hist, &mut data.samples);
        }
    }
    for (name, mut cumulative) in hist {
        cumulative.sort_by_key(|&(bucket, _)| bucket);
        let mut buckets = Vec::new();
        let mut previous = 0u64;
        for (bucket, count) in cumulative {
            let delta = count.saturating_sub(previous);
            previous = count;
            if delta > 0 {
                buckets.push((bucket, delta));
            }
        }
        if !buckets.is_empty() {
            data.histograms.push(HistogramStat { name, buckets });
        }
    }
    if data.jobs.is_empty() && data.histograms.is_empty() && data.samples.is_empty() {
        return Err(InspectError::Empty);
    }
    Ok(data)
}

/// Extracts one job record; absent numeric fields become NaN so partial
/// records still render.
fn parse_job(record: &Json) -> ServiceJob {
    let num = |k: &str| record.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let text = |k: &str| record.get(k).and_then(Json::as_str).map(str::to_string);
    ServiceJob {
        id: text("id").unwrap_or_default(),
        trace_id: text("trace_id"),
        concurrency: num("concurrency").max(0.0) as u64,
        status: text("status").unwrap_or_else(|| "?".to_string()),
        latency_ms: num("latency_ms"),
        server_wall_ms: num("server_wall_ms"),
        hpwl: num("hpwl"),
        busy_retries: num("busy_retries").max(0.0) as u64,
        queue_depth: record.get("queue_depth").and_then(Json::as_f64),
        start_ms: num("start_ms"),
        end_ms: num("end_ms"),
    }
}

/// Parses one Prometheus sample line (`name{labels} value`). Histogram
/// `_bucket` series accumulate per-family cumulative counts; their
/// `_sum`/`_count` companions and every other series land in the
/// samples table. Unparseable lines are skipped — a scrape is allowed
/// to contain series this tool does not chart.
fn parse_exposition_line(
    line: &str,
    hist: &mut Vec<(String, Vec<(u8, u64)>)>,
    samples: &mut Vec<ServiceSample>,
) {
    let Some(split) = line.rfind(|c: char| c.is_whitespace()) else {
        return;
    };
    let (series, value_text) = line.split_at(split);
    let series = series.trim();
    let Some(value) = parse_prom_value(value_text.trim()) else {
        return;
    };
    if let Some((family, le)) = bucket_series(series) {
        let bucket = if le.is_finite() {
            // `le` is a bucket's inclusive upper bound, i.e. the lower
            // bound of the next bucket.
            bucket_index(le).saturating_sub(1) as u8
        } else {
            (kraftwerk_trace::HISTOGRAM_BUCKETS - 1) as u8
        };
        let count = value.max(0.0) as u64;
        if let Some((_, buckets)) = hist.iter_mut().find(|(name, _)| *name == family) {
            buckets.push((bucket, count));
        } else {
            hist.push((family, vec![(bucket, count)]));
        }
    } else {
        samples.push(ServiceSample {
            series: series.to_string(),
            value,
        });
    }
}

/// Splits a `_bucket` series into its family name and `le` bound.
fn bucket_series(series: &str) -> Option<(String, f64)> {
    let open = series.find('{')?;
    let name = &series[..open];
    let family = name.strip_suffix("_bucket")?;
    let labels = series[open + 1..].strip_suffix('}')?;
    let le = labels.split(',').find_map(|label| {
        let (key, val) = label.split_once('=')?;
        (key.trim() == "le").then(|| val.trim().trim_matches('"').to_string())
    })?;
    Some((family.to_string(), parse_prom_value(&le)?))
}

/// Parses a Prometheus float (accepts `+Inf`/`-Inf`/`NaN`).
fn parse_prom_value(text: &str) -> Option<f64> {
    match text {
        "+Inf" | "Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        other => other.parse().ok(),
    }
}

/// Exact quantile of a sorted sample set (nearest-rank interpolation).
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = (rank.ceil() as usize).min(sorted.len() - 1);
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Renders the service dashboard document.
#[must_use]
pub fn render_service(data: &ServiceData) -> String {
    let mut out = String::with_capacity(64 * 1024);
    out.push_str("<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">");
    out.push_str("<title>kraftwerk service dashboard</title><style>");
    out.push_str(crate::html::STYLE);
    out.push_str("</style></head><body>");
    out.push_str(&format!(
        "<header><h1>kraftwerk service dashboard</h1>\
         <p>{} job record(s) · {} snapshot histogram(s) · {} snapshot series</p></header>",
        data.jobs.len(),
        data.histograms.len(),
        data.samples.len()
    ));
    out.push_str(
        "<nav><a href=\"#latency\">Latency</a>\
         <a href=\"#timelines\">Timelines</a>\
         <a href=\"#outcomes\">Outcomes</a>\
         <a href=\"#slo\">Server SLO histograms</a>\
         <a href=\"#series\">Metric series</a></nav>",
    );
    section(&mut out, "latency", "Latency percentiles", &latency_section(data));
    section(&mut out, "timelines", "Queue depth and throughput", &timeline_section(data));
    section(&mut out, "outcomes", "Outcome breakdown", &outcome_section(data));
    section(&mut out, "slo", "Server SLO histograms", &slo_section(data));
    section(&mut out, "series", "Metric series", &series_section(data));
    out.push_str("</body></html>");
    out
}

/// Latency percentile curves: per concurrency level, end-to-end client
/// latency and daemon wall time against percentile rank.
fn latency_section(data: &ServiceData) -> String {
    if data.jobs.is_empty() {
        return empty_chart("chart-latency", "Latency percentiles", "no job records");
    }
    let levels = concurrency_levels(data);
    const COLORS: [&str; 6] = ["#2563eb", "#dc2626", "#059669", "#7c3aed", "#d97706", "#0891b2"];
    let curve = |values: &mut Vec<f64>| -> Vec<(f64, f64)> {
        values.sort_by(|a, b| a.total_cmp(b));
        (0..=100)
            .map(|p| (p as f64, exact_quantile(values, p as f64 / 100.0)))
            .collect()
    };
    let mut labels: Vec<String> = Vec::new();
    let mut points: Vec<Vec<(f64, f64)>> = Vec::new();
    for &level in &levels {
        let mut latencies: Vec<f64> = data
            .jobs
            .iter()
            .filter(|j| j.concurrency == level && j.latency_ms.is_finite())
            .map(|j| j.latency_ms)
            .collect();
        if latencies.is_empty() {
            continue;
        }
        labels.push(format!("{level} client(s)"));
        points.push(curve(&mut latencies));
    }
    let series: Vec<Series<'_>> = labels
        .iter()
        .zip(&points)
        .enumerate()
        .map(|(i, (label, pts))| Series {
            label,
            color: COLORS[i % COLORS.len()],
            points: pts.clone(),
        })
        .collect();
    let mut out = line_chart(
        "chart-latency",
        "End-to-end latency by percentile (ms, log scale)",
        &series,
        true,
    );
    let mut walls: Vec<f64> = data
        .jobs
        .iter()
        .filter(|j| j.server_wall_ms.is_finite())
        .map(|j| j.server_wall_ms)
        .collect();
    if !walls.is_empty() {
        out.push_str(&line_chart(
            "chart-server-wall",
            "Daemon wall time by percentile (ms, log scale)",
            &[Series {
                label: "server wall",
                color: "#64748b",
                points: curve(&mut walls),
            }],
            true,
        ));
    }
    out
}

/// Distinct concurrency levels, ascending.
fn concurrency_levels(data: &ServiceData) -> Vec<u64> {
    let mut levels: Vec<u64> = data.jobs.iter().map(|j| j.concurrency).collect();
    levels.sort_unstable();
    levels.dedup();
    levels
}

/// Queue-depth-at-admission and completion-throughput timelines.
fn timeline_section(data: &ServiceData) -> String {
    if data.jobs.is_empty() {
        return empty_chart("chart-queue", "Timelines", "no job records");
    }
    let mut out = String::new();
    let mut depth: Vec<(f64, f64)> = data
        .jobs
        .iter()
        .filter_map(|j| j.queue_depth.map(|d| (j.start_ms, d)))
        .filter(|&(x, _)| x.is_finite())
        .collect();
    depth.sort_by(|a, b| a.0.total_cmp(&b.0));
    if depth.is_empty() {
        out.push_str(&empty_chart(
            "chart-queue",
            "Queue depth at admission",
            "no queue_depth fields recorded",
        ));
    } else {
        out.push_str(&line_chart(
            "chart-queue",
            "Queue depth at admission over time (ms)",
            &[Series { label: "queue depth", color: "#dc2626", points: depth }],
            false,
        ));
    }
    // Completions per second, bucketed on the end_ms axis.
    let mut ends: Vec<f64> = data
        .jobs
        .iter()
        .map(|j| j.end_ms)
        .filter(|v| v.is_finite())
        .collect();
    ends.sort_by(|a, b| a.total_cmp(b));
    if let (Some(&first), Some(&last)) = (ends.first(), ends.last()) {
        let span_s = ((last - first) / 1e3).max(1e-9);
        let buckets = (span_s.ceil() as usize).clamp(1, 300);
        let width_ms = (last - first).max(1e-9) / buckets as f64;
        let mut counts = vec![0u64; buckets];
        for &end in &ends {
            let i = (((end - first) / width_ms) as usize).min(buckets - 1);
            counts[i] += 1;
        }
        let points: Vec<(f64, f64)> = counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                (
                    (first + (i as f64 + 0.5) * width_ms) / 1e3,
                    c as f64 / (width_ms / 1e3),
                )
            })
            .collect();
        out.push_str(&line_chart(
            "chart-throughput",
            "Completion throughput (jobs/s over time, s)",
            &[Series { label: "jobs/s", color: "#059669", points }],
            false,
        ));
    }
    out
}

/// Outcome table: per status — count, share, latency p50/p99, busy
/// retries.
fn outcome_section(data: &ServiceData) -> String {
    if data.jobs.is_empty() {
        return "<p class=\"cn\">no job records</p>".to_string();
    }
    let mut statuses: Vec<String> = data.jobs.iter().map(|j| j.status.clone()).collect();
    statuses.sort();
    statuses.dedup();
    let total = data.jobs.len();
    let mut rows = String::from(
        "<table><thead><tr><th>status</th><th>jobs</th><th>share</th>\
         <th>p50 ms</th><th>p99 ms</th><th>busy retries</th></tr></thead><tbody>",
    );
    for status in &statuses {
        let jobs: Vec<&ServiceJob> = data.jobs.iter().filter(|j| &j.status == status).collect();
        let mut lat: Vec<f64> = jobs
            .iter()
            .map(|j| j.latency_ms)
            .filter(|v| v.is_finite())
            .collect();
        lat.sort_by(|a, b| a.total_cmp(b));
        let busy: u64 = jobs.iter().map(|j| j.busy_retries).sum();
        rows.push_str(&format!(
            "<tr><th>{}</th><td>{}</td><td>{:.1}%</td><td>{}</td><td>{}</td>\
             <td>{}</td></tr>",
            svg::esc(status),
            jobs.len(),
            100.0 * jobs.len() as f64 / total as f64,
            fmt_value(exact_quantile(&lat, 0.50)),
            fmt_value(exact_quantile(&lat, 0.99)),
            busy
        ));
    }
    rows.push_str("</tbody></table>");
    rows
}

/// Snapshot histograms with estimated percentiles.
fn slo_section(data: &ServiceData) -> String {
    if data.histograms.is_empty() {
        return "<p class=\"cn\">no metrics snapshot histograms (scrape /metrics and pass the \
                saved file to see queue-wait and solve-wall SLOs)</p>"
            .to_string();
    }
    let mut out = String::new();
    for (i, h) in data.histograms.iter().enumerate() {
        let p = |q: f64| fmt_value(estimate_percentile(&h.buckets, q));
        out.push_str(&format!(
            "<p class=\"cn\">{}: p50≈{} · p90≈{} · p99≈{} (log2-bucket estimates)</p>",
            svg::esc(&h.name),
            p(0.50),
            p(0.90),
            p(0.99)
        ));
        out.push_str(&histogram_chart(
            &format!("hist-service-{i}"),
            &h.name,
            &h.buckets,
            "#2563eb",
        ));
    }
    out
}

/// Every scraped counter/gauge sample, as exposed.
fn series_section(data: &ServiceData) -> String {
    if data.samples.is_empty() {
        return "<p class=\"cn\">no metrics snapshot series</p>".to_string();
    }
    let mut rows = String::from("<table><thead><tr><th>series</th><th>value</th></tr></thead><tbody>");
    for s in &data.samples {
        rows.push_str(&format!(
            "<tr><th>{}</th><td>{}</td></tr>",
            svg::esc(&s.series),
            fmt_value(s.value)
        ));
    }
    rows.push_str("</tbody></table>");
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job_line(id: &str, status: &str, latency: f64, start: f64) -> String {
        format!(
            "{{\"type\":\"job\",\"id\":\"{id}\",\"trace_id\":\"t-{id}\",\"client\":0,\
             \"concurrency\":2,\"status\":\"{status}\",\"latency_ms\":{latency},\
             \"server_wall_ms\":{w},\"hpwl\":10.0,\"busy_retries\":1,\
             \"queue_depth\":3,\"start_ms\":{start},\"end_ms\":{end}}}",
            w = latency * 0.8,
            end = start + latency
        )
    }

    #[test]
    fn job_records_parse_and_render() {
        let text = format!(
            "{}\n{}\n{}\n",
            job_line("a", "ok", 100.0, 0.0),
            job_line("b", "degraded", 400.0, 50.0),
            job_line("c", "ok", 150.0, 2500.0)
        );
        let data = parse_service(&text).expect("job stream parses");
        assert_eq!(data.jobs.len(), 3);
        assert_eq!(data.jobs[0].trace_id.as_deref(), Some("t-a"));
        assert_eq!(data.jobs[0].queue_depth, Some(3.0));
        let html = render_service(&data);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</html>"));
        assert!(html.contains("chart-latency"));
        assert!(html.contains("chart-throughput"));
        assert!(html.contains("degraded"));
    }

    #[test]
    fn prometheus_snapshot_round_trips_buckets() {
        // A 3-bucket histogram rendered the way `to_prometheus` does:
        // cumulative counts keyed by each bucket's upper bound.
        let (_, hi8) = kraftwerk_trace::bucket_bounds(8);
        let (_, hi9) = kraftwerk_trace::bucket_bounds(9);
        let text = format!(
            "# HELP kraftwerk_solve_wall_seconds Per-job wall.\n\
             # TYPE kraftwerk_solve_wall_seconds histogram\n\
             kraftwerk_solve_wall_seconds_bucket{{le=\"{hi8}\"}} 2\n\
             kraftwerk_solve_wall_seconds_bucket{{le=\"{hi9}\"}} 5\n\
             kraftwerk_solve_wall_seconds_bucket{{le=\"+Inf\"}} 6\n\
             kraftwerk_solve_wall_seconds_sum 1.5\n\
             kraftwerk_solve_wall_seconds_count 6\n\
             kraftwerk_jobs_total{{outcome=\"ok\"}} 5\n\
             kraftwerk_queue_depth 0\n"
        );
        let data = parse_service(&text).expect("snapshot parses");
        assert_eq!(data.histograms.len(), 1);
        assert_eq!(
            data.histograms[0].buckets,
            vec![(8, 2), (9, 3), (63, 1)],
            "cumulative le buckets de-cumulate into sparse log2 buckets"
        );
        assert!(data
            .samples
            .iter()
            .any(|s| s.series == "kraftwerk_jobs_total{outcome=\"ok\"}" && s.value == 5.0));
        let html = render_service(&data);
        assert!(html.contains("kraftwerk_solve_wall_seconds"));
        assert!(html.contains("p99"));
    }

    #[test]
    fn malformed_and_empty_inputs_are_typed_errors() {
        assert!(matches!(parse_service("{not json"), Err(InspectError::Parse(_))));
        assert!(matches!(parse_service(""), Err(InspectError::Empty)));
        assert!(matches!(parse_service("# just comments\n"), Err(InspectError::Empty)));
    }

    #[test]
    fn exact_quantile_interpolates() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(exact_quantile(&sorted, 0.0), 1.0);
        assert_eq!(exact_quantile(&sorted, 1.0), 4.0);
        assert!((exact_quantile(&sorted, 0.5) - 2.5).abs() < 1e-12);
        assert!(exact_quantile(&[], 0.5).is_nan());
    }
}
