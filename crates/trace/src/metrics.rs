//! Service-metrics registry: named counters, gauges, and log2-bucketed
//! histograms with labels, lock-free hot paths, and a deterministic
//! snapshot that renders to Prometheus text exposition.
//!
//! This is the *service* half of the telemetry story. The [`TraceSink`](crate::TraceSink)
//! stream (spans, per-iteration records) answers "what did this run do";
//! the metrics registry answers "what is this process doing" — job
//! totals, queue depth, latency distributions — across the whole lifetime
//! of a daemon. The two differ in three deliberate ways:
//!
//! * **Always on.** A daemon's SLO counters must move whether or not a
//!   trace sink is installed, so [`Counter::inc`] and
//!   [`MetricHistogram::observe`] are unconditional relaxed atomics (no
//!   [`enabled`](crate::enabled) gate).
//! * **Cumulative.** Snapshots read without draining; scrapers rely on
//!   monotone counters and cumulative histogram buckets.
//! * **Instance-scoped.** A [`Registry`] is an owned value, not process
//!   state, so several servers in one process (tests, loadgen's
//!   in-process daemons) never share series.
//!
//! Histograms reuse the fixed power-of-two bucket layout from
//! [`hist`](crate::Histogram), so service latencies and solver-level
//! distributions stay mergeable and share the percentile estimator.
//!
//! ```
//! use kraftwerk_trace::metrics::Registry;
//!
//! let registry = Registry::new();
//! let jobs = registry.counter("jobs_total", &[("outcome", "ok")], "Completed jobs.");
//! jobs.inc();
//! let wall = registry.histogram("solve_seconds", &[], "Solve wall time.");
//! wall.observe(0.25);
//! let text = registry.snapshot().to_prometheus();
//! assert!(text.contains("jobs_total{outcome=\"ok\"} 1"));
//! assert!(text.contains("solve_seconds_count 1"));
//! ```

use crate::hist::{bucket_bounds, estimate_percentile, bucket_index, HISTOGRAM_BUCKETS};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotone event counter. Increments are relaxed atomic adds; reads
/// see a value at least as large as any increment that happened-before
/// the read on the same thread.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (queue depth, uptime). Stored as
/// `f64` bits in one atomic word.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Creates a gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `value`.
    #[inline]
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative) with a compare-and-swap loop.
    pub fn add(&self, delta: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// An always-on cumulative histogram over the fixed log2 bucket layout
/// of [`Histogram`](crate::Histogram), plus an exact sample count and
/// (finite-)sample sum for Prometheus `_count`/`_sum` series.
///
/// Unlike the trace-stream histogram, observations are never gated on a
/// sink and snapshots never drain — this is the long-lived SLO view.
#[derive(Debug)]
pub struct MetricHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    /// Sum of all finite observed values, stored as `f64` bits.
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl Default for MetricHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_bits: AtomicU64::new(0.0_f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }
}

impl MetricHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation: a bucket increment, a count increment,
    /// and (for finite values — non-finite ones land in the overflow
    /// bucket but must not poison the sum) a compare-and-swap sum update.
    pub fn observe(&self, value: f64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        if value.is_finite() {
            let mut current = self.sum_bits.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(current) + value).to_bits();
                match self.sum_bits.compare_exchange_weak(
                    current,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => current = seen,
                }
            }
        }
    }

    /// Total observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all finite observations so far.
    #[must_use]
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// A non-draining sparse `(bucket index, count)` view.
    #[must_use]
    pub fn snapshot_sparse(&self) -> Vec<(u8, u64)> {
        let mut sparse = Vec::new();
        for (i, bucket) in self.buckets.iter().enumerate() {
            let count = bucket.load(Ordering::Relaxed);
            if count > 0 {
                sparse.push((i as u8, count));
            }
        }
        sparse
    }

    /// Estimated `q`-quantile of the observations (see
    /// [`estimate_percentile`]); `NaN` when empty.
    #[must_use]
    pub fn percentile(&self, q: f64) -> f64 {
        estimate_percentile(&self.snapshot_sparse(), q)
    }
}

/// One series identity: metric name plus sorted label pairs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl SeriesKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Self { name: name.to_string(), labels }
    }
}

#[derive(Default)]
struct Inner {
    help: BTreeMap<String, &'static str>,
    counters: BTreeMap<SeriesKey, Arc<Counter>>,
    gauges: BTreeMap<SeriesKey, Arc<Gauge>>,
    histograms: BTreeMap<SeriesKey, Arc<MetricHistogram>>,
}

/// A registry of named metric series.
///
/// Lookup (`counter`/`gauge`/`histogram`) takes a mutex and is meant for
/// setup paths: hosts resolve each series once and hold the returned
/// `Arc`, so steady-state updates never touch the registry. The same
/// `(name, labels)` always resolves to the same instance; the first
/// registration of a name fixes its help text. A metric name must be
/// used with a single kind — reusing it for another kind yields a
/// distinct series that would render a conflicting `# TYPE` line.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Registry")
    }
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            // A poisoned registry only means a panic elsewhere while
            // holding the lock; the maps themselves are always valid.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Resolves (creating on first use) the counter `name{labels}`.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)], help: &'static str) -> Arc<Counter> {
        let mut inner = self.locked();
        inner.help.entry(name.to_string()).or_insert(help);
        Arc::clone(
            inner
                .counters
                .entry(SeriesKey::new(name, labels))
                .or_default(),
        )
    }

    /// Resolves (creating on first use) the gauge `name{labels}`.
    #[must_use]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)], help: &'static str) -> Arc<Gauge> {
        let mut inner = self.locked();
        inner.help.entry(name.to_string()).or_insert(help);
        Arc::clone(inner.gauges.entry(SeriesKey::new(name, labels)).or_default())
    }

    /// Resolves (creating on first use) the histogram `name{labels}`.
    #[must_use]
    pub fn histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &'static str,
    ) -> Arc<MetricHistogram> {
        let mut inner = self.locked();
        inner.help.entry(name.to_string()).or_insert(help);
        Arc::clone(
            inner
                .histograms
                .entry(SeriesKey::new(name, labels))
                .or_default(),
        )
    }

    /// A deterministic point-in-time copy of every series, ordered by
    /// `(name, labels)` within each kind. Values are read relaxed, so a
    /// snapshot taken concurrently with updates is a consistent *series
    /// list* with per-series values from that instant.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.locked();
        let help = |name: &str| inner.help.get(name).copied().unwrap_or("").to_string();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(key, counter)| CounterSample {
                    name: key.name.clone(),
                    labels: key.labels.clone(),
                    help: help(&key.name),
                    value: counter.get(),
                })
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(key, gauge)| GaugeSample {
                    name: key.name.clone(),
                    labels: key.labels.clone(),
                    help: help(&key.name),
                    value: gauge.get(),
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(key, histogram)| HistogramSample {
                    name: key.name.clone(),
                    labels: key.labels.clone(),
                    help: help(&key.name),
                    buckets: histogram.snapshot_sparse(),
                    sum: histogram.sum(),
                    count: histogram.count(),
                })
                .collect(),
        }
    }
}

/// One counter series in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Help text from the first registration.
    pub help: String,
    /// Counter total at snapshot time.
    pub value: u64,
}

/// One gauge series in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Help text from the first registration.
    pub help: String,
    /// Gauge value at snapshot time.
    pub value: f64,
}

/// One histogram series in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Help text from the first registration.
    pub help: String,
    /// Sparse non-cumulative `(bucket index, count)` pairs, ascending.
    pub buckets: Vec<(u8, u64)>,
    /// Sum of finite observations.
    pub sum: f64,
    /// Total observations.
    pub count: u64,
}

/// A deterministic point-in-time copy of a [`Registry`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All counter series, ordered by `(name, labels)`.
    pub counters: Vec<CounterSample>,
    /// All gauge series, ordered by `(name, labels)`.
    pub gauges: Vec<GaugeSample>,
    /// All histogram series, ordered by `(name, labels)`.
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as Prometheus text exposition (format 0.0.4):
    /// `# HELP`/`# TYPE` once per metric name, one sample line per
    /// series, histograms as cumulative `_bucket{le=...}` series (only
    /// non-empty buckets plus the mandatory `+Inf`) with `_sum` and
    /// `_count`. Output is byte-deterministic for a given snapshot.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_header: Option<String> = None;
        for sample in &self.counters {
            header(&mut out, &mut last_header, &sample.name, &sample.help, "counter");
            out.push_str(&sample.name);
            out.push_str(&render_labels(&sample.labels, None));
            out.push(' ');
            out.push_str(&sample.value.to_string());
            out.push('\n');
        }
        last_header = None;
        for sample in &self.gauges {
            header(&mut out, &mut last_header, &sample.name, &sample.help, "gauge");
            out.push_str(&sample.name);
            out.push_str(&render_labels(&sample.labels, None));
            out.push(' ');
            out.push_str(&fmt_float(sample.value));
            out.push('\n');
        }
        last_header = None;
        for sample in &self.histograms {
            header(&mut out, &mut last_header, &sample.name, &sample.help, "histogram");
            let mut cumulative = 0u64;
            for &(index, count) in &sample.buckets {
                cumulative += count;
                let (_, hi) = bucket_bounds(index);
                let le = if hi.is_finite() { fmt_float(hi) } else { "+Inf".to_string() };
                out.push_str(&sample.name);
                out.push_str("_bucket");
                out.push_str(&render_labels(&sample.labels, Some(&le)));
                out.push(' ');
                out.push_str(&cumulative.to_string());
                out.push('\n');
            }
            // The mandatory +Inf bucket (skip if the overflow bucket
            // already rendered it above).
            if sample.buckets.last().map(|&(i, _)| i as usize) != Some(HISTOGRAM_BUCKETS - 1) {
                out.push_str(&sample.name);
                out.push_str("_bucket");
                out.push_str(&render_labels(&sample.labels, Some("+Inf")));
                out.push(' ');
                out.push_str(&sample.count.to_string());
                out.push('\n');
            }
            out.push_str(&sample.name);
            out.push_str("_sum");
            out.push_str(&render_labels(&sample.labels, None));
            out.push(' ');
            out.push_str(&fmt_float(sample.sum));
            out.push('\n');
            out.push_str(&sample.name);
            out.push_str("_count");
            out.push_str(&render_labels(&sample.labels, None));
            out.push(' ');
            out.push_str(&sample.count.to_string());
            out.push('\n');
        }
        out
    }
}

/// Emits `# HELP`/`# TYPE` when entering a new metric name.
fn header(out: &mut String, last: &mut Option<String>, name: &str, help: &str, kind: &str) {
    if last.as_deref() == Some(name) {
        return;
    }
    *last = Some(name.to_string());
    if !help.is_empty() {
        out.push_str("# HELP ");
        out.push_str(name);
        out.push(' ');
        out.push_str(&help.replace('\\', "\\\\").replace('\n', "\\n"));
        out.push('\n');
    }
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Renders `{k="v",...}` (with an optional trailing `le`), or nothing
/// when there are no labels.
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (key, value) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(key);
        out.push_str("=\"");
        out.push_str(&escape_label(value));
        out.push('"');
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(le);
        out.push('"');
    }
    out.push('}');
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Formats a float for exposition: Rust's shortest round-trip `Display`
/// for finite values, Prometheus spellings for the rest.
fn fmt_float(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_string()
    } else if value == f64::INFINITY {
        "+Inf".to_string()
    } else if value == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{value}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_update_atomically() {
        let registry = Registry::new();
        let counter = registry.counter("c_total", &[], "help c");
        counter.inc();
        counter.add(4);
        assert_eq!(counter.get(), 5);
        // Same (name, labels) resolves to the same instance.
        assert_eq!(registry.counter("c_total", &[], "other").get(), 5);
        // Different labels are a distinct series.
        assert_eq!(registry.counter("c_total", &[("k", "v")], "").get(), 0);

        let gauge = registry.gauge("g", &[], "help g");
        gauge.set(2.5);
        gauge.add(-1.0);
        assert_eq!(gauge.get(), 1.5);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let registry = Registry::new();
        let a = registry.counter("x_total", &[("a", "1"), ("b", "2")], "");
        let b = registry.counter("x_total", &[("b", "2"), ("a", "1")], "");
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn histogram_tracks_count_sum_and_percentiles() {
        let histogram = MetricHistogram::new();
        for _ in 0..90 {
            histogram.observe(0.010);
        }
        for _ in 0..10 {
            histogram.observe(5.0);
        }
        histogram.observe(f64::NAN); // counted, bucketed overflow, sum untouched
        assert_eq!(histogram.count(), 101);
        let expected_sum = 90.0 * 0.010 + 10.0 * 5.0;
        assert!((histogram.sum() - expected_sum).abs() < 1e-9);
        let p50 = histogram.percentile(0.50);
        let (lo, hi) = bucket_bounds(bucket_index(0.010) as u8);
        assert!(p50 >= lo && p50 <= hi, "p50 {p50} outside [{lo}, {hi}]");
        assert!(histogram.percentile(0.999) > 1.0);
    }

    #[test]
    fn snapshot_is_deterministic_and_sorted() {
        let registry = Registry::new();
        registry.counter("z_total", &[], "z").inc();
        registry.counter("a_total", &[("q", "2")], "a").inc();
        registry.counter("a_total", &[("q", "1")], "a").inc();
        registry.gauge("depth", &[], "d").set(3.0);
        let snapshot = registry.snapshot();
        let names: Vec<String> = snapshot
            .counters
            .iter()
            .map(|c| format!("{}{:?}", c.name, c.labels))
            .collect();
        assert_eq!(
            names,
            vec![
                "a_total[(\"q\", \"1\")]".to_string(),
                "a_total[(\"q\", \"2\")]".to_string(),
                "z_total[]".to_string()
            ]
        );
        assert_eq!(snapshot, registry.snapshot());
    }

    #[test]
    fn prometheus_exposition_shape() {
        let registry = Registry::new();
        registry.counter("jobs_total", &[("outcome", "ok")], "Jobs.").add(3);
        registry.counter("jobs_total", &[("outcome", "failed")], "Jobs.").add(1);
        registry.gauge("queue_depth", &[], "Depth.").set(2.0);
        let h = registry.histogram("wait_seconds", &[], "Wait.");
        h.observe(0.5);
        h.observe(0.5);
        h.observe(1e40); // overflow bucket
        let text = registry.snapshot().to_prometheus();

        assert!(text.contains("# HELP jobs_total Jobs.\n"));
        assert!(text.contains("# TYPE jobs_total counter\n"));
        // HELP/TYPE appear once per name even with several series.
        assert_eq!(text.matches("# TYPE jobs_total").count(), 1);
        assert!(text.contains("jobs_total{outcome=\"failed\"} 1\n"));
        assert!(text.contains("jobs_total{outcome=\"ok\"} 3\n"));
        assert!(text.contains("# TYPE queue_depth gauge\n"));
        assert!(text.contains("queue_depth 2\n"));
        assert!(text.contains("# TYPE wait_seconds histogram\n"));
        assert!(text.contains("wait_seconds_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("wait_seconds_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("wait_seconds_count 3\n"));

        // Cumulative buckets are monotone and end at the count.
        let mut previous = 0u64;
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("wait_seconds_bucket")) {
            let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(value >= previous, "non-monotone cumulative bucket: {line}");
            previous = value;
            last = value;
        }
        assert_eq!(last, 3);

        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!series.is_empty());
            assert!(value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN");
        }
    }

    #[test]
    fn exposition_without_overflow_bucket_appends_inf() {
        let registry = Registry::new();
        let h = registry.histogram("h_seconds", &[("mode", "fast")], "");
        h.observe(1.0);
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("h_seconds_bucket{mode=\"fast\",le=\"+Inf\"} 1\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let registry = Registry::new();
        registry.counter("esc_total", &[("path", "a\\b\"c\nd")], "").inc();
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("esc_total{path=\"a\\\\b\\\"c\\nd\"} 1\n"));
    }

    #[test]
    fn concurrent_updates_are_lossless() {
        let registry = Arc::new(Registry::new());
        let counter = registry.counter("n_total", &[], "");
        let histogram = registry.histogram("v_seconds", &[], "");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let counter = Arc::clone(&counter);
                let histogram = Arc::clone(&histogram);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        counter.inc();
                        histogram.observe(0.001 * (1 + i % 7) as f64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("updater thread");
        }
        assert_eq!(counter.get(), 8000);
        assert_eq!(histogram.count(), 8000);
        let total: u64 = histogram.snapshot_sparse().iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 8000);
    }
}
