//! # kraftwerk-trace — zero-dependency run telemetry
//!
//! Structured instrumentation for the Kraftwerk placement pipeline: the
//! paper's whole experimental story (convergence criterion, timing
//! trade-off curves, CPU-time tables) depends on *watching* the iterative
//! placement transformations, and every future performance PR needs to
//! know where the time goes. This crate provides that visibility with no
//! external dependencies — it must keep building in offline sandboxes
//! where the registry is unreachable.
//!
//! ## Model
//!
//! * A process-global, pluggable, thread-safe [`TraceSink`] receives
//!   [`TraceEvent`]s. When no sink is installed, every instrumentation
//!   site reduces to one relaxed atomic load ([`enabled`]) — no
//!   timestamps, no allocation.
//! * [`span`] starts a scoped wall-clock timer; dropping the guard emits
//!   the duration. [`counter`], [`gauge`], and [`event`] emit the other
//!   record kinds.
//! * [`RunRecorder`] is the standard sink: it folds the stream into a
//!   [`RunReport`] — one JSONL record per placement transformation (every
//!   span since the previous `iteration` event becomes that record's
//!   per-phase time), closed by one `summary` record with the cumulative
//!   phase profile, counter totals, and latest gauges.
//! * [`RunReport`] is the one run model: [`RunReport::to_jsonl`] writes
//!   the `--trace` stream and [`RunReport::from_jsonl`] reads it back,
//!   byte for byte the inverse, so the record schema is written and read
//!   in one module. `kraftwerk-inspect` renders the reports it reads.
//! * [`Histogram`] accumulates fixed log2-bucketed distributions (CG
//!   iteration counts, cell displacements, density overflow) with a
//!   lock-free record path that is a single relaxed load when disabled;
//!   flushing emits a `histogram` record.
//! * [`snapshot`] emits downsampled density/potential grids and sampled
//!   cell positions as `snapshot` records every N transformations.
//! * [`metrics`] is the *service* counterpart: an instance-scoped
//!   registry of always-on labelled counters, gauges, and cumulative
//!   histograms with a deterministic snapshot and Prometheus text
//!   exposition — what a long-lived daemon exports, as opposed to the
//!   drained per-run trace stream. [`install_scoped`] confines a sink to
//!   one thread so a multi-tenant host can capture per-job reports.
//! * [`json`] is the hand-rolled encoder/parser backing all of it.
//! * [`Console`] / [`ProgressSink`] provide leveled CLI output so
//!   binaries share one `--quiet`/`-v` convention.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use kraftwerk_trace as trace;
//!
//! let recorder = Arc::new(trace::RunRecorder::new());
//! trace::install(recorder.clone());
//! {
//!     let _t = trace::span("demo.phase");
//!     trace::counter("demo.items", 3);
//! }
//! trace::event("iteration", vec![
//!     ("iteration", trace::Value::from(1usize)),
//!     ("hpwl", trace::Value::from(1234.5)),
//! ]);
//! trace::uninstall();
//! let report = recorder.report();
//! assert_eq!(report.iterations.len(), 1);
//! assert_eq!(report.iterations[0].phases.len(), 1);
//! println!("{}", report.to_jsonl());
//! ```
//!
//! Tests that install the global sink must serialize themselves (the sink
//! is process-wide and `cargo test` runs tests concurrently).

pub mod alloc;
pub mod console;
mod event;
mod hist;
pub mod json;
pub mod metrics;
mod report;
mod sink;
mod snapshot;
mod span;

pub use console::{Console, ProgressSink, Verbosity};
pub use event::{TraceEvent, Value};
pub use hist::{
    bucket_bounds, bucket_index, estimate_percentile, Histogram, HISTOGRAM_BUCKETS,
};
pub use report::{
    AllocStat, ConvergenceRecord, HistogramStat, IterationRecord, PhaseStat, RunRecorder,
    RunReport, TimelineEvent, UtilizationStat, ALLOC_EVENT, CONVERGENCE_CAP, CONVERGENCE_EVENTS,
    ITERATION_EVENT, UTILIZATION_EVENT, WATCHDOG_EVENT,
};
pub use sink::{
    counter, current_scoped, emit, enabled, event, gauge, install, install_scoped, uninstall,
    CollectorSink, FanoutSink, ScopedSinkGuard, TraceSink,
};
pub use snapshot::{
    snapshot, SnapshotRecord, SNAPSHOT_CELLS, SNAPSHOT_DENSITY, SNAPSHOT_POTENTIAL,
};
pub use span::{span, SpanGuard};
