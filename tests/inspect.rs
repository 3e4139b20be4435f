//! Golden-structure tests for `kraftwerk inspect` dashboards: a real
//! recorded fract run must render into well-formed HTML (balanced tags,
//! every referenced anchor resolving to an element id), and rendering
//! must be bitwise deterministic — the same telemetry produces the same
//! bytes at any thread-count setting, and re-recorded runs at different
//! thread counts produce structurally identical dashboards.
//!
//! The trace sink is a process-global, so tests that install one are
//! serialized through a local mutex (the harness runs tests on threads).

use kraftwerk::inspect;
use kraftwerk::legalize::{legalize, refine};
use kraftwerk::netlist::synth::mcnc;
use kraftwerk::placer::{GlobalPlacer, KraftwerkConfig};
use kraftwerk::trace::{self, RunRecorder, Value};
use std::sync::{Arc, Mutex, MutexGuard};

static GLOBAL_SINK: Mutex<()> = Mutex::new(());

fn sink_lock() -> MutexGuard<'static, ()> {
    GLOBAL_SINK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Places fract under a recorder with snapshots every 5 transformations
/// and returns the JSONL telemetry stream.
fn record_fract_run() -> String {
    let netlist = mcnc::by_name("fract");
    let recorder = Arc::new(RunRecorder::new());
    recorder.set_meta("netlist", Value::from("fract"));
    recorder.set_meta("mode", Value::from("fast"));
    trace::install(recorder.clone());
    let result =
        GlobalPlacer::new(KraftwerkConfig::fast().with_snapshot_every(5)).try_place(&netlist);
    trace::uninstall();
    result.expect("fract places cleanly");
    recorder.report().to_jsonl()
}

/// Every `id="..."` attribute value in the document.
fn element_ids(html: &str) -> Vec<String> {
    html.split("id=\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .map(str::to_owned)
        .collect()
}

#[test]
fn recorded_fract_run_renders_well_formed_html() {
    let _guard = sink_lock();
    let jsonl = record_fract_run();
    let html = inspect::render_report(&jsonl).expect("recorded telemetry renders");

    assert!(html.starts_with("<!DOCTYPE html>"));
    assert!(html.ends_with("</html>"));
    // Balanced structural tags. `<head` alone would also match
    // `<header>`, so count exact and attribute-carrying openings.
    for tag in ["html", "head", "body", "header", "nav", "section", "svg", "figure", "table"] {
        let open = html.matches(&format!("<{tag}>")).count()
            + html.matches(&format!("<{tag} ")).count();
        let close = html.matches(&format!("</{tag}>")).count();
        assert_eq!(open, close, "unbalanced <{tag}> in dashboard");
    }
    // Every internal link resolves to an element id.
    let ids = element_ids(&html);
    let anchors: Vec<&str> = html
        .split("href=\"#")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect();
    assert!(!anchors.is_empty(), "nav links missing");
    for anchor in anchors {
        assert!(
            ids.iter().any(|id| id == anchor),
            "dangling anchor #{anchor}"
        );
    }
    // The run is long enough for at least 3 density snapshots (capture
    // at iteration 1, 5, 10, ...), and the fixed charts are present.
    let density_maps = ids.iter().filter(|id| id.starts_with("heatmap-density-")).count();
    assert!(density_maps >= 3, "expected >= 3 density heatmaps, got {density_maps}");
    for id in ["chart-hpwl", "chart-density", "chart-cg", "phase-breakdown", "watchdog-timeline"] {
        assert!(ids.iter().any(|have| have == id), "missing chart id {id}");
    }
    assert!(
        ids.iter().any(|id| id.starts_with("hist-place-")),
        "missing histogram charts"
    );
}

#[test]
fn rendering_is_bitwise_identical_across_thread_counts() {
    let _guard = sink_lock();
    let jsonl = record_fract_run();
    // The renderer itself must not depend on the parallel runtime: the
    // same telemetry bytes render identically at any thread setting.
    let mut outputs = Vec::new();
    for threads in [1usize, 2, 8] {
        kraftwerk::par::set_threads(threads);
        outputs.push(inspect::render_report(&jsonl).expect("renders"));
    }
    kraftwerk::par::set_threads(0);
    assert_eq!(outputs[0], outputs[1], "1 vs 2 threads changed the dashboard bytes");
    assert_eq!(outputs[1], outputs[2], "2 vs 8 threads changed the dashboard bytes");

    // And the placement pipeline feeding it is deterministic too:
    // re-recording at different thread counts may only differ in wall
    // times, never in structure (chart ids, snapshot count, curves).
    let mut id_sets = Vec::new();
    for threads in [1usize, 2, 8] {
        kraftwerk::par::set_threads(threads);
        let run = record_fract_run();
        let html = inspect::render_report(&run).expect("renders");
        id_sets.push(element_ids(&html));
    }
    kraftwerk::par::set_threads(0);
    assert_eq!(id_sets[0], id_sets[1], "1 vs 2 threads changed dashboard structure");
    assert_eq!(id_sets[1], id_sets[2], "2 vs 8 threads changed dashboard structure");
}

/// Golden-schema round trip: a real recorded run must surface **every**
/// record kind the trace layer can emit — iteration, meta, snapshot,
/// histogram, convergence, alloc, utilization, timeline, summary —
/// through the inspect reader, with the resource numbers intact. The run
/// includes legalization, whose spans come after the last transformation
/// and reach the stream only through the summary line.
#[test]
fn every_record_kind_round_trips_through_the_reader() {
    let _guard = sink_lock();
    let netlist = mcnc::by_name("fract");
    let recorder = Arc::new(RunRecorder::new());
    recorder.set_meta("netlist", Value::from("fract"));
    recorder.set_meta("mode", Value::from("fast"));
    // Heap accounting on: the test binary has no counting allocator
    // installed, so the deltas are zero — the schema still flows.
    trace::alloc::set_tracking(true);
    trace::install(recorder.clone());
    let placed = GlobalPlacer::new(KraftwerkConfig::fast().with_snapshot_every(5))
        .try_place(&netlist)
        .map(|global| {
            let mut legal = legalize(&netlist, &global.placement).expect("fract legalizes");
            refine(&netlist, &mut legal, 2);
        });
    trace::uninstall();
    trace::alloc::set_tracking(false);
    placed.expect("fract places cleanly");
    let report = recorder.report();
    assert!(!report.convergence.is_empty(), "no solver convergence recorded");
    assert!(!report.alloc.is_empty(), "no alloc stats recorded");
    assert!(!report.utilization.is_empty(), "no utilization recorded");
    assert!(!report.snapshots.is_empty(), "no snapshots recorded");
    assert!(!report.histograms.is_empty(), "no histograms recorded");

    // A synthetic watchdog line rides along with the stream so the
    // timeline kind is covered even on a clean run.
    let mut jsonl = report.to_jsonl();
    jsonl.push_str(
        "{\"type\":\"watchdog\",\"iteration\":1,\"reason\":\"synthetic\",\"action\":\"rollback\"}\n",
    );
    let run = inspect::parse_run(&jsonl).expect("stream parses");
    assert_eq!(run.iterations.len(), report.iterations.len(), "iterations");
    assert_eq!(run.meta_value("netlist"), Some("fract"), "meta");
    assert_eq!(run.snapshots.len(), report.snapshots.len(), "snapshots");
    assert_eq!(run.histograms.len(), report.histograms.len(), "histograms");
    assert_eq!(run.convergence.len(), report.convergence.len(), "convergence");
    for (parsed, recorded) in run.convergence.iter().zip(&report.convergence) {
        assert_eq!(parsed.solver, recorded.solver, "solver tag");
        assert_eq!(parsed.iteration, recorded.iteration, "solve iteration");
    }
    let cg = run.convergence_of("cg");
    assert!(!cg.is_empty(), "no cg records");
    assert!(!cg[0].curve.is_empty(), "cg residual curve lost");
    assert!(
        cg[0].metrics.iter().any(|(k, v)| k == "iterations" && *v >= 1.0),
        "cg iteration count lost"
    );
    assert_eq!(run.alloc.len(), report.alloc.len(), "alloc");
    for (parsed, recorded) in run.alloc.iter().zip(&report.alloc) {
        assert_eq!(parsed.phase, recorded.phase, "alloc phase");
        assert_eq!(parsed.samples, recorded.samples, "alloc samples");
        assert_eq!(parsed.allocs, recorded.allocs, "alloc count");
        assert_eq!(parsed.bytes, recorded.bytes, "alloc bytes");
        assert_eq!(parsed.peak_bytes, recorded.peak_bytes, "peak bytes");
    }
    assert_eq!(run.utilization.len(), report.utilization.len(), "utilization");
    for (parsed, recorded) in run.utilization.iter().zip(&report.utilization) {
        assert_eq!(parsed.span, recorded.span, "span name");
        assert_eq!(parsed.samples, recorded.samples, "span samples");
        assert_eq!(parsed.chunks, recorded.chunks, "span chunks");
        assert_eq!(parsed.threads, recorded.threads, "span threads");
        // The JSON number codec round-trips f64 exactly (shortest
        // representation), so equality is exact, not approximate.
        assert_eq!(parsed.wall_s, recorded.wall_seconds, "span wall");
        assert_eq!(parsed.busy_s, recorded.busy_seconds, "span busy");
        assert_eq!(parsed.efficiency, recorded.efficiency(), "efficiency");
    }
    assert_eq!(run.timeline.len(), 1, "watchdog line lost");
    assert_eq!(run.timeline[0].action, "rollback");

    // The run profile is the recorder's, legalization included.
    let parsed: Vec<(&str, u64, f64)> =
        run.profile.iter().map(|p| (p.name.as_str(), p.calls, p.seconds)).collect();
    let recorded: Vec<(&str, u64, f64)> =
        report.profile.iter().map(|p| (p.name.as_str(), p.calls, p.seconds)).collect();
    assert_eq!(parsed, recorded, "summary profile");
    for phase in ["legalize.abacus", "legalize.refine"] {
        assert!(parsed.iter().any(|(name, ..)| *name == phase), "profile misses {phase}");
    }
    // Every resource record is named after a span of the same stream.
    for name in run.alloc.iter().map(|a| &a.phase).chain(run.utilization.iter().map(|u| &u.span)) {
        assert!(parsed.iter().any(|(span, ..)| span == name), "{name} is no span");
    }

    // The stream drives the Perfetto exporter and the comparison
    // renderer without loss of the resource sections.
    let trace_json = inspect::render_perfetto(&run);
    assert!(trace_json.contains("\"traceEvents\""));
    let cmp = inspect::render_comparison(&[
        ("a".to_string(), run.clone()),
        ("b".to_string(), run),
    ]);
    assert!(cmp.contains("<section id=\"utilization\">"));
}
