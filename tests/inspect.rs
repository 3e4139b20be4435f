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
use kraftwerk::legalize::detail_place;
use kraftwerk::netlist::synth::{generate, mcnc, SynthConfig};
use kraftwerk::placer::{try_place_multilevel, GlobalPlacer, KraftwerkConfig, MultilevelConfig};
use kraftwerk::trace::json::{self, Json};
use kraftwerk::trace::{self, RunRecorder, RunReport, Value};
use std::collections::BTreeSet;
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

/// Golden-schema round trip: a real recorded run surfaces **every**
/// record kind the trace layer can emit — meta, iteration, snapshot,
/// watchdog, convergence, histogram, alloc, utilization, summary — and
/// the reader turns each stream back into a report that writes the same
/// bytes. The clean run includes legalization, whose spans come after the
/// last transformation and reach the stream only through the summary
/// line; a second run with a boosted force scale trips the watchdog until
/// it gives up.
#[test]
fn every_record_kind_round_trips_through_the_reader() {
    let _guard = sink_lock();
    let netlist = mcnc::by_name("fract");
    let record = |config: KraftwerkConfig| {
        let recorder = Arc::new(RunRecorder::new());
        recorder.set_meta("netlist", Value::from("fract"));
        recorder.set_meta("mode", Value::from("fast"));
        // Heap accounting on: the test binary has no counting allocator
        // installed, so the deltas are zero — the schema still flows.
        trace::alloc::set_tracking(true);
        trace::install(recorder.clone());
        let placed = GlobalPlacer::new(config).try_place(&netlist).map(|global| {
            detail_place(&netlist, &global.placement).expect("fract legalizes");
            global.health
        });
        trace::uninstall();
        trace::alloc::set_tracking(false);
        (recorder.report().to_jsonl(), placed.expect("fract places"))
    };
    let (clean, _) = record(KraftwerkConfig::fast().with_snapshot_every(5));
    let mut boosted = KraftwerkConfig::fast().with_snapshot_every(1);
    boosted.force_scale_boost = 40.0;
    let (degraded, health) = record(boosted);
    assert!(health.degraded, "the boosted run must give up: {health:?}");

    // Each stream reads back to itself, and between them they hold a line
    // of every record kind.
    let mut kinds = BTreeSet::new();
    for jsonl in [&clean, &degraded] {
        let run = RunReport::from_jsonl(jsonl).expect("stream reads");
        assert_eq!(&run.to_jsonl(), jsonl, "no exact round trip");
        for line in jsonl.lines() {
            let line = json::parse(line).expect("line parses");
            let kind = line.get("type").and_then(Json::as_str);
            kinds.insert(kind.unwrap_or("iteration").to_string());
        }
    }
    let all = "alloc convergence histogram iteration meta snapshot summary utilization watchdog";
    let kinds: Vec<String> = kinds.into_iter().collect();
    assert_eq!(kinds.join(" "), all, "record kinds");

    // The run profile covers legalization, and every resource record is
    // named after a span of the same stream.
    let run = RunReport::from_jsonl(&clean).expect("stream reads");
    let spans: Vec<&str> = run.profile.iter().map(|p| p.name.as_str()).collect();
    for phase in ["legalize.abacus", "legalize.refine"] {
        assert!(spans.contains(&phase), "profile misses {phase}");
    }
    let names = run.alloc.iter().map(|a| &a.phase);
    for name in names.chain(run.utilization.iter().map(|u| &u.span)) {
        assert!(spans.contains(&name.as_str()), "{name} is no span");
    }

    // The stream drives the Perfetto exporter and the comparison
    // renderer without loss of the resource sections.
    let trace_json = inspect::render_perfetto(&run);
    assert!(trace_json.contains("\"traceEvents\""));
    let cmp = inspect::render_comparison(&[("a".to_string(), run.clone()), ("b".to_string(), run)]);
    assert!(cmp.contains("<section id=\"utilization\">"));
}

/// Places a 1,200-cell netlist through a two-level multilevel V-cycle
/// under a recorder with snapshots every 5 transformations. Each level
/// runs its own session, so the stream's iteration numbers restart at the
/// second level.
fn record_two_level_run() -> String {
    let netlist = generate(&SynthConfig::with_size("ml", 1200, 1400, 16));
    let recorder = Arc::new(RunRecorder::new());
    recorder.set_meta("netlist", Value::from("ml"));
    trace::install(recorder.clone());
    let ml = MultilevelConfig { coarsest_movable: 400, ..MultilevelConfig::default() };
    let result =
        try_place_multilevel(&netlist, KraftwerkConfig::fast().with_snapshot_every(5), &ml);
    trace::uninstall();
    result.expect("the netlist places through two levels");
    recorder.report().to_jsonl()
}

#[test]
fn a_multilevel_stream_names_each_panel_and_solve_after_its_own_transformation() {
    let _guard = sink_lock();
    let jsonl = record_two_level_run();
    let run = inspect::read_run(&jsonl).expect("the stream reads back");
    let numbers: Vec<u64> = run.iterations.iter().map(|r| r.iteration()).collect();
    assert!(
        numbers.windows(2).any(|w| w[1] <= w[0]),
        "premise: the levels restart the iteration numbers ({numbers:?})"
    );

    // Every dashboard element id is unique, snapshot panels included.
    let html = inspect::render(&run);
    let ids = element_ids(&html);
    let mut seen = BTreeSet::new();
    let repeated: Vec<&String> = ids.iter().filter(|id| !seen.insert(id.as_str())).collect();
    assert!(repeated.is_empty(), "repeated element ids: {repeated:?}");
    assert!(ids.iter().filter(|id| id.starts_with("heatmap-density-")).count() >= 3);

    // Every solver instant lies inside the span of the transformation its
    // record names by position.
    let doc = json::parse(&inspect::render_perfetto(&run)).expect("valid Perfetto JSON");
    let events = doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents");
    let num = |e: &Json, key: &str| e.get(key).and_then(Json::as_f64).expect("numeric field");
    let spans: Vec<(f64, f64)> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .filter(|e| {
            let name = e.get("name").and_then(Json::as_str);
            name.is_some_and(|n| n.starts_with("iteration "))
        })
        .map(|e| (num(e, "ts"), num(e, "ts") + num(e, "dur")))
        .collect();
    assert_eq!(spans.len(), run.iterations.len());
    let instants: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
        .filter(|e| e.get("name").and_then(Json::as_str).is_some_and(|n| n.ends_with(".solve")))
        .collect();
    assert_eq!(instants.len(), run.convergence.len());
    for instant in instants {
        let args = instant.get("args").expect("instant args");
        let position = num(args, "iteration") as usize;
        let (start, end) = spans[position - 1];
        let ts = num(instant, "ts");
        assert!(
            (start..=end).contains(&ts),
            "solve of record {position} at {ts} µs outside its span [{start}, {end}]"
        );
    }
}
