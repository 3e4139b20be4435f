//! Integration tests for the run-telemetry layer: a [`RunRecorder`]
//! installed around a real placement must see exactly one record per
//! placement transformation, with strictly increasing iteration numbers,
//! and the JSONL export must parse with the crate's own JSON parser.
//!
//! The trace sink is a process-global, so tests that install one are
//! serialized through a local mutex (the harness runs tests on threads).

use kraftwerk::netlist::synth::{generate, SynthConfig};
use kraftwerk::placer::{KraftwerkConfig, PlacementSession};
use kraftwerk::trace::{self, json, RunRecorder, Value};
use std::sync::{Arc, Mutex, MutexGuard};

static GLOBAL_SINK: Mutex<()> = Mutex::new(());

fn sink_lock() -> MutexGuard<'static, ()> {
    GLOBAL_SINK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `transformations` placement transformations with a recorder
/// installed and returns the resulting report.
fn record_run(transformations: usize) -> (trace::RunReport, usize) {
    let netlist = generate(&SynthConfig::with_size("telemetry", 150, 190, 6));
    let recorder = Arc::new(RunRecorder::new());
    recorder.set_meta("netlist", Value::from(netlist.name()));
    trace::install(recorder.clone());
    let mut session = PlacementSession::new(&netlist, KraftwerkConfig::fast());
    let mut done = 0;
    for _ in 0..transformations {
        session.transform();
        done += 1;
        if session.is_converged() {
            break;
        }
    }
    trace::uninstall();
    (recorder.report(), done)
}

#[test]
fn one_record_per_transformation_with_increasing_iterations() {
    let _guard = sink_lock();
    let (report, done) = record_run(10);
    assert_eq!(report.iterations.len(), done);
    for pair in report.iterations.windows(2) {
        assert!(
            pair[1].iteration() > pair[0].iteration(),
            "iteration numbers must strictly increase: {} then {}",
            pair[0].iteration(),
            pair[1].iteration()
        );
    }
    for record in &report.iterations {
        assert!(record.get("hpwl").and_then(Value::as_f64).is_some());
        assert!(record.get("cg_iterations").and_then(Value::as_u64).is_some());
        assert!(
            !record.phases.is_empty(),
            "each transformation should report phase timings"
        );
        // The `place.*` phases are sub-spans of the transformation. Two
        // pairs run as the branches of a join and may overlap in time,
        // so each pair counts once, at its longer branch; everything else
        // is sequential. The total then cannot exceed the recorded wall
        // time by more than clock noise. (Nested solver spans like
        // `multigrid.solve` overlap `place.field_solve` and would double
        // count, so they are excluded from the sum.)
        const OVERLAPPED: [(&str, &str); 2] = [
            ("place.field_solve", "place.force_assembly"),
            ("place.solve_x", "place.solve_y"),
        ];
        let wall = record.get("wall_s").and_then(Value::as_f64).unwrap();
        let phase = |name: &str| {
            record
                .phases
                .iter()
                .filter(|(n, _)| n.as_str() == name)
                .map(|(_, s)| s)
                .sum::<f64>()
        };
        let sequential: f64 = record
            .phases
            .iter()
            .filter(|(name, _)| {
                name.starts_with("place.")
                    && !OVERLAPPED.iter().any(|&(a, b)| name.as_str() == a || name.as_str() == b)
            })
            .map(|(_, s)| s)
            .sum();
        let joined: f64 = OVERLAPPED.iter().map(|&(a, b)| phase(a).max(phase(b))).sum();
        for (a, b) in OVERLAPPED {
            assert!(phase(a) > 0.0 && phase(b) > 0.0, "{a} / {b} missing: {:?}", record.phases);
        }
        let top_level = sequential + joined;
        assert!(
            top_level <= wall * 1.02 + 1e-4,
            "place.* phases ({top_level:.6}s, overlapped pairs once) exceed wall time ({wall:.6}s)"
        );
    }
}

#[test]
fn jsonl_export_parses_line_by_line() {
    let _guard = sink_lock();
    let (report, done) = record_run(8);
    let jsonl = report.to_jsonl();
    // Iteration records carry no "type" field; typed lines (histograms,
    // snapshots, watchdog timeline events) may interleave with them.
    let mut iteration_lines = 0usize;
    let mut typed_lines = 0usize;
    for (i, line) in jsonl.lines().enumerate() {
        let parsed = json::parse(line).unwrap_or_else(|e| panic!("line {i}: {e}"));
        if let Some(kind) = parsed.get("type").and_then(json::Json::as_str) {
            assert!(!kind.is_empty(), "line {i} has an empty type tag");
            typed_lines += 1;
            continue;
        }
        iteration_lines += 1;
        let iteration = parsed
            .get("iteration")
            .and_then(json::Json::as_f64)
            .unwrap_or_else(|| panic!("line {i} missing iteration"));
        assert_eq!(iteration as usize, iteration_lines);
        assert!(parsed.get("hpwl").and_then(json::Json::as_f64).is_some());
        assert!(parsed
            .get("phases")
            .and_then(json::Json::as_object)
            .is_some_and(|phases| !phases.is_empty()));
    }
    assert_eq!(iteration_lines, done, "one iteration record per transformation");
    // The session flushes per-iteration histograms whenever tracing is
    // on, so a traced run always carries some typed telemetry too.
    assert!(typed_lines > 0, "expected histogram lines in the export");
}

#[test]
fn report_summary_covers_the_run() {
    let _guard = sink_lock();
    let (report, done) = record_run(6);
    assert!(done > 0);
    let summary = json::parse(&report.to_json()).expect("summary JSON parses");
    assert_eq!(
        summary.get("iterations").and_then(json::Json::as_f64),
        Some(done as f64)
    );
    assert_eq!(
        summary
            .get("meta")
            .and_then(|m| m.get("netlist"))
            .and_then(json::Json::as_str),
        Some("telemetry")
    );
    // The cumulative profile knows the phases instrumented in the core
    // transformation loop.
    let profile: Vec<&str> = report.profile.iter().map(|p| p.name.as_str()).collect();
    for phase in ["place.density_map", "place.field_solve", "place.solve_x"] {
        assert!(profile.contains(&phase), "profile missing {phase}: {profile:?}");
    }
    // CG solves inside the transformations feed the counters.
    assert!(report
        .counters
        .iter()
        .any(|(name, value)| name == "cg.iterations" && *value > 0));
}

#[test]
fn disabled_tracing_records_nothing_and_costs_no_events() {
    let _guard = sink_lock();
    trace::uninstall();
    let netlist = generate(&SynthConfig::with_size("telemetry_off", 120, 150, 5));
    let mut session = PlacementSession::new(&netlist, KraftwerkConfig::fast());
    session.transform();
    assert!(!trace::enabled());
    // Installing a recorder afterwards must start from a clean slate.
    let recorder = Arc::new(RunRecorder::new());
    trace::install(recorder.clone());
    trace::uninstall();
    let report = recorder.report();
    assert!(report.iterations.is_empty());
    assert!(report.profile.is_empty());
}
