//! Adversarial integration tests for the placement daemon: every frame a
//! hostile or unlucky client can send — truncated frames, oversized
//! netlists, NaN numerics, duplicate job ids, disconnects mid-stream —
//! must produce the right structured error class, and the daemon must
//! keep serving afterwards. The fault-injection matrix (parse,
//! divergence, deadline, stall) is exercised end to end over the wire.

use std::time::Duration;

use kraftwerk::netlist::format::{read_placement, write_netlist};
use kraftwerk::netlist::synth::{generate, SynthConfig};
use kraftwerk::serve::{Client, ClientError, Mode, PlaceOptions, ServeConfig, Server, ServerHandle};
use kraftwerk::trace::json::Json;
use kraftwerk::trace::{RunReport, Value};

/// Starts an in-process daemon on a free port; the join handle yields the
/// run summary after [`ServerHandle::shutdown`].
fn start(cfg: ServeConfig) -> (
    ServerHandle,
    std::thread::JoinHandle<std::io::Result<kraftwerk::serve::ServerSummary>>,
) {
    let server = Server::bind(cfg).expect("bind on a free port");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (handle, join)
}

fn netlist_text(name: &str, cells: usize, nets: usize, rows: usize) -> String {
    write_netlist(&generate(&SynthConfig::with_size(name, cells, nets, rows)))
}

fn quick() -> PlaceOptions {
    PlaceOptions {
        max_transformations: Some(8),
        ..PlaceOptions::default()
    }
}

#[test]
fn good_job_round_trips_with_progress_and_placement() {
    let (handle, join) = start(ServeConfig::default());
    let mut c = Client::connect(handle.addr()).expect("connect");
    let text = netlist_text("srv-good", 60, 80, 4);
    let opts = PlaceOptions {
        return_placement: true,
        progress_every: 1,
        ..quick()
    };
    let out = c.place("good-1", &text, &opts).expect("transport ok");
    assert_eq!(out.status, "ok", "healthy job must not degrade");
    assert!(out.hpwl.is_finite() && out.hpwl > 0.0);
    assert!(out.iterations > 0);
    assert!(out.progress_frames > 0, "progress_every=1 must stream");
    let placement_text = out.placement.expect("placement requested");
    let nl = kraftwerk::netlist::format::read_netlist(&text).expect("own netlist");
    let placement = read_placement(&nl, &placement_text).expect("returned placement parses");
    assert_eq!(placement.len(), nl.num_cells());
    handle.shutdown();
    let summary = join.join().expect("no panic").expect("clean run");
    assert_eq!(summary.jobs_ok, 1);
    assert_eq!(summary.jobs_failed, 0);
}

#[test]
fn malformed_and_truncated_frames_answer_protocol_errors() {
    let (handle, join) = start(ServeConfig::default());
    let mut c = Client::connect(handle.addr()).expect("connect");
    // Not JSON at all.
    c.send_raw("this is not json").expect("send");
    let frame = c.read_frame().expect("frame");
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("error"));
    assert_eq!(frame.get("stage").and_then(Json::as_str), Some("protocol"));
    assert_eq!(frame.get("code").and_then(Json::as_f64), Some(2.0));
    // A truncated JSON object (the classic torn frame).
    c.send_raw("{\"type\":\"place\",\"id\":\"t1\",\"netl").expect("send");
    let frame = c.read_frame().expect("frame");
    assert_eq!(frame.get("stage").and_then(Json::as_str), Some("protocol"));
    // Wrong shape: valid JSON, missing everything.
    c.send_raw("{\"type\":\"place\"}").expect("send");
    let frame = c.read_frame().expect("frame");
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("error"));
    // The same connection still serves a good job afterwards.
    let text = netlist_text("srv-after-garbage", 40, 50, 4);
    let out = c.place("after-garbage", &text, &quick()).expect("transport");
    assert_eq!(out.status, "ok");
    handle.shutdown();
    let summary = join.join().expect("no panic").expect("clean run");
    assert_eq!(summary.jobs_ok, 1);
}

#[test]
fn oversized_netlist_is_rejected_and_stream_resyncs() {
    let cfg = ServeConfig {
        max_frame_bytes: 16384,
        ..ServeConfig::default()
    };
    let (handle, join) = start(cfg);
    let mut c = Client::connect(handle.addr()).expect("connect");
    // Well over the 16 KiB frame cap.
    let big = netlist_text("srv-big", 400, 500, 8);
    assert!(big.len() > 16384);
    let opts = quick();
    let out = c.place("too-big", &big, &opts).expect("transport");
    assert_eq!(out.status, "error");
    assert_eq!(out.error_stage.as_deref(), Some("validation"));
    assert_eq!(out.error_code, Some(5));
    // The reader resynced at the newline: a small job still works.
    let small = netlist_text("srv-small", 20, 25, 4);
    let out = c.place("small-after-big", &small, &opts).expect("transport");
    assert_eq!(out.status, "ok");
    handle.shutdown();
    join.join().expect("no panic").expect("clean run");
}

#[test]
fn near_cap_frame_is_decoded_promptly_and_daemon_keeps_serving() {
    let cfg = ServeConfig::default();
    let cap = cfg.max_frame_bytes;
    let (handle, join) = start(cfg);
    let mut c = Client::connect(handle.addr()).expect("connect");
    // ~8 MiB of netlist-shaped lines with no `kraftwerk-netlist 1` header:
    // the frame is legal on the wire, so it must be decoded in full before
    // the worker's netlist parser rejects it.
    let line = "cell c12345 4.25 1.0 std # no header above\n";
    let lines = (cap - 1024) / (line.len() + 1);
    let netlist = line.repeat(lines);
    let opts = quick();
    let frame = place_frame("near-cap", &netlist, &opts);
    assert!(frame.len() <= cap && frame.len() > cap - 2048, "frame is {} bytes", frame.len());
    let started = std::time::Instant::now();
    let out = c.place("near-cap", &netlist, &opts).expect("transport");
    let elapsed = started.elapsed();
    assert_eq!(out.status, "error");
    assert_eq!(out.error_stage.as_deref(), Some("parse"));
    assert_eq!(out.error_code, Some(4));
    // A decoder quadratic in the frame size needs tens of minutes here.
    assert!(elapsed < Duration::from_secs(20), "near-cap job took {elapsed:?}");
    // The daemon keeps serving on the same connection.
    let small = netlist_text("srv-after-near-cap", 20, 25, 4);
    let out = c.place("after-near-cap", &small, &opts).expect("transport");
    assert_eq!(out.status, "ok");
    handle.shutdown();
    let summary = join.join().expect("no panic").expect("clean run");
    assert_eq!(summary.jobs_ok, 1);
    assert_eq!(summary.jobs_failed, 1);
}

#[test]
fn nan_numerics_in_netlist_fail_with_parse_class() {
    let (handle, join) = start(ServeConfig::default());
    let mut c = Client::connect(handle.addr()).expect("connect");
    // Corrupt the first cell's width into NaN; the boundary parser
    // rejects non-finite numerics with the parse class.
    let text = netlist_text("srv-nan", 40, 50, 4);
    let nan_text: String = text
        .lines()
        .map(|line| {
            if line.starts_with("cell ") {
                let mut parts: Vec<&str> = line.split_whitespace().collect();
                parts[2] = "NaN";
                parts.join(" ")
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    let out = c.place("nan-job", &nan_text, &quick()).expect("transport");
    assert_eq!(out.status, "error");
    assert_eq!(out.error_stage.as_deref(), Some("parse"));
    assert_eq!(out.error_code, Some(4));
    // Isolation: the daemon still serves.
    let out = c.place("after-nan", &text, &quick()).expect("transport");
    assert_eq!(out.status, "ok");
    handle.shutdown();
    join.join().expect("no panic").expect("clean run");
}

#[test]
fn duplicate_in_flight_job_id_is_rejected() {
    let (handle, join) = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let text = netlist_text("srv-dup", 60, 80, 4);
    let mut c1 = Client::connect(handle.addr()).expect("connect 1");
    let mut c2 = Client::connect(handle.addr()).expect("connect 2");
    // Job 1 stalls its worker for STALL_MS, guaranteeing it is still in
    // flight when the duplicate arrives on the second connection.
    let stall_opts = PlaceOptions {
        fault: Some("stall"),
        ..quick()
    };
    c1.send_raw(&place_frame("dup-id", &text, &stall_opts)).expect("send");
    std::thread::sleep(Duration::from_millis(60));
    let out2 = c2.place("dup-id", &text, &quick()).expect("transport");
    assert_eq!(out2.status, "error");
    assert_eq!(out2.error_stage.as_deref(), Some("validation"));
    assert_eq!(out2.error_code, Some(5));
    // The original job is unaffected.
    let out1 = c1.wait_for_outcome("dup-id").expect("transport");
    assert!(out1.status == "ok" || out1.status == "degraded");
    // Once finished, the id is free again.
    let out3 = c2.place("dup-id", &text, &quick()).expect("transport");
    assert!(out3.status == "ok" || out3.status == "degraded");
    handle.shutdown();
    join.join().expect("no panic").expect("clean run");
}

/// Builds a raw `place` frame (tests that need to submit without
/// blocking on the outcome).
fn place_frame(id: &str, netlist: &str, opts: &PlaceOptions) -> String {
    let mut o = kraftwerk::trace::json::JsonObject::new();
    o.str_field("type", "place");
    o.str_field("id", id);
    o.str_field("mode", opts.mode.name());
    o.str_field("netlist", netlist);
    if let Some(cap) = opts.max_transformations {
        o.u64_field("max_transformations", cap as u64);
    }
    o.u64_field("progress_every", opts.progress_every as u64);
    if let Some(fault) = opts.fault {
        o.str_field("fault", fault);
    }
    o.finish()
}

#[test]
fn full_queue_answers_busy_with_retry_hint() {
    let (handle, join) = start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        retry_after_ms: 77,
        ..ServeConfig::default()
    });
    let text = netlist_text("srv-busy", 60, 80, 4);
    let mut c = Client::connect(handle.addr()).expect("connect");
    let stall_opts = PlaceOptions {
        fault: Some("stall"),
        ..quick()
    };
    // j1 occupies the single worker (stalled >= 250 ms), j2 fills the
    // queue, j3 must bounce with the configured retry hint.
    c.send_raw(&place_frame("busy-1", &text, &stall_opts)).expect("send");
    std::thread::sleep(Duration::from_millis(80));
    c.send_raw(&place_frame("busy-2", &text, &quick())).expect("send");
    std::thread::sleep(Duration::from_millis(20));
    c.send_raw(&place_frame("busy-3", &text, &quick())).expect("send");
    let out3 = c.wait_for_outcome("busy-3").expect("transport");
    assert_eq!(out3.status, "busy", "third job must hit backpressure");
    assert_eq!(out3.retry_after_ms, Some(77));
    let out1 = c.wait_for_outcome("busy-1").expect("transport");
    assert!(out1.status == "ok" || out1.status == "degraded");
    let out2 = c.wait_for_outcome("busy-2").expect("transport");
    assert!(out2.status == "ok" || out2.status == "degraded");
    // A rejected id is immediately reusable.
    let out = c.place("busy-3", &text, &quick()).expect("transport");
    assert!(out.status == "ok" || out.status == "degraded");
    handle.shutdown();
    let summary = join.join().expect("no panic").expect("clean run");
    assert_eq!(summary.jobs_rejected, 1);
    assert_eq!(summary.jobs_failed, 0);
}

#[test]
fn disconnect_mid_stream_leaves_daemon_serving() {
    let (handle, join) = start(ServeConfig::default());
    let text = netlist_text("srv-drop", 80, 100, 4);
    {
        let mut c = Client::connect(handle.addr()).expect("connect");
        let opts = PlaceOptions {
            progress_every: 1,
            ..PlaceOptions::default()
        };
        c.send_raw(&place_frame("dropped", &text, &opts)).expect("send");
        // Drop the connection while the job streams progress.
    }
    std::thread::sleep(Duration::from_millis(50));
    // The daemon is alive and the dropped job completed server-side.
    let mut c = Client::connect(handle.addr()).expect("reconnect");
    let out = c.place("after-drop", &text, &quick()).expect("transport");
    assert_eq!(out.status, "ok");
    // Wait for the dropped job to finish, then check it was counted.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let stats = c.stats().expect("stats");
        let done = stats.get("jobs_ok").and_then(Json::as_f64).unwrap_or(0.0)
            + stats.get("jobs_degraded").and_then(Json::as_f64).unwrap_or(0.0);
        if done >= 2.0 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "dropped job never finished");
        std::thread::sleep(Duration::from_millis(25));
    }
    handle.shutdown();
    join.join().expect("no panic").expect("clean run");
}

#[test]
fn fault_matrix_parse_divergence_deadline_stall() {
    let (handle, join) = start(ServeConfig::default());
    let mut c = Client::connect(handle.addr()).expect("connect");
    let text = netlist_text("srv-fault", 150, 200, 6);

    // parse: corrupted netlist → structured parse error, daemon alive.
    let out = c
        .place("f-parse", &text, &PlaceOptions { fault: Some("parse"), ..quick() })
        .expect("transport");
    assert_eq!(out.status, "error");
    assert_eq!(out.error_stage.as_deref(), Some("parse"));
    assert_eq!(out.error_code, Some(4));

    // divergence: every held step diverges, so the session spends its
    // three recoveries and returns its checkpoint degraded. The job runs
    // one session: the raw result frame reports one ladder and no retry.
    let opts = PlaceOptions { fault: Some("divergence"), ..PlaceOptions::default() };
    c.send_raw(&place_frame("f-diverge", &text, &opts)).expect("send");
    let frame = loop {
        let frame = c.read_frame().expect("frame");
        if !matches!(frame.get("type").and_then(Json::as_str), Some("queued" | "progress")) {
            break frame;
        }
    };
    let field = |key: &str| frame.get(key).and_then(Json::as_f64);
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("result"));
    assert_eq!(frame.get("status").and_then(Json::as_str), Some("degraded"));
    assert_eq!(field("trips"), Some(4.0));
    assert_eq!(field("recoveries"), Some(3.0));
    assert!(frame.get("retried").is_none(), "a job runs once");

    // deadline: an already-expired budget returns the checkpointed state
    // immediately, marked budget_exhausted.
    let out = c
        .place(
            "f-deadline",
            &text,
            &PlaceOptions { fault: Some("deadline"), ..PlaceOptions::default() },
        )
        .expect("transport");
    assert_eq!(out.status, "degraded");
    assert!(out.budget_exhausted);
    assert_eq!(out.iterations, 0);

    // stall: the worker sleeps mid-job but the generous default deadline
    // absorbs it.
    let out = c
        .place("f-stall", &text, &PlaceOptions { fault: Some("stall"), ..quick() })
        .expect("transport");
    assert!(out.status == "ok" || out.status == "degraded");
    assert!(out.wall_ms >= kraftwerk::serve::fault::STALL_MS);
    // The multilevel V-cycle has no per-transformation observer; its
    // worker sleeps before the V-cycle instead.
    let out = c
        .place(
            "f-stall-ml",
            &text,
            &PlaceOptions { mode: Mode::Multilevel, fault: Some("stall"), ..quick() },
        )
        .expect("transport");
    assert!(out.status == "ok" || out.status == "degraded");
    assert!(out.wall_ms >= kraftwerk::serve::fault::STALL_MS, "{} ms", out.wall_ms);

    // The same connection still serves a clean job after the whole matrix.
    let out = c.place("f-clean", &text, &quick()).expect("transport");
    assert_eq!(out.status, "ok");
    handle.shutdown();
    join.join().expect("no panic").expect("clean run");
}

#[test]
fn env_fault_applies_daemon_wide() {
    // The per-job flag and KRAFTWERK_FAULT share FaultKind::from_env;
    // exercise the config-level daemon-wide fault (the env var's landing
    // spot) without mutating process environment in a threaded test.
    let (handle, join) = start(ServeConfig {
        fault: Some(kraftwerk::serve::FaultKind::Parse),
        ..ServeConfig::default()
    });
    let mut c = Client::connect(handle.addr()).expect("connect");
    let text = netlist_text("srv-envfault", 40, 50, 4);
    let out = c.place("env-1", &text, &quick()).expect("transport");
    assert_eq!(out.status, "error");
    assert_eq!(out.error_stage.as_deref(), Some("parse"));
    handle.shutdown();
    join.join().expect("no panic").expect("clean run");
}

#[test]
fn journal_records_jobs_and_recover_replays_them() {
    let dir = std::env::temp_dir().join(format!("kw-serve-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (handle, join) = start(ServeConfig {
        journal_dir: Some(dir.clone()),
        journal_positions_every: 1,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(handle.addr()).expect("connect");
    let text = netlist_text("srv-journal", 40, 50, 4);
    let out = c.place("journaled", &text, &quick()).expect("transport");
    assert_eq!(out.status, "ok");
    // The recover frame replays the finished job with its positions.
    c.send_raw("{\"type\":\"recover\",\"include_placement\":true}").expect("send");
    let frame = c.read_frame().expect("frame");
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("recovered"));
    let jobs = frame.get("jobs").and_then(Json::as_array).expect("jobs array");
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].get("id").and_then(Json::as_str), Some("journaled"));
    assert_eq!(jobs[0].get("finished").map(|v| matches!(v, Json::Bool(true))), Some(true));
    let replayed = jobs[0]
        .get("placement")
        .and_then(Json::as_str)
        .expect("positions journaled");
    let nl = kraftwerk::netlist::format::read_netlist(&text).expect("own netlist");
    assert!(read_placement(&nl, replayed).is_ok());
    // The journal file itself survives daemon shutdown (crash-safety is
    // exactly that the file outlives the process).
    handle.shutdown();
    join.join().expect("no panic").expect("clean run");
    let recovered = kraftwerk::serve::recover_journals(&dir);
    assert_eq!(recovered.len(), 1);
    assert!(recovered[0].finished);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn multilevel_mode_serves_over_the_wire() {
    let (handle, join) = start(ServeConfig::default());
    let mut c = Client::connect(handle.addr()).expect("connect");
    let text = netlist_text("srv-ml", 300, 400, 8);
    let ml = PlaceOptions {
        mode: Mode::Multilevel,
        ..PlaceOptions::default()
    };
    let out = c.place("ml-1", &text, &ml).expect("transport");
    assert_eq!(out.status, "ok");
    assert!(out.hpwl.is_finite() && out.hpwl > 0.0);
    assert!(out.iterations > 0);
    // The V-cycle builds its own arena: multilevel jobs neither take one
    // from the pool nor return one, so only the second fast job reuses
    // the arena the first fast job filled.
    let fast = PlaceOptions::default();
    let pooled: Vec<bool> = [("fast-1", &fast), ("ml-2", &ml), ("fast-2", &fast)]
        .into_iter()
        .map(|(id, opts)| {
            let out = c.place(id, &text, opts).expect("transport");
            assert_eq!(out.status, "ok", "{id}");
            out.arena_pooled
        })
        .collect();
    assert!(!out.arena_pooled, "ml-1 must not count as a pooled arena");
    assert_eq!(pooled, [false, false, true]);
    handle.shutdown();
    let summary = join.join().expect("no panic").expect("clean run");
    assert_eq!(summary.arena_reuses, 1);
}

#[test]
fn shutdown_frame_drains_and_stops_the_daemon() {
    let (handle, join) = start(ServeConfig::default());
    let mut c = Client::connect(handle.addr()).expect("connect");
    let pong = c.ping().expect("pong");
    assert_eq!(pong.get("type").and_then(Json::as_str), Some("pong"));
    c.shutdown().expect("shutdown handshake");
    let summary = join.join().expect("no panic").expect("clean run");
    assert_eq!(summary.connections, 1);
    // A fresh connect must now fail (the listener is gone).
    std::thread::sleep(Duration::from_millis(20));
    assert!(matches!(
        Client::connect(handle.addr()),
        Err(ClientError::Io(_)) | Err(ClientError::Disconnected)
    ));
}

#[test]
fn stats_frame_reports_service_metrics() {
    let (handle, join) = start(ServeConfig::default());
    let mut c = Client::connect(handle.addr()).expect("connect");
    let text = netlist_text("srv-stats", 60, 80, 4);
    assert_eq!(c.place("st-1", &text, &quick()).expect("transport").status, "ok");
    let out = c
        .place("st-2", &text, &PlaceOptions { fault: Some("parse"), ..quick() })
        .expect("transport");
    assert_eq!(out.status, "error");
    // The solve-wall sample is observed a moment after the result frame
    // is sent, so poll until both histograms have absorbed both jobs
    // before asserting on the snapshot.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let stats = c.stats().expect("stats");
        let count = |k: &str| {
            stats.get(k).and_then(|s| s.get("count")).and_then(Json::as_f64).unwrap_or(0.0)
        };
        if count("queue_wait_s") >= 2.0 && count("solve_wall_s") >= 2.0 {
            break stats;
        }
        assert!(std::time::Instant::now() < deadline, "histograms never reached 2 samples");
        std::thread::sleep(Duration::from_millis(10));
    };
    let num = |k: &str| stats.get(k).and_then(Json::as_f64);
    assert_eq!(num("jobs_ok"), Some(1.0));
    assert_eq!(num("jobs_failed"), Some(1.0));
    assert_eq!(num("queue_depth"), Some(0.0));
    assert_eq!(num("in_flight"), Some(0.0));
    assert!(num("workers").unwrap_or(0.0) >= 1.0);
    assert!(num("queue_capacity").unwrap_or(0.0) >= 1.0);
    assert!(num("uptime_s").unwrap_or(-1.0) >= 0.0);
    // Latency summaries: both jobs were picked up and finished, so both
    // histograms carry two samples with finite percentile estimates.
    for family in ["queue_wait_s", "solve_wall_s"] {
        let summary = stats.get(family).unwrap_or_else(|| panic!("{family} in stats"));
        assert_eq!(summary.get("count").and_then(Json::as_f64), Some(2.0));
        for q in ["p50", "p90", "p99"] {
            let v = summary.get(q).and_then(Json::as_f64).unwrap_or(f64::NAN);
            assert!(v.is_finite() && v >= 0.0, "{family}.{q} = {v}");
        }
    }
    handle.shutdown();
    join.join().expect("no panic").expect("clean run");
}

#[test]
fn trace_id_round_trips_frames_and_run_report() {
    let report_dir =
        std::env::temp_dir().join(format!("kw-serve-reports-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&report_dir);
    let (handle, join) = start(ServeConfig {
        report_dir: Some(report_dir.clone()),
        ..ServeConfig::default()
    });
    let mut c = Client::connect(handle.addr()).expect("connect");
    let text = netlist_text("srv-trace", 60, 80, 4);

    // Raw frames: every response frame for the job must echo the id.
    let mut o = kraftwerk::trace::json::JsonObject::new();
    o.str_field("type", "place");
    o.str_field("id", "traced-1");
    o.str_field("mode", "fast");
    o.str_field("netlist", &text);
    o.u64_field("progress_every", 1);
    o.str_field("trace_id", "trace-abc.123");
    c.send_raw(&o.finish()).expect("send");
    let mut seen_progress = false;
    loop {
        let frame = c.read_frame().expect("frame");
        let kind = frame.get("type").and_then(Json::as_str).unwrap_or("");
        if matches!(kind, "queued" | "progress" | "result" | "error" | "busy") {
            assert_eq!(
                frame.get("trace_id").and_then(Json::as_str),
                Some("trace-abc.123"),
                "{kind} frame must echo the client trace id"
            );
        }
        if kind == "progress" {
            seen_progress = true;
        }
        if matches!(kind, "result" | "error" | "busy") {
            assert_eq!(kind, "result");
            break;
        }
    }
    assert!(seen_progress, "progress_every=1 must stream progress frames");

    // The client surfaces the echoed id on the outcome too.
    let opts = PlaceOptions {
        trace_id: Some("trace-xyz".into()),
        ..quick()
    };
    let out = c.place("traced-2", &text, &opts).expect("transport");
    assert_eq!(out.status, "ok");
    assert_eq!(out.trace_id.as_deref(), Some("trace-xyz"));
    assert!(out.queue_depth.is_some(), "queued ack carries queue depth");

    // An invalid trace id is a structured validation error.
    let out = c
        .place(
            "traced-bad",
            &text,
            &PlaceOptions { trace_id: Some("bad id with spaces".into()), ..quick() },
        )
        .expect("transport");
    assert_eq!(out.status, "error");
    assert_eq!(out.error_code, Some(5));

    handle.shutdown();
    join.join().expect("no panic").expect("clean run");

    // Both successful jobs left run reports whose meta record joins the
    // service-side trace id to the solver-level report. Each file has the
    // `--trace` shape: it reads back to itself byte for byte, holds the
    // job's transformations and renders as a dashboard.
    for (job, trace) in [("traced-1", "trace-abc.123"), ("traced-2", "trace-xyz")] {
        let path = report_dir.join(format!("{job}.jsonl"));
        let report = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{} unreadable: {e}", path.display()));
        let run = RunReport::from_jsonl(&report).expect("report reads");
        assert_eq!(run.to_jsonl(), report, "{job}: no exact round trip");
        assert!(!run.iterations.is_empty(), "{job}: no iteration record");
        let html = kraftwerk::inspect::render_report(&report).expect("report renders");
        assert!(html.contains("id=\"chart-hpwl\""), "{job}: no dashboard");
        let meta = |key| run.meta.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        assert_eq!(meta("trace_id").and_then(Value::as_str), Some(trace));
        assert_eq!(meta("job_id").and_then(Value::as_str), Some(job));
        assert_eq!(meta("status").and_then(Value::as_str), Some("ok"));
        let hpwl = meta("hpwl").and_then(Value::as_f64);
        assert!(hpwl.is_some_and(|v| v.is_finite() && v > 0.0));
    }
    let _ = std::fs::remove_dir_all(&report_dir);
}

/// Minimal HTTP GET against the metrics sidecar.
fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("sidecar connect");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
        .expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn metrics_sidecar_serves_prometheus_and_healthz() {
    let (handle, join) = start(ServeConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    });
    let sidecar = handle.metrics_addr().expect("sidecar bound");
    let mut c = Client::connect(handle.addr()).expect("connect");
    let text = netlist_text("srv-prom", 60, 80, 4);
    assert_eq!(c.place("prom-1", &text, &quick()).expect("transport").status, "ok");
    let out = c
        .place("prom-2", &text, &PlaceOptions { fault: Some("parse"), ..quick() })
        .expect("transport");
    assert_eq!(out.status, "error");

    let (status, body) = http_get(sidecar, "/metrics");
    assert_eq!(status, 200);
    let sample = |line: &str| {
        body.lines()
            .find(|l| l.starts_with(line))
            .unwrap_or_else(|| panic!("missing series {line} in:\n{body}"))
            .rsplit(' ')
            .next()
            .unwrap()
            .to_string()
    };
    assert_eq!(sample("kraftwerk_jobs_total{outcome=\"ok\"}"), "1");
    assert_eq!(sample("kraftwerk_jobs_total{outcome=\"failed\"}"), "1");
    assert_eq!(sample("kraftwerk_queue_wait_seconds_count"), "2");
    assert_eq!(sample("kraftwerk_solve_wall_seconds_count"), "2");
    assert!(body.contains("kraftwerk_queue_wait_seconds_bucket{le=\""));
    assert!(body.contains("kraftwerk_solve_wall_seconds_bucket{le=\"+Inf\"}"));
    // Exposition is parseable line by line: comments are HELP/TYPE,
    // samples are `name[{labels}] value` with a numeric value.
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            assert!(
                comment.starts_with("HELP ") || comment.starts_with("TYPE "),
                "unexpected comment: {line}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample shape");
        assert!(!series.is_empty());
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "-Inf" || value == "NaN",
            "bad sample value in: {line}"
        );
    }

    let (status, health) = http_get(sidecar, "/healthz");
    assert_eq!(status, 200);
    let parsed = kraftwerk::trace::json::parse(health.trim()).expect("healthz is JSON");
    assert_eq!(parsed.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(parsed.get("queue_depth").and_then(Json::as_f64), Some(0.0));

    let (status, _) = http_get(sidecar, "/nope");
    assert_eq!(status, 404);

    handle.shutdown();
    join.join().expect("no panic").expect("clean run");
}

#[test]
fn non_draining_client_cannot_stall_the_daemon() {
    let (handle, join) = start(ServeConfig {
        workers: 1,
        queue_capacity: 64,
        ..ServeConfig::default()
    });
    let text = netlist_text("srv-nodrain", 80, 100, 4);
    // A raw socket that submits progress-heavy jobs and never reads a
    // byte back: with blocking progress writes a full socket would wedge
    // the single worker forever; best-effort emission must keep jobs
    // finishing.
    let mut writer = std::net::TcpStream::connect(handle.addr()).expect("connect");
    let jobs = 12usize;
    for i in 0..jobs {
        let mut o = kraftwerk::trace::json::JsonObject::new();
        o.str_field("type", "place");
        o.str_field("id", &format!("nodrain-{i}"));
        o.str_field("mode", "fast");
        o.str_field("netlist", &text);
        o.u64_field("progress_every", 1);
        let mut frame = o.finish();
        frame.push('\n');
        std::io::Write::write_all(&mut writer, frame.as_bytes()).expect("submit");
    }
    // From a second connection, wait (bounded) for every job to finish.
    let mut c = Client::connect(handle.addr()).expect("connect 2");
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        let stats = c.stats().expect("stats");
        let done = stats.get("jobs_ok").and_then(Json::as_f64).unwrap_or(0.0)
            + stats.get("jobs_degraded").and_then(Json::as_f64).unwrap_or(0.0)
            + stats.get("jobs_failed").and_then(Json::as_f64).unwrap_or(0.0);
        if done >= jobs as f64 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "non-draining client stalled the daemon: {done}/{jobs} jobs finished"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    // The daemon still serves a well-behaved client afterwards.
    let out = c.place("after-nodrain", &text, &quick()).expect("transport");
    assert_eq!(out.status, "ok");
    handle.shutdown();
    join.join().expect("no panic").expect("clean run");
}

#[test]
fn placement_is_bitwise_deterministic_with_metrics_enabled() {
    // Full observability on: metrics sidecar, run reports, trace ids,
    // progress frames. None of it may perturb the solver.
    let text = netlist_text("srv-det", 120, 160, 6);
    let mut hpwls: Vec<u64> = Vec::new();
    for &threads in &[1usize, 2, 8] {
        kraftwerk::par::set_threads(threads);
        let report_dir = std::env::temp_dir().join(format!(
            "kw-serve-det-{}-{threads}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&report_dir);
        let (handle, join) = start(ServeConfig {
            metrics_addr: Some("127.0.0.1:0".into()),
            report_dir: Some(report_dir.clone()),
            ..ServeConfig::default()
        });
        let mut c = Client::connect(handle.addr()).expect("connect");
        let opts = PlaceOptions {
            trace_id: Some(format!("det-{threads}")),
            progress_every: 1,
            ..PlaceOptions::default()
        };
        let out = c.place("det-job", &text, &opts).expect("transport");
        assert_eq!(out.status, "ok");
        hpwls.push(out.hpwl.to_bits());
        handle.shutdown();
        join.join().expect("no panic").expect("clean run");
        // From two threads up, joined phases may run on pool workers; the
        // job's report must still carry every one of them.
        let report = std::fs::read_to_string(report_dir.join("det-job.jsonl")).expect("job report");
        let iterations: Vec<Json> = report
            .lines()
            .filter_map(|line| kraftwerk::trace::json::parse(line).ok())
            .filter(|r| r.get("type").is_none() && r.get("iteration").is_some())
            .collect();
        assert!(!iterations.is_empty(), "{threads} threads: no iteration records");
        for record in &iterations {
            let phases = record.get("phases").expect("phases");
            for phase in ["place.field_solve", "place.force_assembly", "place.solve_x", "place.solve_y"] {
                assert!(phases.get(phase).is_some(), "{threads} threads: {phase} missing from the report");
            }
        }
        let _ = std::fs::remove_dir_all(&report_dir);
    }
    kraftwerk::par::set_threads(0);
    assert_eq!(
        hpwls[0], hpwls[1],
        "1-thread and 2-thread HPWL must match bitwise with metrics on"
    );
    assert_eq!(hpwls[1], hpwls[2], "2- and 8-thread HPWL must match bitwise");
}
