//! End-to-end checks of the `kraftwerk` binary's argument handling: a
//! mistyped or removed flag is a usage error (exit 2) that runs nothing
//! and writes nothing, and `place --trace` writes the one run artifact.
//!
//! Each case runs the real binary in a fresh temporary directory.

use kraftwerk::trace::json::{self, Json};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The sorted file names in `dir`.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("listable dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

/// Runs the binary in `dir` and returns its exit code and stdout. A run
/// that has not finished after 60 s (a daemon that started anyway) is
/// killed and reported as `None`.
fn run(dir: &Path, args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_kraftwerk"))
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary starts");
    let started = Instant::now();
    while child.try_wait().expect("child status").is_none() {
        if started.elapsed() > Duration::from_secs(60) {
            let _ = child.kill();
            let _ = child.wait();
            return (None, String::new());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("child output");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// A fresh directory for one case, holding a small netlist `t.kw`.
fn dir_with_netlist(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kraftwerk-cli-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temporary dir");
    let (code, _) = run(&dir, &["gen", "t", "60", "80", "3"]);
    assert_eq!(code, Some(0), "gen failed");
    dir
}

#[test]
fn unknown_and_removed_flags_are_usage_errors_that_write_nothing() {
    let cases: [&[&str]; 8] = [
        &["place", "t.kw", "--repotr", "r.json"],
        &["place", "t.kw", "--report", "r.json"],
        &["place", "t.kw", "--perfetto", "trace.json"],
        &[
            "bench",
            "--json",
            "--max-cells",
            "0",
            "--modez",
            "fast",
            "-o",
            "rows.json",
        ],
        &["gen", "g", "100", "120", "5", "--sed", "3"],
        &["serve", "--addr", "127.0.0.1:0", "--wokers", "2"],
        &["inspect", "run.jsonl", "--perfeto", "t.json"],
        &["bookshelf", "t.kw", "--out", "bs"],
    ];
    for (i, args) in cases.iter().enumerate() {
        let dir = dir_with_netlist(&format!("typo{i}"));
        let before = listing(&dir);
        let (code, _) = run(&dir, args);
        assert_eq!(code, Some(2), "{args:?} must exit 2");
        assert_eq!(listing(&dir), before, "{args:?} wrote output");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_bare_trace_flag_fails_before_the_run() {
    let dir = dir_with_netlist("bare-trace");
    let before = listing(&dir);
    let (code, _) = run(&dir, &["place", "t.kw", "--fast", "--trace"]);
    assert!(code.is_some_and(|c| c != 0), "bare --trace must fail");
    assert_eq!(listing(&dir), before, "bare --trace wrote output");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_trace_stream_closes_with_the_summary_and_tracing_leaves_the_heap_table_alone() {
    let dir = dir_with_netlist("trace");
    // The per-phase rows of the heap table, every column but `peak
    // bytes`: that one is the process-wide high-water mark, which moves
    // with how a worker's release of a finished job interleaves with the
    // next allocation.
    let rows = |stdout: &str| -> Vec<Vec<String>> {
        stdout
            .lines()
            .skip(1)
            .take_while(|l| !l.starts_with("process totals"))
            .map(|l| {
                let mut cols: Vec<String> = l.split_whitespace().map(String::from).collect();
                cols.remove(4);
                cols
            })
            .collect()
    };
    let (code, plain) = run(&dir, &["place", "t.kw", "--fast", "-q", "--alloc-stats"]);
    assert_eq!(code, Some(0));
    let (code, traced) = run(
        &dir,
        &[
            "place",
            "t.kw",
            "--fast",
            "-q",
            "--alloc-stats",
            "--trace",
            "run.jsonl",
        ],
    );
    assert_eq!(code, Some(0));
    assert!(!rows(&plain).is_empty(), "no heap table rows: {plain}");
    assert_eq!(
        rows(&plain),
        rows(&traced),
        "tracing changed the heap table"
    );

    let stream = std::fs::read_to_string(dir.join("run.jsonl")).expect("stream written");
    let last = stream.lines().last().expect("non-empty stream");
    let summary = json::parse(last).expect("summary parses");
    assert_eq!(summary.get("type").and_then(Json::as_str), Some("summary"));
    let profile = summary
        .get("profile")
        .and_then(Json::as_array)
        .expect("profile");
    let names: Vec<&str> = profile
        .iter()
        .filter_map(|p| p.get("phase").and_then(Json::as_str))
        .collect();
    for phase in ["place.field_assembly", "legalize.abacus", "legalize.refine"] {
        assert!(
            names.contains(&phase),
            "summary profile misses {phase}: {names:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
