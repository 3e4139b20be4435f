//! End-to-end checks of the `kraftwerk` binary's argument handling: a
//! mistyped or removed flag is a usage error (exit 2) that runs nothing
//! and writes nothing, `place --trace` writes the one run artifact,
//! `place` reports whether the run converged and how far legalization
//! moved the cells, and `timing` rejects bad input with the exit code
//! and single `error:` line of `place`.
//!
//! Each case runs the real binary in a fresh temporary directory.

use kraftwerk::trace::json::{self, Json};
use kraftwerk::trace::{RunReport, Value};
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

/// Runs the binary in `dir` and returns its exit code, stdout and stderr.
/// A run that has not finished after 60 s (a daemon that started anyway)
/// is killed and reported as `None`.
fn run(dir: &Path, args: &[&str]) -> (Option<i32>, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_kraftwerk"))
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    let started = Instant::now();
    while child.try_wait().expect("child status").is_none() {
        if started.elapsed() > Duration::from_secs(60) {
            let _ = child.kill();
            let _ = child.wait();
            return (None, String::new(), String::new());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("child output");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A fresh directory for one case, holding a small netlist `t.kw`.
fn dir_with_netlist(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kraftwerk-cli-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temporary dir");
    let (code, ..) = run(&dir, &["gen", "t", "60", "80", "3"]);
    assert_eq!(code, Some(0), "gen failed");
    dir
}

#[test]
fn unknown_and_removed_flags_are_usage_errors_that_write_nothing() {
    let cases: [&[&str]; 9] = [
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
        &["serve", "--addr", "127.0.0.1:0", "--no-retry"],
        &["inspect", "run.jsonl", "--perfeto", "t.json"],
        &["bookshelf", "t.kw", "--out", "bs"],
    ];
    for (i, args) in cases.iter().enumerate() {
        let dir = dir_with_netlist(&format!("typo{i}"));
        let before = listing(&dir);
        let (code, ..) = run(&dir, args);
        assert_eq!(code, Some(2), "{args:?} must exit 2");
        assert_eq!(listing(&dir), before, "{args:?} wrote output");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_bare_trace_flag_fails_before_the_run() {
    let dir = dir_with_netlist("bare-trace");
    let before = listing(&dir);
    let (code, ..) = run(&dir, &["place", "t.kw", "--fast", "--trace"]);
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
    let (code, plain, _) = run(&dir, &["place", "t.kw", "--fast", "-q", "--alloc-stats"]);
    assert_eq!(code, Some(0));
    let (code, traced, _) = run(
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
    let last = json::parse(stream.lines().last().expect("non-empty stream")).expect("parses");
    assert_eq!(last.get("type").and_then(Json::as_str), Some("summary"));
    let run = RunReport::from_jsonl(&stream).expect("stream reads");
    let names: Vec<&str> = run.profile.iter().map(|p| p.name.as_str()).collect();
    for phase in ["place.field_assembly", "legalize.abacus", "legalize.refine"] {
        assert!(
            names.contains(&phase),
            "summary profile misses {phase}: {names:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn place_reports_convergence_and_spread_in_its_line_and_trace_meta() {
    let dir = dir_with_netlist("spread");
    let (code, stdout, _) = run(&dir, &["place", "t.kw", "--fast", "--trace", "run.jsonl"]);
    assert_eq!(code, Some(0));
    let line = stdout
        .lines()
        .find(|l| l.starts_with("placed "))
        .expect("placed line");
    let stream = std::fs::read_to_string(dir.join("run.jsonl")).expect("stream written");
    let run = RunReport::from_jsonl(&stream).expect("stream reads");
    let meta = |key: &str| run.meta.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
    let Some(Value::Bool(converged)) = meta("converged") else {
        panic!("meta lacks a boolean `converged`: {:?}", run.meta);
    };
    let spread = meta("spread_rows")
        .and_then(|v| v.as_f64())
        .expect("meta carries `spread_rows`");
    assert!(spread.is_finite() && spread >= 0.0, "spread {spread}");
    assert!(
        line.contains(&format!("converged: {converged}, spread {spread:.2} rows")),
        "the placed line disagrees with the stream's meta: {line}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes `t.kw` edited line by line as `bad.kw`, asserting that the edit
/// changed something, then runs `place` and `timing` on it: both must
/// exit with `code` and print one `error:` line (no panic, no backtrace).
fn place_and_timing_reject(case: &str, edit: impl Fn(&str) -> Option<String>, code: i32) {
    let dir = dir_with_netlist(case);
    let text = std::fs::read_to_string(dir.join("t.kw")).expect("netlist");
    let bad: String = text.lines().filter_map(&edit).map(|l| l + "\n").collect();
    assert_ne!(bad, text, "the edit changed nothing");
    std::fs::write(dir.join("bad.kw"), bad).expect("write netlist");
    for cmd in ["place", "timing"] {
        let (got, _, stderr) = run(&dir, &[cmd, "bad.kw", "-q"]);
        assert_eq!(got, Some(code), "{cmd} exit code; stderr:\n{stderr}");
        let lines: Vec<&str> = stderr.lines().collect();
        assert!(
            lines.len() == 1 && lines[0].starts_with("error: "),
            "{cmd} must print one error line, got:\n{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn timing_without_rows_fails_to_legalize_like_place() {
    place_and_timing_reject(
        "no-rows",
        |l| (!l.starts_with("rows ")).then(|| l.to_string()),
        7,
    );
}

#[test]
fn timing_validates_the_netlist_like_place() {
    // `pad0` moved from the core's edge to (-5000, -5000).
    let far_pad = |l: &str| {
        let fields: Vec<&str> = l.split_whitespace().collect();
        Some(match fields.as_slice() {
            ["cell", "pad0", w, h, "fixed", _, _] => format!("cell pad0 {w} {h} fixed -5000 -5000"),
            _ => l.to_string(),
        })
    };
    place_and_timing_reject("far-pad", far_pad, 5);
}
