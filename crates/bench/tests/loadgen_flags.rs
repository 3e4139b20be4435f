//! `loadgen`'s command line: `--help` prints the usage and exits 0, and
//! every unknown argument, missing value or malformed value exits 2 with
//! one `error:` line before anything starts — no daemon, no banner.

use std::process::{Command, Output};

fn loadgen(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(args)
        .output()
        .expect("loadgen runs")
}

#[test]
fn help_prints_the_usage_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = loadgen(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: loadgen"), "{flag}: {stdout}");
        assert!(stdout.contains("--latency-out"), "{flag}: {stdout}");
    }
}

#[test]
fn bad_arguments_exit_2_with_one_error_line_and_start_nothing() {
    for args in [
        &["--cells", "x"][..],
        &["--cells", "0"],
        &["--jobs", "-3"],
        &["--clients", "1,a"],
        &["--clients", ""],
        &["--workers", "two"],
        &["--mode", "turbo"],
        &["--addr", "nonsense"],
        &["--deadline", "soon"],
        &["--cells"],
        &["--bogus"],
        &["--jobs", "4", "extra"],
    ] {
        let out = loadgen(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} started a run: {}", String::from_utf8_lossy(&out.stdout));
    }
}
