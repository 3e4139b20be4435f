//! The repository benchmark: one invocation runs one workload for one
//! seed and prints every metric, then the result line.
//!
//! ```text
//! benchmark --workload <mcnc-flat|scale50k|serve-small> --seed <n>
//!           --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! Untraced runs (`--trace 0`) report the end-to-end metrics; traced runs
//! (`--trace 1`) replay the same placer calls with spans and probes and
//! report the per-layer metrics, and `--trace-out` writes the spans as a
//! Chrome trace-event file. Each metric prints as `name value unit`; the
//! last line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. The exit code is 1 when any operation failed its checks and
//! 2 for a usage error. See README.md for the workloads and metrics.

mod host;
mod inputs;
mod place;
mod replay;
mod report;
mod serve;
mod spans;
mod stats;

use inputs::Workload;
use report::Entry;
use std::process::ExitCode;

/// What a workload run produced.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    metrics: Vec<Entry>,
}

impl Outcome {
    fn new() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Counts one operation, recording its failure if it failed.
    fn op<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        result.map_err(|e| self.fail(what, e)).ok()
    }

    /// Marks an already counted operation failed.
    fn fail(&mut self, what: &str, why: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED {what}: {why}"));
    }

    /// Adds a line to the report printed before the result.
    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// A run that could not set up: one attempted, failed operation.
    fn abort(mut self, why: String) -> Self {
        self.attempted += 1;
        self.fail("set-up", why);
        self
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

const USAGE: &str = "usage: benchmark --workload <mcnc-flat|scale50k|serve-small> --seed <n> \
--seconds <s> --trace <0|1> [--trace-out <file>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<Option<&str>, String> {
        match argv.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => argv
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("{flag} needs a value")),
        }
    };
    let required = |flag: &str| value(flag)?.ok_or_else(|| format!("{flag} is required"));
    let workload = required("--workload")?;
    let seconds: f64 = required("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_owned())?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: required("--seed")?
            .parse()
            .map_err(|_| "--seed must be a non-negative integer".to_owned())?,
        seconds,
        trace: match value("--trace")?.unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
        trace_out: value("--trace-out")?.map(str::to_owned),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    host::pin_malloc_policy();
    let name = args.workload.name();
    let threads = match args.workload {
        Workload::ServeSmall => 1,
        _ => host::nproc().min(2),
    };
    kraftwerk_par::set_threads(threads);
    let calibration_before = host::calibrate();

    let mut trace = args.trace.then(|| spans::Trace::new(name));
    let outcome = match args.workload {
        Workload::ServeSmall => serve::run(args.seed, args.seconds, trace.as_mut()),
        w => place::run(w, args.seed, args.seconds, trace.as_mut()),
    };

    let calibration_after = host::calibrate();
    println!(
        "host nproc={} cpu=\"{}\" threads={threads} calibration_s={:.4}/{:.4} noisy={}",
        host::nproc(),
        host::cpu_model(),
        calibration_before,
        calibration_after,
        host::noisy(calibration_before, calibration_after),
    );
    for line in &outcome.notes {
        println!("{line}");
    }
    if let Some(trace) = &trace {
        for layer in trace.self_times() {
            println!(
                "layer {} self_s={:.6} calls={}",
                layer.name, layer.self_s, layer.calls
            );
        }
        if let Some(path) = &args.trace_out {
            if let Err(e) = std::fs::write(path, trace.chrome_json()) {
                eprintln!("benchmark: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    for &(metric, unit, value) in &outcome.metrics {
        println!("{metric} {value} {unit}");
    }
    let measured = !outcome.metrics.is_empty() && outcome.metrics.iter().all(|m| m.2.is_finite());
    let correct = outcome.failed == 0 && measured;
    println!(
        "{}",
        report::result_json(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
