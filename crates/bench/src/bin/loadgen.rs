//! `loadgen` — saturation load generator for the placement daemon.
//!
//! Spins up an in-process `kraftwerk-serve` daemon (or targets an
//! external one via `--addr`), then drives it with concurrent client
//! threads submitting placement jobs back to back. Reports throughput
//! (jobs/sec), latency percentiles (p50/p99), and the degraded/rejected
//! fractions per concurrency level.
//!
//! ```text
//! loadgen [--cells N] [--jobs N] [--clients 1,2,8] [--workers N]
//!         [--mode fast|standard|multilevel] [--addr host:port]
//!         [--deadline S] [--latency-out jobs.jsonl]
//! ```
//!
//! `--help` prints the usage. An unknown argument, a flag without its
//! value or a malformed value exits 2 with one `error:` line before
//! anything starts.
//!
//! With `--addr` the daemon is external and `--workers` is ignored;
//! without it each concurrency level gets a fresh in-process daemon with
//! `--workers` placement threads (default: the client count, the
//! saturation configuration the EXPERIMENTS.md recipe measures).
//!
//! `busy` rejections are retried after the daemon's `retry_after_ms`
//! hint — the load generator exercises the backpressure path rather than
//! treating it as failure; only transport errors and daemon-side error
//! frames count as failures.
//!
//! `--latency-out jobs.jsonl` appends one JSON record per completed job
//! (trace id, latency, server wall, queue depth at admission, outcome),
//! the input for the `kraftwerk inspect --service` dashboard. Every job
//! carries a generated `trace_id` so service records join to daemon-side
//! journals and run reports.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kraftwerk_netlist::format::write_netlist;
use kraftwerk_netlist::synth::{generate, SynthConfig};
use kraftwerk_serve::{Client, Mode, PlaceOptions, ServeConfig, Server};

struct Args {
    cells: usize,
    jobs: usize,
    clients: Vec<usize>,
    workers: Option<usize>,
    mode: Mode,
    addr: Option<std::net::SocketAddr>,
    deadline_s: f64,
    latency_out: Option<std::path::PathBuf>,
}

const USAGE: &str = "usage: loadgen [--cells <n>] [--jobs <n>] [--clients <n,n,...>] [--workers <n>]
               [--mode fast|standard|multilevel] [--addr <host:port>]
               [--deadline <s>] [--latency-out <jsonl>]";

/// A positive integer flag value.
fn count(flag: &str, value: &str) -> Result<usize, String> {
    match value.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{flag} expects a positive integer, got `{value}`")),
    }
}

/// Parses the command line. `Ok(None)` asks for the usage (`--help`);
/// an unknown flag, a flag without its value or a malformed value is an
/// error, reported before anything starts.
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        cells: 500,
        jobs: 24,
        clients: vec![1, 2, 8],
        workers: None,
        mode: Mode::Fast,
        addr: None,
        deadline_s: 60.0,
        latency_out: None,
    };
    let mut rest = argv.iter();
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--help" | "-h" => return Ok(None),
            "--cells" => args.cells = count(flag, value()?)?,
            "--jobs" => args.jobs = count(flag, value()?)?,
            "--clients" => {
                let list = value()?.split(',').map(|c| count(flag, c.trim()));
                args.clients = list.collect::<Result<_, _>>()?;
            }
            "--workers" => args.workers = Some(count(flag, value()?)?),
            "--mode" => {
                let v = value()?;
                let bad = || format!("--mode expects fast, standard or multilevel, got `{v}`");
                args.mode = Mode::parse(v).ok_or_else(bad)?;
            }
            "--addr" => {
                let v = value()?;
                let bad = |_| format!("--addr expects host:port, got `{v}`");
                args.addr = Some(v.parse().map_err(bad)?);
            }
            "--deadline" => {
                let v = value()?;
                args.deadline_s = match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 => s,
                    _ => return Err(format!("--deadline expects positive seconds, got `{v}`")),
                };
            }
            "--latency-out" => args.latency_out = Some(std::path::PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument `{flag}` (run `loadgen --help` for usage)")),
        }
    }
    Ok(Some(args))
}

#[derive(Default)]
struct Tally {
    ok: AtomicU64,
    degraded: AtomicU64,
    errors: AtomicU64,
    busy_retries: AtomicU64,
    next_job: AtomicUsize,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return f64::NAN;
    }
    let rank = (p * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

/// One per-job service record as a JSONL line for `--latency-out` (the
/// `kraftwerk inspect --service` input format).
#[allow(clippy::too_many_arguments)]
fn job_record(
    id: &str,
    trace_id: &str,
    client_idx: usize,
    concurrency: usize,
    out: &kraftwerk_serve::JobOutcome,
    busy_retries: u64,
    start_ms: f64,
    end_ms: f64,
) -> String {
    let mut o = kraftwerk_trace::json::JsonObject::new();
    o.str_field("type", "job");
    o.str_field("id", id);
    o.str_field("trace_id", trace_id);
    o.u64_field("client", client_idx as u64);
    o.u64_field("concurrency", concurrency as u64);
    o.str_field("status", &out.status);
    o.f64_field("latency_ms", end_ms - start_ms);
    o.u64_field("server_wall_ms", out.wall_ms);
    o.f64_field("hpwl", out.hpwl);
    o.bool_field("retried", out.retried);
    o.u64_field("busy_retries", busy_retries);
    if let Some(depth) = out.queue_depth {
        o.u64_field("queue_depth", depth);
    }
    o.f64_field("start_ms", start_ms);
    o.f64_field("end_ms", end_ms);
    o.finish()
}

fn drive(
    addr: std::net::SocketAddr,
    args: &Args,
    concurrency: usize,
    netlist_text: Arc<String>,
) -> Vec<String> {
    let tally = Arc::new(Tally::default());
    let opts = PlaceOptions {
        mode: args.mode,
        deadline_s: Some(args.deadline_s),
        ..PlaceOptions::default()
    };
    let started = Instant::now();
    let mut threads = Vec::new();
    for client_idx in 0..concurrency {
        let tally = Arc::clone(&tally);
        let text = Arc::clone(&netlist_text);
        let opts = opts.clone();
        let total_jobs = args.jobs;
        threads.push(std::thread::spawn(move || {
            let mut latencies_ms: Vec<f64> = Vec::new();
            let mut records: Vec<(u64, String)> = Vec::new();
            let mut client = Client::connect(addr).expect("loadgen connect");
            loop {
                let job_idx = tally.next_job.fetch_add(1, Ordering::SeqCst);
                if job_idx >= total_jobs {
                    break;
                }
                let id = format!("load-c{client_idx}-j{job_idx}");
                let trace_id = format!("lg-{concurrency}.{id}");
                let mut opts = opts.clone();
                opts.trace_id = Some(trace_id.clone());
                let job_started = Instant::now();
                let mut job_busy_retries = 0u64;
                loop {
                    match client.place(&id, &text, &opts) {
                        Ok(out) if out.status == "busy" => {
                            tally.busy_retries.fetch_add(1, Ordering::Relaxed);
                            job_busy_retries += 1;
                            let backoff = out.retry_after_ms.unwrap_or(50);
                            std::thread::sleep(Duration::from_millis(backoff));
                        }
                        Ok(out) => {
                            match out.status.as_str() {
                                "ok" => tally.ok.fetch_add(1, Ordering::Relaxed),
                                "degraded" => tally.degraded.fetch_add(1, Ordering::Relaxed),
                                _ => tally.errors.fetch_add(1, Ordering::Relaxed),
                            };
                            let end_ms = started.elapsed().as_secs_f64() * 1e3;
                            let start_ms =
                                end_ms - job_started.elapsed().as_secs_f64() * 1e3;
                            latencies_ms.push(end_ms - start_ms);
                            records.push((
                                end_ms.to_bits(),
                                job_record(
                                    &id,
                                    &trace_id,
                                    client_idx,
                                    concurrency,
                                    &out,
                                    job_busy_retries,
                                    start_ms,
                                    end_ms,
                                ),
                            ));
                            break;
                        }
                        Err(e) => {
                            eprintln!("loadgen: transport error on {id}: {e}");
                            tally.errors.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
            }
            (latencies_ms, records)
        }));
    }
    let mut latencies: Vec<f64> = Vec::new();
    let mut records: Vec<(u64, String)> = Vec::new();
    for t in threads {
        let (lat, recs) = t.join().expect("client thread");
        latencies.extend(lat);
        records.extend(recs);
    }
    let wall_s = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let ok = tally.ok.load(Ordering::Relaxed);
    let degraded = tally.degraded.load(Ordering::Relaxed);
    let errors = tally.errors.load(Ordering::Relaxed);
    let done = ok + degraded;
    println!(
        "clients={concurrency:<2} jobs={done:<4} wall={wall_s:>6.2}s  \
         jobs/s={:>6.2}  p50={:>7.1}ms  p99={:>7.1}ms  \
         degraded={:.1}%  errors={errors}  busy_retries={}",
        done as f64 / wall_s,
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
        if done > 0 { 100.0 * degraded as f64 / done as f64 } else { 0.0 },
        tally.busy_retries.load(Ordering::Relaxed),
    );
    // Completion order: positive-float bits sort like the floats.
    records.sort_by_key(|&(end_bits, _)| end_bits);
    records.into_iter().map(|(_, line)| line).collect()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    let netlist_text = Arc::new(write_netlist(&generate(&SynthConfig::with_size(
        "loadgen",
        args.cells,
        args.cells + args.cells / 4,
        (args.cells / 60).max(4),
    ))));
    println!(
        "loadgen: {} cells, {} jobs per level, mode {}, clients {:?}",
        args.cells,
        args.jobs,
        args.mode.name(),
        args.clients
    );
    let mut all_records: Vec<String> = Vec::new();
    if let Some(addr) = args.addr {
        for &concurrency in &args.clients {
            all_records.extend(drive(addr, &args, concurrency, Arc::clone(&netlist_text)));
        }
        write_latency_out(&args, &all_records);
        return;
    }
    for &concurrency in &args.clients {
        // A fresh daemon per level keeps the levels independent; workers
        // default to the client count so each level measures a matched
        // daemon (the saturation configuration).
        let server = Server::bind(ServeConfig {
            workers: args.workers.unwrap_or(concurrency),
            queue_capacity: (concurrency * 2).max(4),
            ..ServeConfig::default()
        })
        .expect("loadgen bind");
        let addr = server.local_addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        all_records.extend(drive(addr, &args, concurrency, Arc::clone(&netlist_text)));
        handle.shutdown();
        let summary = join
            .join()
            .expect("server thread")
            .expect("server run");
        if summary.jobs_failed > 0 {
            eprintln!(
                "loadgen: daemon reported {} failed job(s) at {} clients",
                summary.jobs_failed, concurrency
            );
            std::process::exit(1);
        }
    }
    write_latency_out(&args, &all_records);
}

/// Writes the per-job record stream when `--latency-out` was given.
fn write_latency_out(args: &Args, records: &[String]) {
    let Some(path) = &args.latency_out else {
        return;
    };
    let mut text = records.join("\n");
    if !text.is_empty() {
        text.push('\n');
    }
    match std::fs::write(path, text) {
        Ok(()) => println!("loadgen: wrote {} job record(s) to {}", records.len(), path.display()),
        Err(e) => {
            eprintln!("loadgen: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}
