//! The `serve-small` workload: an in-process daemon with two workers
//! (one placement thread each) and a closed loop of two client
//! connections that each wait for a job's result before sending the next.

use crate::host;
use crate::inputs::{self, Input, POOL_CELLS};
use crate::place::{set_up, setup_again};
use crate::replay::{self, Layers, ServeLayers};
use crate::report::{EndToEnd, Entry};
use crate::spans::Trace;
use crate::stats::{median, percentile};
use crate::Outcome;
use kraftwerk_core::KraftwerkConfig;
use kraftwerk_netlist::metrics;
use kraftwerk_serve::proto::parse_request;
use kraftwerk_serve::{Client, JobOutcome, Mode, PlaceOptions, ServeConfig, Server, ServerSummary};
use kraftwerk_trace::json::JsonObject;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Pool netlists of the warm-up jobs, one per connection: the middle of
/// the pool, the same for every seed and start-up, so that `setup_s` does
/// not depend on which netlists the seeded job order puts first.
const WARM_UP: [usize; CLIENTS] = [3, 4];

/// One finished request as the client saw it.
struct Job {
    /// Pool index of the netlist sent.
    pool: usize,
    lane: usize,
    trace_id: String,
    sent: Instant,
    done: Instant,
    busy_retries: u64,
    outcome: Result<JobOutcome, String>,
}

impl Job {
    fn latency_s(&self) -> f64 {
        (self.done - self.sent).as_secs_f64()
    }

    /// The job's wire length when it succeeded; the failure otherwise.
    fn checked(&self) -> Result<f64, String> {
        let out = self.outcome.as_ref().map_err(Clone::clone)?;
        if out.status != "ok" {
            return Err(format!("status {} ({:?})", out.status, out.error_stage));
        }
        if !out.hpwl.is_finite() {
            return Err(format!("non-finite wire length {}", out.hpwl));
        }
        Ok(out.hpwl)
    }
}

/// Sends one job and waits for its terminal frame, retrying `busy`
/// answers after the daemon's hint.
fn submit(
    client: &mut Client,
    id: &str,
    pool: usize,
    text: &str,
    lane: usize,
    trace_ids: bool,
) -> Job {
    let trace_id = format!("perfbench.{id}");
    let opts = PlaceOptions {
        trace_id: trace_ids.then(|| trace_id.clone()),
        ..PlaceOptions::default()
    };
    let sent = Instant::now();
    let mut busy_retries = 0;
    let outcome = loop {
        match client.place(id, text, &opts) {
            Ok(o) if o.status == "busy" => {
                busy_retries += 1;
                std::thread::sleep(Duration::from_millis(o.retry_after_ms.unwrap_or(50)));
            }
            other => break other.map_err(|e| e.to_string()),
        }
    };
    Job {
        pool,
        lane,
        trace_id,
        sent,
        done: Instant::now(),
        busy_retries,
        outcome,
    }
}

/// A running daemon with its connected clients.
struct Daemon {
    addr: SocketAddr,
    handle: kraftwerk_serve::ServerHandle,
    thread: JoinHandle<std::io::Result<ServerSummary>>,
    clients: Vec<Client>,
}

impl Daemon {
    /// Binds, starts serving and connects the clients.
    fn start() -> Result<Self, String> {
        let server = Server::bind(ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        let clients = (0..CLIENTS)
            .map(|_| Client::connect(addr).map_err(|e| format!("connect: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            addr,
            handle,
            thread,
            clients,
        })
    }

    /// Closes the connections, drains the daemon and returns its totals.
    fn stop(self) -> Result<ServerSummary, String> {
        drop(self.clients);
        self.handle.shutdown();
        match self.thread.join() {
            Ok(Ok(summary)) => Ok(summary),
            Ok(Err(e)) => Err(format!("daemon on {}: {e}", self.addr)),
            Err(_) => Err(format!("daemon on {} panicked", self.addr)),
        }
    }

    /// Each client sends jobs back to back until `until`; `first` is the
    /// first job number, and job `j` sends pool netlist
    /// `order[j % order.len()]`.
    fn closed_loop(
        &mut self,
        pool: &[Input],
        order: &[usize],
        first: usize,
        until: impl Fn(usize) -> bool + Sync,
        trace_ids: bool,
    ) -> Vec<Job> {
        let next = AtomicUsize::new(first);
        let (next, until) = (&next, &until);
        std::thread::scope(|s| {
            let threads: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(lane, client)| {
                    s.spawn(move || {
                        let mut jobs = Vec::new();
                        loop {
                            let j = next.fetch_add(1, Ordering::SeqCst);
                            if !until(j) {
                                break jobs;
                            }
                            let p = order[j % order.len()];
                            let id = format!("job{j}");
                            jobs.push(submit(client, &id, p, &pool[p].text, lane + 1, trace_ids));
                        }
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().expect("client thread"))
                .collect()
        })
    }
}

/// Runs `serve-small` for `seconds` of measured time.
pub fn run(seed: u64, seconds: f64, trace: Option<&mut Trace>) -> Outcome {
    let pool = inputs::serve_pool();
    let order = inputs::job_order(seed);
    let mut out = Outcome::new();
    host::reset_peak_rss();

    // Set-up: bind, connect, and one warm-up job per connection; repeated
    // on a fresh daemon, the median counts. The last daemon serves the run.
    let mut setup_s = Vec::new();
    let mut warm_up: Vec<Job> = Vec::new();
    let mut daemon: Option<Daemon> = None;
    let setup_started = Instant::now();
    while setup_again(setup_s.len(), setup_started) {
        if let Some(d) = daemon.take() {
            if let Err(e) = d.stop() {
                return out.abort(e);
            }
        }
        let started = Instant::now();
        let mut d = match Daemon::start() {
            Ok(d) => d,
            Err(e) => return out.abort(e),
        };
        warm_up.extend(d.closed_loop(&pool, &WARM_UP, 0, |j| j < CLIENTS, false));
        setup_s.push(started.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let mut daemon = daemon.expect("set-up ran");

    // Measured job numbers follow the warm-up jobs this daemon served, so
    // no job id repeats on one daemon.
    let traced = trace.is_some();
    let phase = Instant::now();
    let deadline = phase + Duration::from_secs_f64(seconds);
    let jobs = daemon.closed_loop(
        &pool,
        &order,
        CLIENTS,
        |_| Instant::now() < deadline,
        traced,
    );
    let wall_s = jobs
        .iter()
        .map(|j| j.done)
        .max()
        .map_or(0.0, |t| (t - phase).as_secs_f64());
    out.op("daemon drain", daemon.stop());

    // Checks: every job ok with finite wire length, and every job on one
    // pool netlist with the bit-identical wire length (per-job isolation
    // and determinism under concurrent workers).
    let mut reference: Vec<Option<f64>> = vec![None; POOL_CELLS.len()];
    for job in warm_up.iter().chain(&jobs) {
        let name = &pool[job.pool].name;
        let checked = job.checked().and_then(|h| match reference[job.pool] {
            Some(r) if r.to_bits() != h.to_bits() => {
                Err(format!("wire length {h} differs from an earlier job's {r}"))
            }
            _ => Ok(h),
        });
        if let Some(h) = out.op(name, checked) {
            reference[job.pool] = Some(h);
        }
    }

    let latency: Vec<Vec<f64>> = (0..POOL_CELLS.len())
        .map(|p| {
            jobs.iter()
                .filter(|j| j.pool == p)
                .map(Job::latency_s)
                .collect()
        })
        .collect();
    let all_ms: Vec<f64> = jobs.iter().map(|j| j.latency_s() * 1e3).collect();
    let (tail_p, tail_ms) = tail(&all_ms);
    out.note(format!(
        "jobs n={} p50_ms={} p{}_ms={} jobs_per_s={}",
        jobs.len(),
        median(&all_ms),
        (tail_p * 100.0).round(),
        tail_ms,
        jobs.len() as f64 / wall_s
    ));

    out.metrics = match trace {
        Some(trace) => {
            record_jobs(trace, &jobs);
            let decode_s = decode_probe(&pool, trace);
            let serve = serve_layers(&jobs, tail_ms / median(&all_ms), &decode_s);
            replay_pool(&pool, &jobs, &reference, trace, &mut out, serve)
        }
        None => EndToEnd {
            place_s: latency.iter().map(|l| median(l)).sum(),
            ops_per_s: jobs.len() as f64 / wall_s,
            hpwl_m: reference.iter().map(|h| h.unwrap_or(f64::NAN)).sum::<f64>() * 1e-6,
            setup_s: median(&setup_s),
            peak_rss_mb: host::peak_rss_mib(),
        }
        .entries(),
    };
    out
}

/// The highest of p99, p95, p90, p75 and p50 with ten samples beyond it.
fn tail(values: &[f64]) -> (f64, f64) {
    [0.99, 0.95, 0.9, 0.75, 0.5]
        .into_iter()
        .find_map(|p| percentile(values, p).map(|v| (p, v)))
        .unwrap_or((1.0, f64::NAN))
}

/// Times `proto::parse_request`, the decode the daemon's connection
/// thread runs on every request line, on the frame a client sends for
/// each pool netlist (the fields of `Client::place` with default
/// options). Returns the median of three decodes per netlist, seconds.
fn decode_probe(pool: &[Input], trace: &mut Trace) -> Vec<f64> {
    pool.iter()
        .map(|input| {
            let mut o = JsonObject::new();
            o.str_field("type", "place");
            o.str_field("id", "probe");
            o.str_field("mode", Mode::Fast.name());
            o.str_field("netlist", &input.text);
            o.bool_field("return_placement", false);
            o.u64_field("progress_every", 0);
            o.bool_field("retry", true);
            o.str_field("trace_id", "perfbench.probe");
            let frame = o.finish();
            let times: Vec<f64> = (0..3)
                .map(|_| {
                    let span = trace.begin("serve.decode_probe");
                    let started = Instant::now();
                    let decoded = black_box(parse_request(&frame));
                    let took = started.elapsed().as_secs_f64();
                    trace.end(span);
                    assert!(decoded.is_ok(), "the probe frame decodes");
                    took
                })
                .collect();
            median(&times)
        })
        .collect()
}

/// Daemon-side layer numbers of the measured jobs; `decode_s` holds the
/// decode time of each pool netlist's request frame.
fn serve_layers(jobs: &[Job], tail_ratio: f64, decode_s: &[f64]) -> ServeLayers {
    let ok: Vec<(&Job, &JobOutcome)> = jobs
        .iter()
        .filter_map(|j| j.outcome.as_ref().ok().map(|o| (j, o)))
        .collect();
    let latency_ms: f64 = ok.iter().map(|(j, _)| j.latency_s() * 1e3).sum();
    let server_ms: f64 = ok.iter().map(|(_, o)| o.wall_ms as f64).sum();
    let count = |f: fn(&JobOutcome) -> bool| ok.iter().filter(|(_, o)| f(o)).count() as f64;
    ServeLayers {
        outside_job_share: 1.0 - server_ms / latency_ms,
        decode_share: ok.iter().map(|(j, _)| decode_s[j.pool] * 1e3).sum::<f64>() / latency_ms,
        tail_ratio,
        arena_hit_frac: count(|o| o.arena_pooled) / ok.len() as f64,
        busy_retries: jobs.iter().map(|j| j.busy_retries).sum::<u64>() as f64,
        degraded_retries: count(|o| o.retried),
    }
}

/// One span per job from send to terminal frame, tagged with the trace id
/// the daemon echoed, and inside it the daemon's reported job wall time,
/// placed at the end of the job (the daemon reports only its length).
fn record_jobs(trace: &mut Trace, jobs: &[Job]) {
    for job in jobs {
        let id = trace.add_root(
            "serve.job",
            job.sent,
            job.done,
            job.lane,
            job.trace_id.clone(),
        );
        if let Ok(o) = &job.outcome {
            let server = Duration::from_millis(o.wall_ms).min(job.done - job.sent);
            trace.add_child(id, "serve.server", job.done - server, job.done);
        }
    }
}

/// Replays each pool netlist's job locally through the traced flat flow
/// (what a daemon worker runs: parse, validate, fast-mode session loop)
/// and returns the per-layer metrics.
fn replay_pool(
    pool: &[Input],
    jobs: &[Job],
    reference: &[Option<f64>],
    trace: &mut Trace,
    out: &mut Outcome,
    serve: ServeLayers,
) -> Vec<Entry> {
    let setup = match set_up(pool) {
        Ok(s) => s,
        Err(e) => {
            out.note(format!("replay set-up failed: {e}"));
            return Vec::new();
        }
    };
    let mut layers = Layers::default();
    let mut mismatches = 0;
    let (mut replay_s, mut server_s) = (0.0, 0.0);
    for (p, (input, netlist)) in pool.iter().zip(&setup.netlists).enumerate() {
        // The replayed placer call validates, as the daemon does after
        // parsing; the parse itself was timed in the set-up above.
        let parse = median(&setup.read_s[p]);
        let flow = trace.begin("flow");
        let placed = replay::place(netlist, &KraftwerkConfig::fast(), None, trace, &mut layers);
        trace.end(flow);
        match placed {
            Ok((result, place_s)) => {
                let hpwl = metrics::hpwl(netlist, &result.placement);
                if reference[p].is_some_and(|r| r.to_bits() != hpwl.to_bits()) {
                    mismatches += 1;
                }
                replay_s += parse + place_s;
            }
            Err(e) => {
                out.note(format!("replay of {} failed: {e}", input.name));
                mismatches += 1;
            }
        }
        let walls: Vec<f64> = jobs
            .iter()
            .filter(|j| j.pool == p)
            .filter_map(|j| j.outcome.as_ref().ok().map(|o| o.wall_ms as f64 * 1e-3))
            .collect();
        server_s += median(&walls);
    }
    layers
        .per_layer(
            1,
            &setup.read_s,
            &setup.validate_s,
            serve,
            mismatches,
            replay_s / server_s - 1.0,
        )
        .entries()
}
