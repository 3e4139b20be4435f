#!/usr/bin/env bash
# Tier-1 verification gate: build, test, lint. Run from the repo root.
#
# The workspace is zero-external-dependency apart from rand/rand_chacha
# (dev/synthesis only) and proptest (property tests), all vendored under
# vendor/, so this also doubles as the offline-sandbox smoke test:
# nothing here should need a registry once the lockfile/vendor cache is
# in place.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# The data-parallel runtime must be bitwise deterministic: the suite has
# to pass pinned to one worker and at the machine's natural width. A bare
# `cargo test` at the root tests only the root package, so both runs name
# the whole workspace: the crates' own unit suites (sparse, par, field,
# core, ...) run here too.
KRAFTWERK_THREADS=1 cargo test -q --workspace
cargo test -q --workspace
# The adversarial corpus and watchdog-recovery suite must stay green on
# its own too — it is the contract behind the panic audit below.
cargo test -q --test robustness
# Lint every workspace member, unit tests included, not only
# the root package, with every feature on: a feature nothing enables
# must still build, or it is dead code.
cargo clippy --workspace --all-targets --all-features -- -D warnings
# The API docs must build without a warning: an unresolved or ambiguous
# intra-doc link, or a public doc linking a private item, fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# The benchmark package (perfbench/, see BENCHMARK.json) has its own
# [workspace], so the commands above neither build, lint nor test it; a
# public-API change in a placer crate must not break it unnoticed, and its
# drift test keeps BENCHMARK.json and the emitted metrics in step.
cargo clippy --release --all-targets --manifest-path perfbench/Cargo.toml -- -D warnings
cargo test --release --manifest-path perfbench/Cargo.toml
# No new unwrap()/expect()/panic! in library crates (allowlisted
# invariants only — see scripts/panic-allowlist.txt).
bash scripts/panic_audit.sh
# Bench schema smoke (writes to a scratch file, never the committed
# baseline): the writer's rows carry exactly the gated keys, and the gate
# reproduces them exactly. Then the regression gate: HPWL drift beyond 2%
# against BENCH_place.json or an illegal placement is fatal. Wall time is
# not gated; speed is measured by perfbench.
bench_smoke=$(mktemp)
obs_dir=$(mktemp -d)
trap 'rm -f "$bench_smoke"; rm -rf "$obs_dir"' EXIT
cargo run --release --bin kraftwerk -- bench --json --max-cells 200 -o "$bench_smoke" -q
target/release/kraftwerk bench --compare "$bench_smoke" --max-cells 200 -q \
    > "$obs_dir/smoke-verdict.json"
python3 - "$bench_smoke" "$obs_dir/smoke-verdict.json" <<'EOF'
import json, sys
runs = json.load(open(sys.argv[1]))["runs"]
keys = {"netlist", "cells", "nets", "mode", "threads", "hpwl_m", "iterations", "legal"}
assert [(r["netlist"], r["mode"]) for r in runs] == [("fract", "standard"), ("fract", "fast")], runs
for r in runs:
    assert set(r) == keys, f"row keys {sorted(r)}"
    assert r["legal"] and r["iterations"] > 0, r
verdict = json.load(open(sys.argv[2]))
assert verdict["verdict"] == "pass" and len(verdict["deltas"]) == 2, verdict
assert all(d["hpwl_delta"] == 0 for d in verdict["deltas"]), verdict
print("bench schema smoke: OK (2 rows written and reproduced exactly)")
EOF
KRAFTWERK_BIN=target/release/kraftwerk bash scripts/bench_gate.sh
# The committed multilevel-b2b scale-tier rows (scale10k/scale50k/
# scale250k) are enforcing too: rerun the V-cycle flow and fail on HPWL
# drift or an illegal placement, same 2% bar as the flat modes (HPWL is
# bitwise deterministic, so any drift is a real change). The three tiers
# must also place inside a wall-clock budget: measured 25–27 s for all
# three on a 2-vCPU host, the budget allows about nine times that for
# slow CI.
KRAFTWERK_BIN=target/release/kraftwerk MODES=multilevel-b2b MAX_CELLS=250000 \
    timeout 240 bash scripts/bench_gate.sh \
    || { echo "verify: multilevel-b2b gate failed or exceeded 240s" >&2; exit 1; }

# Observability smoke on a fract-scale run. The `--trace` JSONL stream
# is the run's one artifact; everything below reads it. Five contracts:
#   1. telemetry is observation-only — the placement with every probe on
#      (trace + alloc tracking + profile) is bitwise identical to the
#      untraced one, and tracing leaves the --alloc-stats heap table
#      unchanged (telemetry does not count itself);
#   2. the arena claim holds at runtime — per-phase steady-state heap
#      allocation is bounded (density_map amortizes to zero allocations
#      per iteration, no phase exceeds a small per-iteration constant);
#   3. the stream closes with a summary line whose profile covers the
#      whole run, legalization included, and every alloc record is named
#      after a span of that profile;
#   4. `inspect --perfetto` exports a valid trace whose span tree carries
#      the alloc phases;
#   5. worker utilization is counted once per thread — no span reports
#      more busy time than threads × wall. The fract stream and a
#      two-thread fast-mode run of a 5,200-cell netlist are both checked.
#      That run's Poisson grid must have m = 513 or more vertices per side
#      (fast mode needs about 5,000 cells for that), so its V-cycle fans
#      out inside the field/assembly join and nested fan-outs are
#      exercised; the stream's multigrid records assert the premise;
#   6. the same run's DILU-preconditioned CG stays at its iteration count:
#      the mean x + y `cg_iterations` per transformation (about 29, where
#      Jacobi took about 108) must stay under 60. The count is
#      deterministic, so a return to a weaker preconditioner fails here;
#   7. the CG count does not depend on the input's labels: a copy of the
#      netlist whose cell and net lines are shuffled (`random.Random(7)`)
#      is placed the same way, and its mean must stay within 1.15x of the
#      generator order's. In reverse Cuthill-McKee matrix order it is
#      31.3 against 28.9 (1.08x); numbered as the file lists the cells it
#      was 35.6 against 28.7 (1.24x).
target/release/kraftwerk gen fract 125 147 6 -o "$obs_dir/fract.kw" > /dev/null
target/release/kraftwerk place "$obs_dir/fract.kw" --fast -o "$obs_dir/plain.pl" --quiet
target/release/kraftwerk place "$obs_dir/fract.kw" --fast -o "$obs_dir/alloc.pl" \
    --alloc-stats --quiet > "$obs_dir/alloc-plain.txt"
target/release/kraftwerk place "$obs_dir/fract.kw" --fast -o "$obs_dir/traced.pl" \
    --alloc-stats --trace "$obs_dir/run.jsonl" --profile --quiet > "$obs_dir/alloc-traced.txt"
for pl in alloc traced; do
    cmp "$obs_dir/plain.pl" "$obs_dir/$pl.pl" \
        || { echo "verify: telemetry perturbed the placement ($pl)" >&2; exit 1; }
done
target/release/kraftwerk inspect "$obs_dir/run.jsonl" --perfetto "$obs_dir/trace.json" --quiet
target/release/kraftwerk gen det 5200 6400 32 -o "$obs_dir/det.kw" > /dev/null
python3 - "$obs_dir/det.kw" "$obs_dir/det-relabeled.kw" <<'EOF'
import random, sys
lines = open(sys.argv[1]).read().splitlines()
cells = [line for line in lines if line.startswith("cell ")]
nets = [line for line in lines if line.startswith("net ")]
header = [line for line in lines if not line.startswith(("cell ", "net "))]
rng = random.Random(7)
rng.shuffle(cells)
rng.shuffle(nets)
open(sys.argv[2], "w").write("\n".join(header + cells + nets) + "\n")
EOF
for det in det det-relabeled; do
    target/release/kraftwerk place "$obs_dir/$det.kw" --fast --threads 2 \
        --trace "$obs_dir/$det.jsonl" -o "$obs_dir/$det.pl" --quiet > /dev/null
done
python3 - "$obs_dir" <<'EOF'
import json, sys
d = sys.argv[1]

def stream(name):
    """The typed lines of one --trace stream, grouped by type."""
    lines = [json.loads(line) for line in open(f"{d}/{name}")]
    assert lines[-1].get("type") == "summary", f"{name}: last line is not the summary"
    typed = {}
    for line in lines:
        if "type" in line:
            typed.setdefault(line["type"], []).append(line)
    return typed

def alloc_rows(name):
    """The per-phase rows of the --alloc-stats table printed to stdout,
    every column but `peak bytes` (the process-wide high-water mark moves
    with how a worker's release of a finished job interleaves with the
    next allocation)."""
    out = open(f"{d}/{name}").read().splitlines()
    start = next(i for i, l in enumerate(out) if l.split()[:2] == ["phase", "samples"])
    end = next(i for i, l in enumerate(out) if l.startswith("process totals"))
    return [l.split()[:4] + l.split()[5:] for l in out[start + 1:end]]

run, det = stream("run.jsonl"), stream("det.jsonl")
grids = {c["vertices_per_side"] for c in det.get("convergence", []) if c["solver"] == "multigrid"}
assert grids and min(grids) >= 513, f"det.jsonl: Poisson grids {sorted(grids)} do not fan out (m >= 513)"
def mean_cg(name):
    """Mean x + y CG iterations per transformation of one stream."""
    transformations = [t for t in map(json.loads, open(f"{d}/{name}")) if "type" not in t]
    return sum(t["cg_iterations"] for t in transformations) / len(transformations)

generator_cg, relabeled_cg = mean_cg("det.jsonl"), mean_cg("det-relabeled.jsonl")
assert generator_cg < 60, f"det.jsonl: {generator_cg:.1f} CG iterations per transformation (bound 60)"
assert relabeled_cg < 1.15 * generator_cg, (
    f"det-relabeled.jsonl: {relabeled_cg:.1f} CG iterations per transformation against "
    f"{generator_cg:.1f} in generator order (bound 1.15x)")
for name, typed in (("run.jsonl", run), ("det.jsonl", det)):
    records = typed.get("utilization", [])
    assert records, f"{name}: no utilization records"
    for u in records:
        assert u["busy_s"] <= u["threads"] * u["wall_s"], (
            f"{name}: {u['span']} busy {u['busy_s']} s exceeds "
            f"{u['threads']} threads x {u['wall_s']} s wall")
alloc = {a["phase"]: a for a in run.get("alloc", [])}
assert alloc, "no alloc records in the stream"
for phase, a in alloc.items():
    per_iter = a["allocs"] / max(a["samples"], 1)
    assert per_iter <= 32, f"{phase}: {per_iter:.1f} allocs/iteration — arena regression"
dm = alloc["place.density_map"]
assert dm["allocs"] < dm["samples"], "density_map no longer allocation-free at steady state"
assert {u["span"] for u in run["utilization"]} >= set(alloc), "utilization spans missing"
profile = {p["phase"] for p in run["summary"][0]["profile"]}
assert set(alloc) <= profile, f"alloc records without a span: {set(alloc) - profile}"
assert {"legalize.abacus", "legalize.refine"} <= profile, "legalization missing from the profile"
plain, traced = alloc_rows("alloc-plain.txt"), alloc_rows("alloc-traced.txt")
assert plain and plain == traced, f"tracing changed the heap table:\n{plain}\n{traced}"
trace = json.load(open(f"{d}/trace.json"))
events = trace["traceEvents"]
assert events and all("ph" in e and "name" in e for e in events), "malformed trace events"
spans = {e["name"] for e in events if e["ph"] == "X"}
missing = set(alloc) - spans
assert not missing, f"alloc phases absent from perfetto span tree: {missing}"
assert any(e["ph"] == "C" for e in events), "no counter tracks in perfetto export"
print(f"observability smoke: OK ({len(events)} trace events, "
      f"{len(alloc)} instrumented phases, heap table unchanged by tracing, "
      f"{generator_cg:.1f} CG iterations per transformation, "
      f"{relabeled_cg:.1f} relabeled)")
EOF

# Daemon smoke: the served path end to end against a real process — one
# good job (trace-id correlated), one malformed frame, and one
# fault-injected job, each answered with the documented structured frame
# on a surviving connection, with the /metrics sidecar scraped between
# jobs (counters must move, the exposition must parse line by line, and
# /healthz must report ok), then a SIGTERM shutdown that must exit 0 and
# print the served: summary (README "Serving placements" and "Service
# metrics").
serve_log="$obs_dir/serve.log"
target/release/kraftwerk serve --workers 1 --queue-cap 4 --deadline 30 \
    --metrics-addr 127.0.0.1:0 \
    > "$serve_log" 2>&1 &
serve_pid=$!
serve_addr=""
metrics_url=""
for _ in $(seq 1 100); do
    serve_addr=$(sed -n 's/^listening on //p' "$serve_log" | head -n 1)
    metrics_url=$(sed -n 's/^metrics on //p' "$serve_log" | head -n 1)
    [ -n "$serve_addr" ] && [ -n "$metrics_url" ] && break
    sleep 0.1
done
if [ -z "$serve_addr" ] || [ -z "$metrics_url" ]; then
    echo "verify: daemon never reported its addresses" >&2
    kill "$serve_pid" 2> /dev/null || true
    exit 1
fi
python3 - "$serve_addr" "$obs_dir/fract.kw" "$metrics_url" <<'EOF'
import json, socket, sys, time, urllib.request
host, port = sys.argv[1].rsplit(":", 1)
netlist = open(sys.argv[2]).read()
metrics_url = sys.argv[3]
health_url = metrics_url.rsplit("/", 1)[0] + "/healthz"
sock = socket.create_connection((host, int(port)), timeout=60)
f = sock.makefile("rw")

def send(obj):
    f.write(json.dumps(obj) + "\n")
    f.flush()

def recv():
    line = f.readline()
    assert line, "daemon closed the connection"
    return json.loads(line)

def outcome():
    r = recv()
    while r["type"] == "progress":
        r = recv()
    return r

def scrape():
    body = urllib.request.urlopen(metrics_url, timeout=10).read().decode()
    samples = {}
    for line in body.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            # Exposition comments are HELP/TYPE only.
            assert line.startswith("# HELP ") or line.startswith("# TYPE "), line
            continue
        series, _, value = line.rpartition(" ")
        assert series, f"malformed sample: {line}"
        float(value)  # every sample value must parse
        samples[series] = float(value)
    return samples

def scrape_until(series, value, tries=100):
    # The solve-wall sample lands a moment after the result frame is
    # sent; give each counter a bounded window to settle.
    for _ in range(tries):
        m = scrape()
        if m.get(series) == value:
            return m
        time.sleep(0.02)
    raise AssertionError(f"{series} never reached {value}: {scrape()}")

# 0. The sidecar answers before any job ran.
m0 = scrape()
assert m0.get('kraftwerk_jobs_total{outcome="ok"}') == 0.0, m0

# 1. A good job round-trips: queued ack, then an ok/degraded result,
#    every frame echoing the client trace id.
send({"type": "place", "id": "smoke-good", "mode": "fast",
      "netlist": netlist, "max_transformations": 12,
      "trace_id": "verify-smoke-1"})
q = recv()
assert q["type"] == "queued" and q["trace_id"] == "verify-smoke-1", q
r = outcome()
assert r["type"] == "result" and r["status"] in ("ok", "degraded"), r
assert r["trace_id"] == "verify-smoke-1", r

# 2. The scrape reflects the finished job: outcome counter moved, both
#    SLO histograms carry the sample.
m1 = scrape_until("kraftwerk_solve_wall_seconds_count", 1.0)
done = (m1.get('kraftwerk_jobs_total{outcome="ok"}', 0)
        + m1.get('kraftwerk_jobs_total{outcome="degraded"}', 0))
assert done == 1.0, f"jobs_total did not move: {m1}"
assert m1.get("kraftwerk_queue_wait_seconds_count") == 1.0, m1
assert any('kraftwerk_queue_wait_seconds_bucket{le="' in s for s in m1), \
    "queue-wait histogram buckets missing from exposition"
assert any('kraftwerk_solve_wall_seconds_bucket{le="' in s for s in m1), \
    "solve-wall histogram buckets missing from exposition"

# 3. A malformed frame answers a structured protocol error (same
#    taxonomy code as CLI exit 2) and the connection resyncs.
f.write("this is not json\n")
f.flush()
e = recv()
assert e["type"] == "error" and e["stage"] == "protocol" and e["code"] == 2, e

# 4. A fault-injected job fails as a parse-stage error frame (code 4,
#    the CLI parse exit code) without taking the worker down, and the
#    failure lands in the metrics.
send({"type": "place", "id": "smoke-fault", "mode": "fast",
      "netlist": netlist, "fault": "parse", "max_transformations": 12})
q = recv()
assert q["type"] == "queued", q
e = outcome()
assert e["type"] == "error" and e["stage"] == "parse" and e["code"] == 4, e
m2 = scrape_until("kraftwerk_solve_wall_seconds_count", 2.0)
assert m2.get('kraftwerk_jobs_total{outcome="failed"}') == 1.0, m2

# 5. The daemon is still healthy after both failure paths — protocol
#    ping and HTTP liveness probe agree.
send({"type": "ping"})
assert recv()["type"] == "pong"
with urllib.request.urlopen(health_url, timeout=10) as resp:
    assert resp.status == 200, resp.status
    health = json.loads(resp.read().decode())
assert health["status"] == "ok" and health["queue_depth"] == 0, health
print("daemon smoke: OK (good / malformed / fault-injected answered; "
      f"{len(m2)} metric series scraped)")
EOF
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
    echo "verify: daemon did not exit cleanly on SIGTERM" >&2
    exit 1
fi
grep -q "^served: " "$serve_log" \
    || { echo "verify: no served: summary after SIGTERM" >&2; exit 1; }

# Opt-in slow tier: KRAFTWERK_SLOW=1 places the million-cell scale tier
# end to end (measured ~5 min by the EXPERIMENTS E7 extrapolation; the
# budget allows for slow CI). Off by default to keep verify.sh fast.
if [ "${KRAFTWERK_SLOW:-0}" = "1" ]; then
    timeout 900 target/release/kraftwerk bench --json --modes multilevel-b2b \
        --max-cells 1000000 -o "$bench_smoke" -q \
        || { echo "verify: scale1m smoke failed or exceeded 900s" >&2; exit 1; }
    python3 - "$bench_smoke" <<'EOF'
import json, sys
runs = json.load(open(sys.argv[1]))["runs"]
tiers = {r["netlist"]: r for r in runs if r["mode"] == "multilevel-b2b"}
assert "scale1m" in tiers, f"scale1m row missing: {sorted(tiers)}"
assert all(r["legal"] for r in tiers.values()), "scale1m smoke produced illegal placement"
print("scale1m smoke: OK (" + ", ".join(
    f"{n}: {r['hpwl_m']:.4g} m over {r['iterations']} transformations"
    for n, r in sorted(tiers.items())) + ")")
EOF
fi

echo "verify: OK"
