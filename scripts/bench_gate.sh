#!/usr/bin/env bash
# Bench regression gate: rerun the small Table 1 circuits and diff the
# result against the committed BENCH_place.json baseline.
#
# HPWL is bitwise deterministic for a given circuit/config at any thread
# count, so drift beyond 2% is a real quality regression and fails the
# gate with exit 1; so does an illegal placement. Wall time is not
# gated here: speed is measured by perfbench (see BENCHMARK.json).
# Any other non-zero exit (an unreadable baseline, an unknown mode, a
# mode selection that keeps no baseline row) fails the gate with that
# exit code.
#
# Environment overrides:
#   KRAFTWERK_BIN  path to a prebuilt `kraftwerk` binary (skips cargo)
#   BASELINE       baseline file (default BENCH_place.json)
#   MAX_CELLS      circuit-size cap for the rerun (default 2000)
#   MODES          comma-separated baseline modes to gate (default: all)
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=${BASELINE:-BENCH_place.json}
MAX_CELLS=${MAX_CELLS:-2000}
MODES=${MODES:-}
KRAFTWERK=${KRAFTWERK_BIN:-}
if [ -z "$KRAFTWERK" ]; then
    cargo build --release --bin kraftwerk
    KRAFTWERK=target/release/kraftwerk
fi
if [ ! -f "$BASELINE" ]; then
    echo "bench-gate: baseline $BASELINE not found" >&2
    exit 1
fi

verdict=$(mktemp)
trap 'rm -f "$verdict"' EXIT
MODE_ARGS=()
if [ -n "$MODES" ]; then
    MODE_ARGS=(--modes "$MODES")
fi
status=0
"$KRAFTWERK" bench --compare "$BASELINE" --max-cells "$MAX_CELLS" "${MODE_ARGS[@]}" \
    -o "$verdict" -q || status=$?
if [ "$status" -eq 1 ]; then
    echo "bench-gate: FAILED (exit 1) — HPWL regressed beyond 2% or a placement was illegal against $BASELINE" >&2
    cat "$verdict" >&2 || true
    exit 1
elif [ "$status" -ne 0 ]; then
    echo "bench-gate: FAILED (exit $status) — kraftwerk bench --compare could not gate against $BASELINE" >&2
    exit "$status"
fi
# Every delta carries a "netlist" key; skip entries are plain strings.
rerun=$(grep -o '"netlist":' "$verdict" | wc -l) || true
echo "bench-gate: OK ($rerun rows rerun: hpwl within 2%, placements legal)"
