#!/usr/bin/env bash
# Bench regression gate: rerun the small Table 1 circuits and diff the
# result against the committed BENCH_place.json baseline.
#
# HPWL is bitwise deterministic for a given circuit/config at any thread
# count, so any drift beyond the hard tolerance (2% by default) is a
# real quality regression and fails the gate with a non-zero exit; so
# does an illegal placement. Wall clock depends on the host: drift is
# recorded in the verdict JSON but is warn-only — it never fails the
# build.
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
if ! "$KRAFTWERK" bench --compare "$BASELINE" --max-cells "$MAX_CELLS" "${MODE_ARGS[@]}" -o "$verdict" -q; then
    echo "bench-gate: FAILED — HPWL regressed beyond tolerance or a placement was illegal against $BASELINE" >&2
    cat "$verdict" >&2 || true
    exit 1
fi
warnings=$(sed -n 's/.*"wall_warnings":\([0-9][0-9]*\).*/\1/p' "$verdict")
warnings=${warnings:-0}
if [ "$warnings" -eq 0 ]; then
    echo "bench-gate: OK (hpwl within tolerance, placements legal, wall clock steady)"
else
    # The verdict's `warnings` array carries one human-readable string
    # per soft finding; the count summarizes it for CI logs.
    echo "bench-gate: OK with $warnings wall-clock drift warning(s) (warn-only); verdict:"
    cat "$verdict"
fi
