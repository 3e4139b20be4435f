#!/usr/bin/env python3
"""Run-to-run spread of the repository benchmark.

Runs SETS sets of RUNS untraced runs of every workload, each run with its
own seed and the run_seconds of BENCHMARK.json, alternating the workload
order from set to set. For every end-to-end metric and workload it prints
each set's median, quartiles and IQR/median, the relative difference
between the set medians, the bound declared in BENCHMARK.json, and the
bound the spread suggests: max(5%, 2 x the largest IQR/median), capped at
the largest bound BENCHMARK.json admits (0.25 for setup_s, 0.24 for the
rest, so that setup_s keeps the largest bound). With --traced it then runs
one traced run per workload at seeds 0 and 1 and checks that the traced
replay placed exactly what the production calls placed
(trace.replay_mismatches == 0).

Run from the repository root:

    python3 perfbench/spread.py                    # 2 sets x 5 runs
    python3 perfbench/spread.py --sets 2 --runs 10 --traced

Exits 1 when a run fails, a spread exceeds its bound, the set medians
differ by more than the bound, or a traced replay mismatches.
"""

import argparse
import json
import statistics
import subprocess
import sys

SETUP_CAP = 0.25
OTHER_CAP = 0.24


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith(("host ", "FAILED")):
            print(f"  {workload} seed {seed}: {line}")
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode} without a result")


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--traced", action="store_true",
                        help="also check traced replays at seeds 0 and 1")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    ok = True

    # values[set][workload][metric] -> list of per-run values
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads}
              for _ in range(args.sets)]
    seed = args.first_seed
    for s in range(args.sets):
        order = workloads if s % 2 == 0 else list(reversed(workloads))
        for r in range(args.runs):
            for w in order:
                result = run(command, w, seed, seconds, 0)
                seed += 1
                if not result["correct"] or result["failed"]:
                    print(f"  {w}: run failed: {result}")
                    ok = False
                for m in metrics:
                    values[s][w][m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"set {s + 1}: run {r + 1}/{args.runs} done", flush=True)

    print()
    print(f"{'workload':12} {'metric':12} {'set':>3} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'iqr/med':>8} {'delta':>8} {'bound':>6} {'suggest':>7}")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [spread(values[s][w][name]) for s in range(args.sets)]
            medians = [st[1] for st in stats]
            delta = (max(medians) - min(medians)) / min(medians)
            worst = max(st[3] for st in stats)
            cap = SETUP_CAP if name == "setup_s" else OTHER_CAP
            suggest = min(cap, max(0.05, 2 * worst))
            for s, (q1, q2, q3, rel) in enumerate(stats):
                tail = (f"{delta:8.4f} {bound:6.3f} {suggest:7.4f}"
                        if s == args.sets - 1 else "")
                print(f"{w:12} {name:12} {s + 1:>3} {q2:14.6g} {q1:14.6g} "
                      f"{q3:14.6g} {rel:8.4f} {tail}")
            if worst > bound:
                print(f"  !! {w} {name}: IQR/median {worst:.4f} exceeds bound {bound}")
                ok = False
            if delta > bound:
                print(f"  !! {w} {name}: set medians differ by {delta:.4f} > {bound}")
                ok = False

    if args.traced:
        print()
        for w in workloads:
            for seed in (0, 1):
                result = run(command, w, seed, seconds, 1)
                m = result["metrics"]
                mismatches = m["trace.replay_mismatches"]["value"]
                overhead = m["trace.overhead_frac"]["value"]
                print(f"traced {w} seed {seed}: replay_mismatches={mismatches} "
                      f"overhead_frac={overhead:.4f} correct={result['correct']}")
                if mismatches != 0 or not result["correct"]:
                    ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
