#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

From the repository root:

    python3 perfbench/spread.py                       # every workload, seeds 1..10
    python3 perfbench/spread.py --workloads write_durable --seeds 5

For each end-to-end metric of each workload it prints the median of the
runs and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median. A spread
above a third of the metric's bound in BENCHMARK.json is flagged. Exits
non-zero when a run fails or a spread is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output checks failed")
    return result, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated names (default: all)")
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload, seeds 1..N")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        names = opts.workloads.split(",")
    metrics = bench["end_to_end"]
    flagged = False
    for name in names:
        values = {m["name"]: [] for m in metrics}
        walls = []
        for seed in range(1, opts.seeds + 1):
            result, wall = run(bench["command"], name, seed, bench["run_seconds"])
            walls.append(wall)
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
        print(f"== {name}: {opts.seeds} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        for m in metrics:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            ok = spread < m["bound"] / 3
            flagged |= not ok
            print(f"  {m['name']:<16} median {med:>16.6g} {m['unit']:<6} spread {spread:7.4f}"
                  f"  bound {m['bound']:<5} {'ok' if ok else 'TOO WIDE'}", flush=True)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
