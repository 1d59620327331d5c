#!/usr/bin/env python3
"""Steadiness check: runs each workload on several seeds and reports, for
every end-to-end metric, the median and the spread (interquartile range as a
share of the median) against the metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workloads uncached,hot_cache]
        [--seconds N] [--out results.jsonl]

A spread must stay within its metric's bound (aim for a third of it);
setup_s is reported but only its median is compared across sets of runs.
Exits non-zero when a run fails or reports an oracle mismatch.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    out = open(args.out, "a") if args.out else None
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        failed = 0
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            failed += result["failed"]
            if out:
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      **result}) + "\n")
                out.flush()
            if set(result["metrics"]) != set(bounds):
                raise SystemExit(f"{workload} seed {seed}: metric set differs")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: failed={failed}")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("inf")
            else:
                spread = 0.0
            bound = bounds[name]
            verdict = "" if bound is None else (
                "ok" if spread <= bound / 3 else
                "within bound" if spread <= bound else "TOO WIDE")
            print(f"  {name:28s} median {med:14.4f}  spread {spread:7.4f}"
                  f"  bound {bound}  {verdict}")
        if failed:
            raise SystemExit(f"{workload}: {failed} failed requests")


if __name__ == "__main__":
    main()
