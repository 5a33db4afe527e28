#!/usr/bin/env python3
"""Spread report and count-determinism check for the benchmark.

Run from the root of the repository.

Spread: runs one workload N times, each with another seed, and prints the
median and quartiles of every metric, with the inter-quartile distance as a
share of the median next to the metric's bound from BENCHMARK.json:

    python3 perfbench/spread.py --workload leak_scan --runs 10 [--first-seed 1]

Determinism: runs the traced run of one workload twice with one seed and
checks that every count it prints repeats exactly:

    python3 perfbench/spread.py --workload edit_serve --determinism [--first-seed 7]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    command = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"run failed (exit {done.returncode}):\n{done.stderr[-2000:]}")
    return json.loads(lines[-1]), lines


def spread(args, benchmark):
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        result, _ = run_once(args.workload, seed, args.seconds, 0)
        if not result["correct"]:
            print(f"seed {seed}: NOT CORRECT ({result['failed']} of {result['attempted']} failed)")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items())
        print(f"seed {seed}: {shown}", flush=True)
    print(f"\n{args.workload}: {args.runs} runs of {args.seconds} s")
    print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>9} {'bound':>6}")
    for name, series in values.items():
        q1, med, q3 = statistics.quantiles(series, n=4)
        share = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "ok" if share <= bound / 3 else ("within bound" if share <= bound else "TOO WIDE")
        print(
            f"{name:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {share:>9.4f} "
            f"{bound if bound is not None else '-':>6} {verdict}"
        )


def counts_of(lines):
    counts = {}
    for line in lines:
        if line.startswith("# counts ") or line.startswith("# digest "):
            for pair in line.split()[2:]:
                name, _, value = pair.partition("=")
                counts[name] = value
    return counts


def determinism(args):
    seed = args.first_seed
    first, lines_a = run_once(args.workload, seed, args.seconds, 1)
    second, lines_b = run_once(args.workload, seed, args.seconds, 1)
    a, b = counts_of(lines_a), counts_of(lines_b)
    ok = bool(a) and a == b and first["correct"] and second["correct"]
    for name in sorted(set(a) | set(b)):
        mark = "" if a.get(name) == b.get(name) else "  DIFFERS"
        print(f"{name:<22} {a.get(name, '-'):>16} {b.get(name, '-'):>16}{mark}")
    print(f"{args.workload} seed {seed}: counts {'repeat exactly' if ok else 'DO NOT repeat'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--determinism", action="store_true")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as f:
        benchmark = json.load(f)
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    if args.determinism:
        return determinism(args)
    spread(args, benchmark)
    return 0


if __name__ == "__main__":
    sys.exit(main())
