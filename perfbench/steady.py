#!/usr/bin/env python3
"""Steadiness check: run one workload repeatedly, each run a fresh
process with its own seed, and summarise every metric's spread.

    python3 perfbench/steady.py --workload serve-warm --runs 10 \
        --seconds 15 [--trace 0|1] [--first-seed 1]

For each metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the interquartile
range as a share of the median, (max - min) / median, and the
metric's bound from BENCHMARK.json when it has one.  The bounds rest
on these figures: a metric's IQR share must stay within its bound
and should sit below a third of it.  Exits non-zero if any run fails
or reports an incorrect result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"seed {seed}: incorrect result {result}")
    return result


def spread(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    scale = abs(median) if median else 1.0
    return median, q1, q3, (q3 - q1) / scale, \
        (max(values) - min(values)) / scale


def bounds():
    """End-to-end bounds by metric name; empty without the file."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run_once(args.workload, seed, args.seconds, args.trace)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        figures = " ".join(f"{name}={metric['value']:.4g}"
                           for name, metric in result["metrics"].items())
        print(f"run {i + 1}/{args.runs} seed {seed}: attempted "
              f"{result['attempted']}, failed {result['failed']}: "
              f"{figures}", file=sys.stderr, flush=True)

    print(f"{args.workload}: {args.runs} runs of {args.seconds} s, "
          f"trace {args.trace}")
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'iqr/med':>8} {'rng/med':>8} {'bound':>6}  unit")
    limits = bounds()
    for name, vals in values.items():
        median, q1, q3, iqr, rng = spread(vals)
        bound = f"{limits[name]:6.3g}" if name in limits else " " * 6
        print(f"{name:34} {median:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{iqr:8.4f} {rng:8.4f} {bound}  {units[name]}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except RuntimeError as err:
        print(f"steady: {err}", file=sys.stderr)
        sys.exit(1)
