#!/usr/bin/env python3
"""Build and run the Marionette end-to-end benchmark.

    python3 perfbench/run.py --workload serve-cold|serve-warm|eval-long \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds
the benchmark (perfbench/CMakeLists.txt, which builds the library
from ../src) under .bench_build/perfbench; later runs only check the
build is up to date.  Build output goes to stderr.  The benchmark's
last stdout line -- one JSON object with correct, attempted, failed
and metrics -- is relayed as this script's last stdout line.  With
--trace 1 the span timeline is also written to
.bench_build/traces/<workload>-seed<N>.json (Chrome trace-event
format).

Exit codes: 0 when every request was correct, 1 on a failed or
divergent request, 2 on a usage or build error, 3 when the
benchmark crashed, timed out or printed no result.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("serve-cold", "serve-warm", "eval-long")
# One run must end within three minutes; the binary stops measuring
# on its own well before this.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(target):
    """Configure once, then bring @target up to date.  False on
    failure (for instance when ../src is missing)."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Stamped after a configure that succeeded; a failed one is
    # retried on the next run.
    configured = os.path.join(BUILD, ".configured")
    steps = []
    if not os.path.exists(configured):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target,
                  "-j", jobs])
    # Concurrent runs in one checkout share the build directory.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as err:
                print(f"perfbench: build step failed: {err}",
                      file=sys.stderr)
                return False
            if done.returncode != 0:
                return False
            if "-S" in step:
                open(configured, "w").close()
    return True


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int,
                        choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in 1..60")
    return args


def main(argv):
    args = parse_args(argv)
    if not build("perfbench"):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        command += ["--trace-out", os.path.join(
            TRACES, f"{args.workload}-seed{args.seed}.json")]
    child = subprocess.Popen(command, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        # On a timeout or a signal, stop the benchmark and wait for it.
        if child.poll() is None:
            child.kill()
            child.wait()
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(stdout)
        print(f"perfbench: no result (exit {child.returncode})",
              file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0 if child.returncode == 0 and result["correct"] else 1


def stop(signum, _frame):
    """Turn SIGTERM into SystemExit so the finally blocks stop the
    build or the benchmark before this script ends."""
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, stop)
    sys.exit(main(sys.argv[1:]))
