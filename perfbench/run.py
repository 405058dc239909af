#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/NOTES.md).

usage, from the root of a checkout:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (which compiles ../src)
into .bench_build/perfbench; later calls only bring that build up to date.
--trace 0 runs the untraced binary and prints the end-to-end metrics;
--trace 1 runs the binary with the counting allocator, prints the
per-layer metrics and writes every span to
.bench_build/perfbench/spans-WORKLOAD.jsonl.  The last line of stdout is
the result object.  Exits non-zero without a result when the sources, the
build or the run fail.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("cold-compile", "paper-quality")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("the gis sources (src/CMakeLists.txt) are missing beside "
             "perfbench/")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {step[:2]} failed: {err}")
        if done.returncode != 0:
            fail(f"build step {step[:2]} exited with {done.returncode}")


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def is_complete_result(line, trace):
    """True when `line` is a result object with every expected metric."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    for metric in expected_metrics(trace):
        got = result["metrics"].get(metric["name"])
        if (got is None or got.get("unit") != metric["unit"]
                or not isinstance(got.get("value"), (int, float))
                or not math.isfinite(got["value"])):
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    build()
    binary = BUILD / ("perfbench_traced" if args.trace else "perfbench")
    # Relative to ROOT: the census daemon's socket path must stay short.
    work_dir = Path(".bench_build") / "perfbench" / f"run-{os.getpid()}"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir)]
    if args.trace:
        command += ["--spans", str(BUILD / f"spans-{args.workload}.jsonl")]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(ROOT / work_dir, ignore_errors=True)
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail(f"benchmark exited with {done.returncode}")
    if not is_complete_result(lines[-1], args.trace):
        sys.stderr.write(done.stdout)
        fail("the last line is not a complete result object")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
