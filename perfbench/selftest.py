#!/usr/bin/env python3
"""Self-test of the benchmark at its smallest run length.

usage, from the root of a checkout:  python3 perfbench/selftest.py

Runs every workload twice untraced and twice traced for one second with
the same seed, through run.py, and checks that:
  - every metric BENCHMARK.json names is present, finite and in its unit;
  - every run is correct, with no failed operation (fail_ratio is 0);
  - cycles_ratio and every count repeat exactly across the two runs.
Exits 1 on the first violation, 0 when all hold.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(BENCH))
from run import WORKLOADS  # noqa: E402

ROOT = BENCH.parent
SEED = 7
SECONDS = 1

# Values that come from the census or from deterministic compiles only, so
# they must not change between two runs with one seed.
EXACT_UNITS = {"count", "bytes", "allocs/func"}
EXACT_NAMES = {"cycles_ratio", "coldpath.liveness_delta_ratio",
               "coldpath.disambig_hit_ratio", "sched.verify_scoped_ratio",
               "machine.ipc"}


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=1000)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit "
                             f"{done.returncode}\n{done.stderr[-2000:]}")
    lines = done.stdout.splitlines()
    detail = json.loads(lines[-2])["detail"]
    return json.loads(lines[-1]), detail


def check(workload, trace, spec):
    expected = spec["per_layer" if trace else "end_to_end"]
    runs = [run(workload, trace) for _ in range(2)]
    for result, detail in runs:
        where = f"{workload} trace={trace}"
        assert result["correct"], f"{where}: incorrect result"
        assert result["attempted"] >= 1, f"{where}: nothing attempted"
        assert result["failed"] == 0, f"{where}: {result['failed']} failed"
        if not trace:
            assert detail["fail_ratio"] == 0, f"{where}: fail_ratio"
        metrics = result["metrics"]
        for m in expected:
            got = metrics.get(m["name"])
            assert got is not None, f"{where}: {m['name']} missing"
            assert got["unit"] == m["unit"], f"{where}: {m['name']} unit"
            assert math.isfinite(got["value"]), f"{where}: {m['name']}"
    first, second = runs[0][0]["metrics"], runs[1][0]["metrics"]
    for m in expected:
        if m["unit"] in EXACT_UNITS or m["name"] in EXACT_NAMES:
            a, b = first[m["name"]]["value"], second[m["name"]]["value"]
            assert a == b, f"{workload} trace={trace}: {m['name']} {a} != {b}"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        for workload in WORKLOADS:
            for trace in (0, 1):
                check(workload, trace, spec)
                print(f"ok  {workload} trace={trace}")
    except AssertionError as err:
        print(f"FAIL {err}")
        return 1
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
