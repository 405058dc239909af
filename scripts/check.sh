#!/usr/bin/env bash
#
# Tier-1 verification: build and run the full test suite twice, once plain
# and once under ASan+UBSan (-DGIS_SANITIZE=address,undefined), then run
# the multi-threaded suites -- the batch-compilation engine (ctest label
# "parallel") and the suites that drive it -- under TSan
# (-DGIS_SANITIZE=thread; TSan and ASan cannot share a build), and
# finally the cold-path equivalence suite (label "perf-equiv") in a
# -DGIS_SLOWPATH_CHECK=ON build where the incremental scheduler
# cross-checks every update against full recomputation.  Run from
# anywhere; builds land in build/, build-san/, build-tsan/ and
# build-slowcheck/ next to the sources.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"

build_tree() {
  local dir="$1"
  shift
  cmake -S "$ROOT" -B "$dir" "$@" >/dev/null
  cmake --build "$dir" -j "$JOBS"
}

run_suite() {
  local dir="$1"
  shift
  build_tree "$dir" "$@"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

echo "== plain build =="
run_suite "$ROOT/build"

echo "== sanitized build (address,undefined) =="
run_suite "$ROOT/build-san" -DGIS_SANITIZE=address,undefined

echo "== sanitized build (thread): parallel + obs + regalloc + persist + opt + perf-equiv + trace suites =="
build_tree "$ROOT/build-tsan" -DGIS_SANITIZE=thread
# The "parallel" label covers gis_parallel_tests: the batch engine and
# the thread pool / cache / hashing units.  The "obs" label covers
# gis_obs_tests: the event tracer is process-global and records from
# engine worker threads, so the observability suite runs under TSan too
# (it is already part of the full ASan run above).  The "regalloc" label covers gis_regalloc_tests: the
# allocator rewrites functions that engine worker threads compile
# concurrently and its cache test shares one ScheduleCache across
# engines, so it runs under TSan as well.  The "persist" label covers
# gis_persist_tests: the disk cache tier is written and read by engine
# worker threads, the compile daemon runs an acceptor plus workers over
# one shared cache, and two engines share a cache directory in-process.
# The "opt" label covers gis_opt_tests: the optimizer suite drives
# engines whose workers compile optimized modules concurrently and its
# cache-isolation test shares memory and disk tiers across -O levels.
# The "perf-equiv" (gis_coldpath_tests) and "trace" (gis_trace_tests)
# labels start no threads of their own now that a function's region
# waves run serially; they stay in this stage so that a thread added to
# the scheduling path later is checked from its first run.
ctest --test-dir "$ROOT/build-tsan" --output-on-failure -L 'parallel|obs|regalloc|persist|opt|perf-equiv|trace'

echo "== slowpath-check build (GIS_SLOWPATH_CHECK=ON): perf-equiv suite =="
# The incremental cold path re-derives every liveness set, heuristic
# value and per-cycle ready list from scratch and fatal-errors on any
# divergence (DESIGN.md section 14); the equivalence suite then checks
# the fast path pick by pick, not just end to end.  This is also the only
# stage where every in-place region task dual-runs the block-scoped and
# the full schedule verifier and every cached disambiguation fact is
# cross-checked against a fresh solve.
build_tree "$ROOT/build-slowcheck" -DGIS_SLOWPATH_CHECK=ON
ctest --test-dir "$ROOT/build-slowcheck" --output-on-failure -L 'perf-equiv'

echo "== cross-process cache-dir sharing (two gisc processes, one directory) =="
# Beyond the in-process test, run two real gisc processes concurrently
# against one cache directory: the atomic-rename publish protocol must
# hold across processes (no quarantines on a clean path, no crashes),
# and a third run must be served from the disk tier they populated.
GISC="$ROOT/build/examples/example_gisc"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cat > "$WORK/a.c" <<'EOF'
int work(int n) { int s = 0; int i = 0; while (i < n) { s = s + i * i; i = i + 1; } return s; }
int main(int n) { return work(n) + work(n + 1); }
EOF
cp "$WORK/a.c" "$WORK/b.c"
"$GISC" "$WORK/a.c" "$WORK/b.c" --cache-dir "$WORK/cache" --stats-json "$WORK/s1.json" >/dev/null &
P1=$!
"$GISC" "$WORK/b.c" "$WORK/a.c" --cache-dir "$WORK/cache" --stats-json "$WORK/s2.json" >/dev/null &
P2=$!
wait "$P1"
wait "$P2"
"$GISC" "$WORK/a.c" --cache-dir "$WORK/cache" --stats-json "$WORK/s3.json" >/dev/null
# A clean-path run must not leak quarantines: any nonzero count here
# means the publish protocol produced an entry some reader refused.
for s in "$WORK"/s1.json "$WORK"/s2.json "$WORK"/s3.json; do
  if ! grep -q '"quarantines": 0' "$s"; then
    echo "FAIL: quarantine counter leaked in clean-path run ($s):" >&2
    grep '"quarantines"' "$s" >&2 || cat "$s" >&2
    exit 1
  fi
done
if ! grep -q '"disk_hits": [1-9]' "$WORK/s3.json"; then
  echo "FAIL: warm restart saw no disk hits ($WORK/s3.json):" >&2
  grep '"disk_hits"' "$WORK/s3.json" >&2 || cat "$WORK/s3.json" >&2
  exit 1
fi

echo "OK: all suites passed"
