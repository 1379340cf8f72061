#!/bin/sh
# Perf + determinism gate for the simulator hot paths (see docs/PERF.md).
#
# Builds a Release tree and a ThreadSanitizer tree, runs the kernel's
# ordering gtests (QueueEquivalence.*: calendar vs binary heap, dense
# buckets included; SimulatorBatch.*: batch firings and their prefetch
# callback) and the smoke-sized bench_kernel study under both (catching
# crashes, CFDS_EXPECT aborts, and data races on the schedule/cancel/fire
# paths), then checks that Figure 5's
# JSONL, whose full-stack spot checks run on the event queue, matches the
# committed golden at --threads 8 on the calendar queue AND on the
# --no-calendar binary heap, that the scalability row (whose population
# sizes run in parallel) matches its golden at --threads 8, and finally
# gates the megascale n=10^5 decade (events/s floor, bytes/node ceiling)
# against the committed BENCH_megascale.json baseline.
#
# Usage: tools/check_perf.sh [build-dir-prefix]
#   Build trees land in <prefix>-release/ and <prefix>-tsan/
#   (default prefix: build-perf).

set -eu

cd "$(dirname "$0")/.."
prefix="${1:-build-perf}"

build() {
  dir="$1"
  shift
  echo "== configure + build $dir"
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$(nproc)" \
      --target bench_kernel bench_figures test_simulator >/dev/null
}

build "$prefix-release" -DCMAKE_BUILD_TYPE=Release
cmake --build "$prefix-release" -j "$(nproc)" --target bench_megascale \
    >/dev/null
build "$prefix-tsan" -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCFDS_SANITIZE=thread

kernel_tests='QueueEquivalence.*:SimulatorBatch.*'
echo "== kernel ordering gtests (Release)"
"$prefix-release/tests/test_simulator" --gtest_filter="$kernel_tests" \
    --gtest_brief=1
echo "== kernel ordering gtests (ThreadSanitizer)"
"$prefix-tsan/tests/test_simulator" --gtest_filter="$kernel_tests" \
    --gtest_brief=1

echo "== smoke bench (Release)"
"$prefix-release/bench/bench_kernel" --trials 10 \
    --benchmark_filter=SKIPALL >/dev/null
echo "== smoke bench (ThreadSanitizer)"
"$prefix-tsan/bench/bench_kernel" --trials 10 \
    --benchmark_filter=SKIPALL >/dev/null

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
golden=tests/golden/figures/fig5.jsonl
for queue in "" --no-calendar; do
  echo "== determinism: fig5 JSONL at --threads 8 $queue vs $golden"
  "$prefix-release/bench/bench_figures" fig5 --trials 4000 --seed 7 \
      --threads 8 --no-wall-time $queue --benchmark_filter=SKIPALL \
      --out "$tmp/fig5.jsonl" >/dev/null
  if ! cmp -s "$golden" "$tmp/fig5.jsonl"; then
    echo "FAIL: fig5 JSONL $queue differs from the golden" >&2
    diff "$golden" "$tmp/fig5.jsonl" >&2 || true
    exit 1
  fi
done

golden=tests/golden/figures/scalability.txt
echo "== determinism: bench_figures scalability at --threads 8 vs $golden"
"$prefix-release/bench/bench_figures" scalability --threads 8 \
    --benchmark_filter=SKIPALL >"$tmp/scalability.txt" 2>/dev/null
if ! cmp -s "$golden" "$tmp/scalability.txt"; then
  echo "FAIL: the scalability row at --threads 8 differs from the golden" >&2
  diff "$golden" "$tmp/scalability.txt" >&2 || true
  exit 1
fi

echo "== megascale: n=10^5 decade vs committed BENCH_megascale.json"
"$prefix-release/bench/bench_megascale" --max-nodes 100000 \
    --threads 1 --out "$tmp/megascale.jsonl" --no-wall-time
python3 tools/check_megascale.py --fresh "$tmp/megascale.jsonl"

echo "OK: kernel ordering gtests and smoke benches passed, fig5 JSONL matches the golden on both" \
     "queue implementations, the scalability row matches its golden," \
     "megascale within floor/ceiling"
