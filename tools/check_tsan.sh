#!/bin/sh
# ThreadSanitizer race gate (see docs/STATIC_ANALYSIS.md).
#
# Builds a -DCFDS_SANITIZE=thread tree and runs the code that actually
# crosses threads — the runner/executor/thread-pool tests, the event-kernel
# and fault/chaos suites they drive, the transport-seam tests plus a
# 16-thread loopback soak (concurrent senders vs. draining owners, the
# threading contract in src/transport/loopback.h), and Figure 5 (semantic
# sweep plus full-stack spot checks) at --threads 8, whose JSONL must match
# the committed golden byte for byte. Any reported race fails the script
# (halt_on_error).
#
# Usage: tools/check_tsan.sh [build-dir]   (default: build-tsan)

set -eu

cd "$(dirname "$0")/.."
dir="${1:-build-tsan}"

echo "== configure + build $dir (ThreadSanitizer)"
cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCFDS_SANITIZE=thread >/dev/null
cmake --build "$dir" -j "$(nproc)" \
    --target test_runner test_simulator test_fault test_transport \
             soak_harness bench_figures >/dev/null

export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"

echo "== runner / executor / thread-pool tests"
"$dir/tests/test_runner"
echo "== event-kernel tests"
"$dir/tests/test_simulator"
echo "== fault / chaos tests"
"$dir/tests/test_fault"
echo "== transport seam tests (loopback cross-thread exchange)"
"$dir/tests/test_transport"

echo "== loopback soak under TSan (16 threads, full chaos)"
"$dir/tools/soak_harness" --mode threads --n 16 --epochs 10 \
    --phi-ms 400 --warmup 2 --quiesce 5 --seed 7 --chaos full

echo "== loopback soak under TSan (adaptive + checkpointed recovery)"
"$dir/tools/soak_harness" --mode threads --n 16 --epochs 10 \
    --phi-ms 400 --warmup 2 --quiesce 5 --seed 11 --chaos full \
    --loss-p 0.05 --adaptive --checkpoint

echo "== Figure 5 at --threads 8 vs tests/golden/figures/fig5.jsonl"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
"$dir/bench/bench_figures" fig5 --trials 4000 --seed 7 --threads 8 \
    --no-wall-time --benchmark_filter=SKIPALL --out "$tmp/fig5.jsonl" \
    >/dev/null
if ! cmp -s tests/golden/figures/fig5.jsonl "$tmp/fig5.jsonl"; then
  echo "FAIL: fig5 JSONL differs from the golden" >&2
  diff tests/golden/figures/fig5.jsonl "$tmp/fig5.jsonl" >&2 || true
  exit 1
fi

echo "OK: no races reported, fig5 JSONL matches the golden"
