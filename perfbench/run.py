#!/usr/bin/env python3
"""CFDS performance benchmark: build, run one workload, report.

Builds the benchmark binary from the repository's sources (into
.bench_build/perfbench at the repository root), runs one workload in one
single-threaded process, validates its output against BENCHMARK.json and
prints one JSON object as the last line of standard output:

    python3 perfbench/run.py --workload paper_2k --seed 1 --seconds 24 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(and writes the span trace to .bench_build/traces/). Without --workload it
runs every workload, untraced and then traced, and prints a table.

Exit status is 0 only when the build succeeded and the run finished; a run
whose correctness checks fail still prints its result, with "correct":
false. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "cfds_perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark; build logs go to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(step))


def absent_layer(workload, name):
    """Per-layer metrics of layers a workload does not run; reported as 0."""
    if workload == "model_check":
        return not name.startswith(("check.", "trace."))
    return name.startswith("check.")


def run_workload(spec, workload, seed, seconds, traced, toy=False):
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if traced else "0"]
    if toy:
        args.append("--toy")
    if traced:
        os.makedirs(TRACE_DIR, exist_ok=True)
        args += ["--trace-out",
                 os.path.join(TRACE_DIR, "%s-seed%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        # A CFDS_EXPECT abort (or any crash) fails the run.
        fail("%s exited with status %d" % (workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s printed no result" % workload)
    raw = json.loads(lines[-1])

    declared = spec["per_layer"] if traced else spec["end_to_end"]
    emitted = raw["metrics"]
    metrics = {}
    for m in declared:
        name, unit = m["name"], m["unit"]
        if name in emitted:
            if emitted[name]["unit"] != unit:
                fail("%s: unit of %s is %r, BENCHMARK.json says %r"
                     % (workload, name, emitted[name]["unit"], unit))
            value = emitted[name]["value"]
        elif traced and absent_layer(workload, name):
            value = 0
        else:
            fail("%s did not report %s" % (workload, name))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("%s: %s is not a finite number" % (workload, name))
        metrics[name] = {"value": value, "unit": unit}
    extra = sorted(set(emitted) - set(metrics))
    outcome = {k: v for k, v in emitted.items()
               if k in extra and k.startswith("outcome.")}
    unknown = [k for k in extra if k not in outcome]
    if unknown:
        fail("%s reported metrics BENCHMARK.json does not name: %s"
             % (workload, ", ".join(unknown)))
    for message in raw["failures"]:
        print("check failed: " + message, file=sys.stderr)
    return {
        "correct": bool(raw["correct"]) and raw["attempted"] >= 1,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }, outcome


def run_all(spec, seed, seconds):
    """Every workload untraced, then traced; a table per mode."""
    all_correct = True
    for traced in (False, True):
        print("== %s" % ("traced (per-layer)" if traced
                         else "untraced (end-to-end)"))
        for w in spec["workloads"]:
            result, outcome = run_workload(spec, w["name"], seed, seconds,
                                           traced)
            all_correct = all_correct and result["correct"]
            print("-- %s: correct=%s attempted=%d failed=%d"
                  % (w["name"], result["correct"], result["attempted"],
                     result["failed"]))
            for name, m in list(result["metrics"].items()) + list(
                    outcome.items()):
                print("   %-52s %18.6g %s" % (name, m["value"], m["unit"]))
    return all_correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy-sized workloads (smoke test)")
    args = parser.parse_args()

    spec = load_spec()
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        fail("unknown workload %r (known: %s)"
             % (args.workload, ", ".join(names)))
    build()
    if args.workload is None:
        sys.exit(0 if run_all(spec, args.seed, seconds) else 1)
    result, outcome = run_workload(spec, args.workload, args.seed, seconds,
                                   args.trace == 1, args.toy)
    if args.trace == 0:
        # The paper's outcome measures (exact for the seed), for reading.
        for name, m in outcome.items():
            print("%s %.17g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
