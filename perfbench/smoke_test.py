#!/usr/bin/env python3
"""Smoke test of the CFDS benchmark at toy size.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json through run.py with --toy, untraced
and traced, and checks that:
  - each run passes its own correctness checks;
  - every end-to-end and per-layer metric is reported with its unit;
  - the outcome metrics repeat exactly for the same seed and, on the
    simulated worlds, differ for another seed.
Exits 0 when all checks hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Toy instances take about a second; two fit in this budget.
SECONDS = "2"


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--toy",
         "--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
         "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=ROOT)
    if proc.returncode != 0:
        raise AssertionError("%s --trace %d exited with %d"
                             % (workload, trace, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def outcome(result):
    """The exact, seed-determined metrics of a traced result."""
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.startswith(("outcome.", "check.runs", "check.unique_states"))}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(ok, message):
        if not ok:
            failures.append(message)
            print("FAIL " + message)

    for w in spec["workloads"]:
        name = w["name"]
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            result = run(name, 1, trace)
            expect(result["correct"] and result["failed"] == 0,
                   "%s --trace %d: checks failed" % (name, trace))
            expect(result["attempted"] >= 1,
                   "%s --trace %d: nothing attempted" % (name, trace))
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, "%s --trace %d: metrics or units differ "
                   "from BENCHMARK.json" % (name, trace))
            if trace == 1:
                first = outcome(result)
        again = outcome(run(name, 1, 1))
        expect(again == first,
               "%s: outcome differs between two runs of seed 1" % name)
        if name != "model_check":  # the exploration ignores the seed
            other = outcome(run(name, 2, 1))
            expect(other != first,
                   "%s: seeds 1 and 2 gave the same outcome" % name)
        print("ok   %s" % name)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
