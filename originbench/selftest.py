#!/usr/bin/env python3
"""Self-test of the originbench benchmark.

    python3 originbench/selftest.py

Run from the root of a source checkout. Every workload runs at its smallest
size (--smallest) once untraced and once traced; each run must pass its own
output checks and print exactly the metrics BENCHMARK.json names, with their
units. Then one output per workload is deliberately corrupted (--corrupt:
one altered scan record for the grids, an altered sweep result, one flipped
RESULT byte for the service); each run must catch it, count it in `failed`
(and so in the fail ratio) and exit non-zero.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
CORRUPTIONS = {"grid": "record", "grid_dist": "record", "sweep": "record",
               "service": "result"}

failures = []


def expect(condition, what):
    print(("ok    " if condition else "FAIL  ") + what, flush=True)
    if not condition:
        failures.append(what)


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(ROOT, "originbench", "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--smallest"] + list(extra)
    process = subprocess.run(command, cwd=ROOT, capture_output=True,
                             text=True, timeout=900)
    lines = process.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    return process.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    metric_sets = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in metric_sets.items():
            label = "%s --trace %d" % (workload, trace)
            code, result = run(workload, trace)
            expect(set(result) == RESULT_KEYS, label + ": result keys")
            expect(code == 0 and result.get("correct") is True
                   and result.get("failed") == 0
                   and result.get("attempted", 0) >= 1,
                   label + ": outputs checked and correct")
            metrics = result.get("metrics", {})
            expect(list(metrics) == list(expected),
                   label + ": prints every named metric, in order")
            expect(all(metrics.get(name, {}).get("unit") == unit
                       for name, unit in expected.items()),
                   label + ": units match BENCHMARK.json")
            value = lambda name: metrics.get(name, {}).get("value")
            if trace == 0:
                expect(all(isinstance(value(n), (int, float)) and value(n) > 0
                           for n in expected),
                       label + ": every end-to-end metric is positive")
            elif workload == "sweep":
                expect(value("scanner.grabs") == 0,
                       label + ": the L4 sweep reports zero grabs")
            elif workload == "grid":
                expect(all(value("scanner.l7_share." + p) > 0
                           for p in ("http", "https", "ssh")),
                       label + ": l7_share for each protocol")
    for workload, kind in CORRUPTIONS.items():
        label = "%s --corrupt %s" % (workload, kind)
        code, result = run(workload, 0, "--corrupt", kind)
        attempted = result.get("attempted", 0)
        failed = result.get("failed", 0)
        expect(code != 0 and result.get("correct") is False,
               label + ": the check trips and the run exits non-zero")
        expect(attempted > 0 and failed > 0,
               label + ": counted in the fail ratio (%s of %s)" %
               (failed, attempted))
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
