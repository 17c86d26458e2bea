#!/usr/bin/env python3
"""Self-test of the benchmark: smoke runs of every workload, plus checks
that a corrupted output is caught and that every named metric is printed
with its unit.

    python3 perfbench/selftest.py

Run from the root of a checkout (it builds like run.py). For every
workload it runs:
  * --smoke --trace 0: exit 0, a result line with exactly the keys
    correct/attempted/failed/metrics, correct, and exactly the end-to-end
    metrics of BENCHMARK.json with their units, each a positive number;
  * --smoke --trace 1: the same with the per-layer metrics;
  * --smoke --corrupt: one flipped output bit (a NaN loss for train) must
    give exit 1, "correct": false and failed >= 1.
Finally it copies BENCHMARK.json and perfbench/ alone into a scratch
directory under .bench_build and checks that run.py fails there without
printing a result. Exit status 0 when every check passes.
"""
import json
import math
import os
import shutil
import subprocess
import sys

import run

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def result_line(out):
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def check_metrics(res, catalog, what, positive):
    got = res.get("metrics", {})
    expect(set(got) == {m["name"] for m in catalog},
           what + ": metric names match BENCHMARK.json")
    for m in catalog:
        v = got.get(m["name"], {})
        value = v.get("value")
        ok = (v.get("unit") == m["unit"] and isinstance(value, (int, float))
              and math.isfinite(value) and (value > 0 or not positive))
        if not ok:
            expect(False, "%s: %s printed with unit %s" %
                   (what, m["name"], m["unit"]))


class Args:
    def __init__(self, workload, trace):
        self.workload, self.seed, self.seconds, self.trace = (
            workload, 7, 1, trace)


def main():
    binary = run.build()
    for w in run.WORKLOADS:
        for trace, catalog in ((0, SPEC["end_to_end"]),
                               (1, SPEC["per_layer"])):
            what = "%s --smoke --trace %d" % (w, trace)
            code, out = run.run(binary, Args(w, trace), ["--smoke"])
            res = result_line(out)
            expect(code == 0 and res is not None, what + ": exit 0 with result")
            if res is None:
                continue
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   what + ": result keys")
            expect(res.get("correct") is True and res.get("attempted", 0) >= 1,
                   what + ": correct, attempted >= 1")
            # Per-layer metrics of layers a workload bypasses read 0.
            check_metrics(res, catalog, what, positive=(trace == 0))
        what = "%s --smoke --corrupt" % w
        code, out = run.run(binary, Args(w, 0), ["--smoke", "--corrupt"])
        res = result_line(out) or {}
        expect(code == 1 and res.get("correct") is False
               and res.get("failed", 0) >= 1,
               what + ": mismatch caught (exit 1, correct false, failed >= 1)")

    # Without the library sources the benchmark must fail, fast and silent.
    bare = os.path.join(run.ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infer", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and result_line(proc.stdout) is None,
           "bare copy without sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
