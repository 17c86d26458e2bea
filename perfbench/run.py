#!/usr/bin/env python3
"""Builds and runs the whole-system benchmark (see README.md).

    python3 perfbench/run.py --workload infer|train|serve|hw_sweep \\
        --seed N --seconds S --trace 0|1 [--smoke] [--corrupt]

Run from the root of a checkout. The first run configures and builds the
repository's libraries and the benchmark binary (Release) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. A traced run (--trace 1) also writes
a Chrome trace to .bench_build/traces/<workload>-seed<N>.json.

Exit status: the benchmark's (0 correct, 1 output mismatch), or 2 when the
sources are missing, the build fails or the run exceeds its time limit — in
which case no result line is printed.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("infer", "train", "serve", "hw_sweep")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # the result must be out within 180 s


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=840)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s (%s)" % (" ".join(cmd), e))
        if res.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run(binary, args, extra=(), timeout=RUN_TIMEOUT_S):
    """Runs the binary to completion; returns (exit code, stdout)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += list(extra)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s run exceeded %d s" % (args.workload, timeout))
    return proc.returncode, out


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny run of the same code paths")
    p.add_argument("--corrupt", action="store_true",
                   help="flip one checked output bit (self-test)")
    return p.parse_args(argv)


def main(argv):
    args = parse(argv)
    binary = build()
    extra = []
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        extra += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.smoke:
        extra.append("--smoke")
    if args.corrupt:
        extra.append("--corrupt")
    code, out = run(binary, args, extra)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
