#!/usr/bin/env python3
"""Builds the bagdet pipeline benchmark from this checkout and runs it.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The package in perfbench/ (CMakeLists.txt) compiles the library sources in
src/ together with the benchmark, Release with NDEBUG, into the build
directory: $CARGO_TARGET_DIR when set, else .bench_build, relative to the
checkout root. A traced run (--trace 1) writes its spans to
<build>/traces/<workload>-seed<seed>.json. The last line of standard output
is the result object printed by pipeline_bench.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
SELFTEST_SEEDS = (1, 2, 3)


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures once, then builds incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "determinacy.h")):
        fail("bagdet sources (src/) not found next to perfbench/", 2)
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", out_dir, "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    return os.path.join(out_dir, "pipeline_bench")


def run(cmd):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("pipeline_bench did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    return proc


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["certify", "decide_views"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the checker self-test instead of a workload")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out_dir = build_dir()
    binary = build(out_dir)

    if args.selftest:
        for seed in SELFTEST_SEEDS:
            proc = run([binary, "--selftest", "--seed", str(seed)])
            sys.stdout.write(proc.stdout)
            if proc.returncode:
                fail("checker self-test failed for seed %d" % seed, proc.returncode)
        return

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = run(cmd)
    if proc.returncode:
        fail("pipeline_bench exited with code %d" % proc.returncode, proc.returncode)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
