#!/usr/bin/env python3
"""Builds and runs the served-path benchmark.

Run from the repository root:

    python3 servebench/run.py --workload query_cold --seed 1 --seconds 10 --trace 0

The benchmark is a CMake project of its own (servebench/CMakeLists.txt) that
compiles the library from src/. It builds into $CARGO_TARGET_DIR, or
.bench_build when that is unset, runs the arithmetic self-test, then one
workload. The last line of output is the benchmark's JSON summary. Exits
nonzero without a summary when the sources are missing or the build or the
self-test fails, and with exit code 1 after a summary reading
"correct": false when a correctness check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("query_cold", "query_hot")


def fail(message):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no ibseg sources next to the benchmark (src/ is missing)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "servebench",
         "servebench_selftest"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    build(build_dir)
    if subprocess.run([os.path.join(build_dir, "servebench_selftest")]).returncode:
        fail("self-test failed")
    work = os.path.join(build_dir, "work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    cmd = [os.path.join(build_dir, "servebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work,
           "--trace-dir", os.path.join(build_dir, "traces")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
