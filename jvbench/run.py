#!/usr/bin/env python3
"""Builds and runs the join-view maintenance benchmark.

    python3 jvbench/run.py --workload point_stream --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and compiles the
engine and the benchmark (CMake, Release) under .bench_build/jvbench; later
calls only rebuild what changed. The benchmark's last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. Build logs
and diagnostics go to standard error.

    python3 jvbench/run.py --self-test

builds and runs the self-test of the benchmark's correctness check instead.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "jvbench")
RUN_TIMEOUT_S = 150


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", BUILD, "--target", "jvbench",
                   "jvbench_selftest", "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    # Diagnostics (see jvbench.cc); not part of the benchmark's contract.
    parser.add_argument("--checkpoint", type=int, choices=(0, 1), default=1)
    parser.add_argument("--group-commit", type=int, choices=(0, 1), default=1)
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not build():
        print("jvbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        cmd = [os.path.join(BUILD, "jvbench_selftest")]
    else:
        cmd = [os.path.join(BUILD, "jvbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--checkpoint", str(args.checkpoint),
               "--group-commit", str(args.group_commit)]
    try:
        # The child's standard output (the result line last) and standard
        # error pass straight through.
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("jvbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
