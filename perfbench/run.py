#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload corpus|stream|paper --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The library and the benchmark binary are built from source into
$CARGO_TARGET_DIR (default .bench_build under the repository root) with
CMake; inputs are generated under the same directory. Build output goes to
stderr, so the binary's JSON result stays the last line of stdout.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOBS = str(min(4, os.cpu_count() or 1))
# Backstop for a hung run; t2m_perfbench stops starting cases after 140 s.
RUN_TIMEOUT_S = 175


def build(build_dir, target):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    make = ["cmake", "--build", build_dir, "--target", target, "-j", JOBS]
    return subprocess.run(make, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["corpus", "stream", "paper"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    os.chdir(ROOT)
    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(out_dir, "perfbench")
    target = "perfbench_tests" if args.self_test else "t2m_perfbench"
    if not build(build_dir, target):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, target)
    if args.self_test:
        return subprocess.run([binary]).returncode

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(out_dir, "work")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
