#!/usr/bin/env python3
"""Build and run the SOFIA repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the library from src/) into .bench_build/
on first use, then runs the benchmark binary. The binary's stdout passes
through unchanged; its last line is the JSON result. Build output goes to
stderr. Extra flags (--tiny) are handed to the binary as they are.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(".bench_build", "out")
WORKLOADS = ("paper-sweep", "attack-campaign", "prefilter-resume")
RUN_TIMEOUT_S = 175
BUILD_JOBS = "4"


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(needed):
            fail("run from the repository root: %s is missing" % needed)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "sofia_perfbench",
         "-j", BUILD_JOBS],
        check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "sofia_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", OUT_DIR] + extra
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, code=1)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
