#!/usr/bin/env python3
"""Builds and runs the ufim end-to-end benchmark.

    python3 e2ebench/run.py --workload esup --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds the
library and the ufim_e2e program in .bench_build/ (Release); later runs
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is the result JSON of ufim_e2e. Exits non-zero when the build
fails, when the sources are missing, or when any output check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("esup", "prob", "stream")


def build():
    """Configures (once) and builds ufim_e2e; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("error: the ufim sources (CMakeLists.txt, src/) are not in " + ROOT)
    cmake_dir = os.path.join(BUILD, "cmake")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "ufim_e2e", "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("error: build step failed: " + " ".join(step))
    return os.path.join(cmake_dir, "ufim_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD, "work")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
