#!/usr/bin/env python3
"""Builds the serving-stack benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload paper19 --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/ (CMake, perfbench/CMakeLists.txt). Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. See perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the library sources (src/) are missing",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "ned_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not build():
        return 1
    binary = os.path.join(BUILD, "ned_perfbench")
    return subprocess.run([binary, "--root", ROOT] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
