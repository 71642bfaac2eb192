#!/usr/bin/env python3
"""Builds the service benchmark from this checkout's sources, then runs it.

    python3 servebench/run.py --workload warm_hits|cold_mix|churn_tcp \
        --seed N --seconds S --trace 0|1

The build goes to .bench_build/servebench at the repository root (the first
run compiles the library, later runs only relink what changed). Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("servebench: the library sources (src/) are missing",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    compile_ = ["cmake", "--build", BUILD, "--target", "servebench",
                "-j", "4"]
    return subprocess.call(compile_, stdout=sys.stderr) == 0


def main():
    if not build():
        print("servebench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "servebench")
    return subprocess.call([binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
