#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload spill-fuse --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (the fusion libraries plus the kf_perfbench program, Release)
into .bench_build/; later calls rebuild incrementally. Build output goes to
stderr, so the last line of stdout is kf_perfbench's JSON result. Exits
non-zero without a result when the library sources are missing or the
build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
JOBS = "3"  # below the 4 cores the benchmark is tuned for


def run_quiet(cmd):
    """Runs a build step, sending its output to stderr."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources next to perfbench/", file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            return None
    if run_quiet(["cmake", "--build", BUILD, "-j", JOBS,
                  "--target", "kf_perfbench"]) != 0:
        return None
    return os.path.join(BUILD, "kf_perfbench")


def main():
    binary = build()
    if binary is None:
        return 2
    child = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
