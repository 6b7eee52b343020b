#!/usr/bin/env python3
"""Builds the benchmark from the checked-out sources and runs one workload.

    python3 perfbench/run.py --workload train-lstm --seed 1 --seconds 12 --trace 0

Run from the repository root. The library and the benchmark binary are
compiled by perfbench/CMakeLists.txt into .bench_build/perfbench with a
pinned build type and SIMD setting, never from build/. Build output goes
to stderr; the benchmark's stdout is passed through, so its last line is
the JSON result. Exits non-zero, printing no result, when the build or
the run fails.
"""

import fcntl
import os
import subprocess
import sys

BUILD_TYPE = "Release"
SIMD = "ON"


def build(root):
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per checkout; a second run waits for it.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE, "-DBUFFALO_SIMD=" + SIMD],
            ["cmake", "--build", build_dir, "--target", "perfbench",
             "-j", jobs],
        ]
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr,
                              stderr=sys.stderr).returncode != 0:
                return None
    return os.path.join(build_dir, "perfbench")


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
