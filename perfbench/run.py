#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload uncached --seed 1 --seconds 10 --trace 0

The first call configures and builds the library and the driver into
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild incrementally.
Build output goes to stderr, so the last line of stdout is the driver's JSON
result. The exit code is the driver's: non-zero when an answer disagreed with
its oracle, or when the build or the run failed.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def commit():
    """The checked-out commit, or 'unknown' outside a git work tree."""
    if shutil.which("git") is None:
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", HERE, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        fail("library sources (../src) not found beside perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "perfbench_driver"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench_driver")


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    driver = build(os.path.abspath(build_dir))
    sys.stdout.flush()
    try:
        done = subprocess.run([driver, *sys.argv[1:], "--commit", commit()],
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
