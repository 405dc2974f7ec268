#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload adults-q9 --seed 0 --seconds 25 --trace 0

Configures and builds perfbench/ (the library from src/ plus the benchmark
program) into .bench_build/ at the repository root, then runs it with
the given arguments. Build output goes to stderr, so the last line of
stdout is its JSON result. Exits non-zero when the build fails,
when any job fails or returns a wrong answer, or on a bad argument.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"


def build(build_dir):
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
             ["cmake", "--build", build_dir, "-j4", "--target", "perfbench"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main(argv):
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not build(build_dir):
        print("error: building perfbench failed", file=sys.stderr)
        return 2
    # The daemon's Unix socket lives in the work directory; a path relative
    # to the repository root keeps it under the 108-byte sun_path limit.
    workdir = os.path.relpath(
        os.path.join(build_dir, "work-%d" % os.getpid()), ROOT)
    binary = os.path.join(build_dir, "perfbench")
    try:
        return subprocess.run([binary, "--workdir", workdir] + argv,
                              cwd=ROOT).returncode
    finally:
        # perfbench removes it itself; this covers a crash.
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
