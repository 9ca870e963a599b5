#!/usr/bin/env python3
"""Builds the cubebench binary from source and runs one workload.

    python3 cubebench/run.py --workload build|serve|fleet --seed N \
        --seconds S --trace 0|1

Run from the repository root. The build goes to .bench_build/ (or to
$CARGO_TARGET_DIR when it is set, relative to the root); its output goes to
stderr so that the last line on stdout is the binary's JSON result. Exits
non-zero without a result when the build fails, e.g. when ../src is missing.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_root):
    build_dir = os.path.join(build_root, "cubebench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "cubebench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("cubebench build failed: %s\n" % " ".join(step))
            sys.exit(3)
    return os.path.join(build_dir, "cubebench")


def main():
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    binary = build(build_root)
    args = [binary] + sys.argv[1:] + [
        "--work-dir", os.path.join(build_root, "work")]
    sys.stdout.flush()
    done = subprocess.run(args)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
