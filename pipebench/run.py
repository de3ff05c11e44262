#!/usr/bin/env python3
"""Builds the pipeline benchmark from source, then runs it.

    python3 pipebench/run.py --workload steady-churn --seed 1 --seconds 10 --trace 0
    python3 pipebench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR when it
is set, else to .bench_build/; build output goes to stderr so the last
line of stdout stays the benchmark's JSON result. Every argument is handed
to the pipebench binary unchanged (see pipebench/README.md).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "pipebench", "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("pipebench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return 1
    try:
        proc = subprocess.run([os.path.join(build_dir, "pipebench")] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("pipebench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
