#!/usr/bin/env python3
"""Build and run the layer-ledger benchmark.

    python3 layerbench/run.py --workload batch-warm --seed 1 --seconds 10 --trace 0

Run from the repository root. Configures and builds layerbench/ (which
builds the solver library from the repository's sources) into
.bench_build/, then runs the benchmark binary with the given arguments.
Build output goes to stderr, so the last stdout line is the binary's JSON
result. The exit code is the binary's, or nonzero when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def build():
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "layerbench"],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"layerbench: build failed: {e}", file=sys.stderr)
        return 1
    try:
        done = subprocess.run([os.path.join(BUILD, "layerbench")] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"layerbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
