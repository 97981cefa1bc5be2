#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize the spread.

    python3 layerbench/sweep.py --workloads batch-warm,dist-w4 --seeds 1-10 \
        --out results.json [--trajectory LABEL]

Runs layerbench/run.py once per workload and seed (untraced, for the
benchmark's run_seconds), one run at a time, from the repository root.
Writes a result set (every run's metrics, plus host, nproc, OpenMP
thread setting and build flags) to --out and prints, per
workload and metric, the median, the quartiles and the spread: the
interquartile distance as a share of the median, next to the metric's
bound from BENCHMARK.json. --trajectory appends the medians and quartiles
as a new entry of layerbench/trajectory.json. Exits nonzero when any run
fails.

layerbench/compare.py compares two result sets.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def host_info():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build = {}
    try:
        with open(os.path.join(ROOT, ".bench_build", "CMakeCache.txt")) as f:
            for line in f:
                key, _, value = line.strip().partition("=")
                name = key.split(":")[0]
                if name in ("CMAKE_BUILD_TYPE", "CMAKE_CXX_FLAGS_RELEASE", "CMAKE_CXX_COMPILER",
                            "MPQLS_NATIVE_ARCH", "MPQLS_HAS_MARCH_X86_64_V3",
                            "MPQLS_ENABLE_OPENMP", "OpenMP_CXX_FLAGS"):
                    build[name] = value
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS", "unset (OpenMP default = nproc)"),
        "build": build,
    }


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def summarize(runs, bench):
    summary = {}
    for workload, results in runs.items():
        summary[workload] = {}
        print(f"\n{workload}: {len(results)} runs")
        print(f"  {'metric':28s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>7s}")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]] for r in results if m["name"] in r["metrics"]]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = m["bound"]
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread > bound else "near")
            summary[workload][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"  {m['name']:28s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{bound:>7} {flag}")
    return summary


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trajectory", metavar="LABEL")
    args = parser.parse_args()

    runs = {}
    failed = False
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.monotonic()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.monotonic() - start
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
            if done.returncode != 0 or result is None or not result.get("correct"):
                failed = True
                print(f"{workload} seed {seed}: FAILED (exit {done.returncode})\n{done.stderr[-2000:]}",
                      file=sys.stderr)
                continue
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            runs[workload].append({"seed": seed, "wall_s": wall, "attempted": result["attempted"],
                                   "failed": result["failed"], "metrics": metrics})
            print(f"{workload} seed {seed}: {wall:.1f} s wall, {result['attempted']} jobs",
                  file=sys.stderr)

    result_set = {"commit": git_commit(), "host": host_info(),
                  "run_seconds": bench["run_seconds"], "runs": runs}
    with open(args.out, "w") as f:
        json.dump(result_set, f, indent=1)
    summary = summarize(runs, bench)

    if args.trajectory:
        path = os.path.join(HERE, "trajectory.json")
        with open(path) as f:
            trajectory = json.load(f)
        trajectory.append({"label": args.trajectory, "commit": result_set["commit"],
                           "host": result_set["host"], "run_seconds": bench["run_seconds"],
                           "seeds": args.seeds, "workloads": summary})
        with open(path, "w") as f:
            json.dump(trajectory, f, indent=1)
            f.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
