#!/usr/bin/env python3
"""Compare two result sets of layerbench/sweep.py, metric by metric.

    python3 layerbench/compare.py BASE.json CHANGE.json

For every workload and end-to-end metric in BENCHMARK.json, prints the
two medians, the gain (the change's median over the base's, as a share,
positive when better), and a verdict against the metric's own bound:

  unresolved  the spread of either set (interquartile distance over the
              median) is wider than the bound, and not every run of the
              change beats every run of the base
  worse       the change's median is worse than the base's by more than
              the bound
  better      every run of the change beats every run of the base, or the
              median improved by more than the base's spread and the
              change wins at least 9 of 10 seed-paired runs
  unchanged   otherwise

Exits 1 when any pairing is worse, else 0.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(base, change, bound, higher_better):
    """Verdict for one metric; base and change map seed -> value."""
    b = list(base.values())
    c = list(change.values())
    sign = 1.0 if higher_better else -1.0
    mb, mc = statistics.median(b), statistics.median(c)
    gain = sign * (mc - mb) / mb if mb else 0.0
    beats = lambda x, y: sign * (x - y) > 0
    all_better = all(beats(x, y) for x in c for y in b)
    if all_better:
        return "better", gain
    if max(spread(b), spread(c)) > bound:
        return "unresolved", gain
    if gain < -bound:
        return "worse", gain
    seeds = sorted(set(base) & set(change))
    pairs = [(change[s], base[s]) for s in seeds] or list(zip(c, b))
    wins = sum(1 for x, y in pairs if beats(x, y))
    if gain > spread(b) and wins >= 0.9 * len(pairs):
        return "better", gain
    return "unchanged", gain


def by_seed(runs, metric):
    return {r["seed"]: r["metrics"][metric] for r in runs if metric in r["metrics"]}


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(sys.argv[1]) as f:
        base = json.load(f)
    with open(sys.argv[2]) as f:
        change = json.load(f)

    any_worse = False
    print(f"base {base.get('commit', '?')} vs change {change.get('commit', '?')}")
    print(f"{'workload':12s} {'metric':18s} {'base':>12s} {'change':>12s} {'gain':>8s} "
          f"{'bound':>6s}  verdict")
    for w in bench["workloads"]:
        name = w["name"]
        for m in bench["end_to_end"]:
            b = by_seed(base["runs"].get(name, []), m["name"])
            c = by_seed(change["runs"].get(name, []), m["name"])
            if not b or not c:
                print(f"{name:12s} {m['name']:18s} {'-':>12s} {'-':>12s} {'':>8s} "
                      f"{m['bound']:6.2f}  missing")
                continue
            v, gain = verdict(b, c, m["bound"], m["better"] == "higher")
            any_worse = any_worse or v == "worse"
            print(f"{name:12s} {m['name']:18s} {statistics.median(b.values()):12.6g} "
                  f"{statistics.median(c.values()):12.6g} {100 * gain:+7.2f}% "
                  f"{m['bound']:6.2f}  {v}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
