#!/usr/bin/env python3
"""Alternating A/B pairs of two built benchmark binaries, per workload.

Usage:

    python3 scripts/ab_pairs.py PARENT_BIN CHANGE_BIN --workload foveated_fleet \\
        [--pairs 10] [--seconds 30] [--seed 701]

`--workload all` runs the pairs of every workload that `BENCHMARK.json`
declares, one workload after the other, and prints one table per workload.

Each pair runs both binaries untraced (`--trace 0`) at the same seed
(`--seed`, `--seed + 1`, ...), parent first in even pairs and change first
in odd ones, so a drift in host speed lands on both sides. Build each side
from its own snapshot of the tree (`git archive`), so that editing the
repository does not rebuild either binary between runs.

Each pair's metrics go to standard error as the pair finishes. For every
end-to-end metric that `BENCHMARK.json` declares, it prints each
side's median and [q1, q3], the ratio of the medians, and the pairs the
change won, then two verdicts:

* claim: the change won at least 9 in 10 pairs and its median is better
  than the parent's by more than the parent's interquartile range ("n/a"
  with fewer than ten pairs);
* regression: the change's median is no worse than the parent's by more
  than the metric's bound. When either side's spread (IQR over median)
  exceeds the bound it reads "unresolved", unless every run of the change
  beats every run of the parent ("better, all runs").

It exits non-zero only when a run reports `failed > 0` or its output cannot
be parsed; the verdicts are for the reader.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def quartiles(values):
    """(q1, median, q3) of the values, by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def run_once(binary, workload, seed, seconds):
    """One untraced run; returns its metrics dict, or exits on a failure."""
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in report["metrics"].items()}
        failed = report["failed"]
    except (IndexError, KeyError, TypeError, ValueError):
        sys.exit(f"{binary} (seed {seed}): unparseable output, exit {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    if failed > 0:
        sys.exit(f"{binary} (seed {seed}): {failed} failed run(s)")
    return metrics


def better(a, b, direction):
    """Whether value a beats value b in the metric's direction."""
    return a > b if direction == "higher" else a < b


def compare(spec, args, workload):
    """Runs the pairs of one workload and prints its table."""
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            binary = args.parent if side == "parent" else args.change
            runs[side].append(run_once(binary, workload, args.seed + i, args.seconds))
        print(f"{workload} pair {i + 1}/{args.pairs} (seed {args.seed + i}, {order[0]} first): "
              + "; ".join(f"{side} {json.dumps(runs[side][-1])}" for side in order),
              file=sys.stderr)

    need = math.ceil(0.9 * args.pairs)
    print(f"{workload}: {args.pairs} alternating pair(s) of {args.seconds} s, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}")
    header = (f"{'metric':<16} {'parent median [q1, q3]':<36} {'change median [q1, q3]':<36} "
              f"{'ratio':>7} {'wins':>6}  claim  regression")
    print(header)
    for metric in spec["end_to_end"]:
        name, direction, bound = metric["name"], metric["better"], metric["bound"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        wins = sum(better(c, p, direction) for p, c in zip(parent, change))
        ratio = cmed / pmed if pmed else math.nan
        gap = cmed - pmed if direction == "higher" else pmed - cmed
        if args.pairs < 10:
            claim = "n/a"
        else:
            claim = "holds" if wins >= need and gap > pq3 - pq1 else "no"
        spread = max((q3 - q1) / med if med else 0.0
                     for q1, med, q3 in ((pq1, pmed, pq3), (cq1, cmed, cq3)))
        worse = cmed < pmed * (1 - bound) if direction == "higher" else cmed > pmed * (1 + bound)
        if spread > bound:
            separated = all(better(c, p, direction) for p in parent for c in change)
            regression = "better, all runs" if separated else "unresolved"
        else:
            regression = "REGRESSED" if worse else "ok"
        print(f"{name:<16} {f'{pmed:.6g} [{pq1:.6g}, {pq3:.6g}]':<36} "
              f"{f'{cmed:.6g} [{cq1:.6g}, {cq3:.6g}]':<36} {ratio:>7.3f} "
              f"{f'{wins}/{args.pairs}':>6}  {claim:<5}  {regression} (bound {bound:g})")


def main():
    spec = json.loads(BENCHMARK_JSON.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the parent's built benchmark binary")
    parser.add_argument("change", help="the change's built benchmark binary")
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=701, help="seed of the first pair")
    args = parser.parse_args()

    for i, workload in enumerate(workloads if args.workload == "all" else [args.workload]):
        if i:
            print()
        compare(spec, args, workload)
        sys.stdout.flush()


if __name__ == "__main__":
    main()
