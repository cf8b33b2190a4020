#!/usr/bin/env python3
"""A/B comparison of two sets of benchmark runs.

    python3 benchmarks/e2e/compare.py --parent A1.json [A2.json ...] --change B1.json [B2.json ...]

Each file is a ``run.py --out`` result.  For every (end-to-end metric,
workload) pair the report gives each side's median and quartiles over its
untraced runs, and one verdict, using the bounds in ``BENCHMARK.json``:

``regression``  the change's median is worse than the parent's by more
                than the metric's bound;
``unresolved``  no regression, but one side's spread (quartile distance
                over median) exceeds the bound, and not every change run
                beats every parent run;
``gain``        the change wins at least 9 of 10 seed-paired runs (ties
                count for neither side, at least 10 pairs) and the medians
                differ by more than the parent's quartile distance;
``same``        everything else.

A workload whose change runs fail a larger share of their operations than
the parent's, or whose outputs were incorrect, is reported too.  When an
end-to-end metric regresses and both sides include traced runs of that
workload, the report names the layer whose self time grew most.

Exit status: 1 on any regression, incorrect output or rise in failures;
2 when the only findings are unresolved pairs; 0 otherwise.  No library
import is needed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

from catalog import BATCH_PARTITION, PER_LAYER, SERVICE_PARTITION

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Pairs needed before a gain may be claimed.
MIN_PAIRS = 10
#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def load_runs(paths) -> list[dict]:
    runs = []
    for path in paths:
        with open(path) as fh:
            runs += json.load(fh)["runs"]
    return runs


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics.quantiles``
    gives them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _by_seed(runs, workload, metric) -> dict:
    return {r["seed"]: r["metrics"][metric]["value"] for r in runs if r["workload"] == workload}


def verdict(parent: dict, change: dict, better: str, bound: float) -> tuple[str, float]:
    """Verdict for one (metric, workload) pair from seed -> value maps.

    Returns ``(verdict, worse)`` where ``worse`` is how much worse the
    change's median is, as a share of the parent's (negative: better).
    """
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(list(parent.values()))
    c1, cm, c3 = quartiles(list(change.values()))
    worse = sign * (cm - pm) / pm if pm else 0.0
    if worse > bound:
        return "regression", worse
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    all_better = max(sign * v for v in change.values()) < min(sign * v for v in parent.values())
    seeds = sorted(set(parent) & set(change))
    wins = sum(sign * (change[s] - parent[s]) < 0 for s in seeds)
    if (len(seeds) >= MIN_PAIRS and wins >= WIN_SHARE * len(seeds)
            and abs(cm - pm) > p3 - p1):
        return "gain", worse
    if spread > bound and not all_better:
        return "unresolved", worse
    return "same", worse


def moved_layer(parent_traced, change_traced, workload) -> str | None:
    """The self-time layer whose median grew most between the sides."""
    best = None
    for name in BATCH_PARTITION + SERVICE_PARTITION:
        p = [r["metrics"][name]["value"] for r in parent_traced if r["workload"] == workload]
        c = [r["metrics"][name]["value"] for r in change_traced if r["workload"] == workload]
        if not p or not c:
            return None
        scale = 1e-3 if PER_LAYER[name] == "ms" else 1.0
        delta = (statistics.median(c) - statistics.median(p)) * scale
        if best is None or delta > best[0]:
            best = (delta, name, statistics.median(p), statistics.median(c))
    delta, name, p, c = best
    unit = PER_LAYER[name]
    return f"{name} grew most: {p:.6g} -> {c:.6g} {unit} ({delta:+.3g} s)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", nargs="+", required=True, help="result files of the parent")
    ap.add_argument("--change", nargs="+", required=True, help="result files of the change")
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args(argv)

    with open(args.benchmark) as fh:
        declared = json.load(fh)
    parent_all, change_all = load_runs(args.parent), load_runs(args.change)
    parent = [r for r in parent_all if not r["trace"]]
    change = [r for r in change_all if not r["trace"]]
    parent_traced = [r for r in parent_all if r["trace"]]
    change_traced = [r for r in change_all if r["trace"]]
    workloads = [w["name"] for w in declared["workloads"]]

    counts = defaultdict(int)
    print(f"{'workload':<22} {'metric':<12} {'unit':<6} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'worse':>8} {'bound':>6}  verdict")
    for workload in workloads:
        regressed = False
        for metric in declared["end_to_end"]:
            name = metric["name"]
            p = _by_seed(parent, workload, name)
            c = _by_seed(change, workload, name)
            if not p and not c:
                continue
            if not p or not c:
                print(f"{workload:<22} {name:<12} no runs on one side")
                counts["missing"] += 1
                continue
            v, worse = verdict(p, c, metric["better"], metric["bound"])
            counts[v] += 1
            regressed |= v == "regression"
            pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
            print(f"{workload:<22} {name:<12} {metric['unit']:<6} "
                  f"{pq[1]:>12.5g} [{pq[0]:.5g}, {pq[2]:.5g}]".ljust(70)
                  + f"{cq[1]:>12.5g} [{cq[0]:.5g}, {cq[2]:.5g}]".ljust(36)
                  + f"{100 * worse:>+7.1f}% {100 * metric['bound']:>5.0f}%  {v}")
        for side, runs in (("parent", parent), ("change", change)):
            if any(not r["correct"] for r in runs if r["workload"] == workload):
                print(f"{workload}: INCORRECT output in a {side} run")
                counts["incorrect"] += 1
        share = {}
        for side, runs in (("parent", parent), ("change", change)):
            mine = [r for r in runs if r["workload"] == workload]
            share[side] = sum(r["failed"] for r in mine) / max(1, sum(r["attempted"] for r in mine))
        if share["change"] > share["parent"]:
            print(f"{workload}: failed share rose {share['parent']:.4f} -> {share['change']:.4f}")
            counts["failures"] += 1
        if regressed:
            layer = moved_layer(parent_traced, change_traced, workload)
            print(f"{workload}: {layer or 'no traced runs on both sides to attribute the regression'}")

    print(", ".join(f"{k}: {v}" for k, v in sorted(counts.items())))
    if counts["regression"] or counts["incorrect"] or counts["failures"]:
        return 1
    return 2 if counts["unresolved"] else 0


if __name__ == "__main__":
    sys.exit(main())
