#!/usr/bin/env python3
"""End-to-end benchmark of the repro library: five seeded workloads.

One workload, in this process (the form ``BENCHMARK.json`` declares)::

    python3 benchmarks/e2e/run.py --workload fdbscan-ngsim2d --seed 0 --seconds 15 --trace 0

prints each metric as ``name value unit`` and, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  A wrong output exits 1 after naming the workload
and cell; a missing library exits 2 without a result.

Several workloads, each in a fresh subprocess::

    python3 benchmarks/e2e/run.py --workloads all --seeds 0-2 --out results.json
    python -m benchmarks.e2e --workloads hdbscan-ngsim2d --trace-dir traces

The second form adds a traced run per workload and seed when
``--trace-dir`` is given, and writes every result to ``--out`` in the
format ``compare.py`` reads.  Run from the root of the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

#: One BLAS thread: the host has two cores and the benchmark is
#: single-threaded by contract.  Set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

DEFAULT_SECONDS = 15


def _parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run this one workload in this process")
    p.add_argument("--workloads", default="all", help="'all' or a comma list (several-workload form)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", help="seed list such as 0-9 or 0,3 (several-workload form)")
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    p.add_argument("--trace-dir",
                   help="where traced runs write their Chrome trace (default .bench_traces); "
                        "in the several-workload form, also run each workload traced")
    p.add_argument("--quick", action="store_true", help="tiny inputs, for the self-test")
    p.add_argument("--out", help="write all results as JSON (several-workload form)")
    return p.parse_args(argv)


def run_one(args) -> int:
    import catalog
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    trace_path = None
    if args.trace:
        trace_dir = args.trace_dir or os.path.join(ROOT, ".bench_traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{args.workload}.trace.json")
    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                            quick=args.quick, trace_path=trace_path)
    units = catalog.PER_LAYER if args.trace else catalog.END_TO_END
    for name, unit in units.items():
        print(f"{args.workload:<22} {name:<26} {outcome.metrics[name]:>16.6g} {unit}")
    for problem in outcome.problems:
        print(f"INCORRECT {args.workload} seed {args.seed}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if outcome.correct else 1


def run_many(args) -> int:
    """Each workload and seed in a fresh subprocess, untraced then traced."""
    import workloads

    names = list(workloads.WORKLOADS) if args.workloads == "all" else args.workloads.split(",")
    seeds = _parse_seeds(args.seeds) if args.seeds else [args.seed]
    traces = (0, 1) if args.trace_dir else (0,)
    runs, status = [], 0
    for seed in seeds:
        for name in names:
            for trace in traces:
                cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
                if trace:
                    cmd += ["--trace-dir", args.trace_dir]
                if args.quick:
                    cmd.append("--quick")
                t = time.perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                wall = time.perf_counter() - t
                if proc.returncode:
                    status = 1
                lines = proc.stdout.splitlines()
                if not lines or not lines[-1].startswith("{"):
                    print(f"{name} seed {seed}: no result (exit {proc.returncode})", file=sys.stderr)
                    continue
                print("\n".join(lines[:-1]))
                record = json.loads(lines[-1])
                record.update(workload=name, seed=seed, trace=trace, wall_s=wall)
                runs.append(record)
                print(f"# {name} seed {seed} trace {trace}: correct={record['correct']} "
                      f"attempted={record['attempted']} failed={record['failed']} "
                      f"({wall:.1f} s)", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seconds": args.seconds, "quick": args.quick, "runs": runs}, fh, indent=1)
            fh.write("\n")
    return status


def main(argv=None) -> int:
    args = _args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"benchmark: no library at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [SRC, HERE]
    return run_one(args) if args.workload else run_many(args)


if __name__ == "__main__":
    sys.exit(main())
