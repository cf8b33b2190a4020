"""CI bench-smoke: re-run the committed baseline sweep and gate on it.

``python -m repro.bench.smoke [baseline.json]`` reloads a history file
written by ``repro bench --save`` (default ``BENCH_sweep.json``), re-runs
the *same* sweep — the saved ``meta["argv"]`` is parsed with the CLI's own
parser, so the smoke run and the baseline can never drift apart — and
fails (exit 1) when the fresh records regress:

- **wall seconds** past ``BENCH_SMOKE_WALL_THRESHOLD`` (default 1.25 —
  set it generously in CI, where the runner is not the machine the
  baseline was recorded on);
- **per-point counter rates** past ``BENCH_SMOKE_RATE_THRESHOLD``
  (default 1.25 — rates are machine-independent, so this one may be
  tight: more ``distance_evals`` per point is an algorithmic regression
  regardless of hardware);
- any **status change** (ok -> oom) or **result change** (labels
  summary moved) — correctness alarms, never threshold-gated.

A baseline that includes hierarchy cells (``--algorithms ...,hdbscan``)
replays the full hierarchy path — BVH core distances, BVH-Borůvka
mutual-reachability MST, condensed-tree extraction — and the smoke
additionally gates on the **Borůvka engine's pruning win**: for every ok
hdbscan cell, the MST traversal's own distance work (the ``boruvka_nn``
kernel's ``distance_evals``) must stay at or below
``BENCH_SMOKE_MST_RATIO`` (default 0.25) times ``n * (n - 1)`` — the
distance count the retained O(n²) Prim baseline pays by construction.
That is the paper's reason to run Borůvka over the tree at all; a change
that silently degrades the component masking or the bound-capped radius
schedule fails CI even when wall seconds stay flat.

The smoke run never writes the baseline; refreshing it is an explicit
``repro bench ... --save`` on a maintainer's machine.
"""

from __future__ import annotations

import os
import sys

from repro.bench.harness import HIERARCHY_ALGORITHMS, run_sweep
from repro.bench.history import compare_records, load_records

#: Default baseline path (the committed sweep records).
DEFAULT_BASELINE = "BENCH_sweep.json"

#: Environment knobs for the two regression thresholds.
WALL_THRESHOLD_ENV = "BENCH_SMOKE_WALL_THRESHOLD"
RATE_THRESHOLD_ENV = "BENCH_SMOKE_RATE_THRESHOLD"

#: Ceiling on the Borůvka MST traversal's distance work per hierarchy
#: cell, as a fraction of Prim's n(n-1) distance evaluations.
MST_RATIO_ENV = "BENCH_SMOKE_MST_RATIO"

#: Alarm categories that fail the smoke run.
ALARM_KINDS = ("regressions", "rate_regressions", "status_changes", "result_changes")


def _threshold(env: str, default: float) -> float:
    raw = os.environ.get(env)
    if raw is None:
        return default
    value = float(raw)
    if value <= 1.0:
        raise ValueError(f"{env} must be > 1.0; got {raw!r}")
    return value


def _mst_ratio_threshold(default: float = 0.25) -> float:
    raw = os.environ.get(MST_RATIO_ENV)
    if raw is None:
        return default
    value = float(raw)
    if value <= 0.0:
        raise ValueError(f"{MST_RATIO_ENV} must be > 0; got {raw!r}")
    return value


def mst_ratio_alarms(records, threshold: float) -> list[str]:
    """Hierarchy cells whose Borůvka MST traversal did more distance work
    than ``threshold`` times Prim's ``n * (n - 1)``.

    Only ``"ok"`` hierarchy cells that actually ran the ``boruvka_nn``
    kernel participate — a ``mst_algorithm="prim"`` cell (or a failed
    one) carries no tree-traversal signal to gate on.
    """
    alarms = []
    for rec in records:
        if rec.algorithm.lower() not in HIERARCHY_ALGORITHMS:
            continue
        if rec.status != "ok" or rec.n < 2:
            continue
        kernel = (rec.kernels or {}).get("boruvka_nn")
        if not kernel:
            continue
        evals = kernel.get("counters", {}).get("distance_evals", 0)
        ratio = evals / float(rec.n * (rec.n - 1))
        if ratio > threshold:
            alarms.append(
                f"{rec.algorithm} [{rec.dataset} n={rec.n} eps={rec.eps:g} "
                f"minpts={rec.min_samples}] boruvka_nn "
                f"distance_evals / n(n-1) = {ratio:.3f} > {threshold:g}"
            )
    return alarms


def _strip_option(argv: list[str], name: str) -> list[str]:
    """Drop ``name`` (and its separate value token, if any) from argv."""
    out: list[str] = []
    skip_value = False
    for token in argv:
        if skip_value:
            skip_value = False
            if not token.startswith("-"):
                continue
        if token == name:
            skip_value = True
            continue
        if token.startswith(name + "="):
            continue
        out.append(token)
    return out


def _sweep_args(argv: list[str]):
    """Parse a saved ``meta['argv']`` with the CLI's own bench parser."""
    from repro.cli import build_parser

    if not argv or argv[0] != "bench":
        raise ValueError(
            "baseline meta['argv'] does not start with 'bench' — the file "
            f"was not written by 'repro bench --save' (got {argv!r})"
        )
    return build_parser().parse_args(argv)


def run_smoke(
    baseline_path: str = DEFAULT_BASELINE,
    wall_threshold: float | None = None,
    rate_threshold: float | None = None,
) -> int:
    """Re-run the baseline's sweep and compare.  Returns the exit code."""
    from repro.cli import _load_input

    if wall_threshold is None:
        wall_threshold = _threshold(WALL_THRESHOLD_ENV, 1.25)
    if rate_threshold is None:
        rate_threshold = _threshold(RATE_THRESHOLD_ENV, 1.25)
    baseline, meta = load_records(baseline_path)
    argv = meta.get("argv")
    if not argv:
        print(f"error: {baseline_path} has no meta['argv'] to replay", file=sys.stderr)
        return 2
    # The smoke run must never overwrite the baseline or re-enter compare.
    argv = _strip_option(_strip_option(list(argv), "--save"), "--compare")
    args = _sweep_args(argv)
    X = _load_input(args)
    if args.minpts_sweep:
        cells = [
            {"eps": args.eps, "min_samples": int(v)}
            for v in args.minpts_sweep.split(",")
        ]
    elif args.eps_sweep:
        cells = [
            {"eps": float(v), "min_samples": args.minpts}
            for v in args.eps_sweep.split(",")
        ]
    else:
        cells = [{"eps": args.eps, "min_samples": args.minpts}]
    records = run_sweep(
        args.algorithms.split(","),
        cells,
        lambda cell: X,
        dataset=args.dataset or args.input,
        capacity_bytes=args.memory_cap,
        reuse_index=not args.no_reuse_index,
        n_ranks=args.ranks or 4,
    )
    report = compare_records(
        baseline,
        records,
        regression_threshold=wall_threshold,
        rate_threshold=rate_threshold,
    )
    print(
        f"bench-smoke vs {baseline_path} "
        f"(wall x{wall_threshold:g}, rates x{rate_threshold:g}, "
        f"{len(records)} cells)"
    )
    failed = False
    for kind in ALARM_KINDS + ("improvements", "rate_improvements", "unmatched"):
        for entry in report[kind]:
            print(f"  {kind[:-1] if kind.endswith('s') else kind}: {entry}")
            if kind in ALARM_KINDS:
                failed = True
    if any(a.lower() in HIERARCHY_ALGORITHMS for a in args.algorithms.split(",")):
        mst_ratio = _mst_ratio_threshold()
        for entry in mst_ratio_alarms(records, mst_ratio):
            print(f"  mst_ratio_regression: {entry}")
            failed = True
    if not failed:
        print("  ok: no wall, rate, status or result regressions")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    baseline_path = argv[0] if argv else DEFAULT_BASELINE
    return run_smoke(baseline_path)


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
