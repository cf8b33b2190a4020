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

A baseline saved from a ``--traversal both`` sweep replays every engine
(single, dual *and* auto — the sweep runs once per engine, exactly like
the CLI), and the smoke additionally gates on the **dual engine's
pruning win**: for every tree cell present under both concrete engines,
the dual engine's total pruning work
``box_tests + group_box_tests + nodes_visited`` must stay at or below
``BENCH_SMOKE_DUAL_RATIO`` (default 0.7) times the single engine's
``box_tests + nodes_visited``.  That is the machine-independent form of
the dual engine's reason to exist — a code change that silently degrades
group pruning fails CI even when wall seconds stay flat.

An every-engine sweep also gates the **auto chooser**:

- **regret**: each ok ``auto`` cell's wall seconds must stay at or below
  ``BENCH_SMOKE_AUTO_REGRET`` (default 1.1) times the *better* concrete
  engine's wall on the same cell — all three cells ran in this same
  smoke process, so the comparison is same-machine and fair;
- **selection**: across the committed cells, auto must have picked the
  dual engine for at least one chunk — a chooser that degenerates to
  always-single (on the clustered cells the baseline commits precisely
  so dual can win) fails CI even though its results stay correct.

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

#: Ceiling on dual/single pruning work per cell of a both-mode sweep.
DUAL_RATIO_ENV = "BENCH_SMOKE_DUAL_RATIO"

#: Ceiling on the Borůvka MST traversal's distance work per hierarchy
#: cell, as a fraction of Prim's n(n-1) distance evaluations.
MST_RATIO_ENV = "BENCH_SMOKE_MST_RATIO"

#: Ceiling on an auto cell's wall seconds over min(single, dual) wall on
#: the same cell of an every-engine sweep.
AUTO_REGRET_ENV = "BENCH_SMOKE_AUTO_REGRET"

#: Cells whose better engine finishes faster than this are exempt from
#: the regret gate — their wall is dominated by launch noise.
AUTO_REGRET_FLOOR_SECONDS = 0.05

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


def _dual_ratio_threshold(default: float = 0.7) -> float:
    raw = os.environ.get(DUAL_RATIO_ENV)
    if raw is None:
        return default
    value = float(raw)
    if value <= 0.0:
        raise ValueError(f"{DUAL_RATIO_ENV} must be > 0; got {raw!r}")
    return value


def _auto_regret_threshold(default: float = 1.1) -> float:
    raw = os.environ.get(AUTO_REGRET_ENV)
    if raw is None:
        return default
    value = float(raw)
    if value <= 1.0:
        raise ValueError(f"{AUTO_REGRET_ENV} must be > 1.0; got {raw!r}")
    return value


def auto_regret_alarms(records, threshold: float) -> list[str]:
    """Auto cells of an every-engine sweep that ran slower than
    ``threshold`` times the better concrete engine.

    Cells are paired by their full parameter key minus ``traversal``;
    only ``"ok"`` auto cells whose single/dual twins are both ``"ok"``
    participate, and only cells that actually made engine decisions
    (``auto_single_chunks + auto_dual_chunks > 0`` — baselines carry the
    traversal key but never choose).  All three cells ran in this same
    process, so the wall comparison is same-machine.  Cells whose better
    concrete engine finishes under :data:`AUTO_REGRET_FLOOR_SECONDS` are
    exempt: at millisecond scale the gate would be measuring launch
    noise, not the engine choice.
    """
    by_engine: dict[tuple, dict[str, object]] = {}
    for rec in records:
        if rec.status != "ok":
            continue
        key = (rec.algorithm, rec.dataset, rec.n, rec.eps, rec.min_samples)
        by_engine.setdefault(key, {})[rec.traversal] = rec
    alarms = []
    for key, engines in sorted(by_engine.items()):
        auto = engines.get("auto")
        single = engines.get("single")
        dual = engines.get("dual")
        if auto is None or single is None or dual is None:
            continue
        decisions = auto.counters.get("auto_single_chunks", 0) + auto.counters.get(
            "auto_dual_chunks", 0
        )
        if not decisions:
            continue
        best = min(single.seconds, dual.seconds)
        if best < AUTO_REGRET_FLOOR_SECONDS:
            continue
        if auto.seconds > threshold * best:
            alarms.append(
                f"{auto.algorithm} [{auto.dataset} n={auto.n} eps={auto.eps:g} "
                f"minpts={auto.min_samples}] auto wall {auto.seconds:.4g}s > "
                f"{threshold:g} x min(single {single.seconds:.4g}s, "
                f"dual {dual.seconds:.4g}s)"
            )
    return alarms


def auto_selection_alarms(records) -> list[str]:
    """Alarm when the auto chooser never picked the dual engine anywhere.

    The committed baseline includes clustered high-``eps`` cells chosen
    precisely because the dual engine wins there; an auto run that makes
    decisions yet selects single for every chunk of every cell means the
    chooser has degenerated, even though results stay correct.  Sweeps
    with no deciding auto cells (no tree algorithms under auto) are
    exempt.
    """
    deciding = [
        rec
        for rec in records
        if rec.traversal == "auto"
        and rec.status == "ok"
        and (
            rec.counters.get("auto_single_chunks", 0)
            + rec.counters.get("auto_dual_chunks", 0)
        )
    ]
    if not deciding:
        return []
    dual_chunks = sum(rec.counters.get("auto_dual_chunks", 0) for rec in deciding)
    if dual_chunks:
        return []
    cells = ", ".join(
        f"{rec.algorithm}[n={rec.n} eps={rec.eps:g}]" for rec in deciding[:6]
    )
    return [
        f"auto never selected the dual engine across {len(deciding)} deciding "
        f"cell(s) ({cells}) — the chooser has degenerated to "
        f"always-single"
    ]


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
                f"minpts={rec.min_samples} {rec.traversal}] boruvka_nn "
                f"distance_evals / n(n-1) = {ratio:.3f} > {threshold:g}"
            )
    return alarms


def _pruning_work(rec, dual: bool) -> int:
    """The machine-independent pruning total of one tree cell."""
    total = rec.counters.get("box_tests", 0) + rec.counters.get("nodes_visited", 0)
    if dual:
        total += rec.counters.get("group_box_tests", 0)
    return total


def dual_ratio_alarms(records, threshold: float) -> list[str]:
    """Cells of a both-mode sweep where the dual engine's pruning work
    exceeds ``threshold`` times the single engine's.

    Cells are paired by their full parameter key minus ``traversal``;
    only ``"ok"`` cells that performed box tests under the single engine
    participate (baselines and failed cells carry no pruning signal).
    """
    singles = {}
    for rec in records:
        if rec.traversal == "single" and rec.status == "ok":
            key = (rec.algorithm, rec.dataset, rec.n, rec.eps, rec.min_samples)
            singles[key] = rec
    alarms = []
    for rec in records:
        if rec.traversal != "dual" or rec.status != "ok":
            continue
        key = (rec.algorithm, rec.dataset, rec.n, rec.eps, rec.min_samples)
        base = singles.get(key)
        if base is None or not base.counters.get("box_tests", 0):
            continue
        ratio = _pruning_work(rec, dual=True) / _pruning_work(base, dual=False)
        if ratio > threshold:
            alarms.append(
                f"{rec.algorithm} [{rec.dataset} n={rec.n} eps={rec.eps:g} "
                f"minpts={rec.min_samples}] dual/single pruning work "
                f"{ratio:.3f} > {threshold:g}"
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
    tree_kwargs = (
        {"query_order": args.query_order} if args.query_order != "input" else None
    )
    traversal = getattr(args, "traversal", "single")
    modes = (
        ("single", "dual", "auto") if traversal == "both" else (traversal,)
    )
    records = []
    for mode in modes:
        records += run_sweep(
            args.algorithms.split(","),
            cells,
            lambda cell: X,
            dataset=args.dataset or args.input,
            capacity_bytes=args.memory_cap,
            tree_kwargs=tree_kwargs,
            reuse_index=not args.no_reuse_index,
            traversal=mode,
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
    if len(modes) > 1:
        ratio = _dual_ratio_threshold()
        for entry in dual_ratio_alarms(records, ratio):
            print(f"  dual_ratio_regression: {entry}")
            failed = True
        regret = _auto_regret_threshold()
        for entry in auto_regret_alarms(records, regret):
            print(f"  auto_regret: {entry}")
            failed = True
        for entry in auto_selection_alarms(records):
            print(f"  auto_selection: {entry}")
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
