"""Sweep runner for the figure-regeneration benchmarks.

Each cell of a paper figure is one :func:`run_once` call: a fresh
:class:`~repro.device.Device` (optionally memory-capped), one clustering
run, and a :class:`RunRecord` with everything the figures plot — wall
seconds — plus what the paper discusses around them: work counters, the
per-kernel time breakdown, dense-cell fraction, peak device bytes, OOM
status.  Counters, the kernel profile and peak bytes are captured on
*every* exit path — an ``"oom"`` or ``"error"`` cell (the paper's
G-DBSCAN failures, Figure 4(h)) reports the work it performed up to the
failure, which is exactly what makes those failures diagnosable.

:func:`run_sweep` drives a whole panel (one x-axis series per algorithm),
with four benchmark-hygiene features:

- **index reuse** (on by default): the spatial index over each distinct
  point set is built once — live, on the first tree-algorithm cell that
  needs it — and reused by every other cell via
  :class:`~repro.core.index.DBSCANIndex`.  Reusing cells replay the
  recorded build cost onto their fresh per-cell device, so counters,
  kernel profiles and memory peaks stay comparable to cold runs while the
  sweep's wall time drops by the redundant builds;
- a per-cell ``time_budget``: when an algorithm's *successful* cell
  exceeds it, its later cells are skipped and reported as ``"skipped"``
  (naming the cell that tripped the budget) — the honest equivalent of
  the paper's missing points for codes that stop scaling.  Failed cells
  (``"oom"``/``"error"``) never trip the budget: a transient failure must
  not permanently drop an algorithm from the rest of the sweep;
- OOM capture: a :class:`~repro.device.DeviceMemoryError` marks the cell
  ``"oom"`` (the paper's G-DBSCAN failures on PortoTaxi, Figure 4(h));
- a per-cell ``cell_timeout`` watchdog: a pathological cell is stopped
  *mid-run* at its next kernel launch and recorded as ``"timeout"`` with
  the partial counters it accumulated, instead of eating the sweep;
- an optional :class:`~repro.faults.RetryPolicy`: a cell that fails with
  a *transient* error class (an injected device fault, or anything the
  policy names) is retried on a fresh device up to the policy's attempt
  budget instead of permanently recording an error cell.  The record's
  ``attempts`` and ``faults`` columns surface what happened; a
  :class:`~repro.faults.FaultPlan` may be supplied to inject
  deterministic transient device faults into cells (chaos-testing the
  harness itself).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.api import dbscan
from repro.core.index import DBSCANIndex
from repro.device.device import Device
from repro.device.memory import DeviceMemoryError
from repro.faults.deadline import Deadline, DeadlineExceededError
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.obs.span import NULL_TRACER

#: Work counters whose per-point *rates* are tracked across commits.
#: A rate (counter / n) is size-normalised, so a regression in it is an
#: algorithmic change — more distance evaluations per point — rather than
#: machine noise, which is what makes rates the right per-commit metric
#: next to wall seconds.
RATE_COUNTERS = (
    "distance_evals",
    "nodes_visited",
    "pairs_processed",
    "box_tests",
    "scatter_adds",
    "thread_steps",
)


@dataclass
class RunRecord:
    """One benchmark cell."""

    algorithm: str
    dataset: str
    n: int
    eps: float
    min_samples: int
    seconds: float = float("nan")
    status: str = "ok"  # "ok" | "oom" | "skipped" | "error" | "timeout"
    n_clusters: int = -1
    n_noise: int = -1
    dense_fraction: float = float("nan")
    peak_bytes: int = 0
    counters: dict = field(default_factory=dict)
    kernels: dict = field(default_factory=dict)
    reused_index: bool = False
    attempts: int = 1
    faults: int = 0
    detail: str = ""
    replayed_build_seconds: float = 0.0
    #: Kernel launches evicted from the cell device's bounded span ring —
    #: non-zero means the cell's trace (and any profile derived from it)
    #: is incomplete, which the bench report warns about.
    trace_dropped: int = 0

    def cold_equivalent_seconds(self) -> float:
        """Wall seconds this cell *would* have cost cold.

        A cell reusing a shared index replays the recorded build — its
        counters and profile include the build work, but ``seconds`` does
        not include the build's wall time (the run never waited for it).
        Adding the replayed launches' recorded durations back gives the
        cold-equivalent cost, the honest number for time budgets that
        must not reward warm cells (``run_sweep(time_budget_mode="cold")``).
        """
        if self.seconds != self.seconds:  # nan
            return self.seconds
        return self.seconds + self.replayed_build_seconds

    def counter_rates(self) -> dict:
        """Per-point rates of the tracked work counters.

        ``{name: counters[name] / n}`` for every :data:`RATE_COUNTERS`
        entry present in this cell's counter snapshot — the
        size-normalised numbers the regression comparison tracks
        alongside wall seconds.
        """
        if self.n <= 0:
            return {}
        return {
            name: self.counters[name] / self.n
            for name in RATE_COUNTERS
            if name in self.counters
        }

    def as_row(self) -> dict:
        """Flat dict for table formatting."""
        return {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "n": self.n,
            "eps": self.eps,
            "minpts": self.min_samples,
            "seconds": self.seconds,
            "status": self.status,
            "clusters": self.n_clusters,
            "noise": self.n_noise,
            "dense%": 100.0 * self.dense_fraction,
            "peak_MB": self.peak_bytes / 1e6,
            "frontier_peak": self.counters.get("frontier_peak", 0),
            "scatter_adds": self.counters.get("scatter_adds", 0),
            "retries": self.attempts - 1,
            "faults": self.faults,
        }


#: Algorithms that accept the tree-specific options (use_mask,
#: early_exit, and chunk_size, which goes to the cell's device) and a
#: prebuilt ``index=``.
TREE_ALGORITHMS = {"auto", "fdbscan", "fdbscan-densebox", "densebox"}

#: Names routed to :func:`repro.distributed.distributed_dbscan` instead
#: of the single-device registry (``n_ranks`` is taken from the cell
#: kwargs, default 4).  Lets a sweep put the distributed driver next to
#: the single-device algorithms — and, with a tracer, lands its phase
#: and comm spans inside the same benchmark cell span.
DISTRIBUTED_ALGORITHMS = {"distributed", "distributed-fdbscan"}

#: Names routed to :func:`repro.hierarchy.hdbscan` instead of the flat
#: registry.  Hierarchy cells ignore ``eps`` (it is recorded on the cell
#: for grid bookkeeping only) and derive ``min_cluster_size`` from the
#: cell's ``min_samples`` unless one is passed through ``kwargs``.  They
#: accept a prebuilt ``index=`` like the tree algorithms do.
HIERARCHY_ALGORITHMS = {"hdbscan"}


def _capture_device(rec: RunRecord, dev: Device) -> None:
    """Copy the device's accounting into the record (every exit path)."""
    rec.peak_bytes = dev.memory.peak_bytes
    rec.counters = dev.counters.snapshot()
    rec.kernels = dev.profile()
    rec.trace_dropped = dev.trace_dropped
    rec.replayed_build_seconds = sum(
        row["replayed_seconds"] for row in rec.kernels.values()
    )


def _cell_phase(algorithm: str, dataset: str, n: int, eps: float, minpts: int) -> str:
    """Stable fault-plan key for one benchmark cell."""
    return f"bench[{algorithm} {dataset} n={n} eps={eps:g} minpts={minpts}]"


def run_once(
    algorithm: str,
    X: np.ndarray,
    eps: float,
    min_samples: int,
    dataset: str = "?",
    capacity_bytes: int | None = None,
    tree_kwargs: dict | None = None,
    index: DBSCANIndex | None = None,
    retry_policy: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    tracer=None,
    cell_timeout: float | None = None,
    **kwargs,
) -> RunRecord:
    """Execute one benchmark cell on a fresh device (fresh per attempt).

    ``tree_kwargs`` (e.g. ``{"chunk_size": 4096, "use_mask": False}``) is
    forwarded only to the tree-based algorithms, except that its
    ``chunk_size`` configures the cell's :class:`Device`; ``index`` (a prebuilt
    :class:`~repro.core.index.DBSCANIndex`) goes to tree-based and
    hierarchy cells; ``kwargs`` go to every algorithm.  The record's
    ``counters`` / ``kernels`` / ``peak_bytes`` are captured on the
    ``"oom"`` and ``"error"`` paths too.

    An ``algorithm`` in :data:`HIERARCHY_ALGORITHMS` runs
    :func:`repro.hierarchy.hdbscan` instead of the flat registry: ``eps``
    is recorded but unused, and ``min_cluster_size`` defaults to
    ``max(2, min_samples)`` unless passed explicitly in ``kwargs``.

    An ``algorithm`` in :data:`DISTRIBUTED_ALGORITHMS` runs
    :func:`repro.distributed.distributed_dbscan` instead of the registry
    (``n_ranks`` kwarg, default 4); the fault plan then injects the full
    distributed fault set rather than only bench-level device faults.

    With a ``retry_policy``, failures of the policy's transient classes
    are retried on a fresh device (``rec.attempts`` counts the attempts;
    ``rec.seconds`` is the final attempt's).  A ``fault_plan`` arms
    deterministic transient device faults per attempt; every fault the
    plan injected during this cell (any attempt, and — for distributed
    cells — any phase of the driver) is counted in ``rec.faults``.

    With a ``tracer`` (:class:`~repro.obs.span.Tracer`), the cell is one
    ``cell:<algorithm>`` span (category ``"bench"``) with the device's
    kernel spans — and, for distributed cells, the driver's phase and
    comm spans — nested inside it.

    ``cell_timeout`` arms a per-attempt wall-clock watchdog
    (:class:`~repro.faults.Deadline`) on the cell's device: every kernel
    launch checks the elapsed time, and a pathological cell records
    ``status="timeout"`` with the partial counters it accumulated —
    instead of eating the whole sweep's budget.  The timeout is not a
    transient error: it is never retried.
    """
    rec = RunRecord(
        algorithm=algorithm,
        dataset=dataset,
        n=int(np.asarray(X).shape[0]),
        eps=float(eps),
        min_samples=int(min_samples),
    )
    is_tree = algorithm.lower() in TREE_ALGORITHMS
    is_distributed = algorithm.lower() in DISTRIBUTED_ALGORITHMS
    is_hierarchy = algorithm.lower() in HIERARCHY_ALGORITHMS
    n_ranks = int(kwargs.pop("n_ranks", 4))
    min_cluster_size = int(
        kwargs.pop("min_cluster_size", 0) or max(2, int(min_samples))
    )
    device_kwargs = {}
    if tree_kwargs and is_tree:
        kwargs = {**kwargs, **tree_kwargs}
        if "chunk_size" in kwargs:
            device_kwargs["chunk_size"] = kwargs.pop("chunk_size")
    if index is not None and (is_tree or is_hierarchy):
        kwargs = {**kwargs, "index": index}
    phase = _cell_phase(algorithm, dataset, rec.n, rec.eps, rec.min_samples)
    tr = tracer if tracer is not None else NULL_TRACER
    log_start = len(fault_plan.log) if fault_plan is not None else 0

    def count_faults() -> int:
        return 0 if fault_plan is None else len(fault_plan.log) - log_start

    with tr.span(
        f"cell:{algorithm}",
        category="bench",
        attributes={
            "algorithm": algorithm,
            "dataset": dataset,
            "n": rec.n,
            "eps": rec.eps,
            "min_samples": rec.min_samples,
        },
    ) as cspan:
        attempt = 0
        while True:
            attempt += 1
            dev = Device(
                name=f"bench-{algorithm}", capacity_bytes=capacity_bytes, **device_kwargs
            )
            if tracer is not None:
                dev.tracer = tracer
            if cell_timeout is not None:
                # Armed before the fault injector so the injector chains
                # (and restores) it like any other pre-existing hook.
                dev.fault_hook = Deadline(
                    seconds=cell_timeout, label=phase
                ).as_fault_hook()
            injector = (
                fault_plan.device_faults(dev, phase, rank=0, attempt=attempt)
                if fault_plan is not None and not is_distributed
                else nullcontext()
            )
            start = time.perf_counter()
            try:
                with injector:
                    if is_distributed:
                        from repro.distributed import distributed_dbscan

                        result = distributed_dbscan(
                            X, eps, min_samples, n_ranks=n_ranks, device=dev,
                            fault_plan=fault_plan, retry_policy=retry_policy,
                            tracer=tracer, **kwargs,
                        )
                    elif is_hierarchy:
                        from repro.hierarchy import hdbscan as hdbscan_fn

                        result = hdbscan_fn(
                            X, min_cluster_size=min_cluster_size,
                            min_samples=min_samples, device=dev, **kwargs,
                        )
                    else:
                        result = dbscan(
                            X, eps, min_samples, algorithm=algorithm, device=dev,
                            **kwargs,
                        )
            except Exception as exc:  # noqa: BLE001 - a failing cell must not kill a sweep
                if (
                    retry_policy is not None
                    and retry_policy.is_transient(exc)
                    and attempt < retry_policy.max_attempts
                ):
                    continue
                rec.seconds = time.perf_counter() - start
                rec.attempts = attempt
                rec.faults = count_faults()
                if isinstance(exc, DeviceMemoryError):
                    rec.status = "oom"
                    rec.detail = str(exc)
                elif isinstance(exc, DeadlineExceededError):
                    rec.status = "timeout"
                    rec.detail = str(exc)
                else:
                    rec.status = "error"
                    rec.detail = f"{type(exc).__name__}: {exc}"
                _capture_device(rec, dev)
                break
            rec.seconds = time.perf_counter() - start
            rec.attempts = attempt
            rec.faults = count_faults()
            rec.n_clusters = result.n_clusters
            rec.n_noise = result.n_noise
            rec.dense_fraction = result.info.get("dense_fraction", float("nan"))
            rec.reused_index = bool(result.info.get("index_reused", False))
            _capture_device(rec, dev)
            break
        if cspan is not None:
            cspan.attributes["status"] = rec.status
            cspan.attributes["attempts"] = rec.attempts
            cspan.attributes["faults"] = rec.faults
    return rec


def run_sweep(
    algorithms: Sequence[str],
    cells: Sequence[dict],
    data_for: Callable[[dict], np.ndarray],
    dataset: str = "?",
    time_budget: float | None = None,
    time_budget_mode: str = "wall",
    capacity_bytes: int | None = None,
    tree_kwargs: dict | None = None,
    reuse_index: bool = True,
    retry_policy: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    tracer=None,
    cell_timeout: float | None = None,
    **kwargs,
) -> list[RunRecord]:
    """Run a figure panel: every algorithm over every cell.

    Parameters
    ----------
    algorithms:
        Registry names (see :func:`repro.core.api.dbscan`).
    cells:
        Parameter dicts, each with keys ``eps``, ``min_samples`` and
        anything ``data_for`` needs (e.g. ``n``).  Cells are run in order —
        put growing sizes last so budget-exceeded algorithms drop out of
        the expensive cells.
    data_for:
        Maps a cell to its point set (cache inside for shared data).
    time_budget:
        Per-cell wall-second budget; once one of an algorithm's ``"ok"``
        cells exceeds it, its remaining cells are reported as
        ``"skipped"`` with a ``detail`` naming the tripping cell.  Cells
        that fail (``"oom"``/``"error"``) do not count toward the budget.
    time_budget_mode:
        What the budget measures.  ``"wall"`` (default) compares each
        cell's actual ``seconds``; ``"cold"`` compares
        :meth:`RunRecord.cold_equivalent_seconds` — seconds *plus* the
        replayed build seconds of a reused index — so index reuse cannot
        smuggle an algorithm under a budget its cold cells would trip.
    capacity_bytes:
        Device memory cap applied to every cell.
    reuse_index:
        Share one :class:`~repro.core.index.DBSCANIndex` per distinct
        point set (matched by content fingerprint) across all cells and
        tree algorithms.  The points BVH is then built exactly once per
        point set; reusing cells replay its recorded cost so their
        accounting matches a cold run's.  Disable for cold-per-cell
        measurements.
    retry_policy / fault_plan:
        Forwarded to every :func:`run_once` cell — transient cell failures
        retry instead of permanently recording an error cell, and a fault
        plan chaos-tests the sweep with deterministic device faults.
    tracer:
        Optional :class:`~repro.obs.span.Tracer`: the sweep becomes one
        ``sweep`` root span with every cell (and everything inside it —
        kernels, comm, distributed phases, replayed builds) as children
        on a single shared timeline.
    cell_timeout:
        Per-cell wall-second watchdog (see :func:`run_once`): a cell
        that exceeds it records ``status="timeout"`` with its partial
        counters and the sweep moves on.  Unlike ``time_budget`` (which
        skips *later* cells after a slow success), the watchdog stops
        the pathological cell *itself* mid-run.
    """
    if time_budget_mode not in ("wall", "cold"):
        raise ValueError(
            f"time_budget_mode must be 'wall' or 'cold'; got {time_budget_mode!r}"
        )
    records: list[RunRecord] = []
    over_budget: dict[str, str] = {}
    indexes: dict[str, DBSCANIndex] = {}
    any_tree = any(
        a.lower() in TREE_ALGORITHMS or a.lower() in HIERARCHY_ALGORITHMS
        for a in algorithms
    )
    tr = tracer if tracer is not None else NULL_TRACER
    sweep_span = tr.start(
        "sweep",
        category="bench",
        attributes={
            "dataset": dataset,
            "algorithms": ",".join(algorithms),
            "cells": len(cells),
            "time_budget_mode": time_budget_mode,
        },
    )
    try:
        _run_sweep_cells(
            records, over_budget, indexes, any_tree, algorithms, cells, data_for,
            dataset, time_budget, time_budget_mode, capacity_bytes, tree_kwargs,
            reuse_index, retry_policy, fault_plan, tracer, cell_timeout,
            kwargs,
        )
    finally:
        tr.end(sweep_span)
    return records


def _run_sweep_cells(
    records, over_budget, indexes, any_tree, algorithms, cells, data_for, dataset,
    time_budget, time_budget_mode, capacity_bytes, tree_kwargs, reuse_index,
    retry_policy, fault_plan, tracer, cell_timeout, kwargs,
) -> None:
    """The cell loop of :func:`run_sweep` (split out so the sweep span can
    bracket it on every exit path)."""
    for cell in cells:
        X = data_for(cell)
        index: DBSCANIndex | None = None
        if reuse_index and any_tree:
            try:
                candidate = DBSCANIndex(X)
            except ValueError:
                # points the tree algorithms reject (e.g. d > 3): run the
                # cells cold so each reports its own "error" record
                index = None
            else:
                index = indexes.setdefault(candidate.fingerprint, candidate)
        for algorithm in algorithms:
            if algorithm in over_budget:
                records.append(
                    RunRecord(
                        algorithm=algorithm,
                        dataset=dataset,
                        n=int(X.shape[0]),
                        eps=float(cell["eps"]),
                        min_samples=int(cell["min_samples"]),
                        status="skipped",
                        detail=over_budget[algorithm],
                    )
                )
                continue
            rec = run_once(
                algorithm,
                X,
                cell["eps"],
                cell["min_samples"],
                dataset=dataset,
                capacity_bytes=capacity_bytes,
                tree_kwargs=tree_kwargs,
                index=index,
                retry_policy=retry_policy,
                fault_plan=fault_plan,
                tracer=tracer,
                cell_timeout=cell_timeout,
                **kwargs,
            )
            records.append(rec)
            budget_seconds = (
                rec.cold_equivalent_seconds()
                if time_budget_mode == "cold"
                else rec.seconds
            )
            if (
                time_budget is not None
                and rec.status == "ok"
                and budget_seconds > time_budget
            ):
                label = "cold-equivalent " if time_budget_mode == "cold" else ""
                over_budget[algorithm] = (
                    f"cell (n={rec.n}, eps={rec.eps:g}, minpts={rec.min_samples}) "
                    f"exceeded {label}time budget "
                    f"({budget_seconds:.3g}s > {time_budget:g}s)"
                )
