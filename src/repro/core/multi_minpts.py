"""Amortised multi-``minpts`` sweeps (Section 3.2).

The paper notes that early-terminated core counting is the wrong choice
"if one wants to execute a sweep over multiple values of minpts.  In the
latter case, it may be preferable to compute the full set |N_eps(x)|,
since that cost will be amortized for multiple minpts values."

:func:`dbscan_minpts_sweep` implements exactly that amortisation for the
tree algorithms:

1. build the search index **once**;
2. run **one** full (non-early-terminated) neighbour count, giving
   ``|N_eps(x)|`` for every point — core status for *every* ``minpts``
   value follows by thresholding;
3. run one main phase per requested ``minpts`` against the shared index,
   each skipping pairs already joined and pairs of two non-core points,
   through the same function as FDBSCAN's
   (:func:`repro.core.framework.main_phase`); points whose full
   count is 1 have no pair and run no main-phase query.

For FDBSCAN the index and the counts are shared across the whole sweep;
only the main phases repeat.  (FDBSCAN-DenseBox's index *depends* on
``minpts`` — the dense-cell set changes — so a DenseBox sweep can share
the counts logic but not the tree; the function therefore always sweeps
with the FDBSCAN kernels and is exact for every value.)
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.bvh.traversal import count_within
from repro.core.framework import main_phase
from repro.core.index import DBSCANIndex
from repro.core.labels import DBSCANResult
from repro.core.validation import validate_params, validate_points
from repro.device.device import Device, default_device


def dbscan_minpts_sweep(
    X: np.ndarray,
    eps: float,
    minpts_values: Sequence[int],
    device: Device | None = None,
) -> dict[int, DBSCANResult]:
    """Cluster ``X`` for every ``minpts`` in ``minpts_values`` with one
    index build and one full neighbour count.

    Returns a dict mapping each requested ``minpts`` to its
    :class:`~repro.core.labels.DBSCANResult`.  Each result is exactly what
    :func:`repro.core.fdbscan.fdbscan` would produce for that value
    (including the ``minpts <= 2`` special regimes).

    ``info`` of every result carries the shared ``t_build`` /
    ``t_count`` amortised costs plus its own ``t_main`` — the numbers that
    show where the amortisation wins.
    """
    X = validate_points(X)
    if not minpts_values:
        raise ValueError("minpts_values must be non-empty")
    canon = []
    for value in minpts_values:
        eps_v, mp = validate_params(eps, value)
        canon.append(mp)
    eps = eps_v
    dev = default_device(device)
    n = X.shape[0]

    t0 = time.perf_counter()
    index = DBSCANIndex(X)
    tree, _ = index.points_tree(dev)
    t_build = time.perf_counter() - t0
    # The index is the sweep's own: its tree's bytes go back when it ends.
    try:
        # One full count serves every threshold (the amortisation).
        t0 = time.perf_counter()
        needs_counts = any(mp > 2 for mp in canon)
        counts = (
            count_within(tree, X, eps, stop_at=None, device=dev)
            if needs_counts
            else None
        )
        t_count = time.perf_counter() - t0

        active = None if counts is None else counts > 1
        results: dict[int, DBSCANResult] = {}
        for mp in canon:
            if mp in results:
                continue
            if mp == 2:
                is_core = None
            elif mp == 1:
                is_core = np.ones(n, dtype=bool)
            else:
                is_core = counts >= mp
            info = {
                "algorithm": "fdbscan-sweep",
                "n": n,
                "eps": eps,
                "min_samples": mp,
                "t_build": t_build,
                "t_count": t_count,
                "core_counts_shared": needs_counts,
            }
            # One span per main phase, holding its per-epoch launches.
            with dev.kernel(f"sweep_main_mp{mp}", threads=n):
                results[mp] = main_phase(
                    tree,
                    X,
                    eps,
                    is_core,
                    dev,
                    "fdbscan_main",
                    info,
                    active=active,
                )
    finally:
        index.release_points_tree()
    return results
