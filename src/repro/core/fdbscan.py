"""FDBSCAN — fused tree traversal + union-find (Section 4.1).

The algorithm builds a linear BVH over the points and runs the two-phase
framework with one thread (query) per point:

- **preprocessing**: a batched radius search counts each point's
  neighbours, terminating a query as soon as ``minpts`` neighbours are
  seen (a point counts itself);
- **main phase**: a second batched traversal streams every neighbour pair
  to the union-find resolution *as the pairs are discovered* — neighbours
  are never stored.  The traversal uses the paper's leaf-index mask
  (Figure 1): the subtrees holding leaves at sorted positions at or below
  the query's own leaf are hidden, so every unordered pair is processed
  at most once, saving memory accesses, distance computations and
  Union-Find operations.

The main phase also skips pairs that are already joined, and pairs of
two non-core points (:func:`repro.core.framework.main_phase`, shared
with DenseBox, the minpts sweep and the distributed ranks).  It runs
under the traversal's component mask: a query never sees a leaf of its
own union-find component, and a subtree whose points all lie in the
query's component is pruned without descending; every non-core point
shares one sentinel component.  On
dense data nearly every pair joins two points already in one cluster,
so this removes most of the phase's distance tests and unions; on
sparse data most points are noise, and noise queries see core leaves
only.

- **Epochs.**  The queries run in refresh epochs, one ``fdbscan_main``
  launch each: 64 queries, then 4× more each time, in *spread order*
  (:func:`repro.bvh.traversal.spread_epochs`: sorted leaf positions
  walked in bit-reversed order), so the first small epochs sample the
  whole data set and their unions grow components everywhere before the
  large epochs run.  Components are re-read before each epoch.
- **Exactness.**  A stale snapshot can only under-prune.  Border and
  noise points are never unioned, so no pair with one core end is
  skipped, and a pair of two non-core points changes nothing.  Points
  whose unweighted count is 1 (exact: early exit stops only at ``minpts >= 3``) are in no
  pair and run no main-phase query.  Labels and ``is_core`` are
  identical to the unpruned phase.
- **Scheduling.**  ``chunk_size`` slices preprocessing and each epoch
  and changes no result or work counter.

``use_mask`` and ``early_exit`` are exposed as switches so the ablation
benchmarks can quantify each one.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bvh.traversal import DEFAULT_CHUNK_SIZE, count_within
from repro.core.framework import main_phase
from repro.core.index import DBSCANIndex
from repro.core.labels import DBSCANResult
from repro.core.validation import validate_params, validate_points, validate_weights
from repro.device.device import Device, default_device


def fdbscan(
    X: np.ndarray,
    eps: float,
    min_samples: int,
    device: Device | None = None,
    use_mask: bool = True,
    early_exit: bool = True,
    chunk_size: int | None = None,
    sample_weight=None,
    index: DBSCANIndex | None = None,
    watchdog=None,
) -> DBSCANResult:
    """Cluster ``X`` with FDBSCAN.

    Parameters
    ----------
    X:
        ``(n, d)`` points, ``1 <= d <= 3``.
    eps:
        Neighbourhood radius (``dist(x, y) <= eps``).
    min_samples:
        The ``minpts`` density threshold; a point is core when its
        ``eps``-neighbourhood (itself included) holds at least this many
        points.
    device:
        Accounting device (optional).
    use_mask:
        Apply the leaf-index traversal mask in the main phase (Section
        4.1).  Disabling it lets each pair be seen from both ends — the
        ablation baseline.
    early_exit:
        Terminate preprocessing traversals at ``minpts`` neighbours
        (Section 3.2).  Disabling computes full neighbourhood counts
        (useful for ``minpts`` sweeps; exposed in ``info['core_counts']``).
    chunk_size:
        Queries advanced per traversal wavefront (the resident-thread
        bound; ``None`` = the traversal default).  Output is invariant to
        it; transient frontier memory is proportional to it.
    sample_weight:
        Optional positive per-point weights: a point is core when the
        summed weight of its eps-neighbourhood (itself included) reaches
        ``min_samples`` — the sklearn-compatible weighted-density
        semantics.  With integer weights this is exactly clustering the
        multiset with each point repeated ``weight`` times.
    index:
        Optional prebuilt :class:`~repro.core.index.DBSCANIndex` over
        ``X`` (fingerprint-checked).  With a warm index the tree build is
        skipped and its recorded cost replayed onto ``device`` instead,
        so counters and memory peaks stay comparable to a cold run; the
        index used (built here if none was given) is returned in
        ``info["index"]`` for reuse.
    watchdog:
        Optional zero-argument callable polled once per traversal
        wavefront step in both phases (a deadline's
        :meth:`~repro.faults.Deadline.check`); aborts by raising.

    Returns
    -------
    :class:`~repro.core.labels.DBSCANResult`
        ``info`` carries phase wall-times (``t_build``, ``t_preprocess``,
        ``t_main``, ``t_finalize``), the reusable ``index`` (plus
        ``index_reused``), and, when ``early_exit`` is off, the exact
        neighbour counts.
    """
    X = validate_points(X)
    eps, minpts = validate_params(eps, min_samples)
    dev = default_device(device)
    if chunk_size is None:
        chunk_size = DEFAULT_CHUNK_SIZE
    n = X.shape[0]
    info: dict = {"algorithm": "fdbscan", "n": n, "eps": eps, "min_samples": minpts}

    t0 = time.perf_counter()
    if index is None:
        index = DBSCANIndex(X)
    else:
        index.check_points(X)
    tree, reused = index.points_tree(dev)
    t1 = time.perf_counter()
    info["t_build"] = t1 - t0
    info["index"] = index
    info["index_reused"] = reused

    # --- preprocessing phase: core-point determination --------------------
    is_core: np.ndarray | None
    active = None
    weights = None if sample_weight is None else validate_weights(sample_weight, n)
    if weights is None and minpts == 2:
        # Skipped (Algorithm 3, line 2): any pair within eps in the main
        # phase certifies both endpoints core.
        is_core = None
    elif weights is None and minpts == 1:
        # Every point is core (it is its own neighbour); no search needed.
        is_core = np.ones(n, dtype=bool)
    else:
        counts = count_within(
            tree,
            X,
            eps,
            stop_at=minpts if early_exit else None,
            device=dev,
            chunk_size=chunk_size,
            leaf_weights=None if weights is None else weights[tree.order],
            watchdog=watchdog,
        )
        is_core = counts >= minpts
        if weights is None:
            active = counts > 1
        if not early_exit:
            info["core_counts"] = counts
    t2 = time.perf_counter()
    info["t_preprocess"] = t2 - t1

    # --- main phase: fused traversal + union-find, then finalisation --------
    return main_phase(
        tree,
        X,
        eps,
        is_core,
        dev,
        "fdbscan_main",
        info,
        use_mask=use_mask,
        active=active,
        chunk_size=chunk_size,
        watchdog=watchdog,
    )
