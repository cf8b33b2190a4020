"""Batched k-nearest-neighbour radii on the linear BVH.

HDBSCAN (built on the paper's DBSCAN*, Section 2.1) needs each point's
*core distance*: the distance to its ``k``-th nearest neighbour.  As in
ArborX's nearest-neighbour query, every query searches at its own radius
(the ``(m,)`` ``eps`` form of the traversal kernels), in two phases:

1. **rung search** (``knn_expand``): query ``q`` tries radii on the
   ladder ``r0[q] · 2^j``, ``r0`` its start (see below).  Each round is
   one early-terminated count with every pending query at its own rung;
   a query gallops from ``j = 0`` (``±1, ±2, ±4, ...``) until bracketed,
   then bisects to the *smallest* rung holding ``>= k`` points, in
   ``2·log2|j| + O(1)`` rounds.  ``>= k`` coincident points satisfy
   every rung, so the descent stops at :data:`LADDER_FLOOR`;
2. **gather** (``knn_gather``): one traversal per query chunk at those
   radii collects (query, squared distance) pairs, and a segmented sort
   picks each query's ``k``-th smallest.  The rung below held fewer than
   ``k`` points, so each radius is under twice the true ``k``-th
   distance and a query gathers ``O(2^d · k)`` pairs in bounded-density
   neighbourhoods, however far the start was off.

:func:`knn_radii` starts every query at the scene-density estimate (or a
caller's warm start).  :func:`core_distances`, whose queries are the
tree's own points, starts each at a **leaf-order window bound**: in the
tree's sorted (Morton) leaf order a point's neighbours are mostly
spatial neighbours, so the ``k``-th smallest distance from the point at
leaf position ``p`` to positions ``p-k .. p+k`` (clipped to the leaves,
itself included) is an exact upper bound on its ``k``-th neighbour
distance.  Padded by :data:`~repro.bvh.traversal.RADIUS_PAD`, rung 0
holds ``>= k`` points, so the ladder only descends and bisects.  A bound
of 0 means ``k`` coincident points: the answer is exactly 0, with no
ladder at all.

Any rung holding ``>= k`` points yields the exact ``k``-th distance, so
results never depend on the ladder, the start or ``chunk_size``.

The tree must have zero-extent (point) leaves: each leaf box *is* its
primitive's coordinate, so every rung count is :func:`count_within` and
the gather's leaf tests are the point distances it ranks.  A tree whose
leaf boxes have extent raises ``ValueError``.
"""

from __future__ import annotations

import numpy as np

from repro.bvh.traversal import (
    DEFAULT_CHUNK_SIZE,
    RADIUS_PAD,
    count_within,
    for_each_leaf_hit,
)
from repro.bvh.tree import BVH
from repro.device.device import Device, default_device

#: Rungs below the start radius the search may descend.  ``>= k``
#: coincident points satisfy every rung, so this floor is what ends
#: their descent; the answer is exact at any rung holding ``>= k``.
LADDER_FLOOR = 64

#: "No rung known to hold ``>= k`` points yet" (rungs never come close).
_OPEN = 1 << 40


def _initial_radius(tree: BVH, k: int) -> float:
    """Density-based starting radius: the scene volume spread over the
    primitives suggests the k-point ball scale.

    Degenerate (zero-extent) dimensions carry no volume — collinear or
    axis-aligned data lives in a lower-dimensional subspace, so the
    density estimate uses only the extents that are actually positive.
    """
    extent = tree.node_hi[tree.root] - tree.node_lo[tree.root]
    positive = extent[extent > 0]
    if positive.size == 0:
        return 1e-12  # all primitives coincide; any radius finds them
    volume = float(np.prod(positive))
    n = tree.n_primitives
    return max((volume * k / max(n, 1)) ** (1.0 / positive.size), 1e-12)


def knn_radii(
    tree: BVH,
    queries: np.ndarray,
    k: int,
    device: Device | None = None,
    chunk_size: int | None = DEFAULT_CHUNK_SIZE,
    initial_radius: np.ndarray | float | None = None,
    watchdog=None,
) -> np.ndarray:
    """Distance from each query to its ``k``-th nearest primitive.

    A query that is itself a primitive counts itself (distance 0) — so for
    core distances, ``k = minpts`` matches the repository's "a point is
    its own neighbour" convention.  Requires ``k <= n_primitives`` and a
    tree with point leaves (``ValueError`` otherwise).

    Parameters
    ----------
    initial_radius:
        Anchor of each query's radius ladder — a scalar or per-query
        ``(m,)`` array of finite, positive values (``ValueError``
        otherwise).  Any such value gives the same result; one near the
        true k-th distance just settles in fewer rounds.  Defaults to the
        density estimate.
    watchdog:
        Optional zero-argument callable polled once per traversal
        wavefront step across every counting round and the gather phase;
        aborts by raising (deadline enforcement).

    Returns the ``(m,)`` float64 radii.
    """
    dev = default_device(device)
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    m = queries.shape[0]
    if initial_radius is None:
        r0 = np.full(m, _initial_radius(tree, k))
    else:
        r0 = np.asarray(initial_radius, dtype=np.float64)
        if r0.ndim and r0.shape != (m,):
            raise ValueError(f"initial_radius must be a scalar or ({m},); got {r0.shape}")
        if not (np.isfinite(r0).all() and (r0 > 0).all()):
            raise ValueError("initial_radius entries must be finite and positive")
        r0 = np.broadcast_to(r0, (m,))
    return _search(tree, queries, k, lambda: r0, dev, chunk_size, watchdog)


def _search(tree, queries, k, start, dev, chunk_size, watchdog) -> np.ndarray:
    """Check ``k`` and the tree's point leaves (``ValueError``), then run
    the rung search and gather from ladder anchors ``start()``, evaluated
    inside the ``knn_expand`` launch.  A zero anchor is an exact answer of
    0: that query skips both phases."""
    if k < 1:
        raise ValueError(f"k must be >= 1; got {k}")
    if k > tree.n_primitives:
        raise ValueError(
            f"k={k} exceeds the number of primitives ({tree.n_primitives})"
        )
    pts_by_pos = tree.node_lo[tree.n_internal :]
    if not np.array_equal(pts_by_pos, tree.node_hi[tree.n_internal :]):
        raise ValueError(
            "knn_radii needs a tree with point leaves; leaf boxes with "
            "extent do not determine primitive positions"
        )
    m = queries.shape[0]
    if m == 0:
        return np.zeros(0, dtype=np.float64)

    # --- phase 1: per-query rung search -----------------------------------
    lo = np.full(m, -LADDER_FLOOR - 1)  # highest rung known to hold < k
    hi = np.full(m, _OPEN)  # lowest rung known to hold >= k
    rung = np.zeros(m, dtype=np.int64)
    with dev.kernel("knn_expand", threads=m) as launch:
        r0 = start()
        live = np.flatnonzero(r0 > 0)
        pending = live
        rounds = 0
        while pending.size:
            rounds += 1
            r = np.ldexp(r0[pending], rung[pending])
            counts = count_within(
                tree, queries[pending], r, stop_at=k, device=dev,
                chunk_size=chunk_size, watchdog=watchdog,
            )
            done = counts >= k
            hi[pending[done]] = rung[pending[done]]
            lo[pending[~done]] = rung[pending[~done]]
            pending = pending[hi[pending] - lo[pending] > 1]
            p_lo, p_hi = lo[pending], hi[pending]
            rung[pending] = np.where(
                p_hi == _OPEN,
                p_lo + np.maximum(p_lo, 1),  # gallop up: 1, 2, 4, ...
                np.where(
                    p_lo < -LADDER_FLOOR,  # gallop down, clamped at the floor
                    np.maximum(p_hi - np.maximum(-p_hi, 1), -LADDER_FLOOR),
                    (p_lo + p_hi) // 2,  # bracketed: bisect
                ),
            )
        launch.steps = rounds

    # --- phase 2: gather at the settled radii + segmented k-th smallest -----
    # Chunked so the transient pair set stays proportional to the chunk.
    out = np.zeros(m, dtype=np.float64)
    if chunk_size is None or chunk_size <= 0:
        chunk_size = m
    with dev.kernel("knn_gather", threads=live.size):
        for first in range(0, live.size, chunk_size):
            ids = live[first : first + chunk_size]
            q_pts = queries[ids]
            collected_q: list[np.ndarray] = []
            collected_d: list[np.ndarray] = []

            def on_hits(q_ids: np.ndarray, leaf_pos: np.ndarray) -> None:
                # q_ids is a pool-backed view: copy it to hold it across steps.
                diff = q_pts[q_ids] - pts_by_pos[leaf_pos]
                collected_q.append(q_ids.copy())
                collected_d.append(np.einsum("ij,ij->i", diff, diff))

            for_each_leaf_hit(
                tree,
                q_pts,
                np.ldexp(r0[ids], hi[ids]),
                on_hits,
                device=dev,
                kernel_name="knn_gather_chunk",
                chunk_size=None,
                watchdog=watchdog,
            )
            qs = np.concatenate(collected_q)
            ds = np.concatenate(collected_d)
            sel = np.lexsort((ds, qs))
            starts = np.searchsorted(qs[sel], np.arange(ids.size))
            out[ids] = np.sqrt(ds[sel][starts + (k - 1)])
    return out


def _window_bound(tree: BVH, X: np.ndarray, k: int, dev: Device) -> np.ndarray:
    """Per point, the ``k``-th smallest distance to the leaves at sorted
    positions ``p-k .. p+k`` around its own position ``p``, clipped to the
    leaves: an upper bound on its ``k``-th neighbour distance, since the
    window holds at least ``min(k + 1, n) >= k`` points.  Computed in
    ``DEFAULT_CHUNK_SIZE`` row blocks (O(chunk·k·d) memory); each window
    slot inside the leaves is one ``distance_evals``."""
    n = tree.n_primitives
    order = tree.order
    pts_by_pos = tree.node_lo[tree.n_internal :]
    bound = np.empty(n, dtype=np.float64)
    for lo in range(0, n, DEFAULT_CHUNK_SIZE):
        pos = np.arange(lo, min(lo + DEFAULT_CHUNK_SIZE, n))
        win = pos[:, None] + np.arange(-k, k + 1)
        outside = (win < 0) | (win >= n)
        diff = X[order[pos]][:, None, :] - pts_by_pos[np.clip(win, 0, n - 1)]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        d2[outside] = np.inf
        bound[order[pos]] = np.sqrt(np.partition(d2, k - 1, axis=1)[:, k - 1])
        dev.counters.add("distance_evals", outside.size - np.count_nonzero(outside))
    return bound


def core_distances(
    tree: BVH,
    X: np.ndarray,
    min_samples: int,
    device: Device | None = None,
    watchdog=None,
) -> np.ndarray:
    """HDBSCAN core distances: distance to the ``min_samples``-th nearest
    point, the point itself included (Campello et al.'s ``d_core`` with the
    self-counting convention used throughout this repository).

    ``X`` is the tree's own ``n`` points (``ValueError`` otherwise).  The
    result equals :func:`knn_radii`'s; each ladder starts at the point's
    leaf-order window bound (module docstring) instead of the density
    estimate, computed inside the ``knn_expand`` launch.  A bound that is
    not finite falls back to the density estimate.
    """
    dev = default_device(device)
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.shape != (tree.n_primitives, tree.dim):
        raise ValueError(f"core_distances takes the tree's own points; got {X.shape}")

    def start() -> np.ndarray:
        r0 = _window_bound(tree, X, min_samples, dev) * RADIUS_PAD
        np.copyto(r0, _initial_radius(tree, min_samples), where=~np.isfinite(r0))
        return r0

    return _search(tree, X, min_samples, start, dev, DEFAULT_CHUNK_SIZE, watchdog)
