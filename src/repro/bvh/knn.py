"""Batched k-nearest-neighbour radii on the linear BVH.

HDBSCAN (built on the paper's DBSCAN*, Section 2.1) needs each point's
*core distance*: the distance to its ``k``-th nearest neighbour.  As in
ArborX's nearest-neighbour query, every query searches at its own radius
(the ``(m,)`` ``eps`` form of the traversal kernels), and that radius is
an exact upper bound before the search starts:

- **window bound**: each query gets an *anchor*, the sorted leaf
  position its Morton code (quantised in the tree's root box) would take
  among ``tree.codes``.  In the tree's sorted (Morton) leaf order a
  position's neighbours are mostly spatial neighbours, so the ``k``-th
  smallest distance from the query to the leaves at positions
  ``anchor-k .. anchor+k`` (clipped to the leaves, at least ``k`` of
  them) is an upper bound on its ``k``-th neighbour distance.  Any anchor
  gives an exact bound; the Morton one only makes it tight.  This covers
  the tree's own points and foreign queries alike;
- **gather** (``knn_gather``): one traversal per query chunk at the bound,
  padded by :data:`~repro.bvh.traversal.RADIUS_PAD` so it reaches the
  points that define it, collects (query, squared distance) pairs, and a
  segmented sort picks each query's ``k``-th smallest.

The gather holds every point within the true ``k``-th distance, so
results never depend on the bound or on ``chunk_size``.

The tree must have zero-extent (point) leaves: each leaf box *is* its
primitive's coordinate, so the gather's leaf tests are the point
distances it ranks.  A tree whose leaf boxes have extent raises
``ValueError``.
"""

from __future__ import annotations

import numpy as np

from repro.bvh.morton import morton_codes
from repro.bvh.traversal import (
    DEFAULT_CHUNK_SIZE,
    RADIUS_PAD,
    for_each_leaf_hit,
)
from repro.bvh.tree import BVH
from repro.device.device import Device, default_device


def knn_radii(
    tree: BVH,
    queries: np.ndarray,
    k: int,
    device: Device | None = None,
    chunk_size: int | None = DEFAULT_CHUNK_SIZE,
    watchdog=None,
) -> np.ndarray:
    """Distance from each query to its ``k``-th nearest primitive.

    A query that is itself a primitive counts itself (distance 0) — so for
    core distances, ``k = minpts`` matches the repository's "a point is
    its own neighbour" convention.  Requires ``k <= n_primitives`` and a
    tree with point leaves, and rejects non-finite queries and queries so
    far from the tree's points that their squared distances overflow
    (``ValueError`` for each).

    Parameters
    ----------
    watchdog:
        Optional zero-argument callable polled once per traversal
        wavefront step of the gather; aborts by raising (deadline
        enforcement).

    Returns the ``(m,)`` float64 radii.
    """
    dev = default_device(device)
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
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != tree.dim:
        raise ValueError(
            f"queries must be (m, {tree.dim}); got shape {queries.shape}"
        )
    _check_reach(tree, queries)
    m = queries.shape[0]
    out = np.zeros(m, dtype=np.float64)
    if m == 0:
        return out
    if chunk_size is None or chunk_size <= 0:
        chunk_size = m
    # Chunked so the transient pair set stays proportional to the chunk.
    with dev.kernel("knn_gather", threads=m):
        radius = _window_bound(tree, queries, k, dev) * RADIUS_PAD
        for first in range(0, m, chunk_size):
            q_pts = queries[first : first + chunk_size]
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
                radius[first : first + chunk_size],
                on_hits,
                device=dev,
                kernel_name="knn_gather_chunk",
                chunk_size=None,
                watchdog=watchdog,
            )
            qs = np.concatenate(collected_q)
            ds = np.concatenate(collected_d)
            sel = np.lexsort((ds, qs))
            starts = np.searchsorted(qs[sel], np.arange(q_pts.shape[0]))
            out[first : first + chunk_size] = np.sqrt(ds[sel][starts + (k - 1)])
    return out


def _check_reach(tree: BVH, queries: np.ndarray) -> None:
    """Reject queries the distance math cannot rank: each query's squared
    distance to the far corner of the tree's box, so to any of its points,
    must be finite (which also rules out NaN and infinite queries)."""
    with np.errstate(over="ignore", invalid="ignore"):
        far = np.maximum(
            np.abs(queries - tree.node_lo[tree.root]),
            np.abs(queries - tree.node_hi[tree.root]),
        )
        far2 = np.einsum("ij,ij->i", far, far)
    if not np.isfinite(far2).all():
        raise ValueError(
            "queries must be finite and near enough to the tree's points "
            "that squared distances do not overflow float64; rescale the "
            "coordinates"
        )


def _window_bound(tree: BVH, queries: np.ndarray, k: int, dev: Device) -> np.ndarray:
    """Per query, the ``k``-th smallest distance to the leaves at sorted
    positions ``a-k .. a+k`` around its anchor ``a`` (module docstring),
    clipped to the leaves: an upper bound on its ``k``-th neighbour
    distance, since the window holds at least ``k`` points.  Computed in
    ``DEFAULT_CHUNK_SIZE`` row blocks (O(chunk·k·d) memory); each window
    slot inside the leaves is one ``distance_evals``."""
    n = tree.n_primitives
    pts_by_pos = tree.node_lo[tree.n_internal :]
    anchor = np.searchsorted(
        tree.codes,
        morton_codes(queries, tree.node_lo[tree.root], tree.node_hi[tree.root]),
    )
    bound = np.empty(queries.shape[0], dtype=np.float64)
    for lo in range(0, queries.shape[0], DEFAULT_CHUNK_SIZE):
        rows = slice(lo, lo + DEFAULT_CHUNK_SIZE)
        win = anchor[rows, None] + np.arange(-k, k + 1)
        outside = (win < 0) | (win >= n)
        diff = queries[rows, None, :] - pts_by_pos[np.clip(win, 0, n - 1)]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        d2[outside] = np.inf
        bound[rows] = np.sqrt(np.partition(d2, k - 1, axis=1)[:, k - 1])
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

    ``X`` is the tree's own ``n`` points (``ValueError`` otherwise); the
    result is :func:`knn_radii`'s at the default chunk size.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.shape != (tree.n_primitives, tree.dim):
        raise ValueError(f"core_distances takes the tree's own points; got {X.shape}")
    return knn_radii(tree, X, min_samples, device=device, watchdog=watchdog)
