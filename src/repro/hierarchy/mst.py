"""Mutual-reachability MST and the single-linkage dendrogram.

The mutual reachability distance smooths the metric by each point's local
density: ``d_mreach(a, b) = max(core(a), core(b), dist(a, b))``.  Its
minimum spanning tree carries the *entire* density hierarchy: by the
minimax-path property, two points are connected at threshold ``eps`` in
the full mutual-reachability graph iff they are connected through MST
edges of weight ``<= eps``.

The MST is computed with Prim's algorithm over on-demand distance rows:
one row of plain distances per step, maxed with the core distances —
O(n²) work, O(n) live memory, nothing materialised (the same memory
discipline the paper's framework insists on for the flat algorithm).
"""

from __future__ import annotations

import numpy as np

from repro.device.device import Device, default_device


def mutual_reachability_mst(
    X: np.ndarray,
    core_dist: np.ndarray,
    device: Device | None = None,
) -> np.ndarray:
    """MST of the mutual reachability graph.

    Returns an ``(n - 1, 3)`` float64 array of rows ``(a, b, weight)``
    sorted ascending by weight (endpoint ids stored as floats).
    """
    dev = default_device(device)
    X = np.ascontiguousarray(X, dtype=np.float64)
    core_dist = np.asarray(core_dist, dtype=np.float64)
    n = X.shape[0]
    if core_dist.shape != (n,):
        raise ValueError(f"core_dist must be ({n},); got {core_dist.shape}")
    if n == 1:
        return np.zeros((0, 3), dtype=np.float64)

    in_tree = np.zeros(n, dtype=bool)
    best = np.full(n, np.inf)
    best_from = np.zeros(n, dtype=np.int64)
    edges = np.empty((n - 1, 3), dtype=np.float64)

    with dev.kernel("mreach_mst", threads=n) as launch:
        current = 0
        in_tree[0] = True
        for step in range(n - 1):
            # Relax against the vertex just added (one on-demand row).
            diff = X - X[current]
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            dev.counters.add("distance_evals", n)
            mreach = np.maximum(dist, np.maximum(core_dist, core_dist[current]))
            closer = mreach < best
            improve = closer & ~in_tree
            best[improve] = mreach[improve]
            best_from[improve] = current
            # Take the closest outside vertex.
            masked = np.where(in_tree, np.inf, best)
            nxt = int(np.argmin(masked))
            edges[step] = (best_from[nxt], nxt, best[nxt])
            in_tree[nxt] = True
            current = nxt
        launch.steps = n - 1

    order = np.argsort(edges[:, 2], kind="stable")
    return edges[order]


def single_linkage_dendrogram(mst_edges: np.ndarray, n: int) -> np.ndarray:
    """Dendrogram from weight-sorted MST edges (scipy linkage layout).

    Returns an ``(n - 1, 4)`` array whose row ``i`` merges nodes
    ``Z[i, 0]`` and ``Z[i, 1]`` (original points are ``0 .. n-1``, the
    merge result is node ``n + i``) at height ``Z[i, 2]``, producing a
    cluster of ``Z[i, 3]`` points.
    """
    if mst_edges.shape[0] != n - 1:
        raise ValueError(
            f"expected {n - 1} MST edges for {n} points; got {mst_edges.shape[0]}"
        )
    # Union-find over points, tracking each set's current dendrogram node.
    # Python lists, not numpy scalars: the loop is per edge.  Path halving
    # leaves every root where full compression would, so ``Z`` is unchanged.
    ends_a = mst_edges[:, 0].astype(np.int64).tolist()
    ends_b = mst_edges[:, 1].astype(np.int64).tolist()
    parent = list(range(n))
    node_of_root = list(range(n))
    size = [1] * n
    left = [0] * (n - 1)
    right = [0] * (n - 1)
    merged = [0] * (n - 1)
    for i in range(n - 1):
        a, b = ends_a[i], ends_b[i]
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:  # pragma: no cover - MST edges never cycle
            raise AssertionError("cycle in MST edge list")
        left[i] = node_of_root[a]
        right[i] = node_of_root[b]
        size[a] = merged[i] = size[a] + size[b]
        parent[b] = a
        node_of_root[a] = n + i
    Z = np.empty((n - 1, 4), dtype=np.float64)
    Z[:, 0] = left
    Z[:, 1] = right
    Z[:, 2] = mst_edges[:, 2]
    Z[:, 3] = merged
    return Z
