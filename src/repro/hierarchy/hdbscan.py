"""HDBSCAN driver and the DBSCAN* hierarchy cut.

:func:`hdbscan` chains the pipeline — BVH core distances →
mutual-reachability MST → single-linkage dendrogram → condensed tree →
EOM extraction — and assigns labels/probabilities.

:func:`dbscan_star_cut` cuts the same hierarchy at a fixed ``eps``:
points with core distance above ``eps`` become noise, the remaining
points are connected through MST edges of weight ``<= eps``.  By the
minimax-path property of the MST this is *exactly* DBSCAN* (Campello et
al. 2013) — the fact the test suite uses to cross-validate the hierarchy
against the flat implementation built on the paper's framework.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.bvh.knn import core_distances
from repro.core.index import DBSCANIndex
from repro.core.labels import relabel_consecutive
from repro.core.validation import validate_params, validate_points
from repro.device.device import Device, default_device
from repro.hierarchy.boruvka import mutual_reachability_mst_boruvka
from repro.hierarchy.condense import (
    CondensedTree,
    condense_dendrogram,
    extract_eom_clusters,
)
from repro.hierarchy.mst import mutual_reachability_mst, single_linkage_dendrogram
from repro.unionfind.ecl import EclUnionFind

MST_ALGORITHMS = ("boruvka", "prim")


def _mreach_mst(
    X: np.ndarray,
    core: np.ndarray,
    tree,
    mst_algorithm: str,
    dev: Device,
) -> np.ndarray:
    """Dispatch to the requested mutual-reachability MST engine.

    Both engines return the same edge multiset up to tie-permutation
    (equal sorted weights, identical dendrogram heights); ``"boruvka"``
    streams through the BVH, ``"prim"`` is the O(n²) reference."""
    if mst_algorithm == "boruvka":
        return mutual_reachability_mst_boruvka(X, core, tree=tree, device=dev)
    if mst_algorithm == "prim":
        return mutual_reachability_mst(X, core, device=dev)
    raise ValueError(
        f"mst_algorithm must be one of {MST_ALGORITHMS}; got {mst_algorithm!r}"
    )


@dataclass
class HDBSCANResult:
    """Output of a hierarchical run.

    ``labels`` follow the repository convention (consecutive ids, -1 for
    noise); ``probabilities`` are the reference library's membership
    strengths (0 for noise, 1 at the cluster's densest level).
    """

    labels: np.ndarray
    probabilities: np.ndarray
    n_clusters: int
    condensed_tree: CondensedTree
    stabilities: dict[int, float]
    info: dict = field(default_factory=dict)

    @property
    def n_noise(self) -> int:
        return int(np.count_nonzero(self.labels == -1))


def _labels_from_selection(
    tree: CondensedTree, chosen: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Assign each point to its lowest selected ancestor cluster."""
    n = tree.n_points
    labels = np.full(n, -1, dtype=np.int64)
    probabilities = np.zeros(n, dtype=np.float64)
    if not chosen:
        return labels, probabilities
    chosen_set = set(chosen)
    # condensed parent of every condensed cluster
    cluster_parent: dict[int, int] = {}
    for parent, child in zip(tree.parent, tree.child):
        if child >= n:
            cluster_parent[int(child)] = int(parent)
    # max lambda per chosen cluster (its densest level) for probabilities
    finite = tree.lambda_val[np.isfinite(tree.lambda_val)]
    cap = float(finite.max()) if finite.size else 1.0
    lam_capped = np.minimum(tree.lambda_val, cap)
    max_lambda: dict[int, float] = {c: 0.0 for c in chosen}

    point_rows = tree.child < n
    own_cluster = np.full(n, -1, dtype=np.int64)
    own_lambda = np.zeros(n, dtype=np.float64)
    own_cluster[tree.child[point_rows]] = tree.parent[point_rows]
    own_lambda[tree.child[point_rows]] = lam_capped[point_rows]

    # Resolve each point's membership by climbing to a chosen ancestor.
    resolve_cache: dict[int, int] = {}

    def chosen_ancestor(cluster: int) -> int:
        seen = []
        current = cluster
        while current != -1 and current not in resolve_cache:
            if current in chosen_set:
                resolve_cache[current] = current
                break
            seen.append(current)
            current = cluster_parent.get(current, -1)
        result = resolve_cache.get(current, -1)
        for c in seen:
            resolve_cache[c] = result
        return result

    for p in range(n):
        cluster = int(own_cluster[p])
        if cluster < 0:
            continue
        target = chosen_ancestor(cluster)
        if target == -1:
            continue
        labels[p] = target
        max_lambda[target] = max(max_lambda[target], float(own_lambda[p]))
    for p in range(n):
        if labels[p] >= 0:
            top = max_lambda[int(labels[p])]
            probabilities[p] = 1.0 if top <= 0 else min(own_lambda[p], top) / top
    final, n_clusters = relabel_consecutive(labels, labels >= 0)
    return final, probabilities if n_clusters else np.zeros(n)


def hdbscan(
    X: np.ndarray,
    min_cluster_size: int = 5,
    min_samples: int | None = None,
    allow_single_cluster: bool = False,
    device: Device | None = None,
    mst_algorithm: str = "boruvka",
    index: DBSCANIndex | None = None,
) -> HDBSCANResult:
    """Hierarchical density clustering over the paper's substrates.

    Parameters
    ----------
    X:
        ``(n, d)`` points, ``1 <= d <= 3`` (BVH scope).
    min_cluster_size:
        Smallest condensed cluster (>= 2).
    min_samples:
        Core-distance neighbour count (defaults to ``min_cluster_size``);
        the point itself counts, matching the rest of the repository.
    allow_single_cluster:
        Permit selecting the root cluster (all points one cluster).
    mst_algorithm:
        ``"boruvka"`` (BVH-accelerated, the default) or ``"prim"`` (O(n²)
        reference).  Both yield identical dendrogram heights up to
        tie-permutation.
    index:
        Prebuilt :class:`~repro.core.index.DBSCANIndex` over ``X``; its
        points tree is reused so a sweep shares one build.
    """
    X = validate_points(X)
    if min_cluster_size < 2:
        raise ValueError(f"min_cluster_size must be >= 2; got {min_cluster_size}")
    if min_samples is None:
        min_samples = min_cluster_size
    _, min_samples = validate_params(1.0, min_samples)
    dev = default_device(device)
    n = X.shape[0]
    if min_samples > n:
        raise ValueError(f"min_samples={min_samples} exceeds n={n}")
    t0 = time.perf_counter()

    if index is None:
        index = DBSCANIndex(X)
    else:
        index.check_points(X)
    tree, reused = index.points_tree(dev)
    core = core_distances(tree, X, min_samples, device=dev)
    t1 = time.perf_counter()
    mst = _mreach_mst(X, core, tree, mst_algorithm, dev)
    Z = single_linkage_dendrogram(mst, n)
    t2 = time.perf_counter()
    condensed = condense_dendrogram(Z, n, min_cluster_size)
    chosen, stabilities = extract_eom_clusters(condensed, allow_single_cluster)
    labels, probabilities = _labels_from_selection(condensed, chosen)
    n_clusters = int(labels.max()) + 1 if labels.size and labels.max() >= 0 else 0
    info = {
        "algorithm": "hdbscan",
        "n": n,
        "min_cluster_size": min_cluster_size,
        "min_samples": min_samples,
        "mst_algorithm": mst_algorithm,
        "index": index,
        "index_reused": reused,
        "t_core": t1 - t0,
        "t_mst": t2 - t1,
        "t_extract": time.perf_counter() - t2,
    }
    return HDBSCANResult(
        labels=labels,
        probabilities=probabilities,
        n_clusters=n_clusters,
        condensed_tree=condensed,
        stabilities=stabilities,
        info=info,
    )


def dbscan_star_cut(
    X: np.ndarray,
    eps: float,
    min_samples: int,
    device: Device | None = None,
    mst_algorithm: str = "boruvka",
    index: DBSCANIndex | None = None,
) -> np.ndarray:
    """DBSCAN* labels obtained by cutting the density hierarchy at ``eps``.

    Semantically identical to
    :func:`repro.core.dbscan_star.dbscan_star(X, eps, min_samples)`
    (clusters of core points only; everything else noise), but computed
    through the mutual-reachability MST — the hierarchy view of the same
    object.  Returns the ``(n,)`` label array.
    """
    X = validate_points(X)
    eps, min_samples = validate_params(eps, min_samples)
    dev = default_device(device)
    n = X.shape[0]
    if index is None:
        index = DBSCANIndex(X)
    else:
        index.check_points(X)
    tree, _ = index.points_tree(dev)
    core = core_distances(tree, X, min_samples, device=dev)
    mst = _mreach_mst(X, core, tree, mst_algorithm, dev)

    eligible = core <= eps  # DBSCAN* core points
    uf = EclUnionFind(n, device=dev)
    use = mst[:, 2] <= eps
    a = mst[use, 0].astype(np.int64)
    b = mst[use, 1].astype(np.int64)
    keep = eligible[a] & eligible[b]
    try:
        uf.union(a[keep], b[keep])
        roots = uf.finalize()
    finally:
        uf.release()
    labels, _ = relabel_consecutive(roots, eligible)
    return labels
