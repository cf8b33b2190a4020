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
    """Assign each point to the chosen cluster above it, if any.

    One ascending pass over the condensed clusters (a parent's id is below
    its children's) gives every cluster its chosen ancestor; labels, each
    cluster's densest level and the probabilities are then array passes.
    """
    n = tree.n_points
    labels = np.full(n, -1, dtype=np.int64)
    probabilities = np.zeros(n, dtype=np.float64)
    if not chosen:
        return labels, probabilities
    # Condensed ids run n, n + 1, ...; ``ancestor`` is indexed by id - n.
    rows = tree.child >= n
    up = np.full(int(tree.parent.max()) - n + 1, -1, dtype=np.int64)
    up[tree.child[rows] - n] = tree.parent[rows] - n
    chosen_set = set(chosen)
    ancestor = [-1] * up.size
    for cluster, parent in enumerate(up.tolist()):
        if cluster + n in chosen_set:
            ancestor[cluster] = cluster
        elif parent >= 0:
            ancestor[cluster] = ancestor[parent]
    finite = tree.lambda_val[np.isfinite(tree.lambda_val)]
    cap = float(finite.max()) if finite.size else 1.0
    points = ~rows
    slot = np.array(ancestor, dtype=np.int64)[tree.parent[points] - n]
    member = slot >= 0
    pts = tree.child[points][member]
    slot = slot[member]
    lam = np.minimum(tree.lambda_val[points][member], cap)
    labels[pts] = slot + n
    # Each chosen cluster's densest level; probabilities are levels over it.
    top = np.zeros(up.size)
    np.maximum.at(top, slot, lam)
    top = top[slot]
    probabilities[pts] = np.divide(lam, top, out=np.ones_like(lam), where=top > 0)
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
    t_edges = time.perf_counter()
    Z = single_linkage_dendrogram(mst, n)
    t2 = time.perf_counter()
    condensed = condense_dendrogram(Z, n, min_cluster_size)
    t3 = time.perf_counter()
    chosen, stabilities = extract_eom_clusters(condensed, allow_single_cluster)
    labels, probabilities = _labels_from_selection(condensed, chosen)
    t4 = time.perf_counter()
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
        # The tail's stages: t_dendrogram is inside t_mst, the other two
        # inside t_extract.
        "t_dendrogram": t2 - t_edges,
        "t_condense": t3 - t2,
        "t_select": t4 - t3,
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
    object.  Returns the ``(n,)`` label array.  Without ``index`` the
    points tree is built for this call and its bytes go back to
    ``device``'s ledger when it ends.
    """
    X = validate_points(X)
    eps, min_samples = validate_params(eps, min_samples)
    dev = default_device(device)
    n = X.shape[0]
    own_index = index is None
    if own_index:
        index = DBSCANIndex(X)
    else:
        index.check_points(X)
    try:
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
    finally:
        if own_index:
            index.release_points_tree()
    labels, _ = relabel_consecutive(roots, eligible)
    return labels
