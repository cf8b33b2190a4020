"""Per-element reference implementations of HDBSCAN's tail.

These are the loops the library ran before its tail moved to list and
array passes: union-find over numpy scalars for the dendrogram, a stack
walk with a DFS per dropped subtree for the condensed tree, dict loops
for the stabilities and the EOM selection, and a per-point climb to the
chosen ancestor for labels and probabilities.  ``test_hierarchy_tail``
requires the library's outputs to equal theirs byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.core.labels import relabel_consecutive
from repro.hierarchy.condense import CondensedTree


def single_linkage_dendrogram(mst_edges: np.ndarray, n: int) -> np.ndarray:
    if mst_edges.shape[0] != n - 1:
        raise ValueError(
            f"expected {n - 1} MST edges for {n} points; got {mst_edges.shape[0]}"
        )
    Z = np.empty((n - 1, 4), dtype=np.float64)
    # Union-find over points, tracking each set's current dendrogram node.
    parent = np.arange(2 * n - 1, dtype=np.int64)
    node_of_root = np.arange(n, dtype=np.int64)
    size = np.ones(n, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for i in range(n - 1):
        a, b, w = int(mst_edges[i, 0]), int(mst_edges[i, 1]), mst_edges[i, 2]
        ra, rb = find(a), find(b)
        if ra == rb:  # pragma: no cover - MST edges never cycle
            raise AssertionError("cycle in MST edge list")
        Z[i, 0] = node_of_root[ra]
        Z[i, 1] = node_of_root[rb]
        Z[i, 2] = w
        Z[i, 3] = size[ra] + size[rb]
        parent[rb] = ra
        node_of_root[ra] = n + i
        size[ra] += size[rb]
    return Z


def _subtree_points(Z: np.ndarray, n: int, node: int) -> list[int]:
    """Original points under a dendrogram node (iterative DFS)."""
    out: list[int] = []
    stack = [node]
    while stack:
        current = stack.pop()
        if current < n:
            out.append(current)
        else:
            row = current - n
            stack.append(int(Z[row, 0]))
            stack.append(int(Z[row, 1]))
    return out


def condense_dendrogram(Z: np.ndarray, n: int, min_cluster_size: int = 5) -> CondensedTree:
    if min_cluster_size < 2:
        raise ValueError(f"min_cluster_size must be >= 2; got {min_cluster_size}")
    if n < 2:
        return CondensedTree(
            n_points=n,
            parent=np.zeros(0, dtype=np.int64),
            child=np.zeros(0, dtype=np.int64),
            lambda_val=np.zeros(0),
            size=np.zeros(0, dtype=np.int64),
        )
    parents: list[int] = []
    children: list[int] = []
    lambdas: list[float] = []
    sizes: list[int] = []

    def emit(parent: int, child: int, lam: float, size: int) -> None:
        parents.append(parent)
        children.append(child)
        lambdas.append(lam)
        sizes.append(size)

    def node_size(node: int) -> int:
        return 1 if node < n else int(Z[node - n, 3])

    root = 2 * n - 2
    next_cluster = n + 1
    # stack of (dendrogram node, condensed cluster id it belongs to)
    stack = [(root, n)]
    while stack:
        node, cluster = stack.pop()
        row = node - n
        left, right = int(Z[row, 0]), int(Z[row, 1])
        dist = Z[row, 2]
        lam = 1.0 / dist if dist > 0 else np.inf
        s_left, s_right = node_size(left), node_size(right)
        big_left = s_left >= min_cluster_size
        big_right = s_right >= min_cluster_size
        if big_left and big_right:
            for side, s_side in ((left, s_left), (right, s_right)):
                emit(cluster, next_cluster, lam, s_side)
                stack.append((side, next_cluster))
                next_cluster += 1
        elif big_left or big_right:
            keep, drop = (left, right) if big_left else (right, left)
            for p in _subtree_points(Z, n, drop):
                emit(cluster, p, lam, 1)
            stack.append((keep, cluster))
        else:
            for p in _subtree_points(Z, n, left):
                emit(cluster, p, lam, 1)
            for p in _subtree_points(Z, n, right):
                emit(cluster, p, lam, 1)
    return CondensedTree(
        n_points=n,
        parent=np.array(parents, dtype=np.int64),
        child=np.array(children, dtype=np.int64),
        lambda_val=np.array(lambdas, dtype=np.float64),
        size=np.array(sizes, dtype=np.int64),
    )


def cluster_stabilities(tree: CondensedTree) -> dict[int, float]:
    birth: dict[int, float] = {int(tree.n_points): 0.0}
    finite = tree.lambda_val[np.isfinite(tree.lambda_val)]
    cap = float(finite.max()) if finite.size else 1.0
    lam = np.minimum(tree.lambda_val, cap)
    for parent, child, level in zip(tree.parent, tree.child, lam):
        if child >= tree.n_points:
            birth[int(child)] = float(level)
    stability: dict[int, float] = {}
    for parent, level, size in zip(tree.parent, lam, tree.size):
        parent = int(parent)
        stability[parent] = stability.get(parent, 0.0) + (
            float(level) - birth.get(parent, 0.0)
        ) * int(size)
    return stability


def extract_eom_clusters(
    tree: CondensedTree, allow_single_cluster: bool = False
) -> tuple[list[int], dict[int, float]]:
    stability = cluster_stabilities(tree)
    clusters = sorted(stability, reverse=True)  # children before parents
    selected: dict[int, bool] = {}
    propagated: dict[int, float] = {}
    for cluster in clusters:
        kids = tree.children_of(cluster)
        child_sum = float(sum(propagated.get(int(k), 0.0) for k in kids))
        own = stability[cluster]
        is_root = cluster == tree.n_points
        if is_root and not allow_single_cluster:
            selected[cluster] = False
            propagated[cluster] = child_sum
        elif own >= child_sum:
            selected[cluster] = True
            propagated[cluster] = own
        else:
            selected[cluster] = False
            propagated[cluster] = child_sum
    # Keep only the topmost selected cluster on every root-to-leaf path
    # (condensed ids increase downward, so ascending order visits parents
    # before children).
    chosen: list[int] = []
    blocked: set[int] = set()
    for cluster in sorted(selected):
        if cluster in blocked:
            continue
        if selected[cluster]:
            chosen.append(cluster)
            stack = list(tree.children_of(cluster))
            while stack:
                kid = int(stack.pop())
                blocked.add(kid)
                stack.extend(tree.children_of(kid))
    return chosen, stability


def labels_from_selection(
    tree: CondensedTree, chosen: list[int]
) -> tuple[np.ndarray, np.ndarray]:
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
