"""Condensed tree, stabilities, and excess-of-mass cluster extraction.

Implements the HDBSCAN machinery of Campello et al. (2013) in the
formulation of the reference ``hdbscan`` library:

- **condense**: walk the single-linkage dendrogram from the root with a
  minimum cluster size; a split where both sides are large enough creates
  two new condensed clusters, otherwise the too-small side's points
  simply *fall out* of the current cluster at that level.  Levels are
  expressed as ``lambda = 1 / distance``;
- **stability** of a condensed cluster: ``sum((lambda_child - lambda_birth)
  * size_child)`` over its condensed rows — the "excess of mass" the
  cluster accumulates over its lifetime;
- **EOM selection**: bottom-up, keep a cluster iff its own stability
  exceeds the sum of its children's selected stabilities (the root is
  excluded unless ``allow_single_cluster``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class CondensedTree:
    """The condensed hierarchy.

    Rows are edges ``parent -> child`` at level ``lambda`` with ``size``
    points: ``child`` is either another condensed cluster (``size > 1``
    possible) or an original point (ids ``< n_points``, ``size == 1``).
    Cluster ids start at ``n_points`` (the root cluster) — the reference
    library's convention.
    """

    n_points: int
    parent: np.ndarray
    child: np.ndarray
    lambda_val: np.ndarray
    size: np.ndarray

    @property
    def cluster_ids(self) -> np.ndarray:
        """All condensed cluster ids (root first)."""
        ids = np.unique(self.parent)
        return ids

    def children_of(self, cluster: int) -> np.ndarray:
        """Condensed *cluster* children of ``cluster``."""
        rows = (self.parent == cluster) & (self.child >= self.n_points)
        return self.child[rows].astype(np.int64)


def _sum_to_root(up: np.ndarray, val: np.ndarray) -> np.ndarray:
    """Sum ``val`` along every node's path to the root.

    ``up`` maps each node to its parent and the root to itself, whose
    value must be 0.  Pointer jumping: after each pass a node's sum covers
    twice as much of its path, so the passes number O(log depth).
    """
    while True:
        val = val + val[up]
        nxt = up[up]
        if np.array_equal(nxt, up):
            return val
        up = nxt


def condense_dendrogram(Z: np.ndarray, n: int, min_cluster_size: int = 5) -> CondensedTree:
    """Condense a single-linkage dendrogram.

    ``Z`` is the ``(n - 1, 4)`` linkage array of
    :func:`repro.hierarchy.mst.single_linkage_dendrogram`; merges must be
    sorted ascending by height (they are, by construction).

    The rows are those of a stack walk from the root that visits the
    right child first and descends only into nodes of at least
    ``min_cluster_size`` points.  Instead of walking, whole-array passes
    place every node in that right-first order, give each split's two new
    clusters their ids in walk order, and emit a fallen-out subtree's
    points as one slice of the right-first leaf order.
    """
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
    m = 2 * n - 1
    left = Z[:, 0].astype(np.int64)
    right = Z[:, 1].astype(np.int64)
    size = np.ones(m, dtype=np.int64)
    size[n:] = Z[:, 3]
    up = np.full(m, m - 1, dtype=np.int64)
    up[left] = up[right] = np.arange(n, m)
    # A node's points start where its parent's do, after the right
    # sibling's when it is a left child.
    offset = np.zeros(m, dtype=np.int64)
    offset[left] = size[right]
    start = _sum_to_root(up, offset)
    order = np.empty(n, dtype=np.int64)
    order[start[:n]] = np.arange(n)

    big = size >= min_cluster_size
    big[m - 1] = True  # the walk starts at the root whatever its size
    visit = n + np.flatnonzero(big[n:])
    # Walk order: by first point, an ancestor before its descendants.
    visit = visit[np.lexsort((-size[visit], start[visit]))]
    pair = np.stack([left[visit - n], right[visit - n]], axis=1)
    split = big[pair].all(axis=1)
    # Split k in walk order makes clusters n + 1 + 2k (left) and n + 2 + 2k.
    new_ids = n + 1 + 2 * (np.cumsum(split) - split)[:, None] + [0, 1]
    # A visited node that no split made follows its parent in walk order,
    # in the same cluster: carry the last made id forward.
    made = np.full(m, -1, dtype=np.int64)
    made[pair[split]] = new_ids[split]
    made[m - 1] = n
    made = made[visit]
    cluster = made[np.maximum.accumulate(np.where(made >= 0, np.arange(made.size), 0))]
    dist = Z[visit - n, 2]
    lam = np.divide(1.0, dist, out=np.full(dist.shape, np.inf), where=dist > 0)

    # Each visited node emits a segment per child, left first: a split
    # child's cluster row, nothing for a kept child, a fallen-out child's
    # points.
    side = pair.ravel()
    seg_split = np.repeat(split, 2)
    seg_len = np.where(seg_split, 1, np.where(big[side], 0, size[side]))
    seg = np.repeat(np.arange(side.size), seg_len)
    within = np.arange(seg.size) - np.repeat(np.cumsum(seg_len) - seg_len, seg_len)
    row_side = side[seg]
    row_split = seg_split[seg]
    return CondensedTree(
        n_points=n,
        parent=np.repeat(cluster, 2)[seg],
        child=np.where(row_split, new_ids.ravel()[seg], order[start[row_side] + within]),
        lambda_val=np.repeat(lam, 2)[seg],
        size=np.where(row_split, size[row_side], 1),
    )


def cluster_stabilities(tree: CondensedTree) -> dict[int, float]:
    """Excess-of-mass stability per condensed cluster.

    ``lambda_birth`` of a cluster is the level of the row that created it
    (0 for the root); finite row levels only (infinite levels — duplicate
    points — contribute through a capped lambda to keep stabilities
    finite, matching the reference implementation's clipping).

    One ``bincount`` adds each cluster's terms in row order, so every sum
    is the one a running per-row total gives.  Keys follow each cluster's
    first row.
    """
    n = tree.n_points
    if tree.parent.size == 0:
        return {}
    finite = tree.lambda_val[np.isfinite(tree.lambda_val)]
    cap = float(finite.max()) if finite.size else 1.0
    lam = np.minimum(tree.lambda_val, cap)
    rel = tree.parent - n
    birth = np.zeros(int(rel.max()) + 1)
    kids = tree.child >= n
    birth[tree.child[kids] - n] = lam[kids]
    total = np.bincount(rel, weights=(lam - birth[rel]) * tree.size)
    ids, first = np.unique(rel, return_index=True)
    ids = ids[np.argsort(first)]
    return dict(zip((ids + n).tolist(), total[ids].tolist()))


def extract_eom_clusters(
    tree: CondensedTree, allow_single_cluster: bool = False
) -> tuple[list[int], dict[int, float]]:
    """Excess-of-mass cluster selection.

    Returns ``(selected_cluster_ids, stabilities)``.  Selection is
    bottom-up: a cluster survives iff its stability beats the summed
    (propagated) stability of its condensed children; the root only
    participates when ``allow_single_cluster``.
    """
    stability = cluster_stabilities(tree)
    children: dict[int, list[int]] = {cluster: [] for cluster in stability}
    rows = tree.child >= tree.n_points
    for parent, child in zip(tree.parent[rows].tolist(), tree.child[rows].tolist()):
        children[parent].append(child)
    selected: dict[int, bool] = {}
    propagated: dict[int, float] = {}
    for cluster in sorted(stability, reverse=True):  # children before parents
        child_sum = float(sum(propagated[kid] for kid in children[cluster]))
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
            stack = list(children[cluster])
            while stack:
                kid = stack.pop()
                blocked.add(kid)
                stack.extend(children[kid])
    return chosen, stability
