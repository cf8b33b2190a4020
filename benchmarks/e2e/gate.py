"""Correctness gate: independent references for every output the benchmark times.

Flat DBSCAN output is checked against ``scipy.spatial.cKDTree`` plus
``scipy.sparse.csgraph.connected_components`` — code that shares nothing
with the library — using DBSCAN's definition rather than another
implementation's labels:

1. the core set is exact (``|N_eps(p)| >= minpts``, the point counting
   itself);
2. the partition of core points equals the connected components of the
   core-core eps-graph, up to relabelling;
3. a non-core point is noise exactly when it has no core point within
   eps, and otherwise its cluster holds a core point within eps.

HDBSCAN labels must equal the ``mst_algorithm="prim"`` oracle's up to
relabelling, with noise mapped to noise.

Every check returns ``None`` when the output is correct and a one-line
description of the first violation otherwise.  References are built
outside any timed region.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree


class FlatReference:
    """Everything DBSCAN's definition needs for one ``(points, eps)``.

    Neighbour counts and the within-eps pair list do not depend on
    ``minpts``, so one reference serves a whole minpts sweep.
    """

    def __init__(self, X: np.ndarray, eps: float):
        self.X = np.asarray(X, dtype=np.float64)
        self.eps = float(eps)
        tree = cKDTree(self.X)
        #: neighbours within eps, the point itself included.
        self.counts = tree.query_ball_point(self.X, self.eps, return_length=True)
        #: every unordered pair ``i < j`` with ``dist <= eps``.
        self.pairs = tree.query_pairs(self.eps, output_type="ndarray")

    @property
    def n_pairs(self) -> int:
        return int(self.pairs.shape[0])


def _same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """True when the two label arrays induce the same partition."""
    if a.size == 0:
        return True
    joint = np.unique(np.stack([a, b], axis=1), axis=0)
    return joint.shape[0] == np.unique(a).size == np.unique(b).size


def check_flat(ref: FlatReference, minpts: int, labels, is_core) -> str | None:
    """Check one flat DBSCAN labelling against DBSCAN's definition."""
    labels = np.asarray(labels, dtype=np.int64)
    is_core = np.asarray(is_core, dtype=bool)
    n = ref.X.shape[0]
    if labels.shape != (n,) or is_core.shape != (n,):
        return f"expected {n} labels and core flags; got {labels.shape} and {is_core.shape}"

    want_core = ref.counts >= minpts
    if not np.array_equal(is_core, want_core):
        bad = np.flatnonzero(is_core != want_core)
        return (
            f"core set differs at {bad.size} points (first: point {bad[0]}, "
            f"{ref.counts[bad[0]]} neighbours, minpts {minpts})"
        )
    core = np.flatnonzero(want_core)
    if (labels[core] < 0).any():
        return "a core point is labelled noise"

    i, j = ref.pairs[:, 0], ref.pairs[:, 1]
    both = want_core[i] & want_core[j]
    graph = coo_matrix(
        (np.ones(int(both.sum()), dtype=np.int8), (i[both], j[both])), shape=(n, n)
    )
    _n_comp, comp = connected_components(graph, directed=False)
    if not _same_partition(comp[core], labels[core]):
        return "the partition of core points differs from the core eps-graph's components"

    # Border points: every (non-core, core) pair within eps is a candidate
    # attachment; the point's label must match at least one of them.
    ci = want_core[i]
    cj = want_core[j]
    border = np.concatenate([j[ci & ~cj], i[cj & ~ci]])
    anchor = np.concatenate([i[ci & ~cj], j[cj & ~ci]])
    has_core_nbr = np.zeros(n, dtype=bool)
    has_core_nbr[border] = True
    matched = np.zeros(n, dtype=bool)
    matched[border[labels[border] == labels[anchor]]] = True
    non_core = ~want_core
    wrong_noise = non_core & ~has_core_nbr & (labels != -1)
    if wrong_noise.any():
        return f"point {np.flatnonzero(wrong_noise)[0]} has no core point within eps but is not noise"
    unmatched = non_core & has_core_nbr & ~matched
    if unmatched.any():
        return (
            f"border point {np.flatnonzero(unmatched)[0]} is in a cluster with no core "
            "point within eps"
        )
    return None


def check_relabelling(labels, oracle) -> str | None:
    """Check two labellings are equal up to relabelling, noise to noise."""
    labels = np.asarray(labels)
    oracle = np.asarray(oracle)
    if labels.shape != oracle.shape:
        return f"label shapes differ: {labels.shape} vs oracle {oracle.shape}"
    noise = labels == -1
    if not np.array_equal(noise, oracle == -1):
        return f"noise sets differ at {int((noise != (oracle == -1)).sum())} points"
    if not _same_partition(labels[~noise], oracle[~noise]):
        return "clusters differ from the oracle's beyond relabelling"
    return None


def check_counts(ref: FlatReference, minpts: int, counts, n_core) -> str | None:
    """Check a multiset of neighbour counts and the core count derived
    from them (the service returns counts in its internal slot order)."""
    counts = np.sort(np.asarray(counts, dtype=np.int64))
    if not np.array_equal(counts, np.sort(ref.counts)):
        return "neighbour counts differ from the reference"
    return check_n_core(ref, minpts, n_core)


def check_n_core(ref: FlatReference, minpts: int, n_core) -> str | None:
    want = int((ref.counts >= minpts).sum())
    if int(n_core) != want:
        return f"n_core is {n_core}; the reference has {want}"
    return None


def check_knn(X: np.ndarray, k: int, radii) -> str | None:
    """Check a multiset of k-th-nearest-neighbour distances (the query
    point itself is its own first neighbour, as in the library)."""
    X = np.asarray(X, dtype=np.float64)
    want, _ = cKDTree(X).query(X, k=k)
    want = np.sort(want[:, -1] if k > 1 else want)
    got = np.sort(np.asarray(radii, dtype=np.float64))
    if got.shape != want.shape or not np.allclose(got, want, rtol=1e-9, atol=1e-11):
        return f"k={k} neighbour distances differ from the reference"
    return None
