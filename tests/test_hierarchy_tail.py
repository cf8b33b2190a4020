"""HDBSCAN's tail against its per-element reference, byte for byte.

The dendrogram, the condensed tree (row order included), the stabilities
dict (key order included), the chosen clusters, the labels and the
probabilities must all equal those of ``tests/hierarchy_tail_reference.py``
on the same MST, and ``hdbscan()`` must return the reference's outputs.
"""

import importlib

import numpy as np
import pytest

import tests.hierarchy_tail_reference as ref
from repro.bvh.knn import core_distances
from repro.core.index import DBSCANIndex
from repro.datasets.registry import load_dataset
from repro.device.device import DEFAULT_CHUNK_SIZE, Device
from repro.hierarchy import (
    condense_dendrogram,
    dbscan_star_cut,
    extract_eom_clusters,
    hdbscan,
    mutual_reachability_mst_boruvka,
    single_linkage_dendrogram,
)

# The package re-exports ``hdbscan`` the function under the module's name.
_labels_from_selection = importlib.import_module(
    "repro.hierarchy.hdbscan"
)._labels_from_selection


def _same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _duplicates():
    rng = np.random.default_rng(7)
    base = rng.uniform(0, 1, (40, 2))
    return np.repeat(base, [1, 2, 3, 6, 8] * 8, axis=0)


def _lattice():
    ticks = np.arange(12) * 0.25
    return np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2)


def _line_in_3d():
    t = np.random.default_rng(8).uniform(0, 4, 150)
    return np.stack([t, 2 * t, -t], axis=1)


def _blobs(n):
    rng = np.random.default_rng(n)
    return np.concatenate([rng.normal(0, 0.1, (n // 2, 2)), rng.normal(1, 0.1, (n - n // 2, 2))])


# (case id, points, min_cluster_size, min_samples)
_HOSTILE = [
    ("duplicates", _duplicates(), 5, 5),
    ("duplicates-ms2", _duplicates(), 3, 2),
    ("lattice-ties", _lattice(), 5, 4),
    ("mcs-over-half", _blobs(60), 31, 5),
    ("n2", _blobs(2), 2, 2),
    ("n-is-mcs", _blobs(7), 7, 3),
    ("line-in-3d", _line_in_3d(), 5, 5),
]
_DATASETS = [
    (f"{name}-ms{ms}", load_dataset(name, 600, seed=0), 5, ms)
    for name in ("ngsim", "hacc", "portotaxi", "road3d")
    for ms in (5, 50)
]


@pytest.mark.parametrize("allow_single_cluster", [False, True])
@pytest.mark.parametrize(
    "X,mcs,ms", [case[1:] for case in _HOSTILE + _DATASETS],
    ids=[case[0] for case in _HOSTILE + _DATASETS],
)
def test_tail_matches_reference(X, mcs, ms, allow_single_cluster):
    n = X.shape[0]
    tree, _ = DBSCANIndex(X).points_tree()
    mst = mutual_reachability_mst_boruvka(X, core_distances(tree, X, ms), tree=tree)

    Z_ref = ref.single_linkage_dendrogram(mst, n)
    Z = single_linkage_dendrogram(mst, n)
    _same_array(Z, Z_ref)

    tree_ref = ref.condense_dendrogram(Z_ref, n, mcs)
    tree_got = condense_dendrogram(Z, n, mcs)
    for field in ("parent", "child", "lambda_val", "size"):
        _same_array(getattr(tree_got, field), getattr(tree_ref, field))

    chosen_ref, stab_ref = ref.extract_eom_clusters(tree_ref, allow_single_cluster)
    chosen, stab = extract_eom_clusters(tree_got, allow_single_cluster)
    assert list(stab.items()) == list(stab_ref.items())
    assert all(type(k) is int and type(v) is float for k, v in stab.items())
    assert chosen == chosen_ref
    assert all(type(c) is int for c in chosen)

    labels_ref, prob_ref = ref.labels_from_selection(tree_ref, chosen_ref)
    labels, prob = _labels_from_selection(tree_got, chosen)
    _same_array(labels, labels_ref)
    _same_array(prob, prob_ref)

    res = hdbscan(
        X, min_cluster_size=mcs, min_samples=ms, allow_single_cluster=allow_single_cluster
    )
    _same_array(res.labels, labels_ref)
    _same_array(res.probabilities, prob_ref)
    _same_array(res.condensed_tree.child, tree_ref.child)
    assert list(res.stabilities.items()) == list(stab_ref.items())


@pytest.mark.parametrize(
    "X,mcs,ms", [case[1:] for case in _HOSTILE], ids=[case[0] for case in _HOSTILE]
)
def test_outputs_invariant_to_chunk_size(X, mcs, ms):
    """The kNN and Borůvka traversals run at the device's chunk size; no
    output may depend on it.  ``eps=0.25`` is the lattice's spacing, so
    the cut also meets ties at exactly eps."""
    runs = [
        (
            hdbscan(X, mcs, ms, device=Device(chunk_size=chunk_size)),
            dbscan_star_cut(X, 0.25, ms, device=Device(chunk_size=chunk_size)),
        )
        for chunk_size in (None, 97, DEFAULT_CHUNK_SIZE)
    ]
    (want, want_cut), *rest = runs
    for res, cut in rest:
        _same_array(res.labels, want.labels)
        _same_array(res.probabilities, want.probabilities)
        for field in ("parent", "child", "lambda_val", "size"):
            _same_array(getattr(res.condensed_tree, field), getattr(want.condensed_tree, field))
        _same_array(cut, want_cut)


def test_hostile_cases_reach_their_corners():
    """The hostile inputs really hit the cases they are named for."""
    by_id = {case[0]: case[1:] for case in _HOSTILE}
    X, mcs, ms = by_id["duplicates"]
    assert np.isinf(hdbscan(X, mcs, ms).condensed_tree.lambda_val).any()
    X, mcs, ms = by_id["lattice-ties"]
    tree, _ = DBSCANIndex(X).points_tree()
    weights = mutual_reachability_mst_boruvka(X, core_distances(tree, X, ms), tree=tree)[:, 2]
    assert np.unique(weights).size < weights.size // 10
    X, mcs, ms = by_id["mcs-over-half"]
    res = hdbscan(X, mcs, ms)
    assert res.n_clusters == 0 and not res.probabilities.any()
