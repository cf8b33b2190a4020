"""Exactness of FDBSCAN's component-pruned main phase.

The main phase skips every subtree already in the query's component, as of
the last refresh epoch.  These tests check DBSCAN's three-part contract
against a cKDTree brute force on tie-heavy input (distances exactly eps,
duplicates, a border point between two clusters), across every scheduling
knob, and that the pruning really fires.
"""

import itertools

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from repro.bvh.aabb import boxes_from_points
from repro.bvh.builder import build_bvh
from repro.bvh.traversal import spread_epochs
from repro.core.fdbscan import fdbscan
from repro.device.device import Device

#: Lattice spacing and eps: a power of two, so lattice distances are exact.
SPACING = 0.25


def _tie_heavy_points() -> np.ndarray:
    """Two 7x7 lattice blocks whose facing edges are 2 spacings apart,
    a bridge point exactly eps from both, duplicates and isolated noise."""
    g = np.arange(7) * SPACING
    block = np.array(list(itertools.product(g, g)))
    a = block
    b = block + [8 * SPACING, 0.0]
    bridge = np.array([[7 * SPACING, 3 * SPACING]])
    dups = np.array([a[0], a[24], b[48], [5.0, 5.0], [5.0, 5.0]])
    noise = np.array([[6.0, 0.5], [5.0, 5.0 + 2 * SPACING]])
    return np.concatenate([a, bridge, b, dups, noise])


def _check_contract(X, eps, minpts, weights, labels, is_core):
    """Exact core set, identical core partition, and each border point in
    the cluster of its minimum-index core neighbour within eps."""
    n = X.shape[0]
    w = np.ones(n) if weights is None else weights
    pairs = cKDTree(X).query_pairs(eps, output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    density = w + np.bincount(i, w[j], n) + np.bincount(j, w[i], n)
    core = density >= minpts
    np.testing.assert_array_equal(is_core, core)

    both = core[i] & core[j]
    graph = coo_matrix((np.ones(both.sum()), (i[both], j[both])), shape=(n, n))
    _, comp = connected_components(graph, directed=False)
    ci = np.flatnonzero(core)
    assert (labels[ci] >= 0).all()
    # Same partition: the map comp -> label is a bijection on core points.
    assert len(set(zip(comp[ci], labels[ci]))) == len(set(comp[ci]))
    assert len(set(zip(comp[ci], labels[ci]))) == len(set(labels[ci]))

    first_core = np.full(n, n)
    cross = core[i] != core[j]
    border = np.where(core[i], j, i)[cross]
    anchor = np.where(core[i], i, j)[cross]
    np.minimum.at(first_core, border, anchor)
    for p in np.flatnonzero(~core):
        if first_core[p] < n:
            assert labels[p] == labels[first_core[p]], p
        else:
            assert labels[p] == -1, p


X_TIES = _tie_heavy_points()
WEIGHTS = np.where(np.arange(X_TIES.shape[0]) % 3 == 0, 2.0, 1.0)


@pytest.mark.parametrize("chunk_size", [1, 7, None])
@pytest.mark.parametrize("query_order", ["input", "morton"])
@pytest.mark.parametrize("traversal", ["single", "dual", "auto"])
def test_contract_on_ties_across_knobs(traversal, query_order, chunk_size):
    reference = {}
    for use_mask, weighted, minpts in itertools.product(
        (True, False), (False, True), (1, 2, 5)
    ):
        weights = WEIGHTS if weighted else None
        res = fdbscan(
            X_TIES, SPACING, minpts, traversal=traversal,
            query_order=query_order, chunk_size=chunk_size,
            use_mask=use_mask, sample_weight=weights,
        )
        _check_contract(X_TIES, SPACING, minpts, weights, res.labels, res.is_core)
        # Labels, not just the partition, are identical across the knobs.
        key = (weighted, minpts)
        if key not in reference:
            reference[key] = fdbscan(X_TIES, SPACING, minpts, sample_weight=weights)
        np.testing.assert_array_equal(res.labels, reference[key].labels)
        np.testing.assert_array_equal(res.is_core, reference[key].is_core)


def test_bridge_point_joins_one_cluster():
    res = fdbscan(X_TIES, SPACING, 5)
    bridge = 49
    assert not res.is_core[bridge]
    assert res.labels[bridge] == res.labels[bridge - 4]
    assert res.labels[bridge - 4] != res.labels[bridge + 4]


def test_pruning_fires_on_a_dense_blob():
    # Every pair of the blob is within eps and every point is core, so
    # without pruning each of its pairs would be one union.
    rng = np.random.default_rng(0)
    X = rng.normal(0.0, 0.05, (600, 2))
    eps = 1.0
    n_pairs = len(cKDTree(X).query_pairs(eps))
    dev = Device()
    res = fdbscan(X, eps, 5, device=dev)
    assert res.n_clusters == 1 and res.is_core.all()
    assert dev.counters.union_ops * 5 < n_pairs


def test_spread_epochs_partition_the_points():
    X = np.random.default_rng(1).uniform(0, 1, (1000, 2))
    tree = build_bvh(*boxes_from_points(X))
    epochs = spread_epochs(tree)
    assert [e.shape[0] for e in epochs] == [64, 256, 680]
    np.testing.assert_array_equal(np.sort(np.concatenate(epochs)), np.arange(1000))
    for e in epochs:
        assert (np.diff(tree.position[e]) > 0).all()



def test_component_mask_ledger_freed_when_main_phase_aborts():
    X = np.random.default_rng(3).normal(0.0, 0.05, (300, 2))
    calls = []
    fdbscan(X, 0.05, 5, device=Device(), watchdog=lambda: calls.append(1))

    class Abort(Exception):
        pass

    def watchdog():
        calls.pop()
        if len(calls) == 1:  # the last poll, inside the main phase
            raise Abort

    dev = Device()
    with pytest.raises(Abort):
        fdbscan(X, 0.05, 5, device=dev, watchdog=watchdog)
    assert dev.memory.peak_by_tag["components"] > 0
    assert dev.memory.live_by_tag["components"] == 0
