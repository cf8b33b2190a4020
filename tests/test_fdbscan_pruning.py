"""Exactness of the component-pruned main phase.

FDBSCAN's, DenseBox's, the minpts sweep's and every distributed rank's
main phases skip every subtree already in the query's component, as of
the last refresh epoch.
These tests check DBSCAN's three-part contract against a cKDTree brute
force on tie-heavy input (distances exactly eps, duplicates, a border
point between two clusters, dense cells that are both pruned and hit),
across every scheduling knob, and that the pruning really fires.
"""

import functools
import itertools

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from repro.bvh.aabb import boxes_from_points
from repro.bvh.builder import build_bvh
from repro.bvh.traversal import spread_epochs
from repro.core.densebox import fdbscan_densebox
from repro.core.fdbscan import fdbscan
from repro.core.framework import PairResolver
from repro.core.multi_minpts import dbscan_minpts_sweep
from repro.device.device import Device
from repro.distributed import distributed_dbscan
from repro.grid.dense_cells import decompose

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


def _check_contract(X, eps, minpts, weights, labels, is_core, min_index_border=True):
    """Exact core set, identical core partition, and each border point in
    the cluster of its minimum-index core neighbour within eps (of any
    core neighbour, without ``min_index_border``)."""
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
        if first_core[p] == n:
            assert labels[p] == -1, p
        elif min_index_border:
            assert labels[p] == labels[first_core[p]], p
        else:
            assert labels[p] in labels[anchor[border == p]], p


def _dense_lattice_points() -> np.ndarray:
    """Two 12x12 lattice blocks at spacing eps/4, so DenseBox's grid
    (cell side eps/sqrt(2)) holds up to 9 points per cell, with their
    facing edges 2 eps apart, a bridge point exactly eps from both,
    duplicates and isolated noise."""
    s = SPACING / 4
    g = np.arange(12) * s
    a = np.array(list(itertools.product(g, g)))
    b = a + [19 * s, 0.0]
    bridge = np.array([[15 * s, 5 * s]])
    dups = np.array([a[0], a[70], b[143], [3.0, 3.0], [3.0, 3.0]])
    noise = np.array([[3.0, 0.5], [3.0, 3.0 + 2 * SPACING]])
    return np.concatenate([a, bridge, b, dups, noise])


def _sparse_lattice_points() -> np.ndarray:
    """An 8x8 lattice of sites 2 apart, each holding one motif: mostly
    isolated noise, noise pairs exactly eps apart, duplicated noise and
    chains at eps; a few 3x3 blobs (spacing eps/4) with arms of points
    eps apart, one of them two border points eps apart bridging two
    blobs."""
    s = SPACING
    g = np.arange(3) * s / 4
    blob = np.array(list(itertools.product(g, g)))
    arm = np.concatenate([blob, blob[-1] + [[s, 0.0], [2 * s, 0.0]]])
    bridge = np.concatenate([arm, blob + [g[-1] + 3 * s, 0.0]])
    motifs = [
        np.zeros((1, 2)),
        np.array([[0.0, 0.0], [s, 0.0]]),
        np.zeros((2, 2)),
        np.array([[0.0, 0.0], [s, 0.0], [2 * s, 0.0]]),
    ]
    sites = itertools.product(range(8), range(8))
    return np.concatenate([
        (bridge if k % 32 == 0 else arm if k % 32 == 16 else motifs[k % 4])
        + [8 * s * i, 8 * s * j]
        for k, (i, j) in enumerate(sites)
    ])


X_TIES = _tie_heavy_points()
WEIGHTS = np.where(np.arange(X_TIES.shape[0]) % 3 == 0, 2.0, 1.0)
X_DENSE = _dense_lattice_points()
X_SPARSE = _sparse_lattice_points()
INPUTS = {
    "ties": (X_TIES, WEIGHTS),
    "lattice": (X_DENSE, np.where(np.arange(X_DENSE.shape[0]) % 3 == 0, 2.0, 1.0)),
}


# Every case runs on the single-tree traversal in input order; the ids name
# the engine and query order as they did when a dual-tree engine and a
# Morton query order ran the same cases, so each case keeps one name
# across the history.
CHUNK_SIZES = pytest.mark.parametrize(
    "chunk_size", [1, 7, None], ids=lambda c: f"single-input-{c}"
)


@CHUNK_SIZES
def test_contract_on_ties_across_knobs(chunk_size):
    reference = {}
    for use_mask, weighted, minpts in itertools.product(
        (True, False), (False, True), (1, 2, 5)
    ):
        weights = WEIGHTS if weighted else None
        res = fdbscan(
            X_TIES, SPACING, minpts,
            chunk_size=chunk_size, use_mask=use_mask, sample_weight=weights,
        )
        _check_contract(X_TIES, SPACING, minpts, weights, res.labels, res.is_core)
        # Labels, not just the partition, are identical across the knobs.
        key = (weighted, minpts)
        if key not in reference:
            reference[key] = fdbscan(X_TIES, SPACING, minpts, sample_weight=weights)
        np.testing.assert_array_equal(res.labels, reference[key].labels)
        np.testing.assert_array_equal(res.is_core, reference[key].is_core)


@functools.cache
def _reference(data: str, weighted: bool, minpts: int):
    X, w = INPUTS[data]
    return fdbscan(X, SPACING, minpts, sample_weight=w if weighted else None)


@CHUNK_SIZES
@pytest.mark.parametrize("data", sorted(INPUTS))
def test_densebox_contract_across_knobs(data, chunk_size):
    X, w = INPUTS[data]
    for use_mask, weighted, minpts in itertools.product(
        (True, False), (False, True), (1, 2, 5)
    ):
        weights = w if weighted else None
        res = fdbscan_densebox(
            X, SPACING, minpts,
            chunk_size=chunk_size, use_mask=use_mask, sample_weight=weights,
        )
        _check_contract(X, SPACING, minpts, weights, res.labels, res.is_core)
        # DenseBox's labels equal FDBSCAN's, which are knob-independent.
        ref = _reference(data, weighted, minpts)
        np.testing.assert_array_equal(res.labels, ref.labels)
        np.testing.assert_array_equal(res.is_core, ref.is_core)


@pytest.mark.parametrize("chunk_size", [1, 7, None])
@pytest.mark.parametrize("data", sorted(INPUTS))
def test_minpts_sweep_contract(data, chunk_size):
    X, _ = INPUTS[data]
    results = dbscan_minpts_sweep(X, SPACING, [1, 2, 5], chunk_size=chunk_size)
    for minpts, res in results.items():
        _check_contract(X, SPACING, minpts, None, res.labels, res.is_core)
        ref = _reference(data, False, minpts)
        np.testing.assert_array_equal(res.labels, ref.labels)
        np.testing.assert_array_equal(res.is_core, ref.is_core)


@pytest.fixture
def delivered(monkeypatch):
    """Every pair batch handed to a :class:`PairResolver`, with its core
    flags."""
    batches = []
    add = PairResolver.add

    def spy(self, x, y):
        batches.append((np.array(x), np.array(y), self.is_core))
        add(self, x, y)

    monkeypatch.setattr(PairResolver, "add", spy)
    return batches


@pytest.mark.parametrize("chunk_size", [1, 7, None])
def test_noise_heavy_contract_across_knobs(chunk_size, delivered):
    weights = np.where(np.arange(X_SPARSE.shape[0]) % 3 == 0, 2.0, 1.0)
    reference = {}
    for algorithm, minpts, use_mask, weighted in itertools.product(
        (fdbscan, fdbscan_densebox), (3, 5, 8), (True, False), (False, True),
    ):
        w = weights if weighted else None
        res = algorithm(
            X_SPARSE, SPACING, minpts, chunk_size=chunk_size,
            use_mask=use_mask, sample_weight=w,
        )
        _check_contract(X_SPARSE, SPACING, minpts, w, res.labels, res.is_core)
        ref = reference.setdefault((weighted, minpts), res)
        np.testing.assert_array_equal(res.labels, ref.labels)
        np.testing.assert_array_equal(res.is_core, ref.is_core)
    sweep = dbscan_minpts_sweep(X_SPARSE, SPACING, [3, 5, 8], chunk_size=chunk_size)
    for minpts, res in sweep.items():
        _check_contract(X_SPARSE, SPACING, minpts, None, res.labels, res.is_core)
        np.testing.assert_array_equal(res.labels, reference[False, minpts].labels)
    # Pairs of two non-core points never reach the resolver.
    assert delivered
    for x, y, core in delivered:
        assert (core[x] | core[y]).all()


@pytest.mark.parametrize("n_ranks", [1, 2, 3, 7])
@pytest.mark.parametrize("data", ["ties", "lattice", "sparse"])
def test_distributed_contract_on_lattices(data, n_ranks, delivered):
    # Every rank runs the shared pruned main phase over its owned and
    # ghost rows.  Its border points pick their minimum core neighbour in
    # local row order, so only a single rank (rows in input order) must
    # reproduce FDBSCAN's labels byte for byte.
    X = {"ties": X_TIES, "lattice": X_DENSE, "sparse": X_SPARSE}[data]
    for minpts in (1, 2, 3, 5, 8):
        res = distributed_dbscan(X, SPACING, minpts, n_ranks=n_ranks)
        _check_contract(
            X, SPACING, minpts, None, res.labels, res.is_core,
            min_index_border=n_ranks == 1,
        )
        if n_ranks == 1:
            ref = fdbscan(X, SPACING, minpts)
            np.testing.assert_array_equal(res.labels, ref.labels)
            np.testing.assert_array_equal(res.is_core, ref.is_core)
    # Pairs of two non-core points never reach a rank's resolver.
    assert delivered
    for x, y, core in delivered:
        assert (core[x] | core[y]).all()


def test_sparse_lattice_is_noise_heavy():
    # At minpts 5 most points are noise, two border points and many
    # noise pairs sit exactly eps apart, noise points are duplicated, and
    # the points with no neighbour but themselves (count 1) run no
    # main-phase query.
    n = X_SPARSE.shape[0]
    dev = Device()
    res = fdbscan(X_SPARSE, SPACING, 5, device=dev)
    pairs = cKDTree(X_SPARSE).query_pairs(SPACING, output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    dist = np.linalg.norm(X_SPARSE[i] - X_SPARSE[j], axis=1)
    at_eps = dist == SPACING
    noise = res.labels == -1
    border = ~res.is_core & ~noise
    assert np.count_nonzero(noise) > n / 2
    assert (at_eps & border[i] & border[j]).any()
    assert (at_eps & noise[i] & noise[j]).any()
    assert ((dist == 0) & noise[i] & noise[j]).any()
    isolated = np.bincount(pairs.ravel(), minlength=n) == 0
    assert isolated.any()
    assert dev.profile()["fdbscan_main"]["threads"] == n - np.count_nonzero(isolated)


def test_lattice_exercises_dense_boxes():
    # The lattice really exercises DenseBox's boxes: most points sit in
    # dense cells, and the bridge joins the blocks only while it is core.
    dev = Device()
    res = fdbscan_densebox(X_DENSE, SPACING, 5, device=dev)
    n_dense_points = round(res.info["dense_fraction"] * X_DENSE.shape[0])
    assert n_dense_points > 0.8 * X_DENSE.shape[0]
    # Box hits join the cells of each block: more unions than the cells' own.
    assert dev.counters.union_ops > n_dense_points - res.info["n_dense_cells"]
    bridge, edge_a, edge_b = 144, 11 * 12 + 5, 145 + 5
    assert not res.is_core[bridge]
    assert res.labels[bridge] == res.labels[edge_a] != res.labels[edge_b]
    res3 = fdbscan_densebox(X_DENSE, SPACING, 3)
    assert res3.is_core[bridge]
    assert res3.labels[edge_a] == res3.labels[edge_b]


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


def test_densebox_pruning_fires():
    # Every point of the square is core and in one dense-cell cluster.
    # Unpruned, each (query, primitive) hit above the query's own leaf is
    # one union; pruned, only hits that still join two components remain.
    X = np.random.default_rng(0).uniform(0.0, 1.0, (3000, 2))
    eps, minpts = 0.1, 5
    dev = Device()
    res = fdbscan_densebox(X, eps, minpts, device=dev)
    assert res.n_clusters == 1 and res.is_core.all()

    deco = decompose(X, eps, minpts, device=Device())
    tree = build_bvh(deco.prim_lo, deco.prim_hi, device=Device())
    prim = np.empty(X.shape[0], dtype=np.int64)
    prim[deco.isolated_idx] = np.arange(deco.n_isolated)
    dense = np.flatnonzero(deco.is_dense_point)
    prim[dense] = deco.n_isolated + deco.dense_rank_of_cell[deco.cell_of_point[dense]]
    pos = tree.position[prim]
    pairs = cKDTree(X).query_pairs(eps, output_type="ndarray")
    q = np.concatenate([pairs[:, 0], pairs[:, 1]])
    y = np.concatenate([pairs[:, 1], pairs[:, 0]])
    above = pos[y] > pos[q]
    unpruned = np.unique(q[above] * tree.n_primitives + prim[y[above]]).size
    cell_unions = deco.n_dense_points - deco.n_dense
    assert unpruned > 10_000
    assert (dev.counters.union_ops - cell_unions) * 10 < unpruned


def test_spread_epochs_partition_the_points():
    X = np.random.default_rng(1).uniform(0, 1, (1000, 2))
    tree = build_bvh(*boxes_from_points(X))
    epochs = spread_epochs(tree.position)
    assert [e.shape[0] for e in epochs] == [64, 256, 680]
    np.testing.assert_array_equal(np.sort(np.concatenate(epochs)), np.arange(1000))
    for e in epochs:
        assert (np.diff(tree.position[e]) > 0).all()


def test_spread_epochs_keep_shared_positions_together():
    # Queries sharing a leaf (a dense cell's members) come in id order.
    positions = np.array([3, 0, 3, 1, 2, 0, 3])
    epochs = spread_epochs(positions)
    assert len(epochs) == 1
    np.testing.assert_array_equal(epochs[0], [1, 5, 3, 4, 0, 2, 6])


def test_component_mask_ledger_freed_when_main_phase_aborts():
    X = np.random.default_rng(3).normal(0.0, 0.05, (300, 2))

    class Abort(Exception):
        pass

    for algorithm in (fdbscan, fdbscan_densebox):
        calls = []
        algorithm(X, 0.05, 5, device=Device(), watchdog=lambda: calls.append(1))

        def watchdog():
            calls.pop()
            if len(calls) == 1:  # the last poll, inside the main phase
                raise Abort

        dev = Device()
        with pytest.raises(Abort):
            algorithm(X, 0.05, 5, device=dev, watchdog=watchdog)
        for tag in ("components", "labels", "border"):
            assert dev.memory.peak_by_tag[tag] > 0, (algorithm, tag)
            assert dev.memory.live_by_tag[tag] == 0, (algorithm, tag)
