"""BVH-Borůvka mutual-reachability MST vs the retained Prim's baseline.

The exchange property guarantees every MST of a graph has the same sorted
weight multiset, and this repository's Borůvka breaks weight ties by the
strict total order ``(w, min(a, b), max(a, b))`` — so the tests can (and
do) demand *bit-equality*: identical sorted weights, identical
single-linkage dendrogram heights, identical edge sets across scheduling
knobs, and the edge set of a dense strict-order reference.  The pruning claim is asserted directly on
the kernel counters: the Borůvka traversal's distance evaluations must
stay a small fraction of Prim's unconditional ``n * (n - 1)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bvh.aabb import boxes_from_points
from repro.bvh.builder import build_bvh
from repro.bvh.knn import core_distances, knn_radii
from repro.device.device import Device
from repro.hierarchy import (
    MST_ALGORITHMS,
    dbscan_star_cut,
    hdbscan,
    mutual_reachability_mst,
    mutual_reachability_mst_boruvka,
    single_linkage_dendrogram,
)
from repro.bvh.traversal import refresh_node_components
from repro.datasets.registry import load_dataset
from repro.metrics import partitions_equal


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def _tree_over(pts, device=None):
    lo, hi = boxes_from_points(pts)
    return build_bvh(lo, hi, device=device)


def _clustered(rng, n, d=2, n_blobs=4):
    centers = rng.uniform(0, 10, (n_blobs, d))
    return np.vstack(
        [rng.normal(c, 0.3, (n // n_blobs, d)) for c in centers]
    )


def _normalised_edges(mst):
    """Edge rows as (w, min, max) sorted by the strict total order —
    the canonical form two equal MSTs must agree on exactly."""
    a, b, w = mst[:, 0], mst[:, 1], mst[:, 2]
    u, v = np.minimum(a, b), np.maximum(a, b)
    rows = np.column_stack([w, u, v])
    return rows[np.lexsort((v, u, w))]


def _dense_strict_mst(X, core):
    """Borůvka over the full mutual-reachability matrix, every choice made
    under the strict order ``(w, u, v)``: the unique MST under that order,
    as ``_normalised_edges`` rows.  Weights are computed as the BVH
    search computes them (``sqrt`` of the summed squared differences)."""
    n = X.shape[0]
    diff = X[:, None, :] - X[None, :, :]
    W = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    W = np.maximum(W, np.maximum(core[:, None], core[None, :]))
    u, v = np.triu_indices(n, 1)
    w = W[u, v]
    comp = np.arange(n)
    edges = []
    while len(edges) < n - 1:
        cross = comp[u] != comp[v]
        cw, cu, cv = np.tile(w[cross], 2), np.tile(u[cross], 2), np.tile(v[cross], 2)
        owner = np.concatenate([comp[u[cross]], comp[v[cross]]])
        s = np.lexsort((cv, cu, cw, owner))
        first = np.ones(s.size, dtype=bool)
        first[1:] = owner[s[1:]] != owner[s[:-1]]
        for e in sorted(set(zip(cw[s[first]], cu[s[first]], cv[s[first]]))):
            a, b = comp[e[1]], comp[e[2]]
            if a != b:
                edges.append(e)
                comp[comp == max(a, b)] = min(a, b)
    return np.array(sorted(edges))


def _both_msts(X, minpts, **boruvka_kwargs):
    tree = _tree_over(X)
    core = core_distances(tree, X, minpts)
    ref = mutual_reachability_mst(X, core)
    got = mutual_reachability_mst_boruvka(X, core, tree=tree, **boruvka_kwargs)
    return ref, got


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("minpts", [3, 8])
    def test_weights_bit_equal(self, seed, minpts):
        rng = np.random.default_rng(seed)
        X = _clustered(rng, 160)
        ref, got = _both_msts(X, minpts)
        assert got.shape == ref.shape == (X.shape[0] - 1, 3)
        np.testing.assert_array_equal(np.sort(got[:, 2]), np.sort(ref[:, 2]))

    @pytest.mark.parametrize("seed", range(3))
    def test_dendrogram_heights_bit_equal(self, seed):
        rng = np.random.default_rng(seed)
        X = _clustered(rng, 120)
        n = X.shape[0]
        ref, got = _both_msts(X, 5)
        Z_ref = single_linkage_dendrogram(ref, n)
        Z_got = single_linkage_dendrogram(got, n)
        np.testing.assert_array_equal(Z_got[:, 2], Z_ref[:, 2])

    def test_unique_mst_edge_set(self, rng):
        # with zero cores the weights are pairwise Euclidean distances —
        # distinct on random float data, so the MST is *unique* and the
        # edge set itself (not just the weights) must agree.  (Non-zero
        # cores tie many weights at max(core_u, core_v); there only the
        # weight multiset is canonical.)
        X = rng.uniform(0, 1, (150, 2))
        core = np.zeros(X.shape[0])
        ref = mutual_reachability_mst(X, core)
        got = mutual_reachability_mst_boruvka(X, core)
        np.testing.assert_array_equal(_normalised_edges(got), _normalised_edges(ref))

    def test_3d(self, rng):
        X = _clustered(rng, 120, d=3)
        ref, got = _both_msts(X, 5)
        np.testing.assert_array_equal(np.sort(got[:, 2]), np.sort(ref[:, 2]))

    def test_duplicates(self, rng):
        # exact duplicates across components force zero-radius searches
        base = rng.normal(0, 1, (30, 2))
        X = np.vstack([base, base, rng.normal(5, 0.2, (40, 2))])
        ref, got = _both_msts(X, 5)
        np.testing.assert_array_equal(np.sort(got[:, 2]), np.sort(ref[:, 2]))

    def test_zero_weight_duplicates_converge(self):
        # Regression: once a round merges zero-weight duplicate edges, a
        # point's restart radius was its zero candidate weight, which
        # never grows by doubling, so the component-NN search failed to
        # converge.  Only the exchange-property invariants are asserted:
        # the many tied zero-weight edges may merge in another order than
        # Prim's, which can change labels but never the sorted weights or
        # the dendrogram heights.
        rng = np.random.default_rng(0)
        base = rng.uniform(size=(200, 2))
        X = np.concatenate([base, base[:50], base[:50], np.zeros((10, 2))])
        n = X.shape[0]
        ref, got = _both_msts(X, 5)
        np.testing.assert_array_equal(np.sort(got[:, 2]), np.sort(ref[:, 2]))
        np.testing.assert_array_equal(
            single_linkage_dendrogram(got, n)[:, 2],
            single_linkage_dendrogram(ref, n)[:, 2],
        )
        res = hdbscan(X, min_cluster_size=5, min_samples=5)
        assert res.labels.shape == (n,)

    def test_collinear(self, rng):
        X = np.column_stack([np.sort(rng.uniform(0, 10, 90)), np.full(90, 2.0)])
        ref, got = _both_msts(X, 4)
        np.testing.assert_array_equal(np.sort(got[:, 2]), np.sort(ref[:, 2]))

    def test_scheduling_invariance(self, rng):
        X = _clustered(rng, 140)
        tree = _tree_over(X)
        core = core_distances(tree, X, 5)
        base = mutual_reachability_mst_boruvka(X, core, tree=tree)
        got = mutual_reachability_mst_boruvka(X, core, tree=tree, chunk_size=64)
        np.testing.assert_array_equal(_normalised_edges(got), _normalised_edges(base))

    @settings(deadline=None, max_examples=12)
    @given(seed=st.integers(0, 10_000), minpts=st.integers(2, 6))
    def test_random_seed_property(self, seed, minpts):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(minpts + 1, 80))
        X = rng.uniform(0, 4, (n, int(rng.integers(1, 4))))
        ref, got = _both_msts(X, minpts)
        np.testing.assert_array_equal(np.sort(got[:, 2]), np.sort(ref[:, 2]))


class TestStrictOrder:
    """The edge set itself, not only the weights, is the strict-order MST,
    including among the many ties that core distances create."""

    @pytest.mark.parametrize(
        "name,seed", [("road3d", 3), ("portotaxi", 1), ("hacc", 1)]
    )
    def test_matches_dense_oracle(self, name, seed):
        X = load_dataset(name, n=500, seed=seed)
        tree = _tree_over(X)
        core = core_distances(tree, X, 5)
        got = mutual_reachability_mst_boruvka(X, core, tree=tree)
        np.testing.assert_array_equal(
            _normalised_edges(got), _dense_strict_mst(X, core)
        )

    def test_power_of_two_lattice_with_duplicates(self):
        g = np.arange(8) * 0.25
        lattice = np.array(np.meshgrid(g, g)).reshape(2, -1).T
        X = np.vstack([lattice, lattice[::3]])
        tree = _tree_over(X)
        core = core_distances(tree, X, 4)
        got = mutual_reachability_mst_boruvka(X, core, tree=tree)
        np.testing.assert_array_equal(
            _normalised_edges(got), _dense_strict_mst(X, core)
        )

    def test_radius_pad_reaches_the_boundary_edge(self):
        # Points 0 and 1 sit at squared distance D with fl(r*r) < D for
        # r = fl(sqrt(D)); every core is r, so all three edges weigh r and
        # the strict order keeps (0, 1).  A search launched at exactly r
        # misses point 1 from point 0 (and 0 from 1) while the midpoint 2
        # is hit, which would pick (1, 2) in place of (0, 1).
        X = np.array([[0.0, 0.0], [1.0, 0.6369616873214543], [0.5, 0.3]])
        d2 = float(np.einsum("ij,ij->i", X[1:2], X[1:2])[0])
        r = np.sqrt(d2)
        assert r * r < d2
        core = np.full(3, r)
        got = mutual_reachability_mst_boruvka(X, core)
        np.testing.assert_array_equal(
            _normalised_edges(got), [[r, 0.0, 1.0], [r, 0.0, 2.0]]
        )
        np.testing.assert_array_equal(
            _normalised_edges(got), _dense_strict_mst(X, core)
        )


def _lattice(side, d, spacing=0.25):
    g = np.arange(side) * spacing
    return np.stack(np.meshgrid(*([g] * d)), axis=-1).reshape(-1, d)


class TestSeededBounds:
    """Each round's leaf-order seeds start every component at a finite,
    exact upper bound, and the searches launched at those bounds keep the
    strict-order MST on inputs where every weight ties."""

    CASES = {
        # power-of-two spacing: every lattice distance is exact, so edge
        # weights tie everywhere, with and without core distances
        "lattice2d-core": (_lattice(9, 2), 4),
        "lattice2d-zero-core": (_lattice(9, 2), 0),
        "lattice3d-core": (_lattice(5, 3), 5),
        # every point three times: zero cores, zero-weight edges, and
        # cross-component seeds at distance 0
        "duplicates": (np.repeat(_lattice(6, 2, 0.5), 3, axis=0), 3),
        "duplicates-mixed": (
            np.vstack([_lattice(7, 2), _lattice(7, 2)[::4], np.zeros((6, 2))]),
            4,
        ),
    }

    @pytest.mark.parametrize("chunk_size", [None, 97])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_dense_oracle(self, case, chunk_size):
        X, minpts = self.CASES[case]
        tree = _tree_over(X)
        core = core_distances(tree, X, minpts) if minpts else np.zeros(len(X))
        got = mutual_reachability_mst_boruvka(
            X, core, tree=tree, chunk_size=chunk_size
        )
        np.testing.assert_array_equal(
            _normalised_edges(got), _dense_strict_mst(X, core)
        )

    def test_seeds_counted_in_the_mst_launch(self, rng):
        X = _clustered(rng, 200)
        dev = Device()
        tree = _tree_over(X, device=dev)
        core = core_distances(tree, X, 5)
        mutual_reachability_mst_boruvka(X, core, tree=tree, device=dev)
        prof = dev.profile()
        own = prof["boruvka_mst"]["counters"]["distance_evals"]
        nested = prof["boruvka_nn"]["counters"]["distance_evals"]
        # the launch's own tests are the seeds: at most two per point per round
        rounds = dev.counters.snapshot()["boruvka_rounds"]
        assert 0 < own - nested <= 2 * len(X) * rounds


class TestValidationAndEdges:
    def test_empty_and_single_point(self):
        out = mutual_reachability_mst_boruvka(
            np.zeros((1, 2)), np.zeros(1)
        )
        assert out.shape == (0, 3)

    def test_two_points(self):
        X = np.array([[0.0, 0.0], [3.0, 4.0]])
        out = mutual_reachability_mst_boruvka(X, np.zeros(2))
        assert out.shape == (1, 3)
        assert out[0, 2] == 5.0

    def test_core_dist_shape_checked(self, rng):
        X = rng.normal(size=(10, 2))
        with pytest.raises(ValueError, match="core_dist"):
            mutual_reachability_mst_boruvka(X, np.zeros(9))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_core_dist_values_checked(self, rng, bad):
        # a NaN core used to close a "cycle", an infinite one tripped the
        # traversal's per-query eps check, and a negative one was accepted
        X = rng.normal(size=(10, 2))
        core = np.zeros(10)
        core[3] = bad
        with pytest.raises(ValueError, match="core_dist"):
            mutual_reachability_mst_boruvka(X, core)

    def test_tree_primitive_count_checked(self, rng):
        X = rng.normal(size=(10, 2))
        wrong = _tree_over(X[:6])
        with pytest.raises(ValueError, match="primitives"):
            mutual_reachability_mst_boruvka(X, np.zeros(10), tree=wrong)

    def test_mst_algorithms_registry(self):
        assert set(MST_ALGORITHMS) == {"boruvka", "prim"}

    def test_unknown_mst_algorithm_raises(self, rng):
        X = rng.normal(size=(30, 2))
        with pytest.raises(ValueError, match="mst_algorithm"):
            hdbscan(X, min_cluster_size=3, mst_algorithm="kruskal")


class TestPruning:
    def test_distance_evals_fraction_of_prim(self, rng):
        n = 600
        X = _clustered(rng, n)
        dev = Device()
        tree = _tree_over(X, device=dev)
        core = core_distances(tree, X, 5, device=dev)
        mutual_reachability_mst_boruvka(X, core, tree=tree, device=dev)
        evals = dev.profile()["boruvka_nn"]["counters"]["distance_evals"]
        assert evals <= 0.25 * n * (n - 1)

    def test_rounds_logarithmic(self, rng):
        X = _clustered(rng, 256)
        dev = Device()
        tree = _tree_over(X, device=dev)
        core = core_distances(tree, X, 5, device=dev)
        mutual_reachability_mst_boruvka(X, core, tree=tree, device=dev)
        rounds = dev.counters.snapshot()["boruvka_rounds"]
        # components at least halve per round
        assert 1 <= rounds <= int(np.log2(256)) + 2
        assert dev.profile()["boruvka_mst"]["steps"] == rounds

    @pytest.mark.parametrize("min_samples", [5, 50])
    def test_one_launch_per_round(self, min_samples):
        # each round is one boruvka_nn launch at the component bounds
        X = load_dataset("ngsim", n=1500, seed=0)
        dev = Device()
        tree = _tree_over(X, device=dev)
        core = core_distances(tree, X, min_samples, device=dev)
        mutual_reachability_mst_boruvka(X, core, tree=tree, device=dev)
        rounds = dev.counters.snapshot()["boruvka_rounds"]
        assert dev.profile()["boruvka_nn"]["launches"] == rounds

    def test_masked_traversal_skips_same_component(self, rng):
        # a single well-separated pair of blobs: after round one, every
        # in-blob subtree is uniform and the second round's traversal
        # must not pay distance tests for it
        X = np.vstack(
            [rng.normal((0, 0), 0.05, (64, 2)), rng.normal((9, 9), 0.05, (64, 2))]
        )
        ref, got = _both_msts(X, 5)
        np.testing.assert_array_equal(np.sort(got[:, 2]), np.sort(ref[:, 2]))


class TestHelpers:
    def test_refresh_node_components(self, rng):
        X = rng.uniform(0, 1, (32, 2))
        tree = _tree_over(X)
        node_comp = np.empty(tree.node_lo.shape[0], dtype=np.int64)
        # all one component: every node summarises to it
        refresh_node_components(tree, np.zeros(32, dtype=np.int64), node_comp)
        assert np.all(node_comp == 0)
        # all distinct: every internal node (>= 2 leaves) is mixed
        comp = np.arange(32, dtype=np.int64)
        refresh_node_components(tree, comp, node_comp)
        np.testing.assert_array_equal(
            node_comp[tree.n_internal:], comp[tree.order]
        )
        assert np.all(node_comp[: tree.n_internal] == -1)


class TestPipelineIntegration:
    def test_hdbscan_engines_agree(self, rng):
        X = _clustered(rng, 200, n_blobs=3)
        fast = hdbscan(X, min_cluster_size=10)
        ref = hdbscan(X, min_cluster_size=10, mst_algorithm="prim")
        assert fast.info["mst_algorithm"] == "boruvka"
        assert ref.info["mst_algorithm"] == "prim"
        everyone = np.ones(X.shape[0], dtype=bool)
        assert partitions_equal(fast.labels, ref.labels, everyone)
        np.testing.assert_allclose(fast.probabilities, ref.probabilities)

    def test_hdbscan_traversal_invariance(self):
        # chunk_size slices the core-distance kNN and Borůvka traversals;
        # every chunking yields the same core distances and MST, hence
        # the same hierarchy
        X = load_dataset("ngsim", n=300, seed=2)
        tree = _tree_over(X)
        core = core_distances(tree, X, 5)
        np.testing.assert_array_equal(knn_radii(tree, X, 5, chunk_size=7), core)
        base = mutual_reachability_mst_boruvka(X, core, tree=tree)
        got = mutual_reachability_mst_boruvka(X, core, tree=tree, chunk_size=7)
        np.testing.assert_array_equal(_normalised_edges(got), _normalised_edges(base))

    def test_dbscan_star_cut_engines_agree(self, rng):
        X = _clustered(rng, 160)
        fast = dbscan_star_cut(X, 0.6, 5)
        ref = dbscan_star_cut(X, 0.6, 5, mst_algorithm="prim")
        np.testing.assert_array_equal(fast, ref)
