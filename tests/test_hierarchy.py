"""Tests for the HDBSCAN pipeline: kNN core distances, mutual-reachability
MST, dendrogram, condensed tree, EOM extraction — and the DBSCAN* cut
cross-validation against the flat implementation."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.bvh.aabb import boxes_from_points
from repro.bvh.builder import build_bvh
from repro.bvh.knn import core_distances, knn_radii
from repro.core.dbscan_star import dbscan_star
from repro.hierarchy import (
    condense_dendrogram,
    dbscan_star_cut,
    extract_eom_clusters,
    hdbscan,
    mutual_reachability_mst,
    single_linkage_dendrogram,
)
from repro.hierarchy.condense import cluster_stabilities
from repro.metrics import partitions_equal


def _tree_over(pts):
    lo, hi = boxes_from_points(pts)
    return build_bvh(lo, hi)


def _mutual_reachability_matrix(X, core):
    diff = X[:, None] - X[None, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return np.maximum(dist, np.maximum(core[:, None], core[None, :]))


class TestKnn:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_matches_kdtree(self, rng, d, k):
        X = rng.uniform(0, 1, size=(300, d))
        tree = _tree_over(X)
        got = knn_radii(tree, X, k)
        ref = cKDTree(X).query(X, k=k)[0]
        ref = ref if k == 1 else ref[:, -1]
        np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_external_queries(self, rng):
        X = rng.uniform(0, 1, size=(200, 2))
        Q = rng.uniform(-0.5, 1.5, size=(50, 2))
        tree = _tree_over(X)
        got = knn_radii(tree, Q, 5)
        ref = cKDTree(X).query(Q, k=5)[0][:, -1]
        np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_k_equals_n(self, rng):
        X = rng.uniform(0, 1, size=(20, 2))
        tree = _tree_over(X)
        got = knn_radii(tree, X, 20)
        ref = cKDTree(X).query(X, k=20)[0][:, -1]
        np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_clustered_data(self, rng):
        # radius doubling must converge even with wildly varying density
        X = np.concatenate(
            [rng.normal(0, 0.001, size=(100, 2)), rng.uniform(0, 100, size=(100, 2))]
        )
        tree = _tree_over(X)
        got = knn_radii(tree, X, 7)
        ref = cKDTree(X).query(X, k=7)[0][:, -1]
        np.testing.assert_allclose(got, ref, atol=1e-9)

    def test_k_validation(self, rng):
        X = rng.uniform(0, 1, size=(10, 2))
        tree = _tree_over(X)
        with pytest.raises(ValueError, match="k"):
            knn_radii(tree, X, 0)
        with pytest.raises(ValueError, match="exceeds"):
            knn_radii(tree, X, 11)

    def test_core_distance_self_counts(self, rng):
        # min_samples=1: core distance is 0 (the point itself)
        X = rng.uniform(0, 1, size=(30, 2))
        tree = _tree_over(X)
        np.testing.assert_allclose(core_distances(tree, X, 1), 0.0, atol=1e-15)

    def test_duplicates(self):
        X = np.zeros((10, 2))
        tree = _tree_over(X)
        np.testing.assert_allclose(knn_radii(tree, X, 10), 0.0)

    @given(st.integers(0, 3000), st.integers(1, 12))
    @settings(max_examples=20, deadline=None)
    def test_knn_property(self, seed, k):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, size=(rng.integers(k, 120), 2))
        tree = _tree_over(X)
        got = knn_radii(tree, X, k)
        ref = cKDTree(X).query(X, k=k)[0]
        ref = ref if k == 1 else ref[:, -1]
        np.testing.assert_allclose(got, ref, atol=1e-12)


class TestMst:
    def test_weight_matches_networkx(self, rng):
        X = rng.uniform(0, 1, size=(60, 2))
        tree = _tree_over(X)
        core = core_distances(tree, X, 4)
        mst = mutual_reachability_mst(X, core)
        mreach = _mutual_reachability_matrix(X, core)
        G = nx.from_numpy_array(mreach)
        ref = nx.minimum_spanning_tree(G)
        ref_weight = sum(d["weight"] for _, _, d in ref.edges(data=True))
        assert mst[:, 2].sum() == pytest.approx(ref_weight)

    def test_edges_sorted_and_spanning(self, rng):
        X = rng.uniform(0, 1, size=(80, 2))
        core = np.zeros(80)
        mst = mutual_reachability_mst(X, core)
        assert mst.shape == (79, 3)
        assert np.all(np.diff(mst[:, 2]) >= 0)
        G = nx.Graph()
        G.add_edges_from((int(a), int(b)) for a, b, _ in mst)
        assert nx.is_connected(G)
        assert G.number_of_nodes() == 80

    def test_zero_core_equals_euclidean_mst(self, rng):
        X = rng.uniform(0, 1, size=(40, 2))
        mst = mutual_reachability_mst(X, np.zeros(40))
        diff = X[:, None] - X[None, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        ref = nx.minimum_spanning_tree(nx.from_numpy_array(dist))
        ref_weight = sum(d["weight"] for _, _, d in ref.edges(data=True))
        assert mst[:, 2].sum() == pytest.approx(ref_weight)

    def test_single_point(self):
        assert mutual_reachability_mst(np.zeros((1, 2)), np.zeros(1)).shape == (0, 3)

    def test_core_dist_shape_checked(self, rng):
        with pytest.raises(ValueError, match="core_dist"):
            mutual_reachability_mst(rng.uniform(size=(5, 2)), np.zeros(4))


class TestDendrogram:
    def test_linkage_layout(self, rng):
        X = rng.uniform(0, 1, size=(30, 2))
        mst = mutual_reachability_mst(X, np.zeros(30))
        Z = single_linkage_dendrogram(mst, 30)
        assert Z.shape == (29, 4)
        assert Z[-1, 3] == 30  # final merge holds everything
        assert np.all(np.diff(Z[:, 2]) >= 0)  # heights ascend

    def test_sizes_consistent(self, rng):
        X = rng.uniform(0, 1, size=(25, 2))
        mst = mutual_reachability_mst(X, np.zeros(25))
        Z = single_linkage_dendrogram(mst, 25)
        n = 25

        def size_of(node):
            return 1 if node < n else int(Z[int(node) - n, 3])

        for i in range(n - 1):
            assert Z[i, 3] == size_of(Z[i, 0]) + size_of(Z[i, 1])

    def test_edge_count_checked(self):
        with pytest.raises(ValueError, match="MST edges"):
            single_linkage_dendrogram(np.zeros((3, 3)), 3)


class TestCondensedTree:
    def _tree(self, rng, mcs=10):
        X = np.concatenate(
            [rng.normal(0, 0.05, size=(80, 2)), rng.normal(3, 0.05, size=(80, 2))]
        )
        mst = mutual_reachability_mst(X, np.zeros(X.shape[0]))
        Z = single_linkage_dendrogram(mst, X.shape[0])
        return condense_dendrogram(Z, X.shape[0], min_cluster_size=mcs), X.shape[0]

    def test_every_point_falls_out_once(self, rng):
        tree, n = self._tree(rng)
        point_rows = tree.child < n
        np.testing.assert_array_equal(
            np.sort(tree.child[point_rows]), np.arange(n)
        )

    def test_two_blobs_two_leaf_clusters(self, rng):
        tree, n = self._tree(rng)
        # root (= id n) splits into exactly two condensed clusters
        assert tree.children_of(n).shape == (2,)

    def test_cluster_sizes_recorded(self, rng):
        tree, n = self._tree(rng)
        for child in tree.children_of(n):
            row = tree.child == child
            assert tree.size[row][0] == 80

    def test_lambdas_positive(self, rng):
        tree, _ = self._tree(rng)
        assert (tree.lambda_val > 0).all()

    def test_min_cluster_size_validation(self, rng):
        tree, n = self._tree(rng)
        with pytest.raises(ValueError, match="min_cluster_size"):
            condense_dendrogram(np.zeros((1, 4)), 2, min_cluster_size=1)

    def test_stabilities_nonnegative(self, rng):
        tree, _ = self._tree(rng)
        stabilities = cluster_stabilities(tree)
        assert all(v >= -1e-9 for v in stabilities.values())

    def test_eom_selects_the_blobs(self, rng):
        tree, n = self._tree(rng)
        chosen, _ = extract_eom_clusters(tree)
        assert len(chosen) == 2
        assert n not in chosen  # root excluded

    def test_allow_single_cluster(self, rng):
        # A single Gaussian: without the flag the root is excluded and the
        # pipeline still picks something sensible below it; with the flag
        # the root may win.
        X = rng.normal(0, 0.1, size=(120, 2))
        mst = mutual_reachability_mst(X, np.zeros(120))
        Z = single_linkage_dendrogram(mst, 120)
        tree = condense_dendrogram(Z, 120, min_cluster_size=10)
        chosen_root_ok, _ = extract_eom_clusters(tree, allow_single_cluster=True)
        assert chosen_root_ok  # something is selected


class TestHdbscan:
    def test_finds_well_separated_blobs(self, rng):
        X = np.concatenate(
            [
                rng.normal(0, 0.08, size=(150, 2)),
                rng.normal(2, 0.08, size=(120, 2)),
                rng.normal((0, 2), 0.08, size=(130, 2)),
                rng.uniform(-1, 3, size=(50, 2)),
            ]
        )
        res = hdbscan(X, min_cluster_size=15)
        assert res.n_clusters == 3
        # each blob is (mostly) one cluster
        for start, count in ((0, 150), (150, 120), (270, 130)):
            blob_labels = res.labels[start : start + count]
            values, counts = np.unique(blob_labels[blob_labels >= 0], return_counts=True)
            assert counts.max() > 0.9 * count

    def test_varying_density_blobs(self, rng):
        # HDBSCAN's selling point over flat DBSCAN: clusters of different
        # densities are found simultaneously.
        X = np.concatenate(
            [rng.normal(0, 0.02, size=(150, 2)), rng.normal(3, 0.4, size=(150, 2))]
        )
        res = hdbscan(X, min_cluster_size=20)
        assert res.n_clusters == 2

    def test_probabilities_bounds(self, rng):
        X = rng.normal(0, 0.1, size=(100, 2))
        res = hdbscan(X, min_cluster_size=10, allow_single_cluster=True)
        assert (res.probabilities >= 0).all()
        assert (res.probabilities <= 1).all()
        assert (res.probabilities[res.labels == -1] == 0).all()

    def test_3d(self, blobs_3d):
        res = hdbscan(blobs_3d, min_cluster_size=20)
        assert res.n_clusters == 3

    def test_rings(self):
        from repro.datasets import noisy_rings

        X = noisy_rings(600, rings=2, radius_step=1.5, noise=0.02, seed=5)
        res = hdbscan(X, min_cluster_size=25)
        assert res.n_clusters == 2

    def test_validation(self, rng):
        X = rng.uniform(size=(30, 2))
        with pytest.raises(ValueError, match="min_cluster_size"):
            hdbscan(X, min_cluster_size=1)
        with pytest.raises(ValueError, match="exceeds"):
            hdbscan(X, min_cluster_size=5, min_samples=31)

    def test_info_timings(self, rng):
        X = rng.uniform(size=(60, 2))
        res = hdbscan(X, min_cluster_size=5)
        assert {"t_core", "t_mst", "t_extract"} <= set(res.info)
        tail = ("t_dendrogram", "t_condense", "t_select")
        assert all(res.info[key] >= 0 for key in tail)
        assert res.info["t_dendrogram"] <= res.info["t_mst"]
        assert res.info["t_condense"] + res.info["t_select"] <= res.info["t_extract"]


class TestDbscanStarCut:
    """The hierarchy cut must equal the flat DBSCAN* exactly — two utterly
    different computations of the same mathematical object."""

    @pytest.mark.parametrize("eps,minpts", [(0.25, 5), (0.3, 10), (0.15, 3), (0.5, 2)])
    def test_matches_flat_dbscan_star(self, blobs_2d, eps, minpts):
        cut = dbscan_star_cut(blobs_2d, eps, minpts)
        flat = dbscan_star(blobs_2d, eps, minpts, algorithm="fdbscan")
        np.testing.assert_array_equal(cut == -1, flat.labels == -1)
        assert partitions_equal(cut, flat.labels, cut >= 0)

    @given(st.integers(0, 3000), st.floats(0.05, 0.6), st.integers(2, 10))
    @settings(max_examples=20, deadline=None)
    def test_cut_property(self, seed, eps, minpts):
        rng = np.random.default_rng(seed)
        X = np.concatenate(
            [
                rng.normal(0, 0.1, size=(rng.integers(10, 60), 2)),
                rng.uniform(-1, 2, size=(rng.integers(10, 60), 2)),
            ]
        )
        cut = dbscan_star_cut(X, eps, minpts)
        flat = dbscan_star(X, eps, minpts, algorithm="fdbscan")
        np.testing.assert_array_equal(cut == -1, flat.labels == -1)
        assert partitions_equal(cut, flat.labels, cut >= 0)


class TestHandComputedCondensation:
    """A 4-point dendrogram small enough to verify by hand:
    pairs (0,1) and (2,3) merge at distance 1, the pairs merge at 4."""

    def _z(self):
        return np.array(
            [
                [0.0, 1.0, 1.0, 2.0],
                [2.0, 3.0, 1.0, 2.0],
                [4.0, 5.0, 4.0, 4.0],
            ]
        )

    def test_condensed_rows(self):
        tree = condense_dendrogram(self._z(), 4, min_cluster_size=2)
        # root (id 4) splits into two clusters of size 2 at lambda 1/4
        cluster_rows = tree.child >= 4
        np.testing.assert_array_equal(np.sort(tree.child[cluster_rows]), [5, 6])
        np.testing.assert_allclose(tree.lambda_val[cluster_rows], 0.25)
        np.testing.assert_array_equal(tree.size[cluster_rows], [2, 2])
        # each point falls out of its cluster at lambda 1
        point_rows = tree.child < 4
        np.testing.assert_allclose(tree.lambda_val[point_rows], 1.0)
        assert sorted(tree.child[point_rows].tolist()) == [0, 1, 2, 3]

    def test_hand_computed_stabilities(self):
        tree = condense_dendrogram(self._z(), 4, min_cluster_size=2)
        stability = cluster_stabilities(tree)
        # root: two clusters of 2 leave at lambda 0.25, born at 0 -> 1.0
        assert stability[4] == pytest.approx(1.0)
        # leaves: two points each leave at 1.0, born at 0.25 -> 1.5
        assert stability[5] == pytest.approx(1.5)
        assert stability[6] == pytest.approx(1.5)

    def test_hand_computed_selection(self):
        tree = condense_dendrogram(self._z(), 4, min_cluster_size=2)
        chosen, _ = extract_eom_clusters(tree)
        assert sorted(chosen) == [5, 6]

    def test_root_wins_when_children_weak(self):
        # Merge the pairs barely later than they form: child stabilities
        # shrink, the root would win — but stays excluded by default.
        Z = np.array(
            [
                [0.0, 1.0, 1.0, 2.0],
                [2.0, 3.0, 1.0, 2.0],
                [4.0, 5.0, 1.05, 4.0],
            ]
        )
        tree = condense_dendrogram(Z, 4, min_cluster_size=2)
        chosen_default, _ = extract_eom_clusters(tree)
        assert 4 not in chosen_default
        chosen_single, _ = extract_eom_clusters(tree, allow_single_cluster=True)
        assert chosen_single == [4]
