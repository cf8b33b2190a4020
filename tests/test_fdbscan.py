"""Algorithm-level tests for FDBSCAN against the sequential oracle."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.baselines.sequential_dbscan import sequential_dbscan
from repro.bvh.aabb import boxes_from_points
from repro.bvh.builder import build_bvh
from repro.bvh.traversal import for_each_leaf_hit
from repro.core.fdbscan import fdbscan
from repro.device.device import Device
from repro.metrics.equivalence import assert_dbscan_equivalent


class TestAgainstOracle:
    @pytest.mark.parametrize("minpts", [3, 5, 10])
    @pytest.mark.parametrize("eps", [0.15, 0.3, 0.6])
    def test_blobs_2d(self, blobs_2d, eps, minpts):
        a = fdbscan(blobs_2d, eps, minpts)
        b = sequential_dbscan(blobs_2d, eps, minpts)
        assert_dbscan_equivalent(a, b, blobs_2d, eps)

    @pytest.mark.parametrize("minpts", [4, 8])
    def test_blobs_3d(self, blobs_3d, minpts):
        a = fdbscan(blobs_3d, 0.5, minpts)
        b = sequential_dbscan(blobs_3d, 0.5, minpts)
        assert_dbscan_equivalent(a, b, blobs_3d, 0.5)

    def test_1d_data(self, rng):
        X = np.sort(rng.uniform(0, 10, size=(300, 1)), axis=0)
        a = fdbscan(X, 0.05, 4)
        b = sequential_dbscan(X, 0.05, 4)
        assert_dbscan_equivalent(a, b, X, 0.05)

    @pytest.mark.parametrize("use_mask", [True, False])
    @pytest.mark.parametrize("early_exit", [True, False])
    def test_optimisation_switches_do_not_change_output(
        self, blobs_2d, use_mask, early_exit
    ):
        a = fdbscan(blobs_2d, 0.3, 6, use_mask=use_mask, early_exit=early_exit)
        b = sequential_dbscan(blobs_2d, 0.3, 6)
        assert_dbscan_equivalent(a, b, blobs_2d, 0.3)


class TestSpecialRegimes:
    def test_minpts_2_friends_of_friends(self, blobs_2d):
        a = fdbscan(blobs_2d, 0.25, 2)
        b = sequential_dbscan(blobs_2d, 0.25, 2)
        assert_dbscan_equivalent(a, b, blobs_2d, 0.25)
        # minpts=2: no border points can exist
        assert a.n_border == 0

    def test_minpts_2_skips_preprocessing(self, blobs_2d):
        dev = Device()
        fdbscan(blobs_2d, 0.25, 2, device=dev)
        assert not any(l.name == "bvh_count" for l in dev.launches)

    def test_minpts_1_everything_core(self, blobs_2d):
        res = fdbscan(blobs_2d, 0.2, 1)
        assert res.is_core.all()
        assert res.n_noise == 0

    def test_huge_minpts_everything_noise(self, blobs_2d):
        res = fdbscan(blobs_2d, 0.2, 10_000)
        assert res.n_clusters == 0
        assert res.n_noise == blobs_2d.shape[0]

    def test_tiny_eps_isolates_everything(self, rng):
        X = rng.uniform(0, 100, size=(200, 2))
        res = fdbscan(X, 1e-9, 2)
        assert res.n_clusters == 0

    def test_huge_eps_single_cluster(self, blobs_2d):
        res = fdbscan(blobs_2d, 1000.0, 5)
        assert res.n_clusters == 1
        assert res.n_noise == 0

    def test_all_duplicate_points(self):
        X = np.ones((40, 2))
        res = fdbscan(X, 0.1, 5)
        assert res.n_clusters == 1
        assert res.is_core.all()

    def test_single_point(self):
        res = fdbscan(np.zeros((1, 2)), 0.1, 1)
        assert res.n_clusters == 1
        res2 = fdbscan(np.zeros((1, 2)), 0.1, 2)
        assert res2.n_clusters == 0

    def test_two_points_within_eps(self):
        X = np.array([[0.0, 0.0], [0.05, 0.0]])
        res = fdbscan(X, 0.1, 2)
        assert res.n_clusters == 1
        np.testing.assert_array_equal(res.labels, [0, 0])

    def test_two_points_beyond_eps(self):
        X = np.array([[0.0, 0.0], [5.0, 0.0]])
        res = fdbscan(X, 0.1, 2)
        np.testing.assert_array_equal(res.labels, [-1, -1])


class TestDiagnostics:
    def test_info_fields(self, blobs_2d):
        res = fdbscan(blobs_2d, 0.3, 5)
        for key in ("t_build", "t_preprocess", "t_main", "t_finalize", "n", "eps"):
            assert key in res.info
        assert res.info["algorithm"] == "fdbscan"

    def test_core_counts_exposed_without_early_exit(self, blobs_2d):
        res = fdbscan(blobs_2d, 0.3, 5, early_exit=False)
        counts = res.info["core_counts"]
        assert counts.shape == (blobs_2d.shape[0],)
        np.testing.assert_array_equal(counts >= 5, res.is_core)

    def test_mask_halves_pairs_processed(self, blobs_2d):
        # With no component mask nothing is pruned: the leaf-index mask
        # streams every unordered pair once, the unmasked traversal once
        # from each end (plus each query's own leaf).
        tree = build_bvh(*boxes_from_points(blobs_2d))
        n_pairs = len(cKDTree(blobs_2d).query_pairs(0.3))
        streamed = {}
        for mask in (tree.position, None):
            seen = []

            def on_hits(q, leaf_pos, seen=seen):
                seen.append(np.count_nonzero(tree.order[leaf_pos] != q))

            for_each_leaf_hit(tree, blobs_2d, 0.3, on_hits, mask_positions=mask)
            streamed[mask is None] = sum(seen)
        assert streamed[False] == n_pairs
        assert streamed[False] * 2 == streamed[True]

    @pytest.mark.parametrize("use_mask", [True, False])
    def test_all_noise_fit_resolves_no_pair(self, blobs_2d, use_mask):
        # min_samples > n: every point is noise, so the main phase hands
        # the resolver no pair and its traversals visit no node.
        n = blobs_2d.shape[0]
        dev = Device()
        res = fdbscan(blobs_2d, 0.3, n + 1, device=dev, use_mask=use_mask)
        assert (res.labels == -1).all()
        assert dev.counters.pairs_processed == 0
        assert dev.profile()["fdbscan_main"]["counters"]["nodes_visited"] == 0

    def test_pruned_masked_pairs_within_unpruned_half(self, blobs_2d):
        # With core points the component mask skips pairs already joined,
        # so the masked main phase processes at most every unordered pair.
        dev = Device()
        fdbscan(blobs_2d, 0.3, 5, device=dev, use_mask=True)
        n_pairs = len(cKDTree(blobs_2d).query_pairs(0.3))
        assert dev.counters.pairs_processed <= n_pairs

    def test_memory_linear_tags(self, blobs_2d):
        dev = Device()
        fdbscan(blobs_2d, 0.3, 5, device=dev)
        report = dev.memory.report()
        assert report["peak_by_tag"]["bvh"] > 0
        assert report["peak_by_tag"]["labels"] == blobs_2d.shape[0] * 8
        # no adjacency graph is ever stored
        assert "adjacency" not in report["peak_by_tag"]

    def test_labels_contract(self, blobs_2d):
        res = fdbscan(blobs_2d, 0.3, 5)
        labels = res.labels
        assert labels.min() >= -1
        if res.n_clusters:
            assert set(labels[labels >= 0].tolist()) == set(range(res.n_clusters))


class TestValidation:
    def test_rejects_bad_eps(self, blobs_2d):
        for bad in (0, -1, np.nan, np.inf):
            with pytest.raises(ValueError):
                fdbscan(blobs_2d, bad, 5)

    def test_rejects_bad_minpts(self, blobs_2d):
        for bad in (0, -3, 2.5):
            with pytest.raises(ValueError):
                fdbscan(blobs_2d, 0.3, bad)

    def test_rejects_high_dim(self, rng):
        with pytest.raises(ValueError, match="d <= 3"):
            fdbscan(rng.uniform(size=(10, 4)), 0.3, 5)

    def test_rejects_nan_points(self):
        X = np.array([[0.0, np.nan]])
        with pytest.raises(ValueError, match="non-finite"):
            fdbscan(X, 0.3, 5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one point"):
            fdbscan(np.zeros((0, 2)), 0.3, 5)
