"""Tests for the clustering-agreement scores (Rand / ARI / pair P-R)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.metrics.scores import (
    adjusted_rand_index,
    contingency_table,
    pair_confusion,
    pair_precision_recall,
    rand_index,
)

label_arrays = hnp.arrays(
    dtype=np.int64, shape=st.integers(2, 40), elements=st.integers(-1, 4)
)


class TestContingency:
    def test_basic(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([0, 1, 1, 1])
        table = contingency_table(a, b)
        np.testing.assert_array_equal(table, [[1, 1], [0, 2]])

    def test_noise_as_singletons(self):
        a = np.array([-1, -1])
        table = contingency_table(a, a)
        # each noise point its own cluster: identity 2x2
        np.testing.assert_array_equal(table, np.eye(2, dtype=np.int64))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            contingency_table(np.array([0]), np.array([0, 1]))


class TestRand:
    def test_identical_is_one(self):
        a = np.array([0, 0, 1, 1, -1])
        assert rand_index(a, a) == 1.0
        assert adjusted_rand_index(a, a) == 1.0

    def test_permutation_invariant(self):
        a = np.array([0, 0, 1, 1, 2])
        b = np.array([2, 2, 0, 0, 1])
        assert adjusted_rand_index(a, b) == 1.0

    def test_known_value(self):
        # classic example: ARI of these two labelings is 0.24242...
        a = np.array([0, 0, 0, 1, 1, 1])
        b = np.array([0, 0, 1, 1, 2, 2])
        assert adjusted_rand_index(a, b) == pytest.approx(0.24242424, abs=1e-6)

    def test_opposite_split_near_zero_or_negative(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([0, 1, 0, 1])
        assert adjusted_rand_index(a, b) <= 0.0

    def test_single_point(self):
        assert adjusted_rand_index(np.array([0]), np.array([5])) == 1.0

    def test_all_singletons_vs_one_cluster(self):
        a = np.array([0, 1, 2, 3])
        b = np.array([0, 0, 0, 0])
        assert adjusted_rand_index(a, b) == 0.0
        assert rand_index(a, b) == 0.0  # all 6 pairs disagree

    @given(label_arrays)
    @settings(max_examples=60, deadline=None)
    def test_ari_bounds_and_self_identity(self, labels):
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)
        other = np.roll(labels, 1)
        ari = adjusted_rand_index(labels, other)
        assert -1.0 <= ari <= 1.0 + 1e-12

    @given(label_arrays, st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, labels, seed):
        rng = np.random.default_rng(seed)
        other = rng.integers(-1, 3, size=labels.shape[0])
        assert adjusted_rand_index(labels, other) == pytest.approx(
            adjusted_rand_index(other, labels)
        )
        assert rand_index(labels, other) == pytest.approx(rand_index(other, labels))


class TestPairCounting:
    def test_confusion_sums_to_total_pairs(self):
        a = np.array([0, 0, 1, -1, 1])
        b = np.array([1, 0, 1, 1, 1])
        pc = pair_confusion(a, b)
        n = 5
        assert sum(pc.values()) == n * (n - 1) // 2

    def test_precision_recall_identical(self):
        a = np.array([0, 0, 1, 1])
        p, r = pair_precision_recall(a, a)
        assert p == r == 1.0

    def test_precision_recall_refinement(self):
        # prediction splits the true cluster: precision 1, recall < 1
        truth = np.array([0, 0, 0, 0])
        pred = np.array([0, 0, 1, 1])
        p, r = pair_precision_recall(pred, truth)
        assert p == 1.0
        assert r == pytest.approx(2 / 6)

    def test_precision_recall_coarsening(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.array([0, 0, 0, 0])
        p, r = pair_precision_recall(pred, truth)
        assert p == pytest.approx(2 / 6)
        assert r == 1.0

    def test_all_singletons_degenerate(self):
        a = np.array([-1, -1, -1])
        p, r = pair_precision_recall(a, a)
        assert p == r == 1.0


class TestNoiseMemory:
    def test_all_noise_scores_stay_linear(self):
        # Noise points are singleton clusters, so a dense contingency table
        # over 5,000 noise points would be 5,000 x 5,000 int64 (200 MB).
        labels = np.full(5000, -1, dtype=np.int64)
        tracemalloc.start()
        try:
            ari = adjusted_rand_index(labels, labels)
            ri = rand_index(labels, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ari == 1.0 and ri == 1.0
        assert peak < 10 * 2**20


class TestOnRealClusterings:
    def test_dbscan_outputs_score_high(self, blobs_2d):
        from repro import dbscan

        a = dbscan(blobs_2d, 0.3, 5, algorithm="fdbscan")
        b = dbscan(blobs_2d, 0.3, 5, algorithm="gdbscan")
        # DBSCAN-equivalent results may differ only on border points;
        # ARI must be essentially 1.
        assert adjusted_rand_index(a.labels, b.labels) > 0.99

    def test_different_parameters_score_lower(self, blobs_2d):
        from repro import dbscan

        a = dbscan(blobs_2d, 0.3, 5, algorithm="fdbscan")
        b = dbscan(blobs_2d, 5.0, 2, algorithm="fdbscan")  # everything merges
        assert adjusted_rand_index(a.labels, b.labels) < 0.9
