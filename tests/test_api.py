"""Tests for the public API: dbscan(), the DBSCAN estimator, the
algorithm registry, and the auto-switch heuristic."""

import numpy as np
import pytest

from repro import DBSCAN, choose_algorithm, dbscan, dense_fraction_estimate
from repro.core.api import AUTO_DENSE_FRACTION_THRESHOLD
from repro.metrics.equivalence import assert_dbscan_equivalent


ALL_ALGORITHMS = [
    "fdbscan",
    "fdbscan-densebox",
    "densebox",
    "gdbscan",
    "cuda-dclust",
    "dsdbscan",
    "sequential",
    "brute",
]


class TestDbscanFunction:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_registry_names_all_work(self, blobs_2d, algorithm):
        res = dbscan(blobs_2d, 0.3, 5, algorithm=algorithm)
        assert res.labels.shape == (blobs_2d.shape[0],)

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_all_algorithms_equivalent(self, blobs_2d, algorithm):
        base = dbscan(blobs_2d, 0.3, 5, algorithm="sequential")
        res = dbscan(blobs_2d, 0.3, 5, algorithm=algorithm)
        assert_dbscan_equivalent(base, res, blobs_2d, 0.3)

    def test_case_insensitive(self, blobs_2d):
        res = dbscan(blobs_2d, 0.3, 5, algorithm="FDBSCAN")
        assert res.n_clusters >= 1

    def test_unknown_algorithm(self, blobs_2d):
        with pytest.raises(ValueError, match="unknown algorithm"):
            dbscan(blobs_2d, 0.3, 5, algorithm="kmeans")

    def test_kwargs_forwarded(self, blobs_2d):
        res = dbscan(blobs_2d, 0.3, 5, algorithm="fdbscan", use_mask=False)
        assert res.n_clusters >= 1

    def test_auto_runs(self, blobs_2d):
        res = dbscan(blobs_2d, 0.3, 5, algorithm="auto")
        base = dbscan(blobs_2d, 0.3, 5, algorithm="sequential")
        assert_dbscan_equivalent(base, res, blobs_2d, 0.3)


class TestAutoHeuristic:
    def test_dense_data_picks_densebox(self, rng):
        X = rng.normal(0, 0.01, size=(500, 2))
        assert choose_algorithm(X, 0.2, 10) == "fdbscan-densebox"

    def test_sparse_data_picks_fdbscan(self, rng):
        X = rng.uniform(0, 100, size=(500, 2))
        assert choose_algorithm(X, 0.2, 10) == "fdbscan"

    def test_fraction_estimate_bounds(self, blobs_2d):
        frac = dense_fraction_estimate(blobs_2d, 0.3, 5)
        assert 0.0 <= frac <= 1.0

    def test_fraction_monotone_in_minpts(self, blobs_2d):
        f_small = dense_fraction_estimate(blobs_2d, 0.3, 2)
        f_large = dense_fraction_estimate(blobs_2d, 0.3, 50)
        assert f_small >= f_large

    def test_threshold_is_the_decision_boundary(self, rng, monkeypatch):
        X = rng.uniform(0, 1, size=(50, 2))
        import repro.core.api as api

        monkeypatch.setattr(api, "dense_fraction_estimate", lambda *a: AUTO_DENSE_FRACTION_THRESHOLD)
        assert api.choose_algorithm(X, 0.1, 5) == "fdbscan-densebox"
        monkeypatch.setattr(
            api, "dense_fraction_estimate", lambda *a: AUTO_DENSE_FRACTION_THRESHOLD - 1e-9
        )
        assert api.choose_algorithm(X, 0.1, 5) == "fdbscan"


class TestEstimator:
    def test_fit_sets_sklearn_attributes(self, blobs_2d):
        model = DBSCAN(eps=0.3, min_samples=5).fit(blobs_2d)
        assert model.labels_.shape == (blobs_2d.shape[0],)
        assert model.n_clusters_ >= 1
        assert model.core_sample_indices_.ndim == 1
        assert model.components_.shape[0] == model.core_sample_indices_.shape[0]
        np.testing.assert_array_equal(
            model.components_, blobs_2d[model.core_sample_indices_]
        )

    def test_fit_predict(self, blobs_2d):
        labels = DBSCAN(eps=0.3, min_samples=5).fit_predict(blobs_2d)
        np.testing.assert_array_equal(
            labels, DBSCAN(eps=0.3, min_samples=5).fit(blobs_2d).labels_
        )

    def test_docstring_example(self):
        X = np.array([[0.0, 0.0], [0.0, 0.1], [0.1, 0.0], [5.0, 5.0]])
        model = DBSCAN(eps=0.3, min_samples=3).fit(X)
        np.testing.assert_array_equal(model.labels_, [0, 0, 0, -1])

    def test_estimator_forwards_algorithm(self, blobs_2d):
        a = DBSCAN(eps=0.3, min_samples=5, algorithm="fdbscan").fit(blobs_2d)
        b = DBSCAN(eps=0.3, min_samples=5, algorithm="sequential").fit(blobs_2d)
        assert_dbscan_equivalent(a.result_, b.result_, blobs_2d, 0.3)
