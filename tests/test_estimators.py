"""Conformance tests for the sklearn-compatible estimator facade.

Mirrors the shape of sklearn's own estimator checks at the scale this
repository needs: constructor discipline (store-only ``__init__``),
``get_params``/``set_params`` round-trips, fit-time validation with
sklearn's exact error wording, fitted-attribute contracts, and
``fit_predict`` parity — for both ``DBSCAN`` and ``HDBSCAN``.
"""

import re

import numpy as np
import pytest

from repro.core.api import dbscan as dbscan_fn
from repro.estimators import DBSCAN, HDBSCAN
from repro.hierarchy import hdbscan as hdbscan_fn
from repro.metrics import partitions_equal


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def blobs(rng):
    return np.vstack(
        [
            rng.normal((0, 0), 0.15, (60, 2)),
            rng.normal((4, 4), 0.15, (60, 2)),
            rng.normal((0, 4), 0.15, (60, 2)),
        ]
    )


def _raises_exact(estimator, X, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        estimator.fit(X)


class TestParamProtocol:
    """The BaseEstimator contract shared by both classes."""

    def test_init_stores_unvalidated(self):
        # sklearn discipline: __init__ must not validate or transform
        est = DBSCAN(eps=-3, min_samples="many")
        assert est.eps == -3
        assert est.min_samples == "many"

    def test_get_params_roundtrip(self):
        est = HDBSCAN(min_cluster_size=9, mst_algorithm="prim")
        params = est.get_params()
        assert params["min_cluster_size"] == 9
        assert params["mst_algorithm"] == "prim"
        clone = HDBSCAN(**params)
        assert clone.get_params() == params

    def test_set_params_returns_self(self):
        est = DBSCAN()
        assert est.set_params(eps=0.25) is est
        assert est.eps == 0.25

    def test_set_params_unknown_name(self):
        est = DBSCAN()
        with pytest.raises(ValueError, match=r"Invalid parameter 'gamma'"):
            est.set_params(gamma=1.0)

    def test_repr_lists_params(self):
        text = repr(DBSCAN(eps=0.125))
        assert text.startswith("DBSCAN(")
        assert "eps=0.125" in text

    def test_param_names_sorted(self):
        assert DBSCAN._get_param_names() == sorted(DBSCAN._get_param_names())


class TestDBSCANValidation:
    def test_eps_message(self, blobs):
        _raises_exact(
            DBSCAN(eps=0),
            blobs,
            "The 'eps' parameter of DBSCAN must be a float in the range "
            "(0.0, inf). Got 0 instead.",
        )

    def test_min_samples_message(self, blobs):
        _raises_exact(
            DBSCAN(min_samples=0),
            blobs,
            "The 'min_samples' parameter of DBSCAN must be an int in the "
            "range [1, inf). Got 0 instead.",
        )

    def test_metric_message(self, blobs):
        _raises_exact(
            DBSCAN(metric="manhattan"),
            blobs,
            "The 'metric' parameter of DBSCAN must be a str among "
            "{'euclidean'}. Got 'manhattan' instead.",
        )

    def test_unknown_algorithm(self, blobs):
        with pytest.raises(
            ValueError, match=r"The 'algorithm' parameter of DBSCAN"
        ):
            DBSCAN(algorithm="kd").fit(blobs)

    def test_validation_happens_at_fit_not_init(self):
        DBSCAN(eps=-1)  # must not raise


class TestDBSCANFit:
    def test_matches_functional_api(self, blobs):
        est = DBSCAN(eps=0.5, min_samples=5).fit(blobs)
        ref = dbscan_fn(blobs, 0.5, 5)
        np.testing.assert_array_equal(est.labels_, ref.labels)
        np.testing.assert_array_equal(
            est.core_sample_indices_, np.flatnonzero(ref.is_core)
        )
        assert est.n_clusters_ == ref.n_clusters == 3

    def test_fitted_attribute_types(self, blobs):
        est = DBSCAN(eps=0.5, min_samples=5).fit(blobs)
        assert est.labels_.dtype == np.int64
        assert est.labels_.shape == (blobs.shape[0],)
        assert est.components_.shape == (est.core_sample_indices_.size, 2)
        np.testing.assert_array_equal(
            est.components_, blobs[est.core_sample_indices_]
        )
        assert est.n_features_in_ == 2

    def test_fit_predict_parity(self, blobs):
        a = DBSCAN(eps=0.5, min_samples=5).fit_predict(blobs)
        b = DBSCAN(eps=0.5, min_samples=5).fit(blobs).labels_
        np.testing.assert_array_equal(a, b)

    def test_fit_returns_self(self, blobs):
        est = DBSCAN(eps=0.5)
        assert est.fit(blobs) is est

    @pytest.mark.parametrize(
        "algorithm,reported",
        [
            ("fdbscan", "fdbscan"),
            ("densebox", "fdbscan-densebox"),  # registry alias
            ("gdbscan", "gdbscan"),
        ],
    )
    def test_algorithm_passthrough(self, blobs, algorithm, reported):
        est = DBSCAN(eps=0.5, min_samples=5, algorithm=algorithm).fit(blobs)
        assert est.result_.info["algorithm"] == reported
        assert est.n_clusters_ == 3

    def test_sample_weight(self):
        # one point of weight 5 is its own dense neighbourhood
        X = np.array([[0.0, 0.0], [10.0, 10.0]])
        est = DBSCAN(eps=0.1, min_samples=5)
        assert np.all(est.fit_predict(X) == -1)
        labels = est.fit_predict(X, sample_weight=[5.0, 1.0])
        assert labels[0] == 0 and labels[1] == -1

    def test_refit_replaces_attributes(self, blobs, rng):
        est = DBSCAN(eps=0.5, min_samples=5).fit(blobs)
        single = rng.normal((0, 0), 0.1, (40, 2))
        est.fit(single)
        assert est.n_clusters_ == 1
        assert est.labels_.shape == (40,)


class TestHDBSCANValidation:
    def test_min_cluster_size_message(self, blobs):
        _raises_exact(
            HDBSCAN(min_cluster_size=1),
            blobs,
            "The 'min_cluster_size' parameter of HDBSCAN must be an int in "
            "the range [2, inf). Got 1 instead.",
        )

    def test_mst_algorithm_message(self, blobs):
        _raises_exact(
            HDBSCAN(mst_algorithm="kruskal"),
            blobs,
            "The 'mst_algorithm' parameter of HDBSCAN must be a str among "
            "{'boruvka' or 'prim'}. Got 'kruskal' instead.",
        )

    def test_allow_single_cluster_message(self, blobs):
        _raises_exact(
            HDBSCAN(allow_single_cluster="yes"),
            blobs,
            "The 'allow_single_cluster' parameter of HDBSCAN must be an "
            "instance of 'bool'. Got 'yes' instead.",
        )


class TestHDBSCANFit:
    def test_matches_functional_api(self, blobs):
        est = HDBSCAN(min_cluster_size=10).fit(blobs)
        ref = hdbscan_fn(blobs, min_cluster_size=10)
        np.testing.assert_array_equal(est.labels_, ref.labels)
        np.testing.assert_array_equal(est.probabilities_, ref.probabilities)
        assert est.n_clusters_ == 3

    def test_probability_contract(self, blobs):
        est = HDBSCAN(min_cluster_size=10).fit(blobs)
        assert np.all(est.probabilities_ >= 0)
        assert np.all(est.probabilities_ <= 1)
        assert np.all(est.probabilities_[est.labels_ == -1] == 0)

    def test_fit_predict_parity(self, blobs):
        a = HDBSCAN(min_cluster_size=10).fit_predict(blobs)
        b = HDBSCAN(min_cluster_size=10).fit(blobs).labels_
        np.testing.assert_array_equal(a, b)

    def test_mst_algorithms_agree(self, blobs):
        fast = HDBSCAN(min_cluster_size=10).fit(blobs)
        ref = HDBSCAN(min_cluster_size=10, mst_algorithm="prim").fit(blobs)
        everyone = np.ones(blobs.shape[0], dtype=bool)
        assert partitions_equal(fast.labels_, ref.labels_, everyone)
        np.testing.assert_allclose(fast.probabilities_, ref.probabilities_)

    def test_knob_passthrough_reaches_info(self, blobs):
        est = HDBSCAN(min_cluster_size=10, mst_algorithm="prim").fit(blobs)
        assert est.result_.info["mst_algorithm"] == "prim"

    def test_n_features_in(self, rng):
        X = rng.normal(size=(50, 3))
        assert HDBSCAN(min_cluster_size=5).fit(X).n_features_in_ == 3
