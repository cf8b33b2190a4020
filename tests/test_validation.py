"""Direct tests for the shared input-validation contract."""

import numpy as np
import pytest

from repro.core.validation import MAX_TREE_DIM, validate_params, validate_points


class TestValidatePoints:
    def test_returns_contiguous_float64(self):
        X = np.asfortranarray(np.arange(12, dtype=np.float32).reshape(6, 2))
        out = validate_points(X)
        assert out.dtype == np.float64
        assert out.flags["C_CONTIGUOUS"]

    def test_accepts_lists(self):
        out = validate_points([[0, 1], [2, 3]])
        assert out.shape == (2, 2)

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            validate_points(np.zeros(5))

    def test_rejects_3d_array(self):
        with pytest.raises(ValueError, match="2-D"):
            validate_points(np.zeros((2, 2, 2)))

    def test_rejects_empty_rows(self):
        with pytest.raises(ValueError, match="at least one point"):
            validate_points(np.zeros((0, 3)))

    def test_rejects_zero_features(self):
        with pytest.raises(ValueError, match="feature"):
            validate_points(np.zeros((3, 0)))

    def test_tree_dim_cap(self):
        with pytest.raises(ValueError, match=f"d <= {MAX_TREE_DIM}"):
            validate_points(np.zeros((3, MAX_TREE_DIM + 1)))

    def test_dim_cap_liftable(self):
        out = validate_points(np.zeros((3, 7)), max_dim=None)
        assert out.shape == (3, 7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, bad):
        X = np.zeros((2, 2))
        X[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            validate_points(X)


class TestValidateParams:
    def test_canonical_types(self):
        eps, minpts = validate_params(np.float32(0.5), np.int32(3))
        assert isinstance(eps, float)
        assert isinstance(minpts, int)

    def test_integral_float_minpts_ok(self):
        assert validate_params(1.0, 4.0) == (1.0, 4)

    def test_fractional_minpts_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            validate_params(1.0, 4.5)

    @pytest.mark.parametrize("bad", [0.0, -0.1, np.nan, np.inf])
    def test_bad_eps(self, bad):
        with pytest.raises(ValueError, match="eps"):
            validate_params(bad, 3)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_bad_minpts(self, bad):
        with pytest.raises(ValueError, match="min_samples"):
            validate_params(0.5, bad)


def _three_blobs():
    """200 points in three well-separated blobs of the unit square: three
    clusters at eps 0.1, minpts 5."""
    rng = np.random.default_rng(0)
    centres = np.array([[0.1, 0.1], [0.5, 0.9], [0.9, 0.2]])
    return np.concatenate(
        [c + rng.uniform(-0.02, 0.02, (k, 2)) for c, k in zip(centres, (67, 67, 66))]
    )


def _overflow_cases():
    """Inputs whose squared distances overflow float64.  Before the bounding
    box was checked, ``"scaled"`` gave one cluster (three expected) from
    fdbscan, densebox and brute, and ``"far_pair"`` made DenseBox merge
    every point while FDBSCAN failed on its Morton codes."""
    X = _three_blobs()
    far = np.concatenate([X, [[1e308, 1e308], [-1e308, -1e308]]])
    return {"scaled": (X * 1e160, 1e159), "far_pair": (far, 0.1)}


OVERFLOW = _overflow_cases()
ALGORITHMS = [
    "auto", "fdbscan", "fdbscan-densebox", "gdbscan", "cuda-dclust",
    "dsdbscan", "grid", "sequential", "brute",
]


class TestSquaredDistanceOverflow:
    @pytest.mark.parametrize("case", sorted(OVERFLOW))
    def test_validate_points_rejects(self, case):
        with pytest.raises(ValueError, match="overflow"):
            validate_points(OVERFLOW[case][0])

    def test_large_finite_diagonal_accepted(self):
        # 1e150-scale coordinates square to 1e300: still finite
        X = _three_blobs() * 1e150
        assert validate_points(X).shape == X.shape
        # d * (max - min)**2 overflows, but the per-axis sum is 1.62e308
        X = np.array([[-9e153, 0.0], [0.0, 9e153]])
        assert validate_points(X).shape == X.shape

    @pytest.mark.parametrize("case", sorted(OVERFLOW))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_dbscan_rejects(self, algorithm, case):
        from repro import dbscan

        X, eps = OVERFLOW[case]
        with pytest.raises(ValueError, match="overflow"):
            dbscan(X, eps, 5, algorithm=algorithm)

    @pytest.mark.parametrize("case", sorted(OVERFLOW))
    def test_estimators_and_hdbscan_reject(self, case):
        from repro import DBSCANIndex, hdbscan
        from repro.estimators import DBSCAN, HDBSCAN

        X, eps = OVERFLOW[case]
        with pytest.raises(ValueError, match="overflow"):
            DBSCAN(eps=eps, min_samples=5).fit(X)
        with pytest.raises(ValueError, match="overflow"):
            HDBSCAN(min_cluster_size=5).fit(X)
        with pytest.raises(ValueError, match="overflow"):
            hdbscan(X, min_samples=5)
        with pytest.raises(ValueError, match="overflow"):
            DBSCANIndex(X)

    @pytest.mark.parametrize("case", sorted(OVERFLOW))
    def test_service_create_index_rejects(self, case):
        from repro.service.service import ClusteringService

        svc = ClusteringService()
        resp = svc.handle(
            {"op": "create_index", "index": "a", "points": OVERFLOW[case][0].tolist()}
        )
        assert resp["status"] == "error"
        assert resp["error"]["code"] == "invalid"
        assert "overflow" in resp["error"]["message"]
        assert "a" not in svc.indexes

    def test_service_insert_rejects_before_mutating(self):
        from repro.service.service import ClusteringService

        svc = ClusteringService()
        X = _three_blobs()
        svc.handle({"op": "create_index", "index": "a", "points": X.tolist()})
        before = svc.indexes["a"].fingerprint()
        resp = svc.handle(
            {"op": "insert", "index": "a",
             "points": [[1e308, 1e308], [-1e308, -1e308]]}
        )
        assert resp["status"] == "error" and resp["error"]["code"] == "invalid"
        assert svc.indexes["a"].fingerprint() == before
        ok = svc.handle({"op": "cluster", "index": "a", "eps": 0.1, "min_samples": 5})
        assert ok["status"] == "ok" and ok["result"]["n_clusters"] == 3

    @pytest.mark.parametrize("case", sorted(OVERFLOW))
    def test_point_files_reject(self, case, tmp_path):
        from repro.datasets.io import CorruptPointFileError, load_points, save_points

        X = OVERFLOW[case][0]
        with pytest.raises(ValueError, match="overflow"):
            save_points(str(tmp_path / "x.npy"), X)
        np.save(tmp_path / "raw.npy", X)
        with pytest.raises(CorruptPointFileError, match="overflow"):
            load_points(str(tmp_path / "raw.npy"))
