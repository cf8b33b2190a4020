"""Algorithm-level tests for FDBSCAN-DenseBox against the oracle, plus the
dense-cell-specific behaviours of Section 4.2."""

import tracemalloc

import numpy as np
import pytest

from repro.baselines.sequential_dbscan import sequential_dbscan
from repro.core import densebox
from repro.core.densebox import fdbscan_densebox
from repro.core.fdbscan import fdbscan
from repro.datasets import load_dataset
from repro.device.device import Device
from repro.grid.dense_cells import decompose
from repro.metrics.equivalence import assert_dbscan_equivalent


class TestAgainstOracle:
    @pytest.mark.parametrize("minpts", [3, 5, 10])
    @pytest.mark.parametrize("eps", [0.15, 0.3, 0.6])
    def test_blobs_2d(self, blobs_2d, eps, minpts):
        a = fdbscan_densebox(blobs_2d, eps, minpts)
        b = sequential_dbscan(blobs_2d, eps, minpts)
        assert_dbscan_equivalent(a, b, blobs_2d, eps)

    @pytest.mark.parametrize("minpts", [4, 8])
    def test_blobs_3d(self, blobs_3d, minpts):
        a = fdbscan_densebox(blobs_3d, 0.5, minpts)
        b = sequential_dbscan(blobs_3d, 0.5, minpts)
        assert_dbscan_equivalent(a, b, blobs_3d, 0.5)

    def test_1d_data(self, rng):
        X = rng.uniform(0, 10, size=(300, 1))
        a = fdbscan_densebox(X, 0.05, 4)
        b = sequential_dbscan(X, 0.05, 4)
        assert_dbscan_equivalent(a, b, X, 0.05)

    @pytest.mark.parametrize("use_mask", [True, False])
    @pytest.mark.parametrize("early_exit", [True, False])
    def test_optimisation_switches_do_not_change_output(
        self, blobs_2d, use_mask, early_exit
    ):
        a = fdbscan_densebox(blobs_2d, 0.3, 6, use_mask=use_mask, early_exit=early_exit)
        b = sequential_dbscan(blobs_2d, 0.3, 6)
        assert_dbscan_equivalent(a, b, blobs_2d, 0.3)

    def test_dense_regime_matches_fdbscan(self, rng):
        # Nearly all points in dense cells: the regime the algorithm is for.
        X = np.concatenate(
            [rng.normal(0, 0.01, size=(400, 2)), rng.normal(1, 0.01, size=(400, 2))]
        )
        a = fdbscan_densebox(X, 0.1, 20)
        b = fdbscan(X, 0.1, 20)
        assert_dbscan_equivalent(a, b, X, 0.1)
        assert a.info["dense_fraction"] > 0.9

    def test_sparse_regime_no_dense_cells(self, rng):
        X = rng.uniform(0, 50, size=(400, 2))
        a = fdbscan_densebox(X, 0.5, 10)
        b = sequential_dbscan(X, 0.5, 10)
        assert_dbscan_equivalent(a, b, X, 0.5)
        assert a.info["dense_fraction"] == 0.0


class TestDenseCellSemantics:
    def test_dense_cell_points_are_core(self, rng):
        X = rng.normal(0, 0.005, size=(100, 2))  # one tight clump
        res = fdbscan_densebox(X, 0.1, 10)
        assert res.info["dense_fraction"] == 1.0
        assert res.is_core.all()
        assert res.n_clusters == 1

    def test_two_dense_cells_far_apart_stay_separate(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 0.005, size=(50, 2))
        b = rng.normal(10, 0.005, size=(50, 2))
        X = np.concatenate([a, b])
        res = fdbscan_densebox(X, 0.1, 10)
        assert res.n_clusters == 2

    def test_two_adjacent_dense_cells_merge(self):
        # Two clumps closer than eps must union through the box path.
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 0.003, size=(50, 2))
        b = rng.normal(0.05, 0.003, size=(50, 2))
        X = np.concatenate([a, b])
        res = fdbscan_densebox(X, 0.1, 10)
        assert res.n_clusters == 1

    def test_isolated_core_point_unions_with_dense_cell(self):
        rng = np.random.default_rng(2)
        clump = rng.normal(0.0, 0.002, size=(60, 2))
        # a chain of sparse points leading away from the clump
        chain = np.column_stack([0.05 + 0.04 * np.arange(6), np.zeros(6)])
        X = np.concatenate([clump, chain])
        res = fdbscan_densebox(X, 0.06, 3)
        oracle = sequential_dbscan(X, 0.06, 3)
        assert_dbscan_equivalent(res, oracle, X, 0.06)
        assert res.n_clusters == 1

    def test_border_point_attaches_to_dense_cell(self):
        # 100 clump points on a line segment [0, 0.04] (one grid cell at
        # eps = 0.08), plus a lone point whose eps-ball only reaches the
        # clump's last few points: dense cell + genuine border point.
        clump = np.column_stack([np.linspace(0, 0.04, 100), np.zeros(100)])
        lone = np.array([[0.119, 0.0]])
        X = np.concatenate([clump, lone])
        res = fdbscan_densebox(X, 0.08, 90)
        assert res.info["dense_fraction"] > 0.9
        assert not res.is_core[-1]
        assert res.labels[-1] == res.labels[0]
        oracle = sequential_dbscan(X, 0.08, 90)
        assert_dbscan_equivalent(res, oracle, X, 0.08)

    def test_minpts_2(self, blobs_2d):
        a = fdbscan_densebox(blobs_2d, 0.25, 2)
        b = sequential_dbscan(blobs_2d, 0.25, 2)
        assert_dbscan_equivalent(a, b, blobs_2d, 0.25)

    def test_minpts_1(self, blobs_2d):
        res = fdbscan_densebox(blobs_2d, 0.2, 1)
        assert res.is_core.all()
        assert res.n_noise == 0
        oracle = sequential_dbscan(blobs_2d, 0.2, 1)
        assert_dbscan_equivalent(res, oracle, blobs_2d, 0.2)

    def test_all_duplicates(self):
        X = np.ones((30, 2))
        res = fdbscan_densebox(X, 0.5, 5)
        assert res.n_clusters == 1
        assert res.is_core.all()

    def test_single_point(self):
        res = fdbscan_densebox(np.zeros((1, 3)), 0.1, 1)
        assert res.n_clusters == 1


class TestDiagnostics:
    def test_info_fields(self, blobs_2d):
        res = fdbscan_densebox(blobs_2d, 0.3, 5)
        for key in ("dense_fraction", "n_dense_cells", "total_cells", "t_build"):
            assert key in res.info

    def test_dense_processing_reduces_distance_evals(self, rng):
        # The whole point of Section 4.2: in dense regimes the per-point
        # distance work collapses.
        X = np.concatenate(
            [rng.normal(0, 0.01, size=(500, 2)), rng.normal(2, 0.01, size=(500, 2))]
        )
        dev_f, dev_d = Device(), Device()
        fdbscan(X, 0.2, 50, device=dev_f)
        fdbscan_densebox(X, 0.2, 50, device=dev_d)
        assert dev_d.counters.distance_evals < dev_f.counters.distance_evals / 5

    def test_counts_without_early_exit_exposed(self, blobs_2d):
        res = fdbscan_densebox(blobs_2d, 0.3, 5, early_exit=False)
        assert "isolated_core_counts" in res.info

    def test_validation_shared_with_fdbscan(self, blobs_2d):
        with pytest.raises(ValueError):
            fdbscan_densebox(blobs_2d, -0.5, 5)
        with pytest.raises(ValueError):
            fdbscan_densebox(blobs_2d, 0.3, 0)


def _full_scan(cell_pts, deco, q_pts, ranks, eps2, first_only):
    """Brute-force reference for ``densebox._scan_cells``: distance-test
    every member of every hit cell."""
    starts, cnts = deco.dense_members(ranks)
    hit = np.repeat(np.arange(ranks.shape[0]), cnts)
    slot = np.arange(hit.shape[0]) - np.repeat(np.cumsum(cnts) - cnts, cnts)
    diff = q_pts[hit] - cell_pts[starts[hit] + slot]
    ok = np.einsum("ij,ij->i", diff, diff) <= eps2
    hit, slot = hit[ok], slot[ok]
    if first_only:
        first = np.ones(hit.shape[0], dtype=bool)
        first[1:] = hit[1:] != hit[:-1]
        hit, slot = hit[first], slot[first]
    return starts, cnts, hit, slot


def _lattice(d):
    """Power-of-two lattice: coordinates and squared distances are exact, so
    many query-member distances equal eps exactly.  The first half of the
    lattice is tripled (duplicates, dense cells); the rest stays single."""
    g = np.arange(10 if d == 2 else 5) * 0.125
    pts = np.stack(np.meshgrid(*[g] * d), axis=-1).reshape(-1, d)
    half = pts.shape[0] // 2
    X = np.concatenate([np.repeat(pts[:half], 3, axis=0), pts[half:]])
    return X, 0.25, 4


def _crafted():
    eps = 0.08
    h = eps / np.sqrt(2)  # cell edge; the grid is anchored at the data minimum
    # A 100-point segment inside one cell, and a lone query whose ball
    # reaches only the segment's last member.
    segment = np.column_stack([np.linspace(0, 0.04, 100), np.zeros(100)])
    lone = [[0.1198, 0.0]]
    # A cell populated at two opposite corners of its box, and a query
    # whose ball meets the box but holds no member.
    corners = np.repeat([[20.1 * h, 20.1 * h], [20.9 * h, 20.9 * h]], 6, axis=0)
    miss = [[21.8 * h, 19.2 * h]]
    return np.concatenate([segment, lone, corners, miss]), eps, 10


SCAN_CASES = {
    "lattice2d": lambda: _lattice(2),
    "lattice3d": lambda: _lattice(3),
    "crafted": _crafted,
}


class TestScanEquivalence:
    """The block scan and contained-cell counts against a full scan."""

    @pytest.mark.parametrize("case", sorted(SCAN_CASES))
    def test_scan_matches_full_scan(self, case):
        X, eps, minpts = SCAN_CASES[case]()
        eps2 = eps * eps
        deco = decompose(X, eps, minpts)
        cell_pts = X[deco.members]
        # Every (query, dense cell) pair, hit by the traversal or not.
        q, ranks = (
            a.ravel()
            for a in np.meshgrid(
                np.arange(X.shape[0]), np.arange(deco.n_dense), indexing="ij"
            )
        )
        for first_only in (True, False):
            got = densebox._scan_cells(cell_pts, deco, X[q], ranks, eps2, first_only)
            ref = _full_scan(cell_pts, deco, X[q], ranks, eps2, first_only)
            for a, b in zip(got, ref):  # first-hit members / every member found
                np.testing.assert_array_equal(a, b)

        # The hostile shapes this case exists for are really present.
        _, cnts, hit, slot = _full_scan(cell_pts, deco, X[q], ranks, eps2, True)
        first = np.full(q.shape[0], -1)
        first[hit] = slot
        lo = deco.prim_lo[deco.n_isolated + ranks]
        hi = deco.prim_hi[deco.n_isolated + ranks]
        gap = X[q] - np.clip(X[q], lo, hi)
        box_hit = np.einsum("ij,ij->i", gap, gap) <= eps2
        far = np.maximum(X[q] - lo, hi - X[q])
        assert np.any(np.einsum("ij,ij->i", far, far) <= eps2)  # a cell wholly inside
        if case == "crafted":
            assert np.any(box_hit & (first == -1))  # a hit cell with no member within
            assert np.any((first == cnts - 1) & (cnts > 1))  # only its last member
        else:
            diff = X[:, None, :] - X[None, :, :]
            assert np.any(np.einsum("ijk,ijk->ij", diff, diff) == eps2)

    @pytest.mark.parametrize("case", sorted(SCAN_CASES))
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("use_mask", [True, False])
    @pytest.mark.parametrize("early_exit", [True, False])
    def test_fit_matches_full_scan(self, monkeypatch, case, weighted, use_mask, early_exit):
        X, eps, minpts = SCAN_CASES[case]()
        weights = (
            np.random.default_rng(0).uniform(0.5, 2.0, X.shape[0]) if weighted else None
        )

        def fit():
            dev = Device()
            res = fdbscan_densebox(
                X, eps, minpts, device=dev, sample_weight=weights,
                use_mask=use_mask, early_exit=early_exit,
            )
            # Every per-kernel counter, without the wall times.
            prof = {
                k: {kk: vv for kk, vv in v.items() if "seconds" not in kk}
                for k, v in dev.profile().items()
            }
            return res, (prof, dev.counters.snapshot())

        got, got_counters = fit()
        monkeypatch.setattr(densebox, "_scan_cells", _full_scan)
        ref, ref_counters = fit()
        assert got.info["n_dense_cells"] > 0
        np.testing.assert_array_equal(got.labels, ref.labels)
        np.testing.assert_array_equal(got.is_core, ref.is_core)
        assert got_counters == ref_counters
        if not early_exit:
            np.testing.assert_array_equal(
                got.info["isolated_core_counts"], ref.info["isolated_core_counts"]
            )


def test_portotaxi_fit_memory_stays_bounded():
    # The main phase scans a hit cell only up to its first member within
    # eps, so temporaries scale with that slot, not with the cell size.
    # A full scan of every hit cell peaks at ~130 MB here.
    X = load_dataset("portotaxi", 4096)
    tracemalloc.start()
    try:
        fdbscan_densebox(X, 0.01, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2**20
