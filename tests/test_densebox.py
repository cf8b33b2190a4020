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


def _full_scan(cell_pts, deco, q_pts, ranks, eps2, first_only, quota=None):
    """Brute-force reference for ``densebox._scan_cells``: distance-test
    every member of every hit cell (``quota`` is ignored: the scan always
    runs to the end)."""
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


def _decimal3d():
    """Clumped 3-D points on a 0.01 lattice, eps 0.03: neither is exact in
    binary, so many distances sit within one rounding of eps."""
    rng = np.random.default_rng(0)
    return np.round(rng.normal(0.5, 0.04, (1500, 3)), 2), 0.03, 10


def _preprocess_counters(dev):
    return dev.profile()["densebox_preprocess"]["counters"]


class TestContainedCredit:
    """Preprocessing credits a subtree inside the query's ball with its
    total member count (a point leaf 1, a cell box its size)."""

    @pytest.mark.parametrize("case", sorted(SCAN_CASES) + ["decimal3d"])
    def test_isolated_counts_match_brute_force(self, case):
        X, eps, minpts = _decimal3d() if case == "decimal3d" else SCAN_CASES[case]()
        fits = {}
        for weighted in (False, True):  # weights of one walk leaf by leaf
            dev = Device()
            res = fdbscan_densebox(
                X, eps, minpts, device=dev, early_exit=False,
                sample_weight=np.ones(X.shape[0]) if weighted else None,
            )
            fits[weighted] = (res, _preprocess_counters(dev)["nodes_visited"])
        iso = decompose(X, eps, minpts).isolated_idx
        diff = X[iso][:, None, :] - X[None, :, :]
        brute = np.count_nonzero(np.einsum("ijk,ijk->ij", diff, diff) <= eps * eps, axis=1)
        counts = fits[False][0].info["isolated_core_counts"]
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, brute)
        np.testing.assert_array_equal(fits[True][0].info["isolated_core_counts"], brute)
        if case != "crafted":  # too few primitives for an internal node to fit
            assert fits[False][1] < fits[True][1]

    def test_portotaxi_credit_pins_preprocess_work(self):
        X = load_dataset("portotaxi", 4096)
        visited = {}
        for weighted in (False, True):
            dev = Device()
            res = fdbscan_densebox(
                X, 0.01, 50, device=dev,
                sample_weight=np.ones(X.shape[0]) if weighted else None,
            )
            visited[weighted] = _preprocess_counters(dev)["nodes_visited"]
            np.testing.assert_array_equal(
                res.is_core, sequential_dbscan(X, 0.01, 50).is_core
            )
        # The leaf-by-leaf walk visits 39,134 nodes here.
        assert visited == {False: 21854, True: 39134}

    def test_sum_of_squares_forms_round_alike(self):
        # The credit sums far-corner squares with the traversal's
        # "nkd,nkd->nk" einsum and the member test with "ij,ij->i"; the
        # credit is exact only while the two round identically.
        rng = np.random.default_rng(3)
        for d in (1, 2, 3):
            x = rng.standard_normal((100_000, d)) * rng.uniform(0, 1e3, (100_000, 1))
            out = np.empty((x.shape[0], 1))
            np.einsum("nkd,nkd->nk", x[:, None, :], x[:, None, :], out=out)
            np.testing.assert_array_equal(out[:, 0], np.einsum("ij,ij->i", x, x))


def _two_cells_and_query(reach):
    """An isolated query at minpts 3: itself, the last member of a 20-point
    cell on its left and, when ``reach``, the last member of one on its
    right (the other 19 lie just out of reach)."""
    left = np.column_stack([np.linspace(0, 0.04, 20), np.zeros(20)])
    right_x = np.append(np.linspace(0.2005, 0.21, 19), 0.199 if reach else 0.2001)
    right = np.column_stack([right_x, np.zeros(20)])
    return np.concatenate([left, right, [[0.1198, 0.0]]]), 0.08, 3


class TestQuota:
    """With early exit, a query's member scan stops at minpts."""

    @pytest.mark.parametrize("reach", [True, False])
    def test_minpts_reached_on_the_last_member(self, reach):
        X, eps, minpts = _two_cells_and_query(reach)
        res = fdbscan_densebox(X, eps, minpts)
        assert res.info["n_dense_cells"] == 2
        assert bool(res.is_core[-1]) is reach
        full = fdbscan_densebox(X, eps, minpts, early_exit=False)
        np.testing.assert_array_equal(full.info["isolated_core_counts"], [2 + reach])
        assert_dbscan_equivalent(res, sequential_dbscan(X, eps, minpts), X, eps)

    def test_scan_stops_at_minpts_across_cells(self):
        X, eps, _ = SCAN_CASES["lattice2d"]()
        eps2 = eps * eps
        deco = decompose(X, eps, 4)
        cell_pts = X[deco.members]
        ranks = np.arange(deco.n_dense)
        # Query 0 needs 3 members, query 1 more than every cell holds.
        q_pts = np.repeat(X[[60, 61]], ranks.shape[0], axis=0)
        ranks = np.tile(ranks, 2)
        owner = np.repeat([0, 1], deco.n_dense)
        need = np.array([3, X.shape[0]])
        _, _, hit, _ = densebox._scan_cells(
            cell_pts, deco, q_pts, ranks, eps2, False, quota=(owner, need)
        )
        _, _, ref_hit, _ = _full_scan(cell_pts, deco, q_pts, ranks, eps2, False)
        found = np.bincount(owner[hit], minlength=2)
        ref_found = np.bincount(owner[ref_hit], minlength=2)
        assert len(np.unique(ranks[ref_hit[owner[ref_hit] == 0]])) > 1
        assert 3 <= found[0] < ref_found[0]  # stopped once it had 3
        assert found[1] == ref_found[1]  # never got there: scanned in full
        np.testing.assert_array_equal(need, [3 - found[0], X.shape[0] - found[1]])
