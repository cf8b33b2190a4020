"""Tests for the virtual regular grid and cell compaction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.grid import GridOverflowError, RegularGrid, build_grid, compact_cells


class TestBuildGrid:
    def test_cell_size_is_eps_over_sqrt_d(self):
        pts = np.random.default_rng(0).uniform(0, 1, size=(50, 2))
        grid = build_grid(pts, eps=0.1)
        assert grid.cell_size == pytest.approx(0.1 / np.sqrt(2))
        grid3 = build_grid(np.random.default_rng(0).uniform(0, 1, (50, 3)), eps=0.1)
        assert grid3.cell_size == pytest.approx(0.1 / np.sqrt(3))

    def test_cell_diameter_at_most_eps(self):
        # The defining guarantee of Section 4.2.
        for d in (1, 2, 3):
            pts = np.random.default_rng(d).uniform(0, 5, size=(20, d))
            grid = build_grid(pts, eps=0.3)
            diameter = grid.cell_size * np.sqrt(d)
            assert diameter <= 0.3 + 1e-12

    def test_invalid_eps(self):
        pts = np.zeros((3, 2))
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="eps"):
                build_grid(pts, bad)

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            build_grid(np.zeros((0, 2)), 0.1)

    def test_single_point(self):
        grid = build_grid(np.array([[1.0, 2.0]]), 0.5)
        np.testing.assert_array_equal(grid.shape, [1, 1])
        np.testing.assert_array_equal(grid.cell_coords(np.array([[1.0, 2.0]])), [[0, 0]])

    def test_all_points_assigned_in_bounds(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-3, 7, size=(500, 3))
        grid = build_grid(pts, 0.25)
        coords = grid.cell_coords(pts)
        assert (coords >= 0).all()
        assert (coords < grid.shape).all()

    def test_points_in_same_cell_within_eps(self):
        # Consequence of diameter <= eps: same cell => neighbours.
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 1, size=(800, 2))
        eps = 0.2
        grid = build_grid(pts, eps)
        coords = grid.cell_coords(pts)
        _, _, order, starts, counts = compact_cells(grid, coords)
        for s, c in zip(starts, counts):
            members = order[s : s + c]
            if members.size > 1:
                cell_pts = pts[members]
                diff = cell_pts[:, None] - cell_pts[None, :]
                d = np.sqrt((diff**2).sum(-1))
                assert d.max() <= eps + 1e-12

    def test_total_cells_python_int(self):
        grid = RegularGrid(
            lo=np.zeros(3),
            hi=np.ones(3),
            cell_size=1e-7,
            shape=np.array([10**7, 10**7, 10**7], dtype=np.int64),
        )
        assert grid.total_cells == 10**21  # exceeds int64; must not overflow


class TestCompactCells:
    def test_basic_compaction(self):
        pts = np.array([[0.05, 0.05], [0.06, 0.06], [0.9, 0.9]])
        grid = build_grid(pts, 0.2)
        coords = grid.cell_coords(pts)
        cell_of_point, n_cells, order, starts, counts = compact_cells(grid, coords)
        assert n_cells == 2
        assert cell_of_point[0] == cell_of_point[1]
        assert cell_of_point[0] != cell_of_point[2]
        assert counts.sum() == 3

    def test_csr_segments_consistent(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(0, 2, size=(300, 2))
        grid = build_grid(pts, 0.3)
        coords = grid.cell_coords(pts)
        cell_of_point, n_cells, order, starts, counts = compact_cells(grid, coords)
        assert counts.sum() == 300
        for cell in range(n_cells):
            members = order[starts[cell] : starts[cell] + counts[cell]]
            assert (cell_of_point[members] == cell).all()

    def test_overflow_fallback_matches_flat_path(self):
        # Same coordinates, both code paths: identical grouping.
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 1, size=(200, 3))
        grid = build_grid(pts, 0.05)
        coords = grid.cell_coords(pts)
        flat = compact_cells(grid, coords)
        huge = RegularGrid(
            lo=grid.lo, hi=grid.hi, cell_size=grid.cell_size, shape=grid.shape
        )
        huge.shape = grid.shape.copy()
        # Force the lexicographic fallback by faking an enormous shape on a
        # copy used only for the fits check.
        class _Huge(RegularGrid):
            def flat_ids_fit(self):
                return False

        forced = _Huge(lo=grid.lo, hi=grid.hi, cell_size=grid.cell_size, shape=grid.shape)
        lex = compact_cells(forced, coords)
        # cell ids may be numbered identically (both sort row-major);
        # compare the induced partition of points.
        np.testing.assert_array_equal(flat[0], lex[0])

    def test_flatten_overflow_raises(self):
        grid = RegularGrid(
            lo=np.zeros(3),
            hi=np.ones(3),
            cell_size=1e-8,
            shape=np.array([10**8, 10**8, 10**8], dtype=np.int64),
        )
        assert not grid.flat_ids_fit()
        with pytest.raises(OverflowError):
            grid.flatten_coords(np.zeros((1, 3), dtype=np.int64))

    def test_axis_cell_overflow_raises(self):
        # One axis would need ~1.4e20 >= 2**63 cells: the int64 cast used
        # to wrap, and DenseBox then returned the far point as a member
        # of the single cluster.
        from repro import dbscan

        rng = np.random.default_rng(0)
        X = np.concatenate([rng.uniform(0, 1e-12, (200, 2)), [[1e8, 1e8]]])
        with pytest.raises(GridOverflowError, match="eps=1e-12.*extent 1e\\+08"):
            build_grid(X, 1e-12)
        assert issubclass(GridOverflowError, ValueError)
        with pytest.raises(GridOverflowError):
            dbscan(X, 1e-12, 5, algorithm="fdbscan-densebox")
        # algorithm="auto" needs the grid only to pick an algorithm: it
        # falls back to FDBSCAN, which needs none and answers correctly.
        ref = dbscan(X, 1e-12, 5, algorithm="fdbscan")
        auto = dbscan(X, 1e-12, 5, algorithm="auto")
        np.testing.assert_array_equal(auto.labels, ref.labels)
        np.testing.assert_array_equal(auto.is_core, ref.is_core)
        assert ref.n_clusters == 1 and ref.labels[-1] == -1

    @given(st.integers(0, 10_000), st.floats(0.05, 0.5), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_grouping_matches_coordinate_equality(self, seed, eps, d):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 1, size=(rng.integers(1, 150), d))
        grid = build_grid(pts, eps)
        coords = grid.cell_coords(pts)
        cell_of_point, n_cells, _, _, _ = compact_cells(grid, coords)
        # same cell id <=> same coordinate row
        for i in range(min(30, pts.shape[0])):
            same = cell_of_point == cell_of_point[i]
            coord_same = (coords == coords[i]).all(axis=1)
            np.testing.assert_array_equal(same, coord_same)
        assert n_cells == np.unique(coords, axis=0).shape[0]
