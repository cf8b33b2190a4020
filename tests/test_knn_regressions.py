"""Regression tests for three kNN traversal bugs.

1. **Gather leaf-centre distances** — the phase-2 gather used to rank
   candidates by distance to the *leaf box geometry* instead of the
   primitive coordinate.  For point-leaf trees the two coincide, which is
   why the original suite never caught it; any tree whose leaf boxes have
   extent got wrong k-th radii.  Such trees are now rejected.
2. **One radius per phase-1 batch** — the expanding-count loop read a
   single radius for all pending queries, silently mis-counting whenever
   warm starts or uneven doubling left the batch with mixed radii.
3. **Degenerate-dimension density estimate** — ``_initial_radius``
   multiplied all scene extents, so collinear / axis-aligned data (a zero
   extent) produced a near-zero starting radius and dozens of doubling
   rounds before the first neighbour appeared.

Each test here fails on the corresponding pre-fix code.  The rung-search
tests bound the per-query radius search: its round count is logarithmic
in each query's distance (in rungs) from its start radius, the descent
stops at the ladder floor when ``>= k`` points coincide, and the gather
stays within a few times ``n·k`` distance evaluations.
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.bvh.aabb import boxes_from_points
from repro.bvh.builder import build_bvh
from repro.bvh.knn import LADDER_FLOOR, _initial_radius, core_distances, knn_radii
from repro.datasets import load_dataset
from repro.device.device import Device


@pytest.fixture
def rng():
    return np.random.default_rng(3)


def _point_tree(pts):
    lo, hi = boxes_from_points(pts)
    return build_bvh(lo, hi)


class TestBoxLeafGather:
    """Bug 1: leaf boxes with extent do not give primitive coordinates."""

    def test_box_leaves_rejected(self, rng):
        # leaf boxes anchored at the primitive but extended away from it
        pts = rng.uniform(0, 5, (50, 2))
        tree = build_bvh(pts, pts + rng.uniform(0.3, 0.9, pts.shape))
        with pytest.raises(ValueError, match="point leaves"):
            knn_radii(tree, pts, 3)
        with pytest.raises(ValueError, match="point leaves"):
            core_distances(tree, pts, 3)


class TestMixedRadiusBatches:
    """Bug 2: pending queries must be counted at their own radius."""

    def test_warm_start_array_matches_kdtree(self, rng):
        pts = rng.uniform(0, 10, (200, 2))
        tree = _point_tree(pts)
        want = cKDTree(pts).query(pts, k=5)[0][:, -1]
        # mixed warm starts spanning four orders of magnitude guarantee
        # the first round's batch carries many distinct radii
        starts = 10.0 ** rng.uniform(-3, 1, 200)
        got = knn_radii(tree, pts, 5, initial_radius=starts)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_warm_start_matches_cold_start(self, rng):
        pts = rng.uniform(0, 10, (150, 2))
        tree = _point_tree(pts)
        cold = knn_radii(tree, pts, 7)
        warm = knn_radii(tree, pts, 7, initial_radius=cold)
        np.testing.assert_array_equal(warm, cold)

    def test_oversized_warm_start_is_correct(self, rng):
        # a too-large start must not change the answer (phase 2 selects
        # the k-th smallest within the final radius regardless)
        pts = rng.uniform(0, 10, (100, 2))
        tree = _point_tree(pts)
        cold = knn_radii(tree, pts, 4)
        warm = knn_radii(tree, pts, 4, initial_radius=50.0)
        np.testing.assert_allclose(warm, cold, rtol=1e-12, atol=1e-12)

    def test_warm_start_validated(self, rng):
        pts = rng.uniform(0, 10, (20, 2))
        tree = _point_tree(pts)
        with pytest.raises(ValueError, match="positive"):
            knn_radii(tree, pts, 3, initial_radius=0.0)
        with pytest.raises(ValueError, match="positive"):
            knn_radii(tree, pts, 3, initial_radius=np.full(20, -1.0))


class TestDegenerateDensityEstimate:
    """Bug 3: zero-extent dimensions must not zero the radius guess."""

    def test_collinear_estimate_uses_line_density(self, rng):
        n = 128
        x = np.sort(rng.uniform(0, 10, n))
        pts = np.column_stack([x, np.full(n, 3.0)])  # zero y-extent
        tree = _point_tree(pts)
        spread = x[-1] - x[0]
        r0 = _initial_radius(tree, 4)
        # 1-d density scale of the occupied subspace, not ~0 from the
        # collapsed dimension
        assert r0 == pytest.approx(spread * 4 / n)

    def test_collinear_rounds_bounded(self, rng):
        n = 256
        x = np.sort(rng.uniform(0, 10, n))
        pts = np.column_stack([np.full(n, 1.0), x])
        tree = _point_tree(pts)
        dev = Device()
        got = knn_radii(tree, pts, 4, device=dev)
        want = cKDTree(pts).query(pts, k=4)[0][:, -1]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        # a density-scale start lands within a few rungs of every answer;
        # the zero-volume estimate (1e-12) sat ~40 rungs away
        rung = _max_rung(_initial_radius(tree, 4), want)
        assert rung <= 8
        assert dev.profile()["knn_expand"]["steps"] <= _round_bound(rung)

    def test_axis_aligned_3d(self, rng):
        # a planar point set embedded in 3-d: one degenerate extent
        n = 150
        pts = np.column_stack(
            [rng.uniform(0, 5, n), rng.uniform(0, 5, n), np.zeros(n)]
        )
        tree = _point_tree(pts)
        dev = Device()
        got = knn_radii(tree, pts, 6, device=dev)
        want = cKDTree(pts).query(pts, k=6)[0][:, -1]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        rung = _max_rung(_initial_radius(tree, 6), want)
        assert rung <= 8
        assert dev.profile()["knn_expand"]["steps"] <= _round_bound(rung)

    def test_all_coincident(self):
        pts = np.ones((16, 2))
        tree = _point_tree(pts)
        assert _initial_radius(tree, 4) == 1e-12
        np.testing.assert_array_equal(knn_radii(tree, pts, 16), 0.0)


def _max_rung(r0, kth):
    """Largest ``|j|`` over queries of the rung ``r0 * 2**j`` that first
    reaches the true k-th distance ``kth`` (positive distances only)."""
    kth = np.asarray(kth)[np.asarray(kth) > 0]
    return int(np.abs(np.ceil(np.log2(kth / r0))).max()) if kth.size else 0


def _round_bound(rung):
    """Count rounds the gallop-then-bisect search needs to settle every
    query within ``rung`` rungs of its start (one of slack for ties at an
    exact rung)."""
    return 2 * int(np.ceil(np.log2(rung + 2))) + 2


class TestRungSearch:
    """The per-query rung search: bounded rounds, floor-terminated descent,
    tight gathers."""

    def test_rounds_logarithmic_in_rung_distance(self, rng):
        # a start radius 2^10 above the answer: one-way doubling could never
        # come back down; the descent needs ~2*log2(10) rounds
        pts = rng.uniform(0, 10, (300, 2))
        tree = _point_tree(pts)
        want = cKDTree(pts).query(pts, k=5)[0][:, -1]
        for r0 in (np.median(want) * 2.0**10, np.median(want) * 2.0**-10):
            dev = Device()
            got = knn_radii(tree, pts, 5, device=dev, initial_radius=r0)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
            steps = dev.profile()["knn_expand"]["steps"]
            assert steps <= _round_bound(_max_rung(r0, want))

    def test_coincident_subset_terminates_at_floor(self, rng):
        # k-fold duplicates (k-th distance 0) mixed with spread points
        spread = rng.uniform(0, 10, (120, 2))
        pts = np.concatenate([spread, np.repeat(spread[:7], 4, axis=0)])
        tree = _point_tree(pts)
        dev = Device()
        got = knn_radii(tree, pts, 5, device=dev)
        want = cKDTree(pts).query(pts, k=5)[0][:, -1]
        np.testing.assert_array_equal(got[want == 0], 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        # the floored descent is the longest path: 0, -1, ..., -64
        assert dev.profile()["knn_expand"]["steps"] <= _round_bound(LADDER_FLOOR)

    def test_all_coincident_below_n(self):
        pts = np.full((40, 3), 2.5)
        tree = _point_tree(pts)
        for k in (1, 5, 40):
            np.testing.assert_array_equal(knn_radii(tree, pts, k), 0.0)

    def test_k_equals_n(self, rng):
        pts = rng.uniform(0, 3, (64, 2))
        tree = _point_tree(pts)
        want = cKDTree(pts).query(pts, k=64)[0][:, -1]
        got = knn_radii(tree, pts, 64)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_initial_radius_rejected_at_entry(self, rng, bad):
        pts = rng.uniform(0, 1, (20, 2))
        tree = _point_tree(pts)
        for value in (bad, np.where(np.arange(20) == 3, bad, 1.0)):
            with pytest.raises(ValueError, match="initial_radius"):
                knn_radii(tree, pts, 3, initial_radius=value)
        # even with no queries to search for
        with pytest.raises(ValueError, match="initial_radius"):
            knn_radii(tree, pts[:0], 3, initial_radius=bad)

    def test_initial_radius_shape_checked(self, rng):
        pts = rng.uniform(0, 1, (20, 2))
        tree = _point_tree(pts)
        with pytest.raises(ValueError, match="initial_radius"):
            knn_radii(tree, pts, 3, initial_radius=np.ones(7))

    def test_ngsim_gather_stays_tight(self):
        # machine-independent guard on the gather's over-fetch: each query
        # gathers a few times k pairs (one wide shared radius gathered
        # ~267 n k on this input)
        n, k = 4000, 5
        X = load_dataset("ngsim", n, seed=0)
        tree = _point_tree(X)
        dev = Device()
        got = core_distances(tree, X, k, device=dev)
        np.testing.assert_allclose(
            got, cKDTree(X).query(X, k=k)[0][:, -1], rtol=1e-12, atol=1e-12
        )
        gather = dev.profile()["knn_gather"]["counters"]["distance_evals"]
        assert gather <= 5 * n * k


def _kdtree_kth(pts, k):
    return cKDTree(pts).query(pts, k=k)[0].reshape(len(pts), -1)[:, -1]


class TestWindowBound:
    """``core_distances`` starts each ladder at the k-th distance within
    the point's leaf-order window: the result is byte-equal to the
    density-start search and to cKDTree on inputs built to stress it."""

    CASES = {
        # every point k = 4 times: the window holds the copies, so each
        # answer is an exact 0 without a ladder round
        "duplicates": (np.repeat(np.arange(40.0).reshape(20, 2), 4, axis=0), 4),
        "duplicates-mixed": (
            np.concatenate(
                [np.arange(60.0).reshape(30, 2) * 0.125,
                 np.repeat([[1.5, 2.0], [7.0, 3.0]], 5, axis=0)]
            ),
            5,
        ),
        "n-is-2k+1": (np.arange(14.0).reshape(7, 2) ** 1.5, 3),
        "n-below-2k+1": (np.arange(10.0).reshape(5, 2) ** 1.5, 3),
        "k-is-n": (np.arange(12.0).reshape(6, 2) ** 1.5, 6),
        "collinear-2d": (
            np.column_stack([np.arange(90) * 0.375, np.full(90, 2.0)]), 4,
        ),
        "planar-3d": (
            np.column_stack([np.arange(120) % 12 * 0.5, np.arange(120) // 12 * 0.25,
                             np.full(120, -1.0)]),
            6,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_byte_equal_to_density_start_and_kdtree(self, case):
        pts, k = self.CASES[case]
        tree = _point_tree(pts)
        got = core_distances(tree, pts, k)
        np.testing.assert_array_equal(got, knn_radii(tree, pts, k))
        np.testing.assert_array_equal(got, _kdtree_kth(pts, k))

    def test_random_inputs_equal_density_start(self, rng):
        for d in (1, 2, 3):
            pts = rng.uniform(0, 4, (300, d))
            tree = _point_tree(pts)
            for k in (1, 2, 7, 50):
                np.testing.assert_array_equal(
                    core_distances(tree, pts, k), knn_radii(tree, pts, k)
                )

    def test_duplicates_skip_the_ladder(self):
        pts, k = self.CASES["duplicates"]
        dev = Device()
        got = core_distances(_point_tree(pts), pts, k, device=dev)
        np.testing.assert_array_equal(got, 0.0)
        prof = dev.profile()
        assert prof["knn_expand"]["steps"] == 0
        assert "bvh_count" not in prof

    def test_bound_is_window_kth_and_holds_k_at_rung_zero(self, rng):
        from repro.bvh.knn import _window_bound
        from repro.bvh.traversal import RADIUS_PAD, count_within

        pts = load_dataset("ngsim", 600, seed=1)
        tree = _point_tree(pts)
        k = 5
        dev = Device()
        bound = _window_bound(tree, pts, k, dev)
        n = len(pts)
        for p in (0, 1, k, n // 2, n - 2, n - 1):
            win = tree.order[max(p - k, 0) : p + k + 1]
            i = tree.order[p]
            d = np.sqrt(((pts[win] - pts[i]) ** 2).sum(axis=1))
            assert bound[i] == np.sort(d)[k - 1]
        assert dev.counters.snapshot()["distance_evals"] == n * (2 * k + 1) - k * (k + 1)
        assert (bound >= _kdtree_kth(pts, k)).all()
        counts = count_within(tree, pts, bound * RADIUS_PAD)
        assert (counts >= k).all()

    def test_ngsim_ladder_only_descends(self):
        # the window start puts rung 0 at or above every answer: fewer
        # rounds and fewer count visits than the density start
        X = load_dataset("ngsim", 2000, seed=0)
        tree = _point_tree(X)
        window, density = Device(), Device()
        got = core_distances(tree, X, 5, device=window)
        np.testing.assert_array_equal(got, knn_radii(tree, X, 5, device=density))
        steps = [d.profile()["knn_expand"]["steps"] for d in (window, density)]
        nodes = [d.profile()["bvh_count"]["counters"]["nodes_visited"]
                 for d in (window, density)]
        assert steps[0] < steps[1]
        assert nodes[0] < nodes[1]

    def test_queries_must_be_the_tree_points(self, rng):
        pts = rng.uniform(0, 1, (30, 2))
        tree = _point_tree(pts)
        with pytest.raises(ValueError, match="own points"):
            core_distances(tree, pts[:20], 3)
