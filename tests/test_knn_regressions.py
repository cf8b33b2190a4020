"""Regression tests for kNN radii (``repro.bvh.knn``).

1. **Gather leaf-centre distances** — the gather used to rank
   candidates by distance to the *leaf box geometry* instead of the
   primitive coordinate.  For point-leaf trees the two coincide, which is
   why the original suite never caught it; any tree whose leaf boxes have
   extent got wrong k-th radii.  Such trees are now rejected.
2. **Degenerate dimensions** — a zero scene extent zeroed the density
   estimate that once started each search.  A zero extent also
   collapses the Morton anchors of the window bound, so collinear and
   axis-aligned inputs stay as cKDTree parity cases.

Every query is gathered once at its leaf-order window bound.  The tests
pin parity with cKDTree on tie-heavy and degenerate inputs and on
foreign queries inside and outside the tree's box, the rejection of
queries the distance math cannot rank, and the gather's over-fetch on
ngsim.  Two class names keep the search they were written against, so
their test ids stay stable.
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.bvh.aabb import boxes_from_points
from repro.bvh.builder import build_bvh
from repro.bvh.knn import _window_bound, core_distances, knn_radii
from repro.bvh.traversal import RADIUS_PAD, count_within
from repro.datasets import load_dataset
from repro.device.device import Device
from repro.service import ClusteringService


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


class TestDegenerateDensityEstimate:
    """Zero-extent dimensions (bug 2): parity with cKDTree."""

    def test_collinear(self, rng):
        n = 256
        x = np.sort(rng.uniform(0, 10, n))
        pts = np.column_stack([np.full(n, 1.0), x])
        tree = _point_tree(pts)
        dev = Device()
        got = knn_radii(tree, pts, 4, device=dev)
        np.testing.assert_array_equal(got, _kdtree_kth(pts, 4))
        # one gather and no count rounds
        prof = dev.profile()
        assert prof["knn_gather"]["launches"] == 1
        assert "bvh_count" not in prof

    def test_axis_aligned_3d(self, rng):
        # a planar point set embedded in 3-d: one degenerate extent
        n = 150
        pts = np.column_stack(
            [rng.uniform(0, 5, n), rng.uniform(0, 5, n), np.zeros(n)]
        )
        tree = _point_tree(pts)
        np.testing.assert_array_equal(knn_radii(tree, pts, 6), _kdtree_kth(pts, 6))

    def test_all_coincident(self):
        pts = np.ones((16, 2))
        tree = _point_tree(pts)
        np.testing.assert_array_equal(knn_radii(tree, pts, 16), 0.0)


class TestRungSearch:
    """Tie-heavy inputs as cKDTree parity cases, and a guard on the
    gather's over-fetch."""

    def test_coincident_subset(self, rng):
        # k-fold duplicates (k-th distance 0) mixed with spread points
        spread = rng.uniform(0, 10, (120, 2))
        pts = np.concatenate([spread, np.repeat(spread[:7], 4, axis=0)])
        tree = _point_tree(pts)
        got = knn_radii(tree, pts, 5)
        want = _kdtree_kth(pts, 5)
        np.testing.assert_array_equal(got[want == 0], 0.0)
        np.testing.assert_array_equal(got, want)

    def test_all_coincident_below_n(self):
        pts = np.full((40, 3), 2.5)
        tree = _point_tree(pts)
        for k in (1, 5, 40):
            np.testing.assert_array_equal(knn_radii(tree, pts, k), 0.0)

    def test_k_equals_n(self, rng):
        pts = rng.uniform(0, 3, (64, 2))
        tree = _point_tree(pts)
        np.testing.assert_array_equal(knn_radii(tree, pts, 64), _kdtree_kth(pts, 64))

    def test_ngsim_gather_stays_tight(self):
        # machine-independent guard on the gather's over-fetch: each query
        # gathers a few times k pairs at its window bound (one wide shared
        # radius gathered ~267 n k on this input)
        n, k = 4000, 5
        X = load_dataset("ngsim", n, seed=0)
        tree = _point_tree(X)
        dev = Device()
        got = core_distances(tree, X, k, device=dev)
        np.testing.assert_array_equal(got, _kdtree_kth(X, k))
        gather = dev.profile()["knn_gather_chunk"]["counters"]["distance_evals"]
        assert gather <= 5 * n * k


def _kdtree_kth(pts, k, queries=None):
    queries = pts if queries is None else queries
    return cKDTree(pts).query(queries, k=k)[0].reshape(len(queries), -1)[:, -1]


def _brute_kth(pts, k, queries):
    """The k-th distance from the gather's own squared-distance form: byte
    parity where cKDTree's 3-d summation rounds differently."""
    diff = queries[:, None, :] - pts[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    return np.sqrt(np.sort(d2, axis=1)[:, k - 1])


class TestWindowBound:
    """Every query is gathered at the k-th distance within its leaf-order
    window: the result is byte-equal to cKDTree on inputs built to stress
    the window."""

    CASES = {
        # every point k = 4 times: the window holds the copies, so each
        # bound is an exact 0
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
    def test_byte_equal_to_kdtree(self, case):
        pts, k = self.CASES[case]
        tree = _point_tree(pts)
        got = core_distances(tree, pts, k)
        np.testing.assert_array_equal(got, knn_radii(tree, pts, k, chunk_size=3))
        np.testing.assert_array_equal(got, _kdtree_kth(pts, k))

    def test_duplicates_gather_at_zero_radius(self):
        pts, k = self.CASES["duplicates"]
        dev = Device()
        got = core_distances(_point_tree(pts), pts, k, device=dev)
        np.testing.assert_array_equal(got, 0.0)
        prof = dev.profile()
        assert "bvh_count" not in prof
        # a zero bound reaches only the copies: no query tests more leaves
        # than its k coincident points
        assert prof["knn_gather_chunk"]["counters"]["distance_evals"] <= len(pts) * k

    def test_bound_is_window_kth_and_holds_k(self, rng):
        pts = load_dataset("ngsim", 600, seed=1)
        tree = _point_tree(pts)
        k = 5
        dev = Device()
        bound = _window_bound(tree, pts, k, dev)
        anchor = np.searchsorted(tree.codes, tree.codes[tree.position])
        n = len(pts)
        for i in (0, 1, k, n // 2, n - 2, n - 1):
            a = anchor[i]
            win = tree.order[max(a - k, 0) : a + k + 1]
            d = np.sqrt(((pts[win] - pts[i]) ** 2).sum(axis=1))
            assert bound[i] == np.sort(d)[k - 1]
        lo = np.clip(anchor - k, 0, n)
        hi = np.clip(anchor + k + 1, 0, n)
        assert dev.counters.snapshot()["distance_evals"] == (hi - lo).sum()
        assert (bound >= _kdtree_kth(pts, k)).all()
        counts = count_within(tree, pts, bound * RADIUS_PAD)
        assert (counts >= k).all()

    def test_queries_must_be_the_tree_points(self, rng):
        pts = rng.uniform(0, 1, (30, 2))
        tree = _point_tree(pts)
        with pytest.raises(ValueError, match="own points"):
            core_distances(tree, pts[:20], 3)


class TestForeignQueries:
    """Queries that are not the tree's points get their window from the
    Morton anchor of their own code: still an exact bound, so the answer
    is exact wherever the query lies."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 4, 30])
    def test_inside_and_outside_the_box(self, rng, d, k):
        pts = rng.uniform(0, 4, (300, d))
        tree = _point_tree(pts)
        queries = np.concatenate([
            rng.uniform(0, 4, (100, d)),  # inside the box
            rng.uniform(-40, 44, (100, d)),  # mostly outside it
            np.full((1, d), 1e6),  # far beyond every anchor
        ])
        want = _brute_kth(pts, k, queries)
        np.testing.assert_allclose(want, _kdtree_kth(pts, k, queries), rtol=1e-14)
        for chunk_size in (None, 7):
            got = knn_radii(tree, queries, k, chunk_size=chunk_size)
            np.testing.assert_array_equal(got, want)

    def test_duplicates_of_tree_points(self, rng):
        base = rng.uniform(0, 1, (80, 2))
        pts = np.concatenate([base, base[:10], base[:10]])
        tree = _point_tree(pts)
        queries = np.concatenate([base[5:15], base[5:15]])
        for k in (1, 3, 5):
            got = knn_radii(tree, queries, k)
            np.testing.assert_array_equal(got, _kdtree_kth(pts, k, queries))


class TestHostileQueries:
    """Queries the distance math cannot rank raise ``ValueError``."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, rng, bad):
        pts = rng.uniform(0, 1, (20, 2))
        with pytest.raises(ValueError, match="finite"):
            knn_radii(_point_tree(pts), np.array([[0.5, bad]]), 3)

    def test_overflowing_distance_rejected(self, rng):
        pts = rng.uniform(0, 1, (20, 2))
        tree = _point_tree(pts)
        with pytest.raises(ValueError, match="overflow"):
            knn_radii(tree, np.array([[0.5, 0.5], [1e160, 0.0]]), 3)
        np.testing.assert_array_equal(
            knn_radii(tree, np.array([[1e150, 0.0]]), 3),
            _kdtree_kth(pts, 3, np.array([[1e150, 0.0]])),
        )

    def test_service_answers_invalid(self, rng):
        svc = ClusteringService()
        svc.handle({"op": "create_index", "index": "a",
                    "points": rng.uniform(0, 1, (50, 2)).tolist()})
        r = svc.handle({"op": "knn", "index": "a", "k": 3, "points": [[1e160, 0.0]]})
        assert r["status"] == "error"
        assert r["error"]["code"] == "invalid"
        assert "overflow" in r["error"]["message"]


def test_watchdog_aborts_the_gather(rng):
    pts = rng.uniform(0, 1, (500, 2))
    tree = _point_tree(pts)
    polls = []

    def watchdog():
        polls.append(1)
        if len(polls) > 3:
            raise TimeoutError("deadline")

    dev = Device()
    with pytest.raises(TimeoutError):
        knn_radii(tree, pts, 5, device=dev, watchdog=watchdog)
    assert dev.profile()["knn_gather_chunk"]["launches"] == 1
