"""Correctness tests for batched BVH traversal: completeness vs brute
force, early termination, contained-subtree counts, the leaf-index mask,
per-query radii (lowered in flight too), and chunking invariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bvh.aabb import boxes_from_points
from repro.bvh.builder import build_bvh
from repro.bvh.morton import morton_codes
from repro.bvh.traversal import (
    RADIUS_PAD,
    count_within,
    for_each_leaf_hit,
    refresh_node_components,
)
from repro.core.densebox import fdbscan_densebox
from repro.core.fdbscan import fdbscan
from repro.core.index import DBSCANIndex
from repro.device.device import Device

from tests.conftest import brute_neighbor_counts, brute_pairs


def _tree_over(pts):
    lo, hi = boxes_from_points(pts)
    return build_bvh(lo, hi)


def _collect_pairs(tree, pts, eps, **kw):
    pairs = []

    def cb(q, pos):
        nbr = tree.order[pos]
        pairs.extend(zip(q.tolist(), nbr.tolist()))

    result = for_each_leaf_hit(tree, pts, eps, cb, **kw)
    return pairs, result


class TestCountWithin:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.7])
    def test_counts_match_brute_force(self, d, eps):
        rng = np.random.default_rng(d * 100)
        pts = rng.uniform(0, 1, size=(150, d))
        tree = _tree_over(pts)
        counts = count_within(tree, pts, eps)
        np.testing.assert_array_equal(counts, brute_neighbor_counts(pts, eps))

    def test_external_queries(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 1, size=(100, 2))
        queries = rng.uniform(-0.5, 1.5, size=(40, 2))
        tree = _tree_over(pts)
        counts = count_within(tree, queries, 0.15)
        diff = queries[:, None, :] - pts[None, :, :]
        expected = (np.einsum("ijk,ijk->ij", diff, diff) <= 0.15**2).sum(axis=1)
        np.testing.assert_array_equal(counts, expected)

    def test_every_point_counts_itself(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 1, size=(60, 2))
        tree = _tree_over(pts)
        counts = count_within(tree, pts, 1e-12)
        assert (counts >= 1).all()

    def test_early_exit_truncates_at_threshold(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(0, 0.01, size=(300, 2))  # everything neighbours everything
        tree = _tree_over(pts)
        full = count_within(tree, pts, 1.0)
        assert (full == 300).all()
        capped = count_within(tree, pts, 1.0, stop_at=10)
        assert (capped >= 10).all()
        # The whole tree lies inside every ball, so the unweighted count
        # credits the root's two children whole; the leaf-by-leaf walk
        # (unit weights) shows the truncation.
        ones = np.ones(300)
        walked = count_within(tree, pts, 1.0, stop_at=10, leaf_weights=ones)
        assert (walked >= 10).all()
        assert walked.sum() < full.sum()  # actually terminated early

    def test_early_exit_agrees_on_core_decision(self):
        rng = np.random.default_rng(10)
        pts = np.concatenate(
            [rng.normal(0, 0.05, (100, 2)), rng.uniform(-3, 3, (100, 2))]
        )
        tree = _tree_over(pts)
        minpts = 8
        exact = count_within(tree, pts, 0.2) >= minpts
        early = count_within(tree, pts, 0.2, stop_at=minpts) >= minpts
        np.testing.assert_array_equal(exact, early)

    def test_early_exit_reduces_node_visits(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(0, 0.01, size=(400, 2))
        tree = _tree_over(pts)
        # Unweighted counts credit the root's contained children: one
        # visit (the root) per query.
        dev = Device()
        count_within(tree, pts, 1.0, stop_at=5, device=dev)
        assert dev.counters.nodes_visited == 400
        # The leaf-by-leaf walk (unit weights) is where early exit cuts.
        ones = np.ones(400)
        dev_full, dev_early = Device(), Device()
        count_within(tree, pts, 1.0, device=dev_full, leaf_weights=ones)
        count_within(tree, pts, 1.0, stop_at=5, device=dev_early, leaf_weights=ones)
        assert dev_early.counters.nodes_visited < dev_full.counters.nodes_visited

    def test_stop_at_zero_rejected(self):
        tree = _tree_over(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="stop_at"):
            count_within(tree, np.zeros((3, 2)), 0.1, stop_at=0)

    def test_stop_at_non_finite_rejected(self):
        tree = _tree_over(np.zeros((3, 2)))
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="stop_at"):
                count_within(tree, np.zeros((3, 2)), 0.1, stop_at=bad)

    def test_single_primitive_tree(self):
        tree = _tree_over(np.array([[0.5, 0.5]]))
        counts = count_within(tree, np.array([[0.5, 0.5], [2.0, 2.0]]), 0.1)
        np.testing.assert_array_equal(counts, [1, 0])

    def test_zero_queries(self):
        tree = _tree_over(np.zeros((3, 2)))
        assert count_within(tree, np.zeros((0, 2)), 0.1).shape == (0,)


class TestWeightedEarlyExit:
    """The early-exit contract for weighted counts: a returned value
    ``>= stop_at`` means "at least this many" (the query short-cut);
    values below ``stop_at`` are exact."""

    def _weighted_setup(self, n=40, weight=1.25, seed=13):
        # a tight clump: every point neighbours every other at eps=1
        rng = np.random.default_rng(seed)
        pts = rng.normal(0, 0.01, size=(n, 2))
        tree = _tree_over(pts)
        weights = np.full(n, weight)
        return pts, tree, weights[tree.order]

    def test_weights_summing_exactly_to_stop_at_terminate(self):
        # regression: 4 neighbours x 1.25 = 5.0 exactly — reaching
        # stop_at must terminate (>=, not >) and must not under-report
        # the threshold decision
        pts, tree, leaf_w = self._weighted_setup(n=4, weight=1.25)
        minpts = 5
        exact = count_within(tree, pts, 1.0, leaf_weights=leaf_w)
        np.testing.assert_allclose(exact, 5.0)
        early = count_within(tree, pts, 1.0, stop_at=minpts, leaf_weights=leaf_w)
        assert (early >= minpts).all()
        np.testing.assert_array_equal(early >= minpts, exact >= minpts)

    def test_weighted_early_exit_is_lower_bound(self):
        pts, tree, leaf_w = self._weighted_setup(n=300, weight=1.25)
        exact = count_within(tree, pts, 1.0, leaf_weights=leaf_w)
        early = count_within(tree, pts, 1.0, stop_at=10, leaf_weights=leaf_w)
        assert (early >= 10).all()
        assert (early <= exact).all()
        assert early.sum() < exact.sum()  # actually terminated early

    def test_weighted_counts_below_stop_at_are_exact(self):
        rng = np.random.default_rng(14)
        pts = rng.uniform(0, 1, size=(120, 2))
        tree = _tree_over(pts)
        w = rng.uniform(0.5, 2.0, size=120)
        exact = count_within(tree, pts, 0.1, leaf_weights=w[tree.order])
        early = count_within(tree, pts, 0.1, stop_at=50.0, leaf_weights=w[tree.order])
        below = exact < 50.0
        assert below.any()
        np.testing.assert_allclose(early[below], exact[below])

    def test_fractional_stop_at_with_weights(self):
        pts, tree, leaf_w = self._weighted_setup(n=30, weight=0.5)
        threshold = 2.75  # meaningful for weighted counts: 6 x 0.5 > 2.75
        early = count_within(tree, pts, 1.0, stop_at=threshold, leaf_weights=leaf_w)
        exact = count_within(tree, pts, 1.0, leaf_weights=leaf_w)
        np.testing.assert_array_equal(early >= threshold, exact >= threshold)

    def test_fractional_stop_at_unweighted_acts_as_ceiling(self):
        rng = np.random.default_rng(15)
        pts = rng.normal(0, 0.01, size=(50, 2))
        tree = _tree_over(pts)
        exact = count_within(tree, pts, 1.0)
        early = count_within(tree, pts, 1.0, stop_at=4.5)
        # integer counts cross 4.5 at 5: the decision matches exact counts
        np.testing.assert_array_equal(early >= 4.5, exact >= 4.5)
        assert (early[early >= 4.5] >= 5).all()


def _plain_tally(tree, queries, eps, **kw):
    """Counts from the plain hit stream, and the walk's device: the
    reference the contained-subtree credit must reproduce."""
    counts = np.zeros(queries.shape[0], dtype=np.int64)
    dev = Device()

    def cb(q, _pos):
        np.add.at(counts, q, 1)

    for_each_leaf_hit(tree, queries, eps, cb, device=dev, **kw)
    return counts, dev


def _lattice(side, d, spacing):
    g = spacing * np.arange(side)
    return np.stack(np.meshgrid(*[g] * d), axis=-1).reshape(-1, d)


def _contained_cases():
    """Inputs where contained subtrees and exact-eps ties are common:
    ``(points, queries, eps)``."""
    rng = np.random.default_rng(41)
    lattice = _lattice(16, 2, 0.125)  # power-of-two spacing: exact ties
    dup = np.repeat(rng.uniform(0, 1, (40, 2)), 5, axis=0)  # duplicates
    t = rng.uniform(0, 1, 300)
    line3d = np.stack([t, 0.5 * t, np.full_like(t, 0.25)], axis=1)  # 1-D in 3-D
    radii = rng.uniform(0.0, 0.4, lattice.shape[0])
    radii[::5] = 0.25  # exactly two lattice steps
    return {
        "lattice": (lattice, lattice, 0.125),
        "lattice-3step": (lattice, lattice, 0.375),
        "duplicates": (dup, dup, 0.05),
        "per-query": (lattice, lattice, radii),
        "line-in-3d": (line3d, line3d, 0.1),
        "external": (lattice, rng.uniform(-0.5, 2.5, (200, 2)), 0.5),
    }


class TestContainedCounts:
    """Unweighted counts credit a subtree inside the query's ball with its
    leaf count; every count must equal the plain hit tally."""

    @pytest.mark.parametrize("case", sorted(_contained_cases()))
    def test_full_counts_equal_plain_tally(self, case):
        pts, queries, eps = _contained_cases()[case]
        tree = _tree_over(pts)
        want, plain = _plain_tally(tree, queries, eps)
        dev = Device()
        got = count_within(tree, queries, eps, device=dev)
        np.testing.assert_array_equal(got, want)
        # some subtree was credited whole instead of walked
        assert dev.counters.distance_evals < plain.counters.distance_evals

    @pytest.mark.parametrize("case", sorted(_contained_cases()))
    @pytest.mark.parametrize("stop_at", [3, 10, 40])
    def test_counts_below_stop_at_are_exact(self, case, stop_at):
        pts, queries, eps = _contained_cases()[case]
        tree = _tree_over(pts)
        want, _ = _plain_tally(tree, queries, eps)
        got = count_within(tree, queries, eps, stop_at=stop_at)
        below = want < stop_at
        np.testing.assert_array_equal(got[below], want[below])
        assert (got[~below] >= stop_at).all()

    def test_masked_counts_equal_plain_tally(self):
        # Masked counts walk every leaf (no credit): each query tallies
        # exactly the neighbours at later sorted positions.
        pts, _, eps = _contained_cases()["lattice-3step"]
        tree = _tree_over(pts)
        got, _ = _plain_tally(tree, pts, eps, mask_positions=tree.position)
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        later = tree.position[None, :] > tree.position[:, None]
        np.testing.assert_array_equal(got, ((d2 <= eps * eps) & later).sum(1))

    def test_fewer_nodes_visited_on_dense_data(self):
        from repro.datasets.registry import load_dataset

        X = load_dataset("ngsim", n=2000, seed=0)
        tree = _tree_over(X)
        want, plain = _plain_tally(tree, X, 0.01)
        dev = Device()
        np.testing.assert_array_equal(count_within(tree, X, 0.01, device=dev), want)
        assert dev.counters.nodes_visited < plain.counters.nodes_visited
        assert dev.counters.distance_evals < plain.counters.distance_evals

    def test_weighted_tie_at_minpts_still_core(self):
        # Weights summing to exactly minpts inside a contained subtree:
        # the weighted walk keeps its leaf-by-leaf sum, so the tie is
        # still core.
        pts = _lattice(4, 2, 0.125)  # 16 points, whole tree inside eps=1
        tree = _tree_over(pts)
        w = np.full(16, 0.3125)  # 16 x 5/16 = 5 exactly
        counts = count_within(tree, pts, 1.0, stop_at=5, leaf_weights=w)
        assert (counts >= 5).all()
        res = fdbscan(pts, 1.0, 5, sample_weight=w)
        assert res.is_core.all()
        under = fdbscan(pts, 1.0, 5, sample_weight=np.full(16, 0.3))
        assert not under.is_core.any()

    def test_counts_invariant_to_scheduling(self):
        pts, _, radii = _contained_cases()["per-query"]
        tree = _tree_over(pts)
        base = count_within(tree, pts, radii, stop_at=12)
        for chunk_size in (1, 7, 64, None):
            got = count_within(
                tree, pts, radii, stop_at=12, device=Device(chunk_size=chunk_size)
            )
            np.testing.assert_array_equal(got, base)

    def test_watchdog_polled_every_step(self):
        pts, _, eps = _contained_cases()["lattice"]
        tree = _tree_over(pts)
        calls = []
        count_within(tree, pts, eps, device=Device(watchdog=lambda: calls.append(1)))
        dev = Device()
        count_within(tree, pts, eps, device=dev)
        # once on entry, then once per wavefront step
        assert len(calls) == 1 + dev.profile()["bvh_count"]["steps"]

        class Expired(Exception):
            pass

        def expire():
            if len(calls) > 3:
                raise Expired
            calls.append(1)

        calls.clear()
        with pytest.raises(Expired):
            count_within(tree, pts, eps, device=Device(watchdog=expire))


    @pytest.mark.parametrize("eps", [1e155, 1e300])
    def test_radius_whose_square_overflows(self, eps):
        # 4 r**2 overflows in the contained gate: every node is gated and
        # every count credits the whole tree
        pts = np.random.default_rng(5).uniform(0, 1, (200, 2))
        tree = _tree_over(pts)
        np.testing.assert_array_equal(count_within(tree, pts, eps), 200)
        np.testing.assert_array_equal(count_within(tree, pts, eps, stop_at=5) >= 5, True)
        res = fdbscan(pts, eps, 5)
        box = fdbscan_densebox(pts, eps, 5)
        np.testing.assert_array_equal(res.labels, box.labels)
        np.testing.assert_array_equal(res.is_core, box.is_core)
        assert res.n_clusters == 1 and res.is_core.all()


class TestPerQueryRadii:
    @staticmethod
    def _case(rng):
        """Clustered points with random per-query radii (a tenth zero) plus
        an exact lattice whose radii land exactly on lattice distances."""
        X = np.concatenate([rng.normal(c, 0.08, (60, 2)) for c in (0.5, 2.0)]
                           + [rng.uniform(0, 4, (80, 2))])
        radii = rng.uniform(0.0, 0.2, X.shape[0])
        radii[rng.random(X.shape[0]) < 0.1] = 0.0
        lattice = 5.0 + _lattice(10, 2, 0.125)
        # 0.625 is the hypotenuse of the (0.375, 0.5) lattice step: exact too
        lat_r = rng.choice([0.0, 0.125, 0.25, 0.375, 0.625], lattice.shape[0])
        return np.concatenate([X, lattice]), np.concatenate([radii, lat_r])

    @staticmethod
    def _hits(tree, X, eps, config):
        m = X.shape[0]
        kw = {}
        seen = np.zeros(m, dtype=np.int64)
        if config == "mask":
            kw["mask_positions"] = tree.position.astype(np.int64)
        elif config == "finished":
            kw["finished_fn"] = lambda ids: seen[ids] >= 6
        elif config == "component":
            comp = np.digitize(X[:, 0], [1.0, 2.0, 3.0]).astype(np.int64)
            node_comp = np.empty(tree.node_lo.shape[0], dtype=np.int64)
            refresh_node_components(tree, comp, node_comp)
            kw.update(component_of=comp, node_components=node_comp)
        hits = []

        def cb(q, pos):
            np.add.at(seen, q, 1)
            hits.append((q.astype(np.int64), pos.astype(np.int64)))

        dev = Device(chunk_size=97)
        for_each_leaf_hit(tree, X, eps, cb, device=dev, **kw)
        q = np.concatenate([h[0] for h in hits]) if hits else np.zeros(0, np.int64)
        p = np.concatenate([h[1] for h in hits]) if hits else np.zeros(0, np.int64)
        return q, p, dev.counters.snapshot()

    def test_hits_are_exactly_the_per_query_balls(self, rng):
        X, radii = self._case(rng)
        tree = _tree_over(X)
        q, p, _ = self._hits(tree, X, radii, "plain")
        d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(-1)
        want_q, want_i = np.nonzero(d2 <= (radii * radii)[:, None])
        got = np.lexsort((tree.order[p], q))
        np.testing.assert_array_equal(q[got], want_q)
        np.testing.assert_array_equal(tree.order[p][got], want_i)

    @pytest.mark.parametrize("config", ["plain", "mask", "finished", "component"])
    def test_scalar_equals_constant_array(self, rng, config):
        X, _ = self._case(rng)
        tree = _tree_over(X)
        scalar = self._hits(tree, X, 0.12, config)
        array = self._hits(tree, X, np.full(X.shape[0], 0.12), config)
        np.testing.assert_array_equal(array[0], scalar[0])
        np.testing.assert_array_equal(array[1], scalar[1])
        assert array[2] == scalar[2]
        for stop_at in (None, 5):
            np.testing.assert_array_equal(
                count_within(tree, X, np.full(X.shape[0], 0.12), stop_at=stop_at),
                count_within(tree, X, 0.12, stop_at=stop_at),
            )


    def test_callback_may_lower_a_radius_in_flight(self, rng):
        # a 1-NN branch-and-bound: each hit lowers its query's radius to
        # the nearest distance seen so far
        X, _ = self._case(rng)
        tree = _tree_over(X)
        queries = rng.uniform(-0.5, 5.0, (150, 2))
        radius = np.full(queries.shape[0], 6.0)
        hits = []

        def cb(q, pos):
            q = q.astype(np.int64)
            diff = queries[q] - X[tree.order[pos]]
            d2 = np.einsum("ij,ij->i", diff, diff)
            # every hit lies within the radius its leaf was tested at
            assert (d2 <= radius[q] * radius[q]).all()
            hits.append((q, tree.order[pos]))
            np.minimum.at(radius, q, np.sqrt(d2) * RADIUS_PAD)

        dev = Device(chunk_size=41)
        for_each_leaf_hit(tree, queries, radius, cb, device=dev)
        d2 = ((queries[:, None, :] - X[None, :, :]) ** 2).sum(-1)
        np.testing.assert_array_equal(radius, np.sqrt(d2.min(1)) * RADIUS_PAD)
        # every point within a query's final radius was delivered
        q = np.concatenate([h[0] for h in hits])
        i = np.concatenate([h[1] for h in hits])
        delivered = np.zeros(d2.shape, dtype=bool)
        delivered[q, i] = True
        assert delivered[d2 <= (radius * radius)[:, None]].all()
        # and pruning at the lowered radii skipped most of the fixed walk
        fixed = Device()
        for_each_leaf_hit(tree, queries, 6.0, lambda q, p: None, device=fixed)
        assert dev.counters.nodes_visited < fixed.counters.nodes_visited / 2


class TestMortonScheduleCache:
    @staticmethod
    def _points():
        rng = np.random.default_rng(11)
        return np.concatenate(
            [rng.normal(0.0, 0.12, (350, 2)), rng.normal(1.5, 0.15, (230, 2)),
             rng.uniform(-1.0, 3.0, (120, 2))]
        )

    @pytest.mark.parametrize("d", [2, 3])
    def test_schedule_is_points_tree_order(self, d):
        # The schedule is the points tree's leaf order: a stable sort of
        # the points' Morton codes, so duplicates keep their input order.
        rng = np.random.default_rng(d)
        X = rng.uniform(0.0, 1.0, (300, d))
        X = np.concatenate([X, X[::3], X[:7]])
        index = DBSCANIndex(X)
        schedule = index.morton_schedule()
        np.testing.assert_array_equal(schedule, index.points_tree()[0].order)
        np.testing.assert_array_equal(
            schedule, np.argsort(morton_codes(X), kind="stable")
        )

    def test_cached_schedule_changes_nothing(self):
        X = self._points()
        index = DBSCANIndex(X)
        cold = fdbscan(X, 0.25, 5, device=Device())
        warm = fdbscan(X, 0.25, 5, device=Device(), index=index)
        warm2 = fdbscan(X, 0.25, 5, device=Device(), index=index)
        assert np.array_equal(cold.labels, warm.labels)
        assert np.array_equal(warm.labels, warm2.labels)


class TestLeafHits:
    def test_unmasked_pairs_are_symmetric_and_complete(self):
        rng = np.random.default_rng(20)
        pts = rng.uniform(0, 1, size=(80, 2))
        tree = _tree_over(pts)
        pairs, _ = _collect_pairs(tree, pts, 0.2)
        got = {(q, n) for q, n in pairs if q != n}
        expected = set()
        for i, j in brute_pairs(pts, 0.2):
            expected.add((i, j))
            expected.add((j, i))
        assert got == expected
        # self-hits present exactly once per point
        self_hits = [(q, n) for q, n in pairs if q == n]
        assert len(self_hits) == 80

    def test_masked_pairs_each_edge_once(self):
        rng = np.random.default_rng(21)
        pts = rng.uniform(0, 1, size=(120, 2))
        tree = _tree_over(pts)
        pairs, _ = _collect_pairs(tree, pts, 0.15, mask_positions=tree.position)
        # no duplicates, no self-pairs
        assert len(pairs) == len(set(pairs))
        assert all(q != n for q, n in pairs)
        got = {frozenset(p) for p in pairs}
        expected = {frozenset(p) for p in brute_pairs(pts, 0.15)}
        assert got == expected

    def test_mask_halves_pair_traffic(self):
        rng = np.random.default_rng(22)
        pts = rng.uniform(0, 1, size=(150, 2))
        tree = _tree_over(pts)
        unmasked, _ = _collect_pairs(tree, pts, 0.2)
        masked, _ = _collect_pairs(tree, pts, 0.2, mask_positions=tree.position)
        non_self = [p for p in unmasked if p[0] != p[1]]
        assert len(masked) * 2 == len(non_self)

    def test_mask_reduces_node_visits(self):
        rng = np.random.default_rng(23)
        pts = rng.uniform(0, 1, size=(300, 2))
        tree = _tree_over(pts)
        dev_u, dev_m = Device(), Device()
        _collect_pairs(tree, pts, 0.2, device=dev_u)
        _collect_pairs(tree, pts, 0.2, mask_positions=tree.position, device=dev_m)
        assert dev_m.counters.nodes_visited < dev_u.counters.nodes_visited

    @pytest.mark.parametrize("chunk", [1, 7, 64, None])
    def test_chunking_invariance(self, chunk):
        rng = np.random.default_rng(24)
        pts = rng.uniform(0, 1, size=(90, 2))
        tree = _tree_over(pts)
        base, _ = _collect_pairs(tree, pts, 0.25, device=Device(chunk_size=None))
        chunked, _ = _collect_pairs(tree, pts, 0.25, device=Device(chunk_size=chunk))
        assert sorted(base) == sorted(chunked)

    def test_eps_zero_finds_exact_duplicates(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        tree = _tree_over(pts)
        counts = count_within(tree, pts, 0.0)
        np.testing.assert_array_equal(counts, [2, 2, 1])

    def test_negative_eps_rejected(self):
        tree = _tree_over(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="eps"):
            for_each_leaf_hit(tree, np.zeros((2, 2)), -1.0, lambda q, p: None)

    @pytest.mark.parametrize(
        "radii",
        [
            np.array([0.1, 0.1]),  # wrong length
            np.full((3, 1), 0.1),  # wrong rank
            np.array([0.1, np.nan, 0.1]),
            np.array([0.1, np.inf, 0.1]),
            np.array([0.1, -0.5, 0.1]),
        ],
    )
    def test_bad_per_query_radii_rejected(self, radii):
        tree = _tree_over(np.zeros((2, 2)))
        queries = np.zeros((3, 2))
        with pytest.raises(ValueError, match="eps"):
            for_each_leaf_hit(tree, queries, radii, lambda q, p: None)
        with pytest.raises(ValueError, match="eps"):
            count_within(tree, queries, radii)

    def test_per_query_radii_match_brute_force(self):
        rng = np.random.default_rng(26)
        pts = rng.uniform(0, 1, size=(80, 2))
        radii = rng.uniform(0, 0.3, size=80)
        radii[::7] = 0.0
        tree = _tree_over(pts)
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        want = (d2 <= (radii * radii)[:, None]).sum(1)
        np.testing.assert_array_equal(count_within(tree, pts, radii), want)

    def test_dim_mismatch_rejected(self):
        tree = _tree_over(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="queries"):
            for_each_leaf_hit(tree, np.zeros((2, 3)), 0.1, lambda q, p: None)

    def test_frontier_peak_reported(self):
        rng = np.random.default_rng(25)
        pts = rng.uniform(0, 1, size=(50, 2))
        tree = _tree_over(pts)
        _, result = _collect_pairs(tree, pts, 0.3)
        assert result.frontier_peak > 0
        assert result.steps > 0
        assert result.leaf_hits > 0

    def test_box_primitive_hits(self):
        # A mixed tree: a fat box plus points; queries near the box edge
        # must report the box when mindist <= eps.
        lo = np.array([[0.0, 0.0], [5.0, 5.0]])
        hi = np.array([[1.0, 1.0], [5.0, 5.0]])
        tree = build_bvh(lo, hi)
        hits = []

        def cb(q, pos):
            hits.extend(zip(q.tolist(), tree.order[pos].tolist()))

        for_each_leaf_hit(tree, np.array([[1.4, 0.5], [1.6, 0.5]]), 0.5, cb)
        assert (0, 0) in hits  # query 0 within 0.5 of the box
        assert (1, 0) not in hits  # query 1 is 0.6 away

    @given(st.integers(0, 10_000), st.floats(0.01, 0.6), st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_counts_property(self, seed, eps, d):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 1, size=(rng.integers(1, 120), d))
        tree = _tree_over(pts)
        counts = count_within(tree, pts, eps)
        np.testing.assert_array_equal(counts, brute_neighbor_counts(pts, eps))

    @given(st.integers(0, 10_000), st.floats(0.01, 0.4))
    @settings(max_examples=25, deadline=None)
    def test_masked_pairs_property(self, seed, eps):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 1, size=(rng.integers(2, 80), 2))
        tree = _tree_over(pts)
        pairs, _ = _collect_pairs(tree, pts, eps, mask_positions=tree.position)
        assert len(pairs) == len(set(pairs))
        got = {frozenset(p) for p in pairs}
        assert got == {frozenset(p) for p in brute_pairs(pts, eps)}
