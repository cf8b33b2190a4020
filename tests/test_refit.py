"""Focused tests for the bottom-up refit and the BFS level grouping."""

import numpy as np
import pytest

from repro.bvh.aabb import boxes_from_points
from repro.bvh.builder import build_bvh
from repro.bvh.refit import internal_levels, refit


class TestInternalLevels:
    def test_levels_for_a_small_tree(self, rng):
        pts = rng.uniform(0, 1, size=(16, 2))
        lo, hi = boxes_from_points(pts)
        tree = build_bvh(lo, hi)
        levels = internal_levels(tree.left, tree.right, tree.n_primitives)
        assert levels[0].tolist() == [0]  # root level
        seen = np.concatenate(levels)
        assert sorted(seen.tolist()) == list(range(15))

    def test_no_internal_nodes(self):
        assert internal_levels(np.zeros(0, np.int64), np.zeros(0, np.int64), 1) == []

    def test_malformed_topology_detected(self):
        # left/right of node 0 point to leaves only -> node 1 unreachable
        left = np.array([2, 3], dtype=np.int64)  # node ids >= n-1 are leaves
        right = np.array([3, 4], dtype=np.int64)
        with pytest.raises(AssertionError, match="malformed"):
            internal_levels(left, right, 3)


class TestRefit:
    def test_refit_after_moving_primitives(self, rng):
        # The point of keeping levels on the tree: update leaf boxes and
        # re-fit without rebuilding topology.
        pts = rng.uniform(0, 1, size=(64, 2))
        lo, hi = boxes_from_points(pts)
        tree = build_bvh(lo, hi)
        n = tree.n_primitives
        moved = pts + rng.normal(0, 0.01, size=pts.shape)
        tree.node_lo[n - 1 :] = moved[tree.order]
        tree.node_hi[n - 1 :] = moved[tree.order]
        refit(tree.node_lo, tree.node_hi, tree.left, tree.right, tree.levels)
        tree.validate()
        np.testing.assert_allclose(tree.node_lo[0], moved.min(axis=0))
        np.testing.assert_allclose(tree.node_hi[0], moved.max(axis=0))

    def test_refit_is_idempotent(self, rng):
        pts = rng.uniform(0, 1, size=(50, 3))
        lo, hi = boxes_from_points(pts)
        tree = build_bvh(lo, hi)
        before_lo = tree.node_lo.copy()
        before_hi = tree.node_hi.copy()
        refit(tree.node_lo, tree.node_hi, tree.left, tree.right, tree.levels)
        np.testing.assert_array_equal(tree.node_lo, before_lo)
        np.testing.assert_array_equal(tree.node_hi, before_hi)

    def test_refit_tightness(self, rng):
        # every internal box is exactly the union of its children (no slack)
        pts = rng.uniform(0, 1, size=(100, 2))
        lo, hi = boxes_from_points(pts)
        tree = build_bvh(lo, hi)
        for i in range(tree.n_internal):
            l, r = tree.left[i], tree.right[i]
            np.testing.assert_array_equal(
                tree.node_lo[i], np.minimum(tree.node_lo[l], tree.node_lo[r])
            )
            np.testing.assert_array_equal(
                tree.node_hi[i], np.maximum(tree.node_hi[l], tree.node_hi[r])
            )
