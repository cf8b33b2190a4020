"""Bottom-up AABB refit for the linear BVH.

On the GPU this is the classic one-kernel bottom-up pass where each thread
starts at a leaf and climbs, with an atomic flag letting only the second
visitor of each internal node proceed.  The vectorised equivalent used
here first groups internal nodes by depth with a level-order BFS from the
root (each node appears exactly once, so the BFS is ``O(n)`` total work in
``O(depth)`` vectorised steps), then fits each level from the deepest up —
when a level is processed, every child box is already final.

The builder runs the refit once, before the :class:`~repro.bvh.tree.BVH`
exists; no tree is refit after its build.
"""

from __future__ import annotations

import numpy as np


def internal_levels(left: np.ndarray, right: np.ndarray, n_primitives: int) -> list[np.ndarray]:
    """Group internal node ids by depth (root level first).

    ``left``/``right`` are the per-internal-node child ids; leaf nodes have
    ids ``>= n_primitives - 1`` and terminate the BFS.
    """
    n_internal = n_primitives - 1
    if n_internal <= 0:
        return []
    levels: list[np.ndarray] = []
    current = np.array([0], dtype=np.int64)
    total = 0
    while current.size:
        levels.append(current)
        total += current.size
        children = np.concatenate([left[current], right[current]])
        current = children[children < n_internal]
    if total != n_internal:
        raise AssertionError(
            f"BFS reached {total} internal nodes, expected {n_internal} (malformed topology)"
        )
    return levels


def refit(
    node_lo: np.ndarray,
    node_hi: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    levels: list[np.ndarray],
) -> None:
    """Fit every internal node's box to the union of its children, in place.

    Leaf boxes (``node_lo/hi[n-1:]``) must already hold the primitive
    boxes.  Levels are processed deepest-first so each union reads final
    child boxes.
    """
    for level in reversed(levels):
        l_child = left[level]
        r_child = right[level]
        # Assignment, not ufunc-out: node_lo[level] is a fancy-indexing
        # copy, so an `out=` write would be lost.
        node_lo[level] = np.minimum(node_lo[l_child], node_lo[r_child])
        node_hi[level] = np.maximum(node_hi[l_child], node_hi[r_child])

