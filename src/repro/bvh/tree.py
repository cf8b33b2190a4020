"""The linear BVH container.

Node identifier convention (the classic Karras layout):

- internal nodes are ``0 .. n-2``; node ``0`` is the root;
- leaf ``p`` (the primitive at *sorted position* ``p``) is node
  ``(n - 1) + p``;
- with a single primitive there are no internal nodes and node ``0`` is
  the lone leaf — the same arithmetic still holds.

The tree stores, besides children/parents and the fitted boxes, each
node's *leaf range* ``[range_lo, range_hi]`` in sorted order.  The range is
a by-product of the Karras construction and is what makes the paper's
traversal mask (Section 4.1, Figure 1) a constant-time test: a subtree is
hidden from the query at sorted position ``p`` exactly when its
``range_hi <= p``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class BVH:
    """A built linear BVH over ``n_primitives`` boxes.

    Attributes
    ----------
    n_primitives:
        Number of leaves ``n``.
    node_lo, node_hi:
        ``(2 n - 1, d)`` fitted boxes for every node (internal + leaf),
        indexed by node id.
    left, right:
        ``(n - 1,)`` child node ids per internal node.
    parent:
        ``(2 n - 1,)`` parent node id per node; the root's parent is -1.
    node_range_lo, node_range_hi:
        ``(2 n - 1,)`` sorted-leaf-position range covered by each node
        (for a leaf, both equal its own position).
    order:
        ``(n,)`` primitive index (caller's numbering) at each sorted
        position: ``order[p]`` is the primitive stored in leaf ``p``.
    position:
        ``(n,)`` inverse of ``order``: sorted position of each primitive.
    codes:
        ``(n,)`` sorted Morton codes (the kNN window anchors search them).
    levels:
        Internal-node ids grouped by depth (root first); produced by the
        builder's BFS and walked deepest-first by bottom-up passes.
    """

    n_primitives: int
    node_lo: np.ndarray
    node_hi: np.ndarray
    left: np.ndarray
    right: np.ndarray
    parent: np.ndarray
    node_range_lo: np.ndarray
    node_range_hi: np.ndarray
    order: np.ndarray
    position: np.ndarray
    codes: np.ndarray
    levels: list[np.ndarray]
    #: Parent-major traversal layout (see :meth:`packed_children`); built
    #: lazily and cached.
    _packed: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def n_internal(self) -> int:
        """Number of internal nodes (= leaf-node id offset)."""
        return self.n_primitives - 1

    @property
    def root(self) -> int:
        """Node id of the root (0 in both the general and the n=1 case)."""
        return 0

    @property
    def dim(self) -> int:
        return self.node_lo.shape[1]

    def leaf_node_id(self, positions: np.ndarray) -> np.ndarray:
        """Node ids of the leaves at the given sorted positions."""
        return np.asarray(positions) + self.n_internal

    def packed_children(self) -> tuple:
        """Parent-major child layout for the wavefront traversal.

        Returns ``(child, child_lo, child_hi, child_range_hi)`` where
        ``child`` is ``(n_internal, 2)`` node ids and the box/range arrays
        hold both children's data contiguously per parent —
        ``child_lo[p, 0]`` is the left child's box, ``child_lo[p, 1]`` the
        right's.  One gather over parent ids then fetches everything a
        frontier step needs, instead of two gathers over a
        doubled-and-concatenated child list; this is the interleaved node
        layout GPU BVHs store for exactly this reason.  (lo and hi stay
        separate arrays so the downstream box tests run over contiguous
        memory — numpy's ufunc fast path.)  Ids and ranges are int32
        whenever they fit (they do until ~1e9 primitives), halving the
        index traffic like a real implementation would.

        The layout is derived from ``left``/``right``/``node_lo``/
        ``node_hi`` on first use and cached; a built tree is never
        mutated, so the cache never goes stale.
        """
        if self._packed is None:
            child = np.stack([self.left, self.right], axis=1)
            if 2 * self.n_primitives - 1 <= np.iinfo(np.int32).max:
                child = child.astype(np.int32)
            self._packed = (
                child,
                np.ascontiguousarray(self.node_lo[child]),
                np.ascontiguousarray(self.node_hi[child]),
                np.ascontiguousarray(self.node_range_hi[child].astype(child.dtype)),
            )
        return self._packed

    def nbytes(self) -> int:
        """Device footprint of the tree's arrays (incl. the packed
        traversal layout, materialised eagerly by the builder)."""
        total = 0
        for arr in (
            self.node_lo,
            self.node_hi,
            self.left,
            self.right,
            self.parent,
            self.node_range_lo,
            self.node_range_hi,
            self.order,
            self.position,
            self.codes,
        ):
            total += arr.nbytes
        if self._packed is not None:
            total += sum(arr.nbytes for arr in self._packed)
        return total

    def validate(self) -> None:
        """Structural sanity checks (used by tests; O(n))."""
        n = self.n_primitives
        if n == 0:
            raise ValueError("BVH with zero primitives")
        if n == 1:
            return
        seen = np.zeros(2 * n - 1, dtype=bool)
        seen[self.root] = True
        for arr in (self.left, self.right):
            if np.any(seen[arr]):
                raise AssertionError("node referenced as a child twice (cycle)")
            seen[arr] = True
        if not seen.all():
            raise AssertionError("unreachable node")
        # every parent's box must contain both children's boxes
        for child in (self.left, self.right):
            if np.any(self.node_lo[np.arange(n - 1)] > self.node_lo[child] + 1e-12):
                raise AssertionError("parent box does not contain child (lo)")
            if np.any(self.node_hi[np.arange(n - 1)] < self.node_hi[child] - 1e-12):
                raise AssertionError("parent box does not contain child (hi)")
