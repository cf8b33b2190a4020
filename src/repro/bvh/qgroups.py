"""Query-side BVH for the dual-tree (query-aggregated) traversal.

The single-query wavefront carries one frontier row per ``(query, node)``
pair, so Morton-adjacent queries that visit nearly identical subtrees each
pay the same box tests again.  The dual engine instead aggregates the
chunk's Morton-sorted queries into a **query-side BVH** — the full dual
tree walk JZ-Tree uses, rather than the fixed two-level packing of the
early aggregated-traversal prototypes:

- the hierarchy is built by recursive **median bisection** of the
  Morton-sorted chunk (the same spatial-median machinery the points tree
  gets from its Morton codes), so every node covers a *contiguous* range
  of sorted chunk positions;
- leaf sizes are **density-adaptive**: splitting stops at
  ``group_size`` members, or earlier when a node's box is already *dense*
  (its longest edge at or below :data:`DENSE_LEAF_EXT_FRACTION` of the
  search radius) — a tight cluster becomes one large leaf whose single
  box test covers many queries, while sparse regions split down to small
  groups that stay prunable.  :data:`DENSE_LEAF_CAP_FACTOR` bounds how
  large a dense leaf may grow, keeping the per-member work at the leaf
  fringe linear.  Conversely a *sparse* node — longest edge above
  :data:`SPARSE_LEAF_EXT_FACTOR` times its largest member radius — keeps
  splitting below ``group_size`` (down to :data:`SPARSE_LEAF_MIN`), so
  tight per-query radii do not re-test every member of a wide leaf at
  leaf parents only the leaf's box reaches.

Node ids live in one packed id space mirroring the internal-before-leaf
numbering of :class:`repro.bvh.tree.BVH`: internal nodes are
``0 .. n_inner-1`` (in creation = breadth-first order, so each level's
internal ids are contiguous), leaves are ``n_inner .. n_nodes-1``.  A
query node's box is the tight AABB of its member *points* (not
eps-inflated), and its radius ``r_max`` the largest of its members'
search radii: testing ``mindist(node_box, tree_box) <= r_max`` is the
exact Minkowski form of "the ``r_max``-inflated query AABB intersects
the tree box" under the L2 metric, and for a single-member leaf it
degenerates to exactly the per-query sphere/box test the single engine
runs.

All output arrays are taken from the caller's scratch pool (duck-typed —
any object with the :class:`repro.bvh.traversal._FrontierPool` ``take``
methods), so the hierarchy's footprint is charged to the memory model
under the pool's tag and reused across chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Default target queries per leaf.  32 mirrors a warp: the leaf is the
#: unit whose members share one box test, exactly as a warp's threads
#: share a cooperatively-tested node.
DEFAULT_GROUP_SIZE = 32

#: A *dense* leaf (box edge already tiny next to eps) may absorb up to
#: this many times ``group_size`` members before it is forced to split —
#: the density-adaptive upper bound on leaf size.
DENSE_LEAF_CAP_FACTOR = 8

#: A node counts as dense once its longest box edge is at or below this
#: fraction of the search radius: its members are nearly co-located at
#: the scale of the query, so one shared box test resolves almost every
#: member identically and further splitting only adds frontier entries.
DENSE_LEAF_EXT_FRACTION = 0.5

#: A node whose longest edge exceeds this many times its largest member
#: radius keeps splitting below ``group_size``: every member of a leaf is
#: re-tested at each leaf parent the *group* reaches, so a leaf much
#: wider than its members' search balls pays for parents none of them
#: reach (tight per-query radii, e.g. kNN core distances).
SPARSE_LEAF_EXT_FACTOR = 4.0

#: Leaves this small stop splitting regardless of their extent: their
#: fringe re-tests are already bounded by a few per parent.
SPARSE_LEAF_MIN = 4


@dataclass
class QueryBVH:
    """Packed query-side BVH over one Morton-sorted chunk.

    Node ids: internal nodes are ``0 .. n_inner-1`` (breadth-first, so a
    construction level's internal ids are contiguous — see
    :attr:`levels`), leaves are ``n_inner .. n_nodes-1``.  The root is
    always node ``0``.

    Attributes
    ----------
    lo, hi:
        ``(n_nodes, d)`` tight member-point AABB per query node.
    mem_lo, mem_hi:
        ``(n_nodes,)`` member range ``[lo, hi)`` in *chunk positions* —
        contiguous by construction at every node (median bisection never
        reorders the chunk).
    child0, child1:
        ``(n_inner,)`` child node ids per internal node (binary tree).
    ext:
        ``(n_nodes,)`` longest box edge — the refinement heuristic
        compares it against the tree node's extent to decide which side
        of a frontier pair is looser.
    mask_min:
        ``(n_nodes,)`` minimum traversal-mask position over members (or
        ``None``): a subtree with ``range_hi <= mask_min`` is hidden from
        *every* member, so the whole query node skips it in one test.
    r_max:
        ``(n_nodes,)`` largest search radius over members: a tree node
        farther than ``r_max`` from the node's box is out of reach of
        *every* member, so the whole query node skips it in one test.
    top:
        Seed node ids — always ``[0]`` (the root).
    levels:
        ``((lo, hi), ...)`` internal-id ranges per construction depth,
        root first.  Iterating them *reversed* visits children before
        parents, which is what lets per-node summaries (the traversal's
        uniform-component array) propagate bottom-up with one vectorised
        combine per level.
    leaf_order:
        ``(n_leaves,)`` leaf node ids ordered by ``mem_lo``.  Leaves tile
        the chunk, so ``mem_lo[leaf_order]`` is a valid ``reduceat``
        boundary list over per-member arrays — the hook the traversal
        uses to seed bottom-up summaries.
    """

    n_inner: int
    n_leaves: int
    lo: np.ndarray
    hi: np.ndarray
    mem_lo: np.ndarray
    mem_hi: np.ndarray
    child0: np.ndarray
    child1: np.ndarray
    ext: np.ndarray
    mask_min: np.ndarray | None
    r_max: np.ndarray
    top: np.ndarray
    levels: tuple
    leaf_order: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.n_inner + self.n_leaves


def build_query_bvh(
    points: np.ndarray,
    mask: np.ndarray | None,
    group_size: int,
    radii: np.ndarray,
    pool,
) -> QueryBVH:
    """Build the query BVH over one chunk's Morton-sorted query points.

    ``points`` are the chunk's queries in schedule (Morton) order;
    ``mask`` the matching traversal-mask positions (or ``None``);
    ``radii`` the matching search radii, summarised per node as
    ``r_max`` and also feeding the density-adaptive leaf rule.
    The build is a pure function of its inputs — same chunk, same
    hierarchy.  Output arrays are views into ``pool`` slots (grown once,
    reused per chunk).
    """
    cn, _dim = points.shape
    group_size = max(1, int(group_size))
    dense_cap = group_size * DENSE_LEAF_CAP_FACTOR

    # Level-by-level construction over a *tiling* of [0, cn): every
    # segment is owned by a node (finalised leaves stay in the tiling so
    # one reduceat per level covers all active ranges).  Nodes are
    # recorded in creation order — level by level, within a level in
    # member order — so sibling pairs get adjacent creation ids.
    starts = np.zeros(1, dtype=np.int64)
    is_new = np.ones(1, dtype=bool)

    lo_l: list[np.ndarray] = []
    hi_l: list[np.ndarray] = []
    ext_l: list[np.ndarray] = []
    mlo_l: list[np.ndarray] = []
    mhi_l: list[np.ndarray] = []
    msk_l: list[np.ndarray] = []
    rad_l: list[np.ndarray] = []
    leaf_l: list[np.ndarray] = []
    fchild_l: list[np.ndarray] = []
    level_sizes: list[int] = []
    n_total = 0

    while True:
        ends = np.append(starts[1:], cn)
        seg_lo = np.minimum.reduceat(points, starts, axis=0)
        seg_hi = np.maximum.reduceat(points, starts, axis=0)
        seg_mask = (
            np.minimum.reduceat(mask, starts) if mask is not None else None
        )
        new = np.flatnonzero(is_new)
        n_lo = seg_lo[new]
        n_hi = seg_hi[new]
        n_ext = (n_hi - n_lo).max(axis=1)
        n_cnt = ends[new] - starts[new]
        n_rad = np.maximum.reduceat(radii, starts)[new]
        leaf = n_cnt <= group_size
        if group_size > 1:
            # group_size=1 means "degenerate to per-query traversal": the
            # dense and sparse rules are off so every leaf holds exactly
            # one query.
            leaf &= (n_ext <= SPARSE_LEAF_EXT_FACTOR * n_rad) | (n_cnt <= SPARSE_LEAF_MIN)
            leaf |= (n_ext <= DENSE_LEAF_EXT_FRACTION * n_rad) & (n_cnt <= dense_cap)

        rad_l.append(n_rad)
        lo_l.append(n_lo)
        hi_l.append(n_hi)
        ext_l.append(n_ext)
        mlo_l.append(starts[new].copy())
        mhi_l.append(ends[new].copy())
        if seg_mask is not None:
            msk_l.append(seg_mask[new])
        leaf_l.append(leaf)
        level_sizes.append(new.size)
        n_total += new.size

        split = ~leaf
        n_split = int(np.count_nonzero(split))
        fc = np.full(new.size, -1, dtype=np.int64)
        if n_split:
            # Children are the *next* level's new nodes, in member order:
            # a splitting node's two halves are adjacent there, so the
            # first child's creation id determines both.
            rank = np.cumsum(split) - 1
            fc[split] = n_total + 2 * rank[split]
        fchild_l.append(fc)
        if n_split == 0:
            break

        # Rebuild the tiling: splitting segments bisect at the member
        # median; every other segment (finalised or older leaf) stays.
        split_seg = np.zeros(starts.size, dtype=bool)
        split_seg[new[split]] = True
        reps = np.where(split_seg, 2, 1)
        pos_first = np.cumsum(reps) - reps
        sp = np.flatnonzero(split_seg)
        mid = starts[sp] + (ends[sp] - starts[sp]) // 2
        next_starts = np.repeat(starts, reps)
        next_starts[pos_first[sp] + 1] = mid
        next_new = np.zeros(next_starts.size, dtype=bool)
        next_new[pos_first[sp]] = True
        next_new[pos_first[sp] + 1] = True
        starts, is_new = next_starts, next_new

    # -- renumber creation order into the packed internal-before-leaf
    #    id space and materialise the pool-backed arrays ----------------
    c_leaf = np.concatenate(leaf_l)
    c_fc = np.concatenate(fchild_l)
    inner = ~c_leaf
    n_inner = int(np.count_nonzero(inner))
    n_leaves = n_total - n_inner
    perm = np.empty(n_total, dtype=np.int64)
    perm[inner] = np.cumsum(inner)[inner] - 1
    perm[c_leaf] = n_inner + np.cumsum(c_leaf)[c_leaf] - 1

    lo = pool.take2d("qg_lo", n_total)
    hi = pool.take2d("qg_hi", n_total)
    mem_lo = pool.take("qg_mem_lo", n_total)
    mem_hi = pool.take("qg_mem_hi", n_total)
    ext = pool.take("qg_ext", n_total, dtype=np.float64)
    lo[perm] = np.concatenate(lo_l, axis=0)
    hi[perm] = np.concatenate(hi_l, axis=0)
    mem_lo[perm] = np.concatenate(mlo_l)
    mem_hi[perm] = np.concatenate(mhi_l)
    ext[perm] = np.concatenate(ext_l)

    mask_min = None
    if mask is not None:
        mask_min = pool.take("qg_mask", n_total)
        mask_min[perm] = np.concatenate(msk_l)
    r_max = pool.take("qg_r_max", n_total, dtype=np.float64)
    r_max[perm] = np.concatenate(rad_l)

    child0 = pool.take("qg_child0", n_inner, dtype=np.int32)
    child1 = pool.take("qg_child1", n_inner, dtype=np.int32)
    if n_inner:
        fc_inner = c_fc[inner]
        child0[:] = perm[fc_inner]
        child1[:] = perm[fc_inner + 1]

    # Internal-id ranges per construction level (creation order keeps a
    # level's internals contiguous after renumbering).
    levels = []
    done = 0
    seen = 0
    for size, lvl_leaf in zip(level_sizes, leaf_l):
        k = int(np.count_nonzero(~lvl_leaf))
        if k:
            levels.append((done, done + k))
        done += k
        seen += size

    # Leaves sorted by member start: a reduceat-ready tiling of the chunk.
    leaf_ids = perm[c_leaf]
    leaf_starts = np.concatenate(mlo_l)[c_leaf]
    order = np.argsort(leaf_starts, kind="stable")
    leaf_order = pool.take("qg_leaf_order", n_leaves, dtype=np.int32)
    leaf_order[:] = leaf_ids[order]

    top = np.zeros(1, dtype=np.int32)
    return QueryBVH(
        n_inner=n_inner,
        n_leaves=n_leaves,
        lo=lo,
        hi=hi,
        mem_lo=mem_lo,
        mem_hi=mem_hi,
        child0=child0,
        child1=child1,
        ext=ext,
        mask_min=mask_min,
        r_max=r_max,
        top=top,
        levels=tuple(levels),
        leaf_order=leaf_order,
    )
