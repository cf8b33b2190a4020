"""Linear bounding volume hierarchy (BVH) — the paper's search index.

The paper builds its neighbour search on a *linear BVH* (Karras 2012), the
structure ArborX provides, "chosen for its good data and thread divergence
characteristics" (Section 1).  This package is a from-scratch, fully
vectorised reproduction:

``morton``
    2-D (31 bits/axis) and 3-D (21 bits/axis) Morton codes via magic-number
    bit spreading; the space-filling-curve order that makes the linear
    builder possible.

``aabb``
    Vectorised axis-aligned-bounding-box operations, including the
    sphere/box minimum-distance test used as the traversal predicate.

``builder`` / ``tree`` / ``refit``
    The Karras construction: sort primitives by Morton code, derive every
    internal node's leaf range and split with vectorised binary searches
    (no per-node loops), then refit AABBs bottom-up level by level.
    Duplicate codes are handled with the standard index-augmented
    tie-break.  The builder accepts *boxes*, not just points — exactly the
    property FDBSCAN-DenseBox exploits by mixing isolated points with
    dense-cell boxes (Section 4.2, Figure 2).

``traversal``
    Batched wavefront sphere queries: all queries advance through the tree
    simultaneously, one frontier per step (the data-parallel analogue of
    the paper's "batched mode, i.e. with all threads launching at the same
    time").  Provides early termination at ``minpts`` (preprocessing),
    streaming leaf-hit callbacks that never materialise neighbour lists
    (the fused main phase) and the leaf-index *mask* of Section 4.1 that
    processes each neighbour pair exactly once.  Unweighted counts credit
    a subtree that lies wholly inside the query's ball with its leaf
    count instead of walking it.

``statistics``
    Tree-shape summaries (depths, SAH cost, sibling overlap) for the
    observability surface.
"""

from repro.bvh.aabb import (
    boxes_from_points,
    merge_aabbs,
    mindist_point_box_sq,
    scene_bounds,
)
from repro.bvh.builder import build_bvh
from repro.bvh.morton import morton_codes, normalize_to_grid
from repro.bvh.traversal import (
    TraversalResult,
    count_within,
    for_each_leaf_hit,
)
from repro.bvh.tree import BVH

__all__ = [
    "BVH",
    "TraversalResult",
    "boxes_from_points",
    "build_bvh",
    "count_within",
    "for_each_leaf_hit",
    "merge_aabbs",
    "mindist_point_box_sq",
    "morton_codes",
    "normalize_to_grid",
    "scene_bounds",
]
