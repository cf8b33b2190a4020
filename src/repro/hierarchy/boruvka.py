"""BVH-accelerated Borůvka MST of the mutual-reachability graph.

Prim's loop (:mod:`repro.hierarchy.mst`) materialises one O(n) distance
row per added vertex — n·(n−1) distance evaluations regardless of the
data's geometry.  Borůvka's algorithm replaces that with tree-pruned
work: every round, each component finds its minimum-weight outgoing edge
and the components merge, so the component count at least halves and
O(log n) rounds suffice.  This is the shape ArborX uses for its
Euclidean-MST/HDBSCAN at exascale; here each round's "find my component's
nearest outside point" queries run as *batched wavefront traversals* with
the component mask of :func:`repro.bvh.traversal.for_each_leaf_hit`:

- per-node component summaries are refreshed bottom-up over the BVH
  levels (one ``np.where`` per level), so any subtree uniform in the
  query's component is pruned in one comparison instead of being
  descended;
- every component's search starts from an exact upper bound: each round
  first scores the pairs of sorted leaf positions ``(p, p+1)`` and
  ``(p, p+2)`` that straddle two components.  In the tree's Morton leaf
  order these are spatial neighbours, and each is a real edge, so its
  weight bounds both components' minima from above.  A component that
  does not span the whole set holds a member next to another component
  at offset 1, so every bound is finite;
- each round is then one traversal launch in which every point that
  can still win searches at its component's bound, and each step's hits
  lower the bounds, and with them the live radii, of every launched
  query: an edge that improves on or ties the bound has
  ``dist <= w <= bound``, so the capped search still reaches every
  candidate that can matter;
- candidate edges reduce under the strict total order ``(w, min(a,b),
  max(a,b))``, which makes the per-component choice unique even among
  tied weights — the classic Borůvka cycle-safety argument — so once the
  edge two components both picked is kept once, a round's picks form a
  forest and merge in one batched union
  (:class:`repro.unionfind.ecl.EclUnionFind`).

Every minimum spanning tree of a graph has the same sorted weight
multiset (the exchange property), so the single-linkage dendrogram
heights obtained from this MST are *bit-equal* to the Prim's path —
the equivalence the test suite asserts.
"""

from __future__ import annotations

import numpy as np

from repro.bvh.aabb import boxes_from_points
from repro.bvh.builder import build_bvh
from repro.bvh.traversal import (
    DEFAULT_CHUNK_SIZE,
    RADIUS_PAD,
    for_each_leaf_hit,
    refresh_node_components,
)
from repro.bvh.tree import BVH
from repro.device.device import Device, default_device
from repro.unionfind.ecl import EclUnionFind

#: Sorted-position offsets whose cross-component pairs seed each round.
_SEED_OFFSETS = (1, 2)


def _component_nearest(
    tree: BVH,
    X: np.ndarray,
    comp: np.ndarray,
    node_comp: np.ndarray,
    core: np.ndarray,
    pts_pos: np.ndarray,
    core_pos: np.ndarray,
    dev: Device,
    chunk_size: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point best *other-component* edge under mutual reachability,
    minimised by the strict order ``(w, min(a,b), max(a,b))``, exact for
    the minimum edge of every component.

    **Seeds.**  Every pair of sorted leaf positions ``(p, p+j)``,
    ``j`` in :data:`_SEED_OFFSETS`, whose components differ is scored
    ``max(d, core_a, core_b)`` and folded into both endpoints' best edges
    and both components' bounds, exactly as a traversal hit would be.
    Seeds are real edges, so each bound is an upper bound on its
    component's minimum; offset 1 makes every bound finite unless one
    component spans the set.

    **One capped launch.**  A point whose core distance exceeds its
    component's bound ``W`` is not launched: each of its edges weighs at
    least its core distance, so none can win.  Every other point runs in
    one traversal launch at ``W`` (padded by
    :data:`~repro.bvh.traversal.RADIUS_PAD`).  After each step's hits
    fold into the bounds, every launched point's live radius is lowered
    to its component's new bound, so the rest of its walk is pruned
    there.  An edge that improves on or ties the bound satisfies
    ``dist <= w <= W`` at every step, so the capped search reaches every
    such edge, which preserves the exact ``(w, u, v)`` minimum (and with
    it the bit-equality to Prim's dendrogram).

    Returns ``(best_w, best_b)``: each point's best edge runs to
    ``best_b`` (``-1`` for a point that holds no candidate).
    """
    n = X.shape[0]
    order_arr = tree.order
    best_w = np.full(n, np.inf)
    best_b = np.full(n, -1, dtype=np.int64)
    # Best candidate weight per component (indexed by component root id).
    comp_best = np.full(n, np.inf)

    def offer(gq: np.ndarray, b: np.ndarray, w: np.ndarray) -> None:
        """Fold candidate edges ``gq -> b`` of weight ``w`` into the
        per-point minima under ``(w, u, v)`` and the component bounds."""
        u = np.minimum(gq, b)
        v = np.maximum(gq, b)
        # reduce to one candidate per query in this batch first
        sel = np.lexsort((v, u, w, gq))
        gqs = gq[sel]
        first = np.empty(gqs.shape[0], dtype=bool)
        first[0] = True
        np.not_equal(gqs[1:], gqs[:-1], out=first[1:])
        f = sel[first]
        tq, tw, tu, tv, tb = gq[f], w[f], u[f], v[f], b[f]
        bb = best_b[tq]
        bw, bu, bv = best_w[tq], np.minimum(tq, bb), np.maximum(tq, bb)
        better = (tw < bw) | (
            (tw == bw) & ((tu < bu) | ((tu == bu) & (tv < bv)))
        )
        t = tq[better]
        best_w[t] = tw[better]
        best_b[t] = tb[better]
        np.minimum.at(comp_best, comp[tq], tw)

    # --- seeds: cross-component leaf-order neighbours ----------------------
    comp_pos = comp[order_arr]
    for j in _SEED_OFFSETS:
        p = np.flatnonzero(comp_pos[:-j] != comp_pos[j:])
        if p.size == 0:
            continue
        diff = pts_pos[p] - pts_pos[p + j]
        w = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        np.maximum(w, core_pos[p], out=w)
        np.maximum(w, core_pos[p + j], out=w)
        dev.counters.add("distance_evals", p.size)
        a, b = order_arr[p], order_arr[p + j]
        offer(np.concatenate((a, b)), np.concatenate((b, a)), np.concatenate((w, w)))

    # --- one launch at the component bounds, lowered as hits arrive --------
    # A point whose core distance exceeds its component's bound holds no
    # edge that can win: every edge of it is heavier than that bound.
    rows = np.flatnonzero(core <= comp_best[comp])
    rcomp = comp[rows]
    q_pts = X[rows]
    radius = comp_best[rcomp] * RADIUS_PAD

    def on_hits(q_ids: np.ndarray, leaf_pos: np.ndarray) -> None:
        gq = rows[q_ids.astype(np.int64)]
        diff = q_pts[q_ids] - pts_pos[leaf_pos]
        w = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        np.maximum(w, core[gq], out=w)
        np.maximum(w, core_pos[leaf_pos], out=w)
        offer(gq, order_arr[leaf_pos], w)
        np.minimum(radius, comp_best[rcomp] * RADIUS_PAD, out=radius)

    for_each_leaf_hit(
        tree,
        q_pts,
        radius,
        on_hits,
        device=dev,
        kernel_name="boruvka_nn",
        chunk_size=chunk_size,
        component_of=rcomp,
        node_components=node_comp,
    )
    return best_w, best_b


def mutual_reachability_mst_boruvka(
    X: np.ndarray,
    core_dist: np.ndarray,
    tree: BVH | None = None,
    device: Device | None = None,
    chunk_size: int | None = DEFAULT_CHUNK_SIZE,
) -> np.ndarray:
    """Borůvka MST of the mutual reachability graph over a BVH.

    Drop-in replacement for
    :func:`repro.hierarchy.mst.mutual_reachability_mst`: returns the same
    ``(n - 1, 3)`` float64 rows ``(a, b, weight)`` sorted ascending by
    weight, with the identical sorted weight multiset (any two MSTs of a
    graph agree on it), at tree-pruned cost instead of n·(n−1) distance
    rows.

    Parameters
    ----------
    core_dist:
        ``(n,)`` finite, non-negative core distances (``ValueError``
        otherwise).
    tree:
        Optional prebuilt point-leaf BVH over ``X`` (e.g. from
        :class:`repro.core.index.DBSCANIndex`); built on the fly when
        omitted.
    chunk_size:
        Queries per traversal wavefront; results are identical for every
        setting.
    """
    dev = default_device(device)
    X = np.ascontiguousarray(X, dtype=np.float64)
    core_dist = np.asarray(core_dist, dtype=np.float64)
    n = X.shape[0]
    if core_dist.shape != (n,):
        raise ValueError(f"core_dist must be ({n},); got {core_dist.shape}")
    if not (np.isfinite(core_dist).all() and (core_dist >= 0).all()):
        raise ValueError("core_dist entries must be finite and non-negative")
    if n <= 1:
        return np.zeros((0, 3), dtype=np.float64)
    if tree is None:
        lo, hi = boxes_from_points(X)
        tree = build_bvh(lo, hi, device=dev)
    if tree.n_primitives != n:
        raise ValueError(
            f"tree has {tree.n_primitives} primitives; expected {n} points"
        )

    order_arr = tree.order
    pts_pos = X[order_arr]
    core_pos = core_dist[order_arr]
    node_comp = np.empty(tree.node_lo.shape[0], dtype=np.int64)
    uf = EclUnionFind(n, device=dev)
    edges = np.empty((n - 1, 3), dtype=np.float64)
    n_edges = 0
    ids = np.arange(n, dtype=np.int64)

    try:
        with dev.kernel("boruvka_mst", threads=n) as launch:
            rounds = 0
            while n_edges < n - 1:
                rounds += 1
                dev.counters.add("boruvka_rounds", 1)
                comp = uf.find(ids)
                refresh_node_components(tree, comp, node_comp)
                best_w, best_b = _component_nearest(
                    tree, X, comp, node_comp, core_dist, pts_pos, core_pos, dev, chunk_size
                )
                best_u, best_v = np.minimum(ids, best_b), np.maximum(ids, best_b)
                # Points stopped by the component bound may hold no candidate
                # of their own; every component still holds at least one (its
                # seeded bound is a member's edge).
                idx = np.flatnonzero(best_b >= 0)
                if idx.size == 0:  # pragma: no cover - defensive
                    raise RuntimeError("no component found an outside neighbour")
                # One candidate per component: minimum under (w, u, v).
                csel = idx[np.lexsort((best_v[idx], best_u[idx], best_w[idx], comp[idx]))]
                comp_sorted = comp[csel]
                first = np.empty(comp_sorted.shape[0], dtype=bool)
                first[0] = True
                np.not_equal(comp_sorted[1:], comp_sorted[:-1], out=first[1:])
                cand = csel[first]
                # Under the strict total order the picks form a forest once the
                # edge two components both picked is kept once (its first
                # occurrence in the stable sort, the lower component's
                # orientation), so the round is one batched union.
                pick = cand[np.lexsort((best_v[cand], best_u[cand], best_w[cand]))]
                keep = np.ones(pick.size, dtype=bool)
                keep[1:] = (np.diff(best_u[pick]) != 0) | (np.diff(best_v[pick]) != 0)
                pick = pick[keep]
                b = best_b[pick]
                k = pick.size
                edges[n_edges : n_edges + k] = np.column_stack((pick, b, best_w[pick]))
                n_edges += k
                uf.union(pick, b)
                if uf.n_sets() != n - n_edges:  # pragma: no cover - defensive
                    raise RuntimeError("Borůvka picks closed a cycle")
            launch.steps = rounds
    finally:
        uf.release()

    order = np.argsort(edges[:, 2], kind="stable")
    return edges[order]
