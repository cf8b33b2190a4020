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
- the nearest *outside* neighbour is found by an expanding per-point
  radius, warm-started per point (radii only ever need to grow across
  rounds, because merging components can only push the nearest outside
  point further away) and floored at the core distance (a
  mutual-reachability weight is never below it); each sweep is one
  traversal launch in which every point carries its own radius, capped
  at its component's best candidate weight so far;
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
from repro.bvh.knn import _initial_radius
from repro.bvh.traversal import (
    DEFAULT_CHUNK_SIZE,
    for_each_leaf_hit,
    refresh_node_components,
)
from repro.bvh.tree import BVH
from repro.device.device import Device, default_device
from repro.unionfind.ecl import EclUnionFind

#: Hard cap on expanding-radius doublings within one nearest-outside
#: search; 100 doublings overshoot any float64 scene diameter.
_MAX_DOUBLINGS = 100

#: Relative pad on every launched radius.  The traversal keeps a point at
#: squared distance ``D`` when ``D <= fl(r*r)``, while a weight is
#: ``fl(sqrt(D))``; for ``r`` equal to that weight ``fl(r*r)`` can fall an
#: ulp short of ``D`` and miss the very edge the radius names.  With
#: ``r = sqrt(D)(1+d1)`` and every rounding ``|d| <= 2**-53``, the padded
#: square is ``D (1+d1)**2 (1+2**-48)**2 (1+d2)**2 (1+d3)
#: >= D (1 - 5 * 2**-53)(1 + 2**-47) > D``, and rounding is monotone, so
#: every edge of weight ``<= r`` is hit.  One ``nextafter`` ulp is not
#: provably enough near the top of a binade.
_RADIUS_PAD = 1.0 + 2.0**-48


def _component_nearest(
    tree: BVH,
    X: np.ndarray,
    comp: np.ndarray,
    node_comp: np.ndarray,
    core: np.ndarray,
    pts_pos: np.ndarray,
    core_pos: np.ndarray,
    radius: np.ndarray,
    dev: Device,
    chunk_size: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-point nearest *other-component* neighbour under mutual
    reachability, minimised by the strict order ``(w, min(a,b), max(a,b))``.

    ``radius`` is the per-point warm-start search radius for this round;
    it is doubled in place for unfinished points within the round.  It
    must be a *lower-bound-scale* start (candidate weight or covered
    radius from the previous round), never an overshoot: every launched
    radius is paid for in cross-component distance tests, so jumping a
    point straight to a scene-scale radius bypasses the component bound
    below and re-tests every cross pair each round.

    Two bounds terminate a point's search:

    - **own radius**: anything unseen lies strictly beyond the searched
      radius, so a found best within it is the point's true minimum;
    - **component bound**: once the point's component holds a candidate
      of weight ``W``, the search radius is *capped* at ``W`` — an edge
      that improves on (or ties) the component candidate satisfies
      ``dist <= w <= W``, so nothing beyond ``W`` can matter.  The cap
      keeps every tied edge reachable, which preserves the exact
      ``(w, u, v)`` lexicographic minimum (and with it the bit-equality
      to Prim's dendrogram).  This is the pruning lever that lets
      interior points of a large component stop almost immediately while
      only boundary points do real traversal work.

    Each sweep is one traversal launch over every pending point, each at
    its own radius ``min(radius, bound)``.  Candidates feed the component
    bounds per wavefront step, and a point whose bound drops below its
    launched radius is killed in flight: it gets no coverage credit, so
    the next sweep relaunches it at the (now smaller) bound.

    Returns ``(best_w, best_b, best_u, best_v, cov)`` — ``cov`` is the
    radius each point actually covered, a certificate that no
    cross-component point lies within it (components only grow, so the
    certificate stays valid across rounds and seeds the next round's
    warm start for points that found no candidate).
    """
    n = X.shape[0]
    order_arr = tree.order
    best_w = np.full(n, np.inf)
    best_b = np.full(n, -1, dtype=np.int64)
    best_u = np.zeros(n, dtype=np.int64)
    best_v = np.zeros(n, dtype=np.int64)
    # Best candidate weight per component (indexed by component root id).
    comp_best = np.full(n, np.inf)
    # Radius each point has *covered* (seen every neighbour within); -1
    # until the first gather so even a zero-radius search (exact
    # duplicates across components) happens before the bound applies.
    cov = np.full(n, -1.0)
    pending = np.ones(n, dtype=bool)
    doublings = 0
    while True:
        bound = comp_best[comp]
        pending &= cov < bound
        rows = np.flatnonzero(pending)
        if rows.size == 0:
            break
        eps = np.minimum(radius[rows], bound[rows])
        q_pts = X[rows]
        rcomp = comp[rows]
        killed = np.zeros(rows.size, dtype=bool)

        def on_hits(q_ids: np.ndarray, leaf_pos: np.ndarray) -> None:
            gq = rows[q_ids.astype(np.int64)]
            b = order_arr[leaf_pos]
            diff = q_pts[q_ids] - pts_pos[leaf_pos]
            w = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            np.maximum(w, core[gq], out=w)
            np.maximum(w, core_pos[leaf_pos], out=w)
            u = np.minimum(gq, b)
            v = np.maximum(gq, b)
            # reduce to one candidate per query in this batch, then
            # merge into the running per-point minimum (idempotent, so
            # hits re-gathered after a radius doubling are harmless)
            sel = np.lexsort((v, u, w, gq))
            gqs = gq[sel]
            first = np.empty(gqs.shape[0], dtype=bool)
            first[0] = True
            np.not_equal(gqs[1:], gqs[:-1], out=first[1:])
            f = sel[first]
            tq, tw, tu, tv, tb = gq[f], w[f], u[f], v[f], b[f]
            bw, bu, bv = best_w[tq], best_u[tq], best_v[tq]
            better = (tw < bw) | (
                (tw == bw) & ((tu < bu) | ((tu == bu) & (tv < bv)))
            )
            t = tq[better]
            best_w[t] = tw[better]
            best_b[t] = tb[better]
            best_u[t] = tu[better]
            best_v[t] = tv[better]
            np.minimum.at(comp_best, comp[tq], tw)

        # Monotone in ``comp_best``, as ``finished_fn`` requires.
        def on_finished(ids: np.ndarray) -> np.ndarray:
            kill = comp_best[rcomp[ids]] < eps[ids]
            killed[ids[kill]] = True
            return kill

        for_each_leaf_hit(
            tree,
            q_pts,
            eps * _RADIUS_PAD,
            on_hits,
            finished_fn=on_finished,
            device=dev,
            kernel_name="boruvka_nn",
            chunk_size=chunk_size,
            component_of=rcomp,
            node_components=node_comp,
        )
        done = ~killed
        hit = rows[done]
        cov[hit] = np.maximum(cov[hit], eps[done])
        # Double only points that searched to completion, are still
        # unfinished, and whose own radius (not the component bound)
        # limited the search; a capped point re-checks the shrunken bound
        # next sweep and stops without another gather.  Checking the bound
        # *before* growing keeps the warm-start radius at each point's
        # needed scale instead of inflating it once per Borůvka round.
        still = cov[hit] < comp_best[comp[hit]]
        grew = still & (radius[hit] <= eps[done])
        radius[hit[grew]] *= 2.0
        doublings += 1
        if doublings > _MAX_DOUBLINGS:  # pragma: no cover - defensive
            raise RuntimeError("component-NN radius expansion failed to converge")
    return best_w, best_b, best_u, best_v, cov


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
    # Warm-start radii: a mutual-reachability weight is never below the
    # point's own core distance, and the ``min_samples``-th neighbour sits
    # exactly at it, so ``core`` is both a lower bound on the answer and a
    # radius already known to contain neighbours.  Zero cores (duplicate
    # points) fall back to the scene-density estimate.
    #
    # Across rounds the warm start is recomputed per point rather than
    # carried as a monotonically doubled radius: a point that found a
    # candidate restarts at that candidate's weight (a lower bound on its
    # next answer — merging only pushes the nearest outside point away),
    # and a point that found nothing restarts at the radius it *covered*
    # (re-searching a certified-empty ball costs box tests but zero
    # distance tests, because cross-component sets only shrink).  Carrying
    # grown radii instead lets a far-flung component's interior jump
    # straight to scene scale in the round after a merge, re-testing every
    # cross pair before the round's much smaller bound is discovered.
    r0 = _initial_radius(tree, 2)
    radius = np.where(core_dist > 0, core_dist, r0)

    with dev.kernel("boruvka_mst", threads=n) as launch:
        rounds = 0
        while n_edges < n - 1:
            rounds += 1
            dev.counters.add("boruvka_rounds", 1)
            comp = uf.find(ids)
            refresh_node_components(tree, comp, node_comp)
            best_w, best_b, best_u, best_v, cov = _component_nearest(
                tree,
                X,
                comp,
                node_comp,
                core_dist,
                pts_pos,
                core_pos,
                radius,
                dev,
                chunk_size,
            )
            # A zero restart (a zero-weight duplicate edge, or a covered
            # zero ball) would never grow by doubling: floor it at r0 as
            # the initial warm start does.
            restart = np.where(best_b >= 0, best_w, cov)
            radius = np.where(restart > 0, restart, r0)
            # Points stopped by the component bound may hold no candidate
            # of their own; every component still holds at least one (its
            # bound is finite only once a member found an edge).
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

    order = np.argsort(edges[:, 2], kind="stable")
    return edges[order]
