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
- the nearest *outside* neighbour is found by the same expanding-radius
  machinery as :mod:`repro.bvh.knn`, warm-started per point (radii only
  ever need to grow across rounds, because merging components can only
  push the nearest outside point further away) and floored at the core
  distance (a mutual-reachability weight is never below it);
- candidate edges reduce under the strict total order ``(w, min(a,b),
  max(a,b))``, which makes the per-component choice unique even among
  tied weights — the classic Borůvka cycle-safety argument — and a
  Kruskal-style union pass (:class:`repro.unionfind.ecl.EclUnionFind`)
  guards the remaining duplicate picks.

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

#: Traversal-launch groups allowed per sweep before exact component
#: bounds are snapped back to the radius ladder (launch overhead vs the
#: bound-overshoot trade; only early rounds with thousands of live
#: components ever exceed it).
_MAX_GROUPS = 48


def _ladder_up(values: np.ndarray, anchor: float) -> np.ndarray:
    """Snap positive values up to the ``anchor * 2**j`` ladder (j integer).

    Zeros stay zero (an exact-duplicate search radius).  Ladder values
    round-trip exactly: powers of two are exact in float64, so a value
    already of the form ``anchor * 2**j`` maps to itself.
    """
    out = np.zeros_like(values)
    pos = values > 0
    with np.errstate(divide="ignore"):
        j = np.ceil(np.log2(values[pos] / anchor))
    out[pos] = anchor * np.exp2(j)
    return out


def _component_nearest(
    tree: BVH,
    X: np.ndarray,
    comp: np.ndarray,
    node_comp: np.ndarray,
    core: np.ndarray,
    pts_pos: np.ndarray,
    core_pos: np.ndarray,
    radius: np.ndarray,
    anchor: float,
    dev: Device,
    chunk_size: int | None,
    query_order: str,
    traversal: str,
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
        rows_all = np.flatnonzero(pending)
        if rows_all.size == 0:
            break
        # Radii live on the power-of-two ladder (the batch splits into
        # O(log) traversal groups instead of one launch per distinct
        # float), but the component bound caps them at its EXACT value:
        # snapping the bound up a rung would search up to 2x past it, and
        # that overshoot is precisely where the cross pairs live — the
        # bound equals the minimum cross weight, so a bound-exact ball is
        # certified (near-)empty while its ladder rung can hold millions
        # of pairs between extended components.  Exact bounds add at most
        # one group per component still searching; when that explodes the
        # group count (early rounds: thousands of tiny components), those
        # rows fall back to the ladder rung, whose overshoot is cheap at
        # core-distance scale.
        eps_rows = np.minimum(_ladder_up(radius[rows_all], anchor), bound[rows_all])
        exact_bounds = np.unique(eps_rows).size <= _MAX_GROUPS
        if not exact_bounds:
            eps_rows = _ladder_up(
                np.minimum(radius[rows_all], bound[rows_all]), anchor
            )
        launched = np.zeros(rows_all.size, dtype=bool)
        for r in np.unique(eps_rows):
            in_group = np.flatnonzero(eps_rows == r)
            rows = rows_all[in_group]
            # Groups run in ascending radius, and bounds learned by the
            # smaller groups re-cap this one *just before launch*: a row
            # whose component bound has tightened below this group's
            # radius is deferred (un-launched, so its coverage and radius
            # stay put) and regrouped at the smaller ladder value on the
            # next sweep.  Without this, a warm-start radius carried over
            # from an earlier round — scene-scale for the interior of a
            # far-flung component — would launch wholesale even though the
            # first tiny cross edge of the sweep already bounded it.
            # The deferral test must quantize the bound exactly as the
            # grouping above did, or a row whose group radius was
            # ladder-snapped past its bound defers forever.
            b_now = comp_best[comp[rows]]
            if exact_bounds:
                eps_now = np.minimum(_ladder_up(radius[rows], anchor), b_now)
            else:
                eps_now = _ladder_up(np.minimum(radius[rows], b_now), anchor)
            use = (cov[rows] < b_now) & (eps_now >= r)
            rows = rows[use]
            if rows.size == 0:
                continue
            q_pts = X[rows]
            rcomp = comp[rows]
            # A launch that *discovers* the first candidates of a round
            # would otherwise pay for its full radius before the bound
            # exists (the pre-launch caps above only see bounds from
            # earlier launches).  Feed candidates into ``comp_best``
            # per batch and kill every in-flight query whose component
            # bound has dropped below this launch's radius: a killed
            # query gets NO coverage credit, so it re-enters the next
            # sweep and relaunches at the exact (now tiny) bound.
            killed = np.zeros(rows.shape[0], dtype=bool)

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

            # Kill only when the abort buys a strictly cheaper relaunch:
            # the next sweep would launch these rows at ``min(radius,
            # bound)`` quantized exactly as the grouping above, so a
            # bound that merely dropped within the same ladder rung is
            # not worth re-traversing for.  (Monotone in ``comp_best``,
            # as ``finished_fn`` requires.)
            rradius = radius[rows]

            def on_finished(ids: np.ndarray) -> np.ndarray:
                b = comp_best[rcomp[ids]]
                if exact_bounds:
                    kill = b < r
                else:
                    kill = _ladder_up(np.minimum(rradius[ids], b), anchor) < r
                killed[ids[kill]] = True
                return kill

            for_each_leaf_hit(
                tree,
                q_pts,
                float(r),
                on_hits,
                finished_fn=on_finished,
                device=dev,
                kernel_name="boruvka_nn",
                chunk_size=chunk_size,
                query_order=query_order,
                traversal=traversal,
                component_of=rcomp,
                node_components=node_comp,
            )
            launched[in_group[use]] = ~killed
        hit = rows_all[launched]
        cov[hit] = np.maximum(cov[hit], eps_rows[launched])
        # Double only points that actually searched this sweep, are still
        # unfinished, and whose own radius (not the component bound)
        # limited the search; a capped point re-checks the shrunken bound
        # next sweep and stops without another gather.  Checking the bound
        # *before* growing keeps the warm-start radius at each point's
        # needed scale instead of inflating it once per Borůvka round.
        still = cov[hit] < comp_best[comp[hit]]
        grew = still & (radius[hit] <= eps_rows[launched])
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
    traversal: str = "single",
    query_order: str = "input",
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
    traversal / query_order / chunk_size:
        Scheduling knobs forwarded to the wavefront engine; results are
        identical for every setting.
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
    # points) fall back to the scene-density estimate.  All radii live on
    # the ``r0 * 2**j`` ladder so batches group into few traversals.
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
    radius = _ladder_up(np.where(core_dist > 0, core_dist, r0), r0)

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
                r0,
                dev,
                chunk_size,
                query_order,
                traversal,
            )
            # A zero restart (a zero-weight duplicate edge, or a covered
            # zero ball) would never grow by doubling: floor it at r0 as
            # the initial warm start does.
            restart = np.where(best_b >= 0, best_w, cov)
            radius = _ladder_up(np.where(restart > 0, restart, r0), r0)
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
            # Union in ascending (w, u, v); the strict total order plus the
            # root check makes tied weights cycle-safe.
            gsel = np.lexsort((best_v[cand], best_u[cand], best_w[cand]))
            added = 0
            for i in cand[gsel]:
                a = int(i)
                b = int(best_b[i])
                ends = uf.find(np.array([a, b], dtype=np.int64))
                if ends[0] == ends[1]:
                    continue
                edges[n_edges] = (a, b, best_w[i])
                n_edges += 1
                added += 1
                uf.union(np.array([a]), np.array([b]))
            if added == 0:  # pragma: no cover - defensive
                raise RuntimeError("Borůvka round added no edges")
        launch.steps = rounds

    order = np.argsort(edges[:, 2], kind="stable")
    return edges[order]
