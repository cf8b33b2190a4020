"""The parallel disjoint-set DBSCAN framework (Section 3.2, Algorithm 3).

The framework splits DBSCAN into two batched phases:

1. **preprocessing** — determine the core points.  The framework only
   requires *whether* ``|N_eps(x)| >= minpts``, so incremental neighbour
   discovery may stop at ``minpts`` (early termination).  The phase is
   skipped entirely for ``minpts == 2``, where any pair within ``eps``
   certifies both endpoints core (Algorithm 3, line 2).

2. **main** — for every pair ``(x, y)`` with ``dist(x, y) <= eps``,
   executed with edge-level parallelism:

   - both core                →  ``Union(x, y)``;
   - one core, other unlabeled →  attach the non-core point to the core
     point's cluster with a single **atomic CAS** on the labels array —
     the paper's replacement for the critical section of Algorithm 3
     (lines 10-12), which prevents the *bridging effect* where a border
     point within ``eps`` of two clusters would merge them;
   - neither core             →  nothing.

:class:`PairResolver` is that per-edge resolution, shared by FDBSCAN,
FDBSCAN-DenseBox, the minpts sweep, the distributed ranks and the grid
baseline (they differ only in how pairs are *discovered*).  It buffers
the per-step micro-batches to :data:`DEFAULT_PAIR_BUFFER` pairs before
launching the union-find kernels (small per-step batches pay a fixed
launch overhead each — exactly the behaviour the paper's fused kernels
avoid on real hardware), and it replaces the *first-wins* CAS border
attachment with a commutative scatter-min over candidate core
neighbours, making the final labels independent of pair arrival order —
and hence identical across chunk sizes and batch boundaries.

:func:`main_phase` is the main phase of every tree DBSCAN, from a fresh
union-find to the labels: FDBSCAN, FDBSCAN-DenseBox, the minpts sweep
and every distributed rank call it.  It runs the tree traversal under a
component mask that skips pairs whose ends the union-find has already
joined and, as Wang, Gu & Shun's parallel DBSCAN does, every pair of two
non-core points (the "neither core" case above), which can change
nothing.  Both cuts are exact, so the labels equal the unpruned phase's.
The algorithms differ only in their primitives: FDBSCAN's leaves are
points, DenseBox's are isolated points and dense-cell boxes, whose hits
it turns into pairs itself.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.bvh.traversal import (
    for_each_leaf_hit,
    refresh_node_components,
    spread_epochs,
)
from repro.bvh.tree import BVH
from repro.core.labels import DBSCANResult, finalize_clusters
from repro.device.atomics import atomic_cas_batch
from repro.device.device import Device, default_device
from repro.unionfind.ecl import EclUnionFind

#: Default pair-buffer target (pairs accumulated before one union-find
#: launch).  Roughly the batch a GPU needs to hide kernel-launch latency.
DEFAULT_PAIR_BUFFER = 1 << 16


def attach_border(
    uf: EclUnionFind,
    core_pts: np.ndarray,
    border_pts: np.ndarray,
    device: Device | None = None,
) -> None:
    """CAS-attach unlabeled non-core points to their core neighbour's cluster.

    For each pair, ``labels[border] = Find(core)`` iff ``labels[border]``
    still equals ``border`` (the "not yet a member of any cluster" check of
    Algorithm 3, line 9, folded into the CAS's expected value).  Losing
    requests — duplicates in the batch, or points attached by an earlier
    batch — fail the CAS and are dropped, which is precisely the behaviour
    that prevents cluster bridging through shared border points.
    """
    if core_pts.size == 0:
        return
    dev = default_device(device)
    reps = uf.find(core_pts)
    atomic_cas_batch(
        uf.parents,
        index=border_pts,
        expected=border_pts,
        desired=reps,
        counters=dev.counters,
    )


class PairResolver:
    """Buffered, schedule-independent resolution of discovered pairs.

    A drop-in consumer for the pair stream the traversals emit:
    :meth:`add` takes each ``(x, y)`` batch (every unordered pair at least
    once, in either orientation, ``dist <= eps`` already established) and
    :meth:`finalize` must be called once after the stream ends, before the
    labels are read.

    - **buffering**: batches accumulate until :data:`DEFAULT_PAIR_BUFFER`
      pairs are held (or a caller calls :meth:`flush`), then one
      union-find launch consumes them all — per-step micro-batches stop
      paying the fixed launch overhead.  Core-core unions commute and the
      ECL union-find hooks the larger root under the smaller, so the
      final components — and therefore the labels — do not depend on
      batch boundaries.
    - **deterministic border attachment**: instead of first-wins CAS (a
      race whose winner depends on traversal schedule), every non-core
      endpoint records the *minimum* core-neighbour index seen across the
      whole stream (a commutative scatter-min, ``atomicMin`` on a GPU);
      :meth:`finalize` then CAS-attaches each pending border point to
      ``Find(min core neighbour)``.  Each border point is attached exactly
      once, so every CAS succeeds and the labels are identical for any
      arrival order — the bridging-prevention guarantee (one cluster per
      border point) is preserved.

    ``pairs_processed`` counts every pair handed to :meth:`add`;
    ``cas_attempts`` counts one attempt per attached border point (the
    deterministic schedule has no losing requests).
    """

    def __init__(
        self,
        uf: EclUnionFind,
        is_core: np.ndarray,
        device: Device | None = None,
    ):
        self.uf = uf
        self.is_core = is_core
        self.dev = default_device(device)
        n = is_core.shape[0]
        self._n = n
        #: per-point minimum core neighbour seen (sentinel ``n`` = none).
        self._border_min = np.full(n, n, dtype=np.int64)
        self.dev.memory.allocate(self._border_min.nbytes, "border", transient=True)
        self._buf_x: list[np.ndarray] = []
        self._buf_y: list[np.ndarray] = []
        self._buffered = 0
        self._finalized = False

    def add(self, x: np.ndarray, y: np.ndarray) -> None:
        """Buffer one batch of discovered pairs (flushing at the target).

        The arrays may be scratch views owned by the traversal — they are
        copied when held across calls.
        """
        if x.shape[0] == 0:
            return
        self._buf_x.append(np.array(x, dtype=np.int64, copy=True))
        self._buf_y.append(np.array(y, dtype=np.int64, copy=True))
        self._buffered += x.shape[0]
        if self._buffered >= DEFAULT_PAIR_BUFFER:
            self.flush()

    def flush(self) -> None:
        """Resolve every buffered pair now."""
        if not self._buffered:
            return
        if len(self._buf_x) == 1:
            x, y = self._buf_x[0], self._buf_y[0]
        else:
            x = np.concatenate(self._buf_x)
            y = np.concatenate(self._buf_y)
        self._buf_x.clear()
        self._buf_y.clear()
        self._buffered = 0
        self._resolve(x, y)

    def _resolve(self, x: np.ndarray, y: np.ndarray) -> None:
        dev = self.dev
        dev.counters.add("pairs_processed", x.shape[0])
        cx = self.is_core[x]
        cy = self.is_core[y]
        both = cx & cy
        if both.any():
            self.uf.union(x[both], y[both])
        x_only = cx & ~cy
        if x_only.any():
            np.minimum.at(self._border_min, y[x_only], x[x_only])
        y_only = cy & ~cx
        if y_only.any():
            np.minimum.at(self._border_min, x[y_only], y[y_only])

    def finalize(self) -> None:
        """Flush, then attach every pending border point.

        Idempotent; must run before the union-find's parents are turned
        into labels.
        """
        if self._finalized:
            return
        self.flush()
        self._finalized = True
        pending = np.flatnonzero(self._border_min < self._n)
        if pending.size:
            attach_border(self.uf, self._border_min[pending], pending, self.dev)
        self.release()

    def release(self) -> None:
        """Return the ``"border"`` bytes to the device ledger, once.

        :meth:`finalize` calls it; a main phase that aborts calls it
        instead, resolving nothing.
        """
        if self._border_min is not None:
            self.dev.memory.free(self._border_min.nbytes, "border")
            self._border_min = None


def main_phase(
    tree: BVH,
    X: np.ndarray,
    eps: float,
    is_core: np.ndarray | None,
    device: Device,
    kernel_name: str,
    info: dict,
    use_mask: bool = True,
    active: np.ndarray | None = None,
    hits: Callable[[PairResolver, np.ndarray, np.ndarray], None] | None = None,
    positions: np.ndarray | None = None,
    prim_rep: np.ndarray | None = None,
    unions: tuple[np.ndarray, np.ndarray] | None = None,
    **traversal_kwargs,
) -> DBSCANResult:
    """The main phase of every tree DBSCAN, from a fresh union-find to the
    labels.  It skips pairs already joined, and pairs of two non-core
    points.

    ``is_core`` is the preprocessing's core mask, or ``None`` for
    ``minpts == 2``, where every point resolves as core and core status
    follows from component sizes at finalisation.  A fresh
    :class:`EclUnionFind` first takes the ``unions`` pairs, if any.  Then
    every point of ``X`` with ``active`` set (all, by default) queries
    ``tree`` once under the component mask: a query never sees a leaf of
    its own component, and a subtree whose primitives all lie in the
    query's component is pruned without descending.  The components are
    the union-find's, except that every non-core point shares one
    sentinel component ``n``: a non-core query skips every non-core leaf,
    and every subtree holding no core primitive.

    - **Primitives.**  By default the tree's leaves are the points of
      ``X`` and each hit is a pair for the :class:`PairResolver`.  A tree
      over other primitives passes three things.  ``hits(resolver,
      query_ids, leaf_positions)`` turns its hits into resolver pairs.
      ``positions[q]`` is the sorted leaf position of query ``q``'s own
      primitive; it orders the epochs and, with ``use_mask``, is the
      leaf-index mask.  ``prim_rep[p]`` is a point in primitive ``p``'s
      component: any member of a box whose members ``unions`` joins.
    - **Epochs.**  The queries run in refresh epochs
      (:func:`repro.bvh.traversal.spread_epochs`), one ``kernel_name``
      launch each.  Before each epoch the pair buffer is flushed, every
      point's component is read with ``find``, and the per-node
      summaries are rebuilt from ``comp[prim_rep]``
      (:func:`repro.bvh.traversal.refresh_node_components`).  The
      epoch's own order is its schedule; ``chunk_size`` still slices it.
    - **Inactive queries.**  A caller clears ``active`` only for points
      proven to have no neighbour but themselves: an unweighted count of
      1, exact because an early-exit count stops only at
      ``minpts >= 3``.  Such a point is in no pair, so its query would
      deliver nothing.
    - **Exactness.**  A pair is skipped only when both ends were in one
      component (the sentinel included) at the last refresh.
      Components only merge, so a stale
      snapshot can only under-prune: every skipped core-core pair is a
      union that would have changed nothing.  Non-core points are never
      unioned, so a pair with exactly one core end never has both ends
      in one component and is never skipped: every border point still
      sees its minimum core neighbour.  The pairs of two non-core points,
      all skipped, change nothing in Algorithm 3.  The resolved
      components and labels equal the unpruned phase's.  On the
      ``fdbscan-hacc3d`` sample (n=16384, eps 0.042, seed 0), where 60%
      of the points have no neighbour, the cuts took the main phase
      from 335,575 to 193,452 visited nodes at minpts 5 and from
      396,880 to 104,923 at minpts 50.

    The mask arrays are charged to ``device``'s ledger as a transient
    ``"components"`` tag.  They, the resolver's ``"border"`` bytes and
    the union-find's ``"labels"`` bytes are all returned to the ledger
    when the phase ends, also when it aborts.  ``info`` gains ``t_main``
    and ``t_finalize`` and becomes the result's ``info``;
    ``traversal_kwargs`` go to every
    :func:`~repro.bvh.traversal.for_each_leaf_hit` launch.
    """
    t0 = time.perf_counter()
    n = X.shape[0]
    if hits is None:
        order = tree.order
        positions = tree.position
        prim_rep = np.arange(n, dtype=np.int64)

        def hits(resolver: PairResolver, q_ids: np.ndarray, leaf_pos: np.ndarray) -> None:
            # A query's own leaf is in its own component, so it never hits.
            resolver.add(q_ids, order[leaf_pos])

    all_ids = np.arange(n, dtype=np.int64)
    comp = np.empty(n, dtype=np.int64)
    node_comp = np.empty(tree.node_lo.shape[0], dtype=np.int64)
    nbytes = comp.nbytes + node_comp.nbytes
    uf = EclUnionFind(n, device=device)
    resolver = PairResolver(
        uf, np.ones(n, dtype=bool) if is_core is None else is_core, device
    )
    device.memory.allocate(nbytes, "components", transient=True)
    try:
        if unions is not None:
            uf.union(*unions)
        for ids in spread_epochs(positions):
            if active is not None:
                ids = ids[active[ids]]
            resolver.flush()
            comp[:] = uf.find(all_ids)
            comp[~resolver.is_core] = n
            refresh_node_components(tree, comp[prim_rep], node_comp)

            def epoch_hits(q: np.ndarray, leaf_pos: np.ndarray, ids=ids) -> None:
                hits(resolver, ids[q], leaf_pos)

            for_each_leaf_hit(
                tree,
                X[ids],
                eps,
                epoch_hits,
                mask_positions=positions[ids] if use_mask else None,
                device=device,
                kernel_name=kernel_name,
                component_of=comp[ids],
                node_components=node_comp,
                **traversal_kwargs,
            )
        resolver.finalize()
        t1 = time.perf_counter()
        labels, core_mask, n_clusters = finalize_clusters(uf.parents, is_core, device.counters)
    finally:
        device.memory.free(nbytes, "components")
        resolver.release()
        uf.release()
    info["t_main"] = t1 - t0
    info["t_finalize"] = time.perf_counter() - t1
    return DBSCANResult(labels=labels, is_core=core_mask, n_clusters=n_clusters, info=info)
