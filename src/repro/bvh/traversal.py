"""Batched wavefront traversal: the paper's "batched mode" neighbour search.

A GPU DBSCAN thread per query walking the tree asynchronously suffers the
execution/data divergence the paper sets out to avoid (Section 3.2).  The
reproduction therefore advances *all* queries through the hierarchy in
lockstep: the traversal state is a frontier of ``(query, node)`` pairs, and
each step expands every pair simultaneously with pure array operations.
This is the wavefront formulation of batched BVH traversal — the
data-parallel schedule a GPU executes, with the frontier playing the role
of the warps' collective stack.

Three properties of the paper's algorithms map directly onto arguments:

- **early termination** (Section 3.2, preprocessing): a ``finished_fn``
  filter drops a query's frontier entries as soon as it has seen
  ``minpts`` neighbours, so "searching for any more neighbors after that"
  never happens;
- **fused, on-the-fly processing** (Section 3.2, main phase): leaf hits
  are streamed to a callback in per-step batches and then discarded —
  no neighbour list is ever materialised, keeping memory linear in ``n``
  plus the transient frontier (whose peak is recorded);
- **the leaf-index mask** (Section 4.1, Figure 1): with
  ``mask_positions[q] = p``, every subtree whose sorted-leaf range lies at
  or below ``p`` is hidden from query ``q``, so only neighbours at sorted
  positions ``> p`` are reported and each pair is processed exactly once.

Every traversal is one launch over a **chunk plan**
(:func:`chunk_plan`): the query set, scheduled in input or Morton order
and cut into ``chunk_size`` slices, each slice paired with the engine
that runs it.  The runner (:func:`run_chunks`) opens one kernel span and
runs the plan's chunks in order on one frontier pool.  Three scheduling
levers shape the constant factors without changing any result:

- the **frontier pool**: all per-step arrays (the double-buffered
  frontier, compacted hit/parent views, gathered boxes, predicates) live
  in one grow-only scratch pool reused across steps and chunks, so the
  hot loop performs no per-step ``concatenate``/fancy-index allocation.
  The pool's high-water mark is charged to the memory model as a single
  transient ``"frontier"`` allocation — the faithful analogue of a GPU's
  preallocated traversal workspace;
- **Morton query ordering** (``query_order="morton"``): queries are
  chunked in Z-curve order instead of input order, so each wavefront
  holds spatially coherent queries whose frontiers overlap — the locality
  lever ArborX pulls by sorting queries along the space-filling curve.
  The hit stream per query is unchanged (only the chunk membership
  moves), so every derived result is identical;
- the **engine** per chunk: ``"single"`` (:func:`_single_chunk`) walks
  one frontier row per query; ``"dual"`` (:func:`_dual_chunk`)
  aggregates Morton-adjacent queries into a density-adaptive query-side
  BVH (:mod:`repro.bvh.qgroups`) and advances *(query node, tree node)*
  pairs instead, refining whichever side of a pair is looser: one
  box-box test prunes a whole query subtree per tree node, collapsing
  the (queries × visited nodes) box-test bill to (query nodes × visited
  nodes) while reproducing the single engine's hits, labels and
  ``distance_evals`` bit-for-bit.  ``traversal="auto"`` is not an engine
  but a plan: the planner prices each chunk with built-in rates
  (:mod:`repro.bvh.autotune`) and assigns it the cheaper engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.bvh.autotune import choose_engine
from repro.bvh.tree import BVH
from repro.bvh.morton import morton_codes
from repro.bvh.qgroups import DEFAULT_GROUP_SIZE, build_query_bvh
from repro.device.device import Device, default_device
from repro.device.primitives import (
    concatenated_ranges,
    scatter_add,
    segment_ids_from_counts,
)

LeafCallback = Callable[[np.ndarray, np.ndarray], None]

#: A chunk plan: ``(query ids, engine)`` per chunk, in launch order.
ChunkPlan = list[tuple[np.ndarray, str]]

#: Queries in the first refresh epoch of :func:`spread_epochs`; every
#: later epoch is :data:`EPOCH_GROWTH` times larger than the one before.
FIRST_EPOCH = 64
EPOCH_GROWTH = 4

#: Accepted values for ``query_order``.
QUERY_ORDERS = ("input", "morton")

#: Accepted values for ``traversal``: ``"single"`` walks one frontier row
#: per query; ``"dual"`` aggregates Morton-adjacent queries into a query
#: BVH and prunes whole query nodes per tree node (see
#: :func:`_dual_chunk`); ``"auto"`` picks single or dual *per chunk*
#: from its predicted work (see :mod:`repro.bvh.autotune`) —
#: a pure scheduling choice, results are bit-identical regardless.
TRAVERSALS = ("single", "dual", "auto")


@dataclass
class TraversalResult:
    """Summary of one batched traversal.

    Attributes
    ----------
    steps:
        Wavefront steps executed (the batched analogue of the longest
        per-thread traversal).
    leaf_hits:
        Total ``(query, leaf)`` pairs delivered to the callback.
    frontier_peak:
        Largest frontier (pairs) held at any step.
    """

    steps: int = 0
    leaf_hits: int = 0
    frontier_peak: int = 0


#: Default number of queries advanced per wavefront (the analogue of the
#: resident-thread limit on a GPU: a V100 runs ~163k threads concurrently;
#: queries beyond the chunk wait for a free "slot").  Bounding the chunk
#: bounds the frontier, keeping transient memory proportional to the chunk's
#: neighbourhood mass rather than the whole dataset's.
DEFAULT_CHUNK_SIZE = 8192


class _FrontierPool:
    """Grow-only scratch pool backing the wavefront frontier.

    Every per-step array the traversal needs — the frontier double buffer,
    the compacted hit/parent views, the gathered query/box coordinates and
    the boolean predicates — is a named slot here.  A slot grows to
    exactly the largest size ever requested (no geometric slack), is never
    shrunk, and is reused across steps and chunks, so after the first few
    steps the hot loop allocates nothing.

    Memory accounting: each growth is charged as a transient ``"frontier"``
    allocation and the whole pool is freed once at the end of the
    traversal, so ``peak_by_tag["frontier"]`` reports the pool's
    high-water mark — monotone in ``chunk_size``, because a larger chunk's
    frontier is the union of its sub-chunks' frontiers at every step.
    """

    def __init__(self, device: Device, dim: int, tag: str = "frontier"):
        self._dev = device
        self._dim = dim
        self._tag = tag
        self._arrays: dict[str, np.ndarray] = {}
        self.nbytes = 0

    def _grow(self, name: str, shape: tuple, dtype) -> np.ndarray:
        arr = self._arrays.get(name)
        if arr is None or arr.shape[0] < shape[0]:
            old_nbytes = 0 if arr is None else arr.nbytes
            arr = np.empty(shape, dtype=dtype)
            self._arrays[name] = arr
            delta = arr.nbytes - old_nbytes
            self.nbytes += delta
            self._dev.memory.allocate(delta, self._tag, transient=True)
        return arr

    def take(self, name: str, size: int, dtype=np.int64) -> np.ndarray:
        """A ``(size,)`` view of the named slot (grown if needed).

        Growing a slot discards its previous contents; callers must have
        consumed a slot's data before re-taking it with a larger size.
        """
        return self._grow(name, (size,), dtype)[:size]

    def take2(self, name: str, size: int, dtype=np.int64) -> np.ndarray:
        """A ``(size, 2)`` view of the named slot (one row per parent)."""
        return self._grow(name, (size, 2), dtype)[:size]

    def take2d(self, name: str, size: int) -> np.ndarray:
        """A ``(size, dim)`` float64 view of the named slot."""
        return self._grow(name, (size, self._dim), np.float64)[:size]

    def take_boxes(self, name: str, size: int) -> np.ndarray:
        """A ``(size, 2, dim)`` float64 view (both children's boxes)."""
        return self._grow(name, (size, 2, self._dim), np.float64)[:size]

    def release(self) -> None:
        """Return the pool's footprint to the memory ledger."""
        if self.nbytes:
            self._dev.memory.free(self.nbytes, self._tag)
            self.nbytes = 0


def search_radii(eps, m: int) -> float | np.ndarray:
    """Validate a search radius: a scalar (returned as ``float``) or one
    radius per query (returned as an ``(m,)`` float64 array).  Either
    form must be finite and non-negative."""
    if np.ndim(eps) == 0:
        eps = float(eps)
        if eps < 0 or not np.isfinite(eps):
            raise ValueError(f"eps must be finite and non-negative; got {eps}")
        return eps
    radii = np.asarray(eps, dtype=np.float64)
    if radii.shape != (m,):
        raise ValueError(f"per-query eps must have shape ({m},); got {radii.shape}")
    if not (np.isfinite(radii).all() and (radii >= 0).all()):
        raise ValueError("per-query eps entries must be finite and non-negative")
    return radii


def query_schedule(queries: np.ndarray, query_order: str) -> np.ndarray | None:
    """The chunking permutation for ``query_order`` (``None`` = input order).

    ``"morton"`` sorts queries along the Z-curve (stable, so ties keep
    input order) and is a pure *scheduling* choice: the traversal stores
    absolute query ids in the frontier, so callbacks, masks and early-exit
    checks see the same ids either way and every per-query result is
    bit-identical.
    """
    if query_order not in QUERY_ORDERS:
        raise ValueError(
            f"query_order must be one of {QUERY_ORDERS}; got {query_order!r}"
        )
    if query_order != "morton" or np.asarray(queries).shape[0] < 2:
        return None
    return np.argsort(morton_codes(queries), kind="stable").astype(np.int64)


def _validated(tree, queries, eps, mask_positions, traversal, query_order):
    """The checks and coercions every entry point applies to its inputs:
    ``(queries, eps, mask_positions)`` ready for :func:`chunk_plan`."""
    if traversal not in TRAVERSALS:
        raise ValueError(
            f"traversal must be one of {TRAVERSALS}; got {traversal!r}"
        )
    if query_order not in QUERY_ORDERS:
        raise ValueError(
            f"query_order must be one of {QUERY_ORDERS}; got {query_order!r}"
        )
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != tree.dim:
        raise ValueError(
            f"queries must be (m, {tree.dim}); got shape {queries.shape}"
        )
    eps = search_radii(eps, queries.shape[0])
    if mask_positions is not None:
        mask_positions = np.asarray(mask_positions, dtype=np.int64)
    return queries, eps, mask_positions


def spread_epochs(positions: np.ndarray) -> list[np.ndarray]:
    """Query ids as refresh epochs, in spread order.

    ``positions[q]`` is query ``q``'s own sorted leaf position; queries
    may share one (the members of a dense cell share its box).  The walk
    visits the queries sorted by position (ties in id order) in
    bit-reversed rank order, so every prefix of it samples the whole
    Morton curve evenly.  It is cut into epochs of :data:`FIRST_EPOCH`
    queries, then :data:`EPOCH_GROWTH` times more each time.  Each epoch
    is sorted by position, so its chunks stay Morton-coherent.  The epoch
    sizes depend on the query count alone.  Over a points tree
    (``positions = tree.position``) the sorted queries are ``tree.order``.
    """
    m = positions.shape[0]
    by_position = np.argsort(positions, kind="stable")
    bits = max(m - 1, 1).bit_length()
    rank = np.arange(1 << bits, dtype=np.int64)
    spread = np.zeros_like(rank)
    for b in range(bits):
        spread |= ((rank >> b) & 1) << (bits - 1 - b)
    spread = spread[spread < m]
    epochs = []
    start, size = 0, FIRST_EPOCH
    while start < m:
        epochs.append(by_position[np.sort(spread[start : start + size])])
        start += size
        size *= EPOCH_GROWTH
    return epochs


def refresh_node_components(
    tree: BVH, comp: np.ndarray, node_comp: np.ndarray
) -> None:
    """Fill ``node_comp`` (one entry per tree node) bottom-up from the
    per-primitive component ids ``comp``: a node holds its subtree's
    component when every primitive below it shares one, ``-1`` when
    mixed.  The ``node_components`` summary of the component mask."""
    node_comp[tree.n_internal :] = comp[tree.order]
    for level in reversed(tree.levels):
        lc = node_comp[tree.left[level]]
        rc = node_comp[tree.right[level]]
        node_comp[level] = np.where(lc == rc, lc, -1)


def chunk_plan(
    tree: BVH,
    queries: np.ndarray,
    eps: float | np.ndarray,
    traversal: str,
    query_order: str,
    chunk_size: int | None,
    device: Device,
    morton_schedule: np.ndarray | None = None,
    tree_stats=None,
    component_masked: bool = False,
) -> ChunkPlan:
    """Cut validated queries into the ``(ids, engine)`` chunks one launch
    runs, in launch order.

    Queries are scheduled in ``query_order`` — always Morton for the dual
    and ``auto`` traversals, the dual engine's grouping order — using the
    caller's cached ``morton_schedule`` when given, then sliced every
    ``chunk_size`` (``None`` or ``<= 0`` = one chunk).  Ids are absolute
    query ids in the narrowest index dtype that fits (real traversal
    kernels carry 32-bit ids; halving the index traffic of a
    bandwidth-bound wavefront is a direct win).  ``"auto"`` prices each
    chunk with :func:`repro.bvh.autotune.choose_engine` (at the chunk's
    largest radius) and records the ``auto_*`` decision counters on
    ``device``; the other traversals give every chunk their own engine.
    The chunks and engines depend on the inputs alone.
    """
    m = queries.shape[0]
    if chunk_size is None or chunk_size <= 0:
        chunk_size = m
    order = query_order if traversal == "single" else "morton"
    if order == "morton" and morton_schedule is not None:
        schedule = morton_schedule
    else:
        schedule = query_schedule(queries, order)
    qdt = np.int32 if m <= np.iinfo(np.int32).max else np.int64
    if schedule is None:
        schedule = np.arange(m, dtype=qdt)
    schedule = schedule.astype(qdt, copy=False)
    plan = []
    for start in range(0, m, chunk_size):
        ids = schedule[start : start + chunk_size]
        engine = traversal
        if traversal == "auto":
            radius = float(eps[ids].max()) if isinstance(eps, np.ndarray) else eps
            decision = choose_engine(
                tree, queries[ids], radius, DEFAULT_GROUP_SIZE, tree_stats,
                component_masked,
            )
            device.counters.add(f"auto_{decision.engine}_chunks", 1)
            device.counters.add(
                "auto_pred_cost_us", int(decision.pred_seconds * 1e6)
            )
            engine = decision.engine
        plan.append((ids, engine))
    return plan


def run_chunks(
    tree: BVH,
    queries: np.ndarray,
    eps: float | np.ndarray,
    plan: ChunkPlan,
    callback: LeafCallback,
    *,
    mask_positions: np.ndarray | None = None,
    finished_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    component_of: np.ndarray | None = None,
    node_components: np.ndarray | None = None,
    device: Device,
    kernel_name: str,
    leaf_test_is_distance: bool = True,
) -> TraversalResult:
    """Run a chunk plan as one kernel launch: each chunk on its engine, in
    plan order, sharing one frontier pool (and one query-side pool for
    dual chunks).  Chunks run sequentially, so cross-chunk state — a
    stateful ``finished_fn``, the component mask — behaves the same for
    any plan.  Inputs must already be validated (see
    :func:`for_each_leaf_hit` for their meaning)."""
    dev = device
    m = queries.shape[0]
    # A scalar keeps its scalar compare in the single engine: running it
    # through the per-row gather made the flat fdbscan cells 4-6% slower
    # (ngsim n=8192 and hacc n=16384, interleaved min of 6, 2-CPU x86
    # host).  The dual engine always reads one radius per query.
    eps2 = eps * eps
    radii = np.broadcast_to(eps, (m,))
    result = TraversalResult()
    shared = (
        callback, mask_positions, finished_fn, component_of, node_components,
        leaf_test_is_distance, dev, result,
    )
    pool = _FrontierPool(dev, tree.dim)
    qpool = _FrontierPool(dev, tree.dim, tag="qgroups")
    try:
        with dev.kernel(kernel_name, threads=m) as launch:
            for ids, engine in plan:
                if engine == "dual":
                    _dual_chunk(ids, tree, queries, radii, *shared, pool, qpool)
                else:
                    _single_chunk(ids, tree, queries, eps2, *shared, pool)
            launch.steps = result.steps
    finally:
        qpool.release()
        pool.release()
    return result


def _polled(
    finished_fn: Callable[[np.ndarray], np.ndarray] | None,
    watchdog: Callable[[], None] | None,
) -> Callable[[np.ndarray], np.ndarray] | None:
    """Thread ``watchdog`` through the ``finished_fn`` evaluation points:
    both engines already consult ``finished_fn`` every wavefront step, so
    composing it there gives per-step deadline polling with no new hook
    in the hot loops.  The all-``False`` answer (no inner ``finished_fn``)
    is freshly allocated per call — the engines negate the returned array
    in place — and trivially monotone, as the dual engine requires."""
    if watchdog is None:
        return finished_fn

    def polled(ids: np.ndarray) -> np.ndarray:
        watchdog()
        if finished_fn is None:
            return np.zeros(ids.shape[0], dtype=bool)
        return finished_fn(ids)

    return polled


def for_each_leaf_hit(
    tree: BVH,
    queries: np.ndarray,
    eps: float | np.ndarray,
    callback: LeafCallback,
    mask_positions: np.ndarray | None = None,
    finished_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    device: Device | None = None,
    kernel_name: str = "bvh_traverse",
    leaf_test_is_distance: bool = True,
    chunk_size: int | None = DEFAULT_CHUNK_SIZE,
    query_order: str = "input",
    traversal: str = "single",
    component_of: np.ndarray | None = None,
    node_components: np.ndarray | None = None,
    watchdog: Callable[[], None] | None = None,
    morton_schedule: np.ndarray | None = None,
    tree_stats=None,
) -> TraversalResult:
    """Stream every ``(query, leaf)`` pair within ``eps`` to ``callback``.

    The queries are cut into one :func:`chunk_plan` — ``(ids, engine)``
    chunks — which :func:`run_chunks` runs as one launch.

    Parameters
    ----------
    tree:
        A built :class:`~repro.bvh.tree.BVH`.
    queries:
        ``(m, d)`` query centres; each is searched with radius ``eps``.
    eps:
        Search radius — one scalar for every query, or an ``(m,)`` array
        giving query ``q`` the radius ``eps[q]``; either form must be
        finite and non-negative (``ValueError`` otherwise).  A leaf is
        *hit* when the minimum distance from the query to the leaf's box
        is ``<= `` the query's radius.  For degenerate (point) leaves this
        is the exact point-distance predicate.  A constant array gives
        results bit-identical to the scalar; every engine and ``auto``
        honour per-query radii (``auto`` prices a chunk at its
        largest radius).
    callback:
        ``callback(query_ids, leaf_positions)`` invoked once per wavefront
        step with the step's hits.  ``leaf_positions`` are *sorted* leaf
        positions; map through ``tree.order`` for the caller's primitive
        ids.  The arrays are pool-backed views, only valid for the
        duration of the call.
    mask_positions:
        Optional ``(m,)`` int array; query ``q`` only sees leaves at sorted
        positions strictly greater than ``mask_positions[q]`` (the paper's
        traversal mask).  Pass ``-1`` entries for unmasked queries.
    finished_fn:
        Optional early-termination hook, called every step with the
        frontier's *query ids* (one entry per expanding parent pair — both
        children share the verdict) and returning a boolean array of the
        same length; ``True`` entries stop traversing.  The check is
        restricted to the ids actually on the frontier — never the full
        ``(m,)`` query set.  The returned array must be freshly allocated
        (the traversal negates it in place).
    device:
        Accounting device.
    leaf_test_is_distance:
        Count leaf box tests as ``distance_evals`` (true for point leaves,
        where the box test *is* the distance computation); internal box
        tests always land in the ``box_tests`` counter.
    chunk_size:
        Queries per plan chunk (``None`` = all at once).  Models the
        device's resident-thread limit and bounds the transient frontier
        memory; results are identical for any chunking.
    query_order:
        ``"input"`` (default) chunks queries in input order; ``"morton"``
        chunks them in Z-curve order for spatial coherence.  Results are
        identical either way — only the wavefront composition changes.
    traversal:
        The engine of every plan chunk.  ``"single"`` (default) walks one
        frontier row per query; ``"dual"`` aggregates Morton-sorted
        queries into groups of up to
        :data:`~repro.bvh.qgroups.DEFAULT_GROUP_SIZE` and prunes whole
        groups against each node in one box test, expanding to the
        per-query path only where a node has leaf children; ``"auto"``
        lets the planner pick single or dual per chunk.  Labels,
        delivered hits and ``distance_evals`` are bit-identical between
        the engines; ``box_tests``/``nodes_visited`` drop (group pruning
        is the point) while new ``group_box_tests``/``box_tests_saved``
        counters account the aggregated work.  The dual engine requires a
        *monotone* ``finished_fn`` (once finished, always finished) —
        true of every early-exit in this codebase — and dual and
        ``auto`` always schedule queries in Morton order (``query_order``
        is validated but does not change results in any engine).
    component_of / node_components:
        Optional *component mask* (passed together): ``component_of[q]``
        is query ``q``'s component id (``>= 0``) and
        ``node_components[v]`` is tree node ``v``'s component — uniform
        id when every primitive below ``v`` shares one component, ``-1``
        when mixed.  A query never sees leaves of its own component, and
        subtrees uniform in the query's component are pruned without
        descending (Borůvka's "nearest neighbour outside my component"
        query, and FDBSCAN's "skip pairs already joined").  Because a
        subtree uniform in component ``c`` contains only ``c``-leaves,
        internal pruning is a pure work optimisation:
        the delivered hit stream equals leaf-level filtering exactly, in
        both engines.  Same-component leaf children are not counted as
        leaf tests (they are resolved by the id comparison, not a
        distance computation).
    watchdog:
        Optional zero-argument callable polled once on entry and once per
        wavefront step (piggybacking on the ``finished_fn`` evaluation
        points, so both engines poll it identically).  It aborts the
        traversal by *raising* — the service's deadline enforcement
        threads :meth:`repro.faults.Deadline.check` through here.  A
        watchdog that returns normally never changes results.
    morton_schedule:
        Optional precomputed Morton permutation for ``queries`` (the
        exact array :func:`query_schedule` would return) — lets callers
        that cache the schedule (``DBSCANIndex.morton_schedule``) skip
        recomputing the codes here.  Used whenever the plan needs a
        Morton order (``query_order="morton"`` or the dual/auto
        traversals); ignored otherwise.
    tree_stats:
        ``traversal="auto"`` input: the tree's
        :class:`repro.bvh.statistics.TreeStats`, feeding the planner's
        predicted frontier sizes.  Advisory — it steers the per-chunk
        engine choice only, never any result.

    Returns
    -------
    :class:`TraversalResult`
    """
    dev = default_device(device)
    queries, eps, mask_positions = _validated(
        tree, queries, eps, mask_positions, traversal, query_order
    )
    m = queries.shape[0]
    if m == 0:
        return TraversalResult()
    if (component_of is None) != (node_components is None):
        raise ValueError(
            "component_of and node_components must be passed together"
        )
    if component_of is not None:
        component_of = np.asarray(component_of, dtype=np.int64)
        if component_of.shape != (m,):
            raise ValueError(
                f"component_of must be ({m},); got {component_of.shape}"
            )
        node_components = np.asarray(node_components, dtype=np.int64)
        n_nodes = tree.node_lo.shape[0]
        if node_components.shape != (n_nodes,):
            raise ValueError(
                f"node_components must be ({n_nodes},); got {node_components.shape}"
            )
    if watchdog is not None:
        watchdog()
    plan = chunk_plan(
        tree, queries, eps, traversal, query_order, chunk_size, dev,
        morton_schedule, tree_stats, component_of is not None,
    )
    return run_chunks(
        tree, queries, eps, plan, callback,
        mask_positions=mask_positions,
        finished_fn=_polled(finished_fn, watchdog),
        component_of=component_of,
        node_components=node_components,
        device=dev,
        kernel_name=kernel_name,
        leaf_test_is_distance=leaf_test_is_distance,
    )


def _single_chunk(
    chunk_ids: np.ndarray,
    tree: BVH,
    queries: np.ndarray,
    eps2: float | np.ndarray,
    callback: LeafCallback,
    mask_positions: np.ndarray | None,
    finished_fn: Callable[[np.ndarray], np.ndarray] | None,
    component_of: np.ndarray | None,
    node_components: np.ndarray | None,
    leaf_test_is_distance: bool,
    dev: Device,
    result: TraversalResult,
    pool: _FrontierPool,
) -> None:
    """One chunk through the single engine: a frontier row per query,
    expanded level by level until no pair survives.  ``eps2`` is the
    squared radius, scalar or per query."""
    n_int = tree.n_internal
    ch_ids, ch_lo, ch_hi, ch_rng_hi = tree.packed_children()
    # Node ids are as narrow as the tree allows and query ids as narrow
    # as the plan made them: purely a storage choice, exact either way.
    ndt = ch_ids.dtype
    qdt = chunk_ids.dtype
    per_query = isinstance(eps2, np.ndarray)
    # Seed the frontier with the root, testing it like any other
    # node (also prunes queries entirely outside the scene).
    root_lo = tree.node_lo[tree.root]
    root_hi = tree.node_hi[tree.root]
    clamped = np.clip(queries[chunk_ids], root_lo, root_hi)
    diff = queries[chunk_ids] - clamped
    ok = np.einsum("nd,nd->n", diff, diff) <= (
        eps2[chunk_ids] if per_query else eps2
    )
    if mask_positions is not None:
        ok &= tree.node_range_hi[tree.root] > mask_positions[chunk_ids]
    if component_of is not None:
        ok &= node_components[tree.root] != component_of[chunk_ids]
    if finished_fn is not None:
        ok &= ~finished_fn(chunk_ids)
    size = int(np.count_nonzero(ok))
    fr_q = pool.take("fr_q", size, dtype=qdt)
    np.compress(ok, chunk_ids, out=fr_q)
    fr_n = pool.take("fr_n", size, dtype=ndt)
    fr_n.fill(tree.root)

    while size:
        result.steps += 1
        result.frontier_peak = max(result.frontier_peak, size)
        dev.counters.add("nodes_visited", size)
        dev.counters.observe_peak("frontier_peak", size)

        # -- split the frontier into leaf hits and parents ------
        leaf = pool.take("leaf", size, dtype=bool)
        np.greater_equal(fr_n, n_int, out=leaf)
        n_hits = int(np.count_nonzero(leaf))
        n_par = size - n_hits
        if n_hits:
            hit_q = pool.take("hit_q", n_hits, dtype=qdt)
            hit_pos = pool.take("hit_pos", n_hits, dtype=ndt)
            np.compress(leaf, fr_q, out=hit_q)
            np.compress(leaf, fr_n, out=hit_pos)
            hit_pos -= n_int
            result.leaf_hits += n_hits
            callback(hit_q, hit_pos)
        if n_par == 0:
            break
        np.logical_not(leaf, out=leaf)
        par_q = pool.take("par_q", n_par, dtype=qdt)
        par_n = pool.take("par_n", n_par, dtype=ndt)
        np.compress(leaf, fr_q, out=par_q)
        np.compress(leaf, fr_n, out=par_n)

        # -- expand parents, parent-major: one gather over
        # par_n fetches both children's ids, boxes and ranges
        # (the interleaved layout from tree.packed_children) --
        two_k = 2 * n_par
        ex_q = pool.take2("ex_q", n_par, dtype=qdt)
        ex_n = pool.take2("ex_n", n_par, dtype=ndt)
        ex_q[:] = par_q[:, None]
        np.take(ch_ids, par_n, axis=0, out=ex_n)

        # -- test the children against the search sphere --------
        g_pts = pool.take2d("g_pts", n_par)
        g_lo = pool.take_boxes("g_lo", n_par)
        g_hi = pool.take_boxes("g_hi", n_par)
        np.take(queries, par_q, axis=0, out=g_pts)
        np.take(ch_lo, par_n, axis=0, out=g_lo)
        np.take(ch_hi, par_n, axis=0, out=g_hi)
        d2 = pool.take2("d2", n_par, dtype=np.float64)
        pts = g_pts[:, None, :]
        np.clip(pts, g_lo, g_hi, out=g_lo)
        np.subtract(pts, g_lo, out=g_lo)
        np.einsum("nkd,nkd->nk", g_lo, g_lo, out=d2)

        keep = pool.take2("keep", n_par, dtype=bool)
        np.greater_equal(ex_n, n_int, out=keep)
        tested = None
        if component_of is not None:
            # Children whose subtree is uniform in the query's
            # component are pruned by the id comparison alone —
            # no box or distance work is performed (or counted)
            # for them.
            ncomp = pool.take2("ncomp", n_par)
            qcomp = pool.take("qcomp", n_par)
            np.take(node_components, ex_n, out=ncomp)
            np.take(component_of, par_q, out=qcomp)
            tested = pool.take2("ctest", n_par, dtype=bool)
            np.not_equal(ncomp, qcomp[:, None], out=tested)
            n_tested = int(np.count_nonzero(tested))
            n_leaf_tests = int(np.count_nonzero(keep & tested))
        else:
            n_tested = two_k
            n_leaf_tests = int(np.count_nonzero(keep))
        if leaf_test_is_distance:
            dev.counters.add("distance_evals", n_leaf_tests)
            dev.counters.add("box_tests", n_tested - n_leaf_tests)
        else:
            dev.counters.add("box_tests", n_tested)
        if per_query:
            q_r2 = pool.take("q_r2", n_par, dtype=np.float64)
            np.take(eps2, par_q, out=q_r2)
            np.less_equal(d2, q_r2[:, None], out=keep)
        else:
            np.less_equal(d2, eps2, out=keep)
        if tested is not None:
            keep &= tested
        if mask_positions is not None:
            rng_hi = pool.take2("rng_hi", n_par, dtype=ndt)
            q_mask = pool.take("q_mask", n_par)
            np.take(ch_rng_hi, par_n, axis=0, out=rng_hi)
            np.take(mask_positions, par_q, out=q_mask)
            visible = pool.take2("visible", n_par, dtype=bool)
            np.greater(rng_hi, q_mask[:, None], out=visible)
            keep &= visible
        if finished_fn is not None:
            fin = finished_fn(par_q)
            np.logical_not(fin, out=fin)
            keep &= fin[:, None]

        # -- compact the survivors back into the frontier -------
        size = int(np.count_nonzero(keep))
        fr_q = pool.take("fr_q", size, dtype=qdt)
        fr_n = pool.take("fr_n", size, dtype=ndt)
        flat = keep.reshape(two_k)
        np.compress(flat, ex_q.reshape(two_k), out=fr_q)
        np.compress(flat, ex_n.reshape(two_k), out=fr_n)


def _dual_chunk(
    chunk_ids: np.ndarray,
    tree: BVH,
    queries: np.ndarray,
    radii: np.ndarray,
    callback: LeafCallback,
    mask_positions: np.ndarray | None,
    finished_fn: Callable[[np.ndarray], np.ndarray] | None,
    component_of: np.ndarray | None,
    node_components: np.ndarray | None,
    leaf_test_is_distance: bool,
    dev: Device,
    result: TraversalResult,
    pool: _FrontierPool,
    qpool: _FrontierPool,
) -> None:
    """One chunk through the dual-tree engine, over both hierarchies.

    The chunk's Morton-sorted queries are built into a density-adaptive
    query BVH (:func:`repro.bvh.qgroups.build_query_bvh`) and the
    frontier carries ``(query_node, tree_node)`` pairs seeded at
    (query root, tree root).  The tree side descends strictly one level
    per step (that is what keeps the finished-generation bookkeeping
    aligned with the single engine); the query side descends *adaptively*
    within each step: before the pair test, any pair whose query node is
    internal and longer-edged than the tree child it faces is replaced by
    its two children, repeatedly, so the box-box test always compares
    boxes of commensurate extent — the "split the looser side" policy of
    a classic dual-tree walk, realised level-synchronously.  One box-box
    test then decides a whole query subtree's descent
    (``group_box_tests``), so the per-query sphere-box tests the single
    engine pays at every internal node collapse to one test per query
    node (``box_tests_saved``).

    **Why results are bit-identical to the single engine.**  Child boxes
    nest inside parent boxes and leaf visibility ranges nest inside their
    ancestors', and ``finished_fn`` is monotone, so "query ``q`` reaches
    node ``P``" in the single engine is the *local* predicate

    ``d2(q, P.box) <= eps_q²  and  range_hi(P) > mask[q]  and  not
    finished(q, at P's generation)``

    — independent of the path taken to ``P``.  The dual engine therefore
    defers all per-query decisions to the nodes where they matter:
    whenever a frontier entry's tree node has a leaf child, the engine
    re-evaluates that reach predicate per member (the parent re-test,
    charged to ``box_tests``), counts one leaf test per reaching member
    per leaf child (exactly the single engine's ``distance_evals``), and
    emits hits through the same per-query predicate the single engine
    applies.  Both engines advance strictly level-by-level and deliver a
    depth-``d`` leaf's hits on step ``d+1``, so the ``finished_fn``
    generations line up: hits computed on step ``s`` are gated by the
    finished state *after* step ``s``'s deliveries (``fin_now``) and
    counted work by the state that admitted the frontier (``fin_prev``),
    mirroring the single engine's admit-then-expand ordering.  Per-query
    hit streams are chunk- and order-invariant (each query's path and
    early-exit depend only on its own hits), so the Morton order the
    planner forces on dual chunks changes no result.

    Per-query radii (``radii``; a scalar ``eps`` arrives broadcast)
    enter the same way as the mask: each query node carries its members'
    largest radius (``QueryBVH.r_max``), which every group-level test
    uses — a member that reaches a node proves its group does too — while
    the per-member re-tests and the leaf-fringe classification compare
    against each member's own radius.

    Query-side scratch (sorted chunk coordinates and radii, the query
    BVH, the finished double-buffer) is charged to the memory model under
    the ``"qgroups"`` tag; the frontier itself stays under
    ``"frontier"``.

    Component masking extends the reach predicate with "``node``'s
    subtree is not uniform in ``q``'s component": query nodes carry a
    uniform-component summary (seeded at the query leaves by the same
    reduceat the AABBs use and combined bottom-up over the query BVH's
    levels), so a (query node, tree node) pair whose components provably
    coincide is pruned in one comparison, and the per-member leaf test
    applies the exact leaf-vs-query component check the single engine
    applies.
    """
    n_int = tree.n_internal
    leaf_counter = "distance_evals" if leaf_test_is_distance else "box_tests"
    node_lo, node_hi = tree.node_lo, tree.node_hi
    node_rng_hi = tree.node_range_hi
    ch_ids, ch_lo, ch_hi, ch_rng_hi = tree.packed_children()
    ndt = ch_ids.dtype
    root = tree.root
    cn = chunk_ids.shape[0]
    chunk_pts = qpool.take2d("chunk_pts", cn)
    np.take(queries, chunk_ids, axis=0, out=chunk_pts)
    chunk_r = qpool.take("chunk_r", cn, dtype=np.float64)
    np.take(radii, chunk_ids, out=chunk_r)
    chunk_r2 = qpool.take("chunk_r2", cn, dtype=np.float64)
    np.multiply(chunk_r, chunk_r, out=chunk_r2)
    chunk_mask = None
    if mask_positions is not None:
        chunk_mask = qpool.take("chunk_mask", cn)
        np.take(mask_positions, chunk_ids, out=chunk_mask)
    chunk_comp = None
    if component_of is not None:
        chunk_comp = qpool.take("chunk_comp", cn)
        np.take(component_of, chunk_ids, out=chunk_comp)

    if n_int == 0:
        # Single-leaf tree: mirror the single engine's one
        # seed-and-deliver step (seed test uncounted).
        clamped = np.clip(chunk_pts, node_lo[root], node_hi[root])
        diff = chunk_pts - clamped
        ok = np.einsum("nd,nd->n", diff, diff) <= chunk_r2
        if chunk_mask is not None:
            ok &= node_rng_hi[root] > chunk_mask
        if chunk_comp is not None:
            ok &= node_components[root] != chunk_comp
        if finished_fn is not None:
            ok &= ~finished_fn(chunk_ids)
        n_hits = int(np.count_nonzero(ok))
        if n_hits:
            result.steps += 1
            result.frontier_peak = max(result.frontier_peak, n_hits)
            dev.counters.add("nodes_visited", n_hits)
            dev.counters.observe_peak("frontier_peak", n_hits)
            result.leaf_hits += n_hits
            callback(chunk_ids[ok], np.zeros(n_hits, dtype=ndt))
        return

    qg = build_query_bvh(
        chunk_pts, chunk_mask, DEFAULT_GROUP_SIZE, chunk_r, qpool
    )
    n_qinner = qg.n_inner
    node_r2 = qpool.take("node_r2", qg.n_nodes, dtype=np.float64)
    np.multiply(qg.r_max, qg.r_max, out=node_r2)

    # Uniform-component summary per query node (-1 = mixed):
    # the component analogue of the node AABB.  Seeded at the
    # leaves (which tile the chunk, so one reduceat covers
    # them) and combined bottom-up over the BVH's levels.
    ucomp = None
    if chunk_comp is not None:
        lstarts = qg.mem_lo[qg.leaf_order]
        lmin = np.minimum.reduceat(chunk_comp, lstarts)
        lmax = np.maximum.reduceat(chunk_comp, lstarts)
        ucomp = qpool.take("ucomp", qg.n_nodes)
        ucomp[qg.leaf_order] = np.where(lmin == lmax, lmin, -1)
        for lvl_lo, lvl_hi in reversed(qg.levels):
            c0 = ucomp[qg.child0[lvl_lo:lvl_hi]]
            c1 = ucomp[qg.child1[lvl_lo:lvl_hi]]
            ucomp[lvl_lo:lvl_hi] = np.where(c0 == c1, c0, -1)

    fin_prev = fin_now = cumfin = None
    if finished_fn is not None:
        fin_now = qpool.take("fin_a", cn, dtype=bool)
        fin_prev = qpool.take("fin_b", cn, dtype=bool)
        fin_now[:] = finished_fn(chunk_ids)
        cumfin = qpool.take("cumfin", cn + 1)

    # Seed: the query root against the tree root, with the
    # uncounted box-box analogue of the single engine's seed
    # test.
    top = qg.top
    gap = np.maximum(
        0.0,
        np.maximum(node_lo[root] - qg.hi[top], qg.lo[top] - node_hi[root]),
    )
    okt = np.einsum("nd,nd->n", gap, gap) <= node_r2[top]
    if chunk_mask is not None:
        okt &= node_rng_hi[root] > qg.mask_min[top]
    if ucomp is not None:
        uct = ucomp[top]
        okt &= ~((uct >= 0) & (uct == node_components[root]))
    size = int(np.count_nonzero(okt))
    fr_g = pool.take("fr_g", size, dtype=np.int32)
    fr_n = pool.take("fr_n", size, dtype=ndt)
    np.compress(okt, top, out=fr_g)
    fr_n.fill(root)
    pend_q: list[np.ndarray] = []
    pend_p: list[np.ndarray] = []
    n_pend = 0

    while size or n_pend:
        result.steps += 1
        foot = size + n_pend
        result.frontier_peak = max(result.frontier_peak, foot)
        dev.counters.add("nodes_visited", size)
        dev.counters.observe_peak("frontier_peak", foot)

        # -- (1) deliver the previous step's leaf hits --------
        if n_pend:
            hit_q = pend_q[0] if len(pend_q) == 1 else np.concatenate(pend_q)
            hit_pos = pend_p[0] if len(pend_p) == 1 else np.concatenate(pend_p)
            pend_q.clear()
            pend_p.clear()
            n_pend = 0
            # The single engine hands each query its step's
            # hits in ascending leaf position (children expand
            # left-then-right and compaction is stable).
            # Restore that order so even float accumulations
            # (weighted counts) match bit-for-bit.
            order = np.lexsort((hit_pos, hit_q))
            hit_q = hit_q[order]
            hit_pos = hit_pos[order]
            result.leaf_hits += hit_q.shape[0]
            callback(hit_q, hit_pos)
        if size == 0:
            break

        # -- (2) roll the finished generations ----------------
        # fin_prev = the state that admitted this frontier;
        # fin_now = the state after this step's deliveries
        # (monotone, so only not-yet-finished ids re-checked).
        if finished_fn is not None:
            fin_prev, fin_now = fin_now, fin_prev
            np.copyto(fin_now, fin_prev)
            live_idx = np.flatnonzero(~fin_prev)
            if live_idx.size:
                fin_now[live_idx] = finished_fn(chunk_ids[live_idx])
            cumfin[0] = 0
            np.cumsum(fin_prev, out=cumfin[1:])
            # Drop entries whose members have all finished
            # (uncounted — the single engine's frontier loses
            # finished queries the same way).
            mlo = qg.mem_lo[fr_g]
            mhi = qg.mem_hi[fr_g]
            lcount = (mhi - mlo) - (cumfin[mhi] - cumfin[mlo])
            alive = lcount > 0
            if not alive.all():
                fr_g = fr_g[alive]
                fr_n = fr_n[alive]
                size = fr_g.shape[0]
                if size == 0:
                    continue

        # -- (3) gather both children of every entry ----------
        ch = ch_ids[fr_n]
        crng = ch_rng_hi[fr_n]
        clo = ch_lo[fr_n]
        chi = ch_hi[fr_n]
        is_leaf = ch >= n_int
        has_leaf = is_leaf[:, 0] | is_leaf[:, 1]

        # -- (4) per-member expansion at leaf parents ---------
        # Counters here measure the *logical* per-query work
        # (exactly what the single engine performs); the
        # entry-level min/max-distance classifications below
        # are uncounted vectorisation shortcuts that resolve
        # whole groups of member tests collectively with
        # bit-identical outcomes — the same licence the device
        # model's bincount-backed scatter_add takes.
        sel = np.flatnonzero(has_leaf)
        if sel.size:
            e_g = fr_g[sel]
            e_n = fr_n[sel]
            starts = qg.mem_lo[e_g]
            cnts = qg.mem_hi[e_g] - starts
            mpos = concatenated_ranges(starts, cnts)
            seg = segment_ids_from_counts(cnts)
            live = None
            if finished_fn is not None:
                live = ~fin_prev[mpos]
            if chunk_mask is not None:
                vis = node_rng_hi[e_n][seg] > chunk_mask[mpos]
                live = vis if live is None else live & vis
            if chunk_comp is not None:
                # A member whose component fills this node's
                # subtree never reached it in the single
                # engine — drop it from the parent re-test.
                cok = node_components[e_n][seg] != chunk_comp[mpos]
                live = cok if live is None else live & cok
            # Admission guarantees mindist(group, node) <= the
            # group's largest radius; a member whose own radius
            # covers even the farthest node corner reaches
            # without a per-member box test.
            mem_r2 = chunk_r2[mpos]
            far = np.maximum(
                node_hi[e_n] - qg.lo[e_g], qg.hi[e_g] - node_lo[e_n]
            )
            allin = np.einsum("nd,nd->n", far, far)[seg] <= mem_r2
            reach = allin if live is None else allin & live
            need = ~allin
            if live is not None:
                need &= live
            ridx = np.flatnonzero(need)
            if ridx.size:
                pn = e_n[seg[ridx]]
                pts_r = chunk_pts[mpos[ridx]]
                d = pts_r - np.clip(pts_r, node_lo[pn], node_hi[pn])
                reach[ridx] = np.einsum("nd,nd->n", d, d) <= mem_r2[ridx]
            dev.counters.add(
                "box_tests",
                mpos.shape[0] if live is None
                else int(np.count_nonzero(live)),
            )
            for k in (0, 1):
                lk = is_leaf[sel, k]
                if not lk.any():
                    continue
                take = lk[seg] & reach
                if chunk_comp is not None:
                    # Leaf-vs-member component check — the
                    # exact gate the single engine applies
                    # before testing a leaf child (a leaf's
                    # component is always uniform).
                    lcomp = node_components[ch[sel, k]]
                    take &= lcomp[seg] != chunk_comp[mpos]
                idx = np.flatnonzero(take)
                dev.counters.add(leaf_counter, idx.shape[0])
                if idx.shape[0] == 0:
                    continue
                # Leaf classification from entry-level bounds:
                # a member whose radius misses the group's
                # nearest approach to the leaf misses; one whose
                # radius covers the group-to-leaf farthest
                # corner hits.  Only the ambiguous band
                # computes per-member distances.
                lo_k = clo[sel, k]
                hi_k = chi[sel, k]
                gapl = np.maximum(
                    0.0,
                    np.maximum(lo_k - qg.hi[e_g], qg.lo[e_g] - hi_k),
                )
                farl = np.maximum(
                    hi_k - qg.lo[e_g], qg.hi[e_g] - lo_k
                )
                sidx = seg[idx]
                r2_i = mem_r2[idx]
                hit = np.einsum("nd,nd->n", farl, farl)[sidx] <= r2_i
                near = np.einsum("nd,nd->n", gapl, gapl)[sidx] <= r2_i
                sub = np.flatnonzero(near & ~hit)
                if sub.size:
                    li = idx[sub]
                    leaf_n = ch[sel, k][seg[li]]
                    lpts = chunk_pts[mpos[li]]
                    dd = lpts - np.clip(
                        lpts, node_lo[leaf_n], node_hi[leaf_n]
                    )
                    hit[sub] = np.einsum("nd,nd->n", dd, dd) <= r2_i[sub]
                if chunk_mask is not None:
                    hit &= crng[sel, k][sidx] > chunk_mask[mpos[idx]]
                if finished_fn is not None:
                    hit &= ~fin_now[mpos[idx]]
                h = np.flatnonzero(hit)
                if h.size:
                    pend_q.append(chunk_ids[mpos[idx[h]]])
                    pend_p.append(
                        (ch[sel, k][seg[idx[h]]] - n_int).astype(
                            ndt, copy=False
                        )
                    )
                    n_pend += h.shape[0]

        # -- (5) group-level descent into internal children ---
        fe, fk = np.nonzero(~is_leaf)
        if fe.size == 0:
            size = 0
            continue
        cand_q = fr_g[fe]
        cand_n = ch[fe, fk]
        cand_lo = clo[fe, fk]
        cand_hi = chi[fe, fk]
        cand_rng = crng[fe, fk]
        if n_qinner:
            # Split the looser side: while a pair's query node
            # is internal and longer-edged than the tree child
            # it faces, replace it by its two halves, so the
            # box-box test below always compares commensurate
            # boxes.  Terminates because every split moves one
            # level down the (finite-depth) query BVH.
            # Counters-only heuristic — the per-member re-test
            # at leaf parents keeps results exact regardless.
            child_ext = (cand_hi - cand_lo).max(axis=1)
            while True:
                split = (cand_q < n_qinner) & (
                    qg.ext[cand_q] > child_ext
                )
                if not split.any():
                    break
                stay = ~split
                s_q = cand_q[split]
                sub_q = np.empty(2 * s_q.shape[0], dtype=cand_q.dtype)
                sub_q[0::2] = qg.child0[s_q]
                sub_q[1::2] = qg.child1[s_q]
                rep2 = np.repeat(np.flatnonzero(split), 2)
                cand_q = np.concatenate([cand_q[stay], sub_q])
                cand_n = np.concatenate([cand_n[stay], cand_n[rep2]])
                cand_lo = np.concatenate([cand_lo[stay], cand_lo[rep2]])
                cand_hi = np.concatenate([cand_hi[stay], cand_hi[rep2]])
                cand_rng = np.concatenate([cand_rng[stay], cand_rng[rep2]])
                child_ext = np.concatenate(
                    [child_ext[stay], child_ext[rep2]]
                )
        # One box-box test per (query node, tree child): the
        # exact Minkowski form of "group AABB inflated by its
        # largest member radius intersects node box".
        gap = np.maximum(
            0.0,
            np.maximum(cand_lo - qg.hi[cand_q], qg.lo[cand_q] - cand_hi),
        )
        d2g = np.einsum("nd,nd->n", gap, gap)
        dev.counters.add("group_box_tests", cand_q.shape[0])
        mlo = qg.mem_lo[cand_q]
        mhi = qg.mem_hi[cand_q]
        if finished_fn is not None:
            lcount = (mhi - mlo) - (cumfin[mhi] - cumfin[mlo])
        else:
            lcount = mhi - mlo
        dev.counters.add(
            "box_tests_saved", int(np.maximum(lcount - 1, 0).sum())
        )
        keep = d2g <= node_r2[cand_q]
        if chunk_mask is not None:
            keep &= cand_rng > qg.mask_min[cand_q]
        if ucomp is not None:
            # Prune a (query node, tree node) pair whose
            # components provably coincide: both uniform and
            # equal means every member/leaf pair below is
            # same-component.
            ucq = ucomp[cand_q]
            keep &= ~((ucq >= 0) & (ucq == node_components[cand_n]))
        size = int(np.count_nonzero(keep))
        fr_g = pool.take("fr_g", size, dtype=np.int32)
        fr_n = pool.take("fr_n", size, dtype=ndt)
        np.compress(keep, cand_q, out=fr_g)
        np.compress(keep, cand_n, out=fr_n)


def count_within(
    tree: BVH,
    queries: np.ndarray,
    eps: float | np.ndarray,
    stop_at: float | None = None,
    mask_positions: np.ndarray | None = None,
    device: Device | None = None,
    chunk_size: int | None = DEFAULT_CHUNK_SIZE,
    leaf_weights: np.ndarray | None = None,
    query_order: str = "input",
    traversal: str = "single",
    watchdog: Callable[[], None] | None = None,
    morton_schedule: np.ndarray | None = None,
    tree_stats=None,
) -> np.ndarray:
    """Count leaves within ``eps`` of each query (point-leaf trees).

    ``eps`` is a scalar or an ``(m,)`` per-query radius array, validated
    and honoured exactly as in :func:`for_each_leaf_hit`, and so are the
    scheduling arguments: the counts run as one ``"bvh_count"`` launch
    over one :func:`chunk_plan`.

    With ``stop_at`` set, a query's traversal terminates early once its
    count reaches ``stop_at`` — the paper's core-point determination
    shortcut (Section 3.2).  The early-exit contract, for unweighted and
    weighted counts alike:

    - a returned count ``< stop_at`` is **exact** — the query's traversal
      ran to completion;
    - a returned count ``>= stop_at`` means **at least this many**: the
      query stopped as soon as its running total reached ``stop_at``, so
      the value is a lower bound whose exact magnitude depends on
      traversal order.  Reaching ``stop_at`` exactly terminates too
      (``counts >= stop_at``, not ``>``) — a weighted query whose
      neighbourhood weights sum to exactly ``stop_at`` still short-cuts,
      and the threshold test ``counts >= stop_at`` downstream is
      unaffected.

    The early-exit check is evaluated per step against the *frontier's*
    query ids only — an O(frontier) gather, not an O(m) recompute — and a
    query's per-step hit batches depend only on its own tree path, so the
    returned counts are identical for every ``chunk_size``,
    ``query_order`` and ``traversal``.

    ``stop_at`` may be fractional when ``leaf_weights`` is given (weights
    are arbitrary positive floats, so any finite threshold is meaningful);
    it must be positive and finite either way.

    ``leaf_weights`` (indexed by *sorted leaf position*) turns the count
    into a weighted sum — the weighted-density generalisation where each
    primitive contributes its sample weight instead of 1.

    Returns the ``(m,)`` count array (int64, or float64 when weighted).
    A query point that is itself a primitive of the tree counts itself
    (distance 0).
    """
    dev = default_device(device)
    queries, eps, mask_positions = _validated(
        tree, queries, eps, mask_positions, traversal, query_order
    )
    if stop_at is not None and (not np.isfinite(stop_at) or stop_at <= 0):
        raise ValueError(f"stop_at must be positive and finite; got {stop_at}")
    if leaf_weights is not None:
        leaf_weights = np.asarray(leaf_weights, dtype=np.float64)
        if leaf_weights.shape != (tree.n_primitives,):
            raise ValueError(
                f"leaf_weights must be ({tree.n_primitives},); got {leaf_weights.shape}"
            )
    m = queries.shape[0]
    counts = np.zeros(m, dtype=np.int64 if leaf_weights is None else np.float64)
    if m == 0:
        return counts
    if watchdog is not None:
        watchdog()
    plan = chunk_plan(
        tree, queries, eps, traversal, query_order, chunk_size, dev,
        morton_schedule, tree_stats,
    )
    if leaf_weights is None:

        def on_hits(q_ids: np.ndarray, _pos: np.ndarray) -> None:
            scatter_add(counts, q_ids, counters=dev.counters)

    else:

        def on_hits(q_ids: np.ndarray, pos: np.ndarray) -> None:
            scatter_add(counts, q_ids, leaf_weights[pos], counters=dev.counters)

    finished_fn = None
    if stop_at is not None:

        def finished_fn(ids: np.ndarray) -> np.ndarray:
            return counts[ids] >= stop_at

    run_chunks(
        tree, queries, eps, plan, on_hits,
        mask_positions=mask_positions,
        finished_fn=_polled(finished_fn, watchdog),
        device=dev,
        kernel_name="bvh_count",
    )
    return counts
