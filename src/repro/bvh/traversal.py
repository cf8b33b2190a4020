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

Every traversal is one launch over a **chunk plan** (:func:`chunk_plan`):
the query ids in input order, cut into ``chunk_size`` slices.  The runner
(:func:`run_chunks`) opens one kernel span and runs the chunks in order
on one frontier pool.  Two levers shape the constant factors without
changing any result:

- the **frontier pool**: all per-step arrays (the double-buffered
  frontier, compacted hit/parent views, gathered boxes, predicates) live
  in one grow-only scratch pool reused across steps and chunks, so the
  hot loop performs no per-step ``concatenate``/fancy-index allocation.
  The pool's high-water mark is charged to the memory model as a single
  transient ``"frontier"`` allocation — the faithful analogue of a GPU's
  preallocated traversal workspace;
- **contained-subtree counts** (:func:`count_within` and DenseBox's
  preprocessing, unweighted): a child whose box lies wholly
  inside the query's ball adds its leaves' total size to the query and
  never enters the frontier, instead of being walked down to its leaves.
  Only nodes whose diagonal is at most twice the largest radius can be
  contained, so only those pay the far-corner test.  Counts stay exact
  (see :func:`_credit_contained`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.bvh.tree import BVH
from repro.device.device import Device, default_device
from repro.device.primitives import scatter_add

LeafCallback = Callable[[np.ndarray, np.ndarray], None]

#: A chunk plan: the query ids of each chunk, in launch order.
ChunkPlan = list[np.ndarray]

#: Queries in the first refresh epoch of :func:`spread_epochs`; every
#: later epoch is :data:`EPOCH_GROWTH` times larger than the one before.
FIRST_EPOCH = 64
EPOCH_GROWTH = 4


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

#: Relative pad that makes a radius taken from a computed distance reach
#: that distance's point.  The traversal keeps a point at squared distance
#: ``D`` when ``D <= fl(r*r)``, while a distance is ``fl(sqrt(D))``; for
#: ``r`` equal to it ``fl(r*r)`` can fall an ulp short of ``D`` and miss
#: the very point the radius names.  With ``r = sqrt(D)(1+d1)`` and every
#: rounding ``|d| <= 2**-53``, the padded square is ``D (1+d1)**2
#: (1+2**-48)**2 (1+d2)**2 (1+d3) >= D (1 - 5 * 2**-53)(1 + 2**-47) > D``,
#: and rounding is monotone, so every point within ``r`` is hit.  One
#: ``nextafter`` ulp is not provably enough near the top of a binade.
RADIUS_PAD = 1.0 + 2.0**-48


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
    radius per query (returned as an ``(m,)`` float64 array, the caller's
    own array when it is one, so it can be lowered in flight).  Either
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


def _validated(tree, queries, eps):
    """The checks and coercions every entry point applies to its inputs:
    contiguous float64 ``queries`` and validated radii ``eps``."""
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != tree.dim:
        raise ValueError(
            f"queries must be (m, {tree.dim}); got shape {queries.shape}"
        )
    return queries, search_radii(eps, queries.shape[0])


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


def chunk_plan(m: int, chunk_size: int | None) -> ChunkPlan:
    """The chunks one launch over ``m`` queries runs, in launch order:
    the query ids in input order, sliced every ``chunk_size`` (``None`` or
    ``<= 0`` = one chunk).  Ids are in the narrowest index dtype that
    fits (real traversal kernels carry 32-bit ids; halving the index
    traffic of a bandwidth-bound wavefront is a direct win).
    """
    if chunk_size is None or chunk_size <= 0:
        chunk_size = m
    qdt = np.int32 if m <= np.iinfo(np.int32).max else np.int64
    ids = np.arange(m, dtype=qdt)
    return [ids[start : start + chunk_size] for start in range(0, m, chunk_size)]


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
    contained: tuple[np.ndarray, np.ndarray] | None = None,
) -> TraversalResult:
    """Run a chunk plan as one kernel launch: each chunk in plan order,
    sharing one frontier pool.  Chunks run sequentially, so cross-chunk
    state — a stateful ``finished_fn``, the component mask — behaves the
    same for any plan.  Inputs must already be validated (see
    :func:`for_each_leaf_hit` for their meaning).  ``contained`` is
    ``(counts, prefix)`` for a contained-subtree count: the query counts
    to credit and the int64 cumulative leaf size over sorted leaf
    positions, ``(n_primitives + 1,)`` with ``prefix[0] == 0`` (see
    :func:`_credit_contained`)."""
    dev = device
    m = queries.shape[0]
    # A scalar keeps its scalar compare: running it through the per-row
    # gather made the flat fdbscan cells 4-6% slower (ngsim n=8192 and
    # hacc n=16384, interleaved min of 6, 2-CPU x86 host).  A per-query
    # array is read live: each test squares the slice it gathers.
    eps2 = eps if isinstance(eps, np.ndarray) else eps * eps
    result = TraversalResult()
    pool = _FrontierPool(dev, tree.dim)
    try:
        if contained is not None:
            contained = _contained_gate(tree, eps, contained, pool)
        with dev.kernel(kernel_name, threads=m) as launch:
            for ids in plan:
                _single_chunk(
                    ids, tree, queries, eps2, callback, mask_positions,
                    finished_fn, component_of, node_components,
                    leaf_test_is_distance, dev, result, pool, contained,
                )
            launch.steps = result.steps
    finally:
        pool.release()
    return result


def polled(
    finished_fn: Callable[[np.ndarray], np.ndarray] | None,
    watchdog: Callable[[], None] | None,
) -> Callable[[np.ndarray], np.ndarray] | None:
    """Thread ``watchdog`` through the ``finished_fn`` evaluation points:
    the traversal already consults ``finished_fn`` every wavefront step,
    so composing it there gives per-step deadline polling with no new
    hook in the hot loop.  The all-``False`` answer (no inner
    ``finished_fn``) is freshly allocated per call — the traversal
    negates the returned array in place."""
    if watchdog is None:
        return finished_fn

    def polled_fn(ids: np.ndarray) -> np.ndarray:
        watchdog()
        if finished_fn is None:
            return np.zeros(ids.shape[0], dtype=bool)
        return finished_fn(ids)

    return polled_fn


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
    component_of: np.ndarray | None = None,
    node_components: np.ndarray | None = None,
    watchdog: Callable[[], None] | None = None,
) -> TraversalResult:
    """Stream every ``(query, leaf)`` pair within ``eps`` to ``callback``.

    The queries are cut into one :func:`chunk_plan`, which
    :func:`run_chunks` runs as one launch.

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
        results bit-identical to the scalar.  A float64 array is used in
        place and read live: every test squares the entries it gathers, so
        a ``callback`` may *lower* ``eps[q]`` (never raise it), and
        the rest of query ``q``'s walk, from that step's expansion on, is
        pruned at the new radius.
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
        internal pruning is a pure work optimisation: the delivered hit
        stream equals leaf-level filtering exactly.  Same-component leaf
        children are not counted as leaf tests (they are resolved by the
        id comparison, not a distance computation).
    watchdog:
        Optional zero-argument callable polled once on entry and once per
        wavefront step (piggybacking on the ``finished_fn`` evaluation
        points).  It aborts the traversal by *raising* — the service's
        deadline enforcement threads :meth:`repro.faults.Deadline.check`
        through here.  A watchdog that returns normally never changes
        results.

    Returns
    -------
    :class:`TraversalResult`
    """
    dev = default_device(device)
    queries, eps = _validated(tree, queries, eps)
    if mask_positions is not None:
        mask_positions = np.asarray(mask_positions, dtype=np.int64)
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
    plan = chunk_plan(m, chunk_size)
    return run_chunks(
        tree, queries, eps, plan, callback,
        mask_positions=mask_positions,
        finished_fn=polled(finished_fn, watchdog),
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
    contained: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
) -> None:
    """One chunk: a frontier row per query, expanded level by level until
    no pair survives.  ``eps2`` is the squared scalar radius, or the live
    ``(m,)`` radius array, whose gathered entries each test squares."""
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
        np.square(eps2[chunk_ids]) if per_query else eps2
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
        # Every id gathered here is in range; mode="clip" skips the
        # buffered copy of ``out`` that the default mode="raise" makes.
        np.take(ch_ids, par_n, axis=0, out=ex_n, mode="clip")

        # -- test the children against the search sphere --------
        g_pts = pool.take2d("g_pts", n_par)
        g_lo = pool.take_boxes("g_lo", n_par)
        g_hi = pool.take_boxes("g_hi", n_par)
        np.take(queries, par_q, axis=0, out=g_pts, mode="clip")
        np.take(ch_lo, par_n, axis=0, out=g_lo, mode="clip")
        np.take(ch_hi, par_n, axis=0, out=g_hi, mode="clip")
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
            np.take(node_components, ex_n, out=ncomp, mode="clip")
            np.take(component_of, par_q, out=qcomp, mode="clip")
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
            np.take(eps2, par_q, out=q_r2, mode="clip")
            np.multiply(q_r2, q_r2, out=q_r2)
            np.less_equal(d2, q_r2[:, None], out=keep)
        else:
            np.less_equal(d2, eps2, out=keep)
        if tested is not None:
            keep &= tested
        if mask_positions is not None:
            rng_hi = pool.take2("rng_hi", n_par, dtype=ndt)
            q_mask = pool.take("q_mask", n_par)
            np.take(ch_rng_hi, par_n, axis=0, out=rng_hi, mode="clip")
            np.take(mask_positions, par_q, out=q_mask, mode="clip")
            visible = pool.take2("visible", n_par, dtype=bool)
            np.greater(rng_hi, q_mask[:, None], out=visible)
            keep &= visible
        if finished_fn is not None:
            fin = finished_fn(par_q)
            np.logical_not(fin, out=fin)
            keep &= fin[:, None]
        if contained is not None:
            _credit_contained(
                keep, ex_q, ex_n, par_n, tree, queries, eps2, contained, dev, pool
            )

        # -- compact the survivors back into the frontier -------
        size = int(np.count_nonzero(keep))
        fr_q = pool.take("fr_q", size, dtype=qdt)
        fr_n = pool.take("fr_n", size, dtype=ndt)
        flat = keep.reshape(two_k)
        np.compress(flat, ex_q.reshape(two_k), out=fr_q)
        np.compress(flat, ex_n.reshape(two_k), out=fr_n)


def _contained_gate(
    tree: BVH,
    eps: float | np.ndarray,
    contained: tuple[np.ndarray, np.ndarray],
    pool: _FrontierPool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``(counts, prefix, gate)`` for :func:`_credit_contained`, or
    ``None`` when no node can be contained.  ``contained`` is
    :func:`run_chunks`'s ``(counts, prefix)``.  ``gate`` is
    ``(n_internal, 2)`` in the packed child layout: "this child is
    internal and its squared diagonal is at most ``4 r_max**2``".  It is
    rebuilt per call from the current boxes (O(n_internal), so a refit
    needs no invalidation) in pool slots, so the frontier charge covers
    it."""
    n_int = tree.n_internal
    if n_int == 0:
        return None
    ext = pool.take2d("c_ext", n_int)
    np.subtract(tree.node_hi[:n_int], tree.node_lo[:n_int], out=ext)
    diag2 = pool.take("c_diag2", n_int, dtype=np.float64)
    np.einsum("nd,nd->n", ext, ext, out=diag2)
    ch_ids = tree.packed_children()[0]
    ch_diag2 = pool.take2("c_ch_diag2", n_int, dtype=np.float64)
    # Leaf children clip to a stand-in id; the last line gates them off.
    np.take(diag2, ch_ids, out=ch_diag2, mode="clip")
    gate = pool.take2("c_gate", n_int, dtype=bool)
    # In numpy, so a radius whose square overflows gates against inf.
    with np.errstate(over="ignore"):
        np.less_equal(ch_diag2, 4.0 * np.square(np.max(eps)), out=gate)
    gate &= ch_ids < n_int
    return (*contained, gate) if gate.any() else None


def _credit_contained(
    keep: np.ndarray,
    ex_q: np.ndarray,
    ex_n: np.ndarray,
    par_n: np.ndarray,
    tree: BVH,
    queries: np.ndarray,
    eps2: float | np.ndarray,
    contained: tuple[np.ndarray, np.ndarray, np.ndarray],
    dev: Device,
    pool: _FrontierPool,
) -> None:
    """Credit every surviving child whose box lies inside its query's
    ball with its leaves' total size, and drop it from ``keep``.

    ``contained`` is ``(counts, prefix, gate)``: the query counts to
    credit, the cumulative leaf size over sorted leaf positions, and a
    per-parent ``(n_internal, 2)`` flag, "this child is internal and its
    diagonal is at most twice the largest radius".  A contained node
    credits ``prefix[range_hi + 1] - prefix[range_lo]``: its leaf count
    over a points tree (``prefix`` is ``0, 1, 2, ...``), its total member
    count over DenseBox's mixed tree (a cell box has its member count).
    A box that fits in a ball of radius ``r`` has a diagonal of at most
    ``2 r``, so only gated children take the far-corner test (one
    ``box_tests`` and, if it passes, one ``scatter_adds`` each).  The
    test rounds like the leaf tests: per axis, ``fl(q - x)`` is monotone
    in ``x``, so no point of the box lies farther from ``q`` than the far
    corner ``max(|q - lo|, |q - hi|)``, and the squares are summed in
    einsum form, as the traversal's leaf test and DenseBox's member test
    sum theirs (the two einsum forms round alike).  Every point of a
    contained node would have passed its own test — the credit is the
    exact count the walk would deliver.
    """
    counts, prefix, gate = contained
    cand = pool.take2("c_cand", par_n.shape[0], dtype=bool)
    np.take(gate, par_n, axis=0, out=cand, mode="clip")
    cand &= keep
    c_idx = np.flatnonzero(cand)
    k = c_idx.size
    if k == 0:
        return
    cq = pool.take("c_q", k, dtype=ex_q.dtype)
    cn = pool.take("c_n", k, dtype=ex_n.dtype)
    np.take(ex_q.reshape(-1), c_idx, out=cq, mode="clip")
    np.take(ex_n.reshape(-1), c_idx, out=cn, mode="clip")
    pts = pool.take2d("c_pts", k)
    lo = pool.take2d("c_lo", k)
    hi = pool.take2d("c_hi", k)
    np.take(queries, cq, axis=0, out=pts, mode="clip")
    np.take(tree.node_lo, cn, axis=0, out=lo, mode="clip")
    np.take(tree.node_hi, cn, axis=0, out=hi, mode="clip")
    # max(q - lo, hi - q) is max(|q - lo|, |q - hi|) exactly: fl negates
    # exactly and is monotone, and lo <= hi.  The (n, 1, d) einsum is the
    # leaf test's form, so both sum their squares in the same order.
    np.subtract(pts, lo, out=lo)
    np.subtract(hi, pts, out=hi)
    np.maximum(lo, hi, out=lo)
    far2 = pool.take("c_far2", k, dtype=np.float64)
    np.einsum("nkd,nkd->nk", lo[:, None, :], lo[:, None, :], out=far2[:, None])
    dev.counters.add("box_tests", k)
    inside = pool.take("c_inside", k, dtype=bool)
    if isinstance(eps2, np.ndarray):
        np.less_equal(far2, np.square(np.take(eps2, cq)), out=inside)
    else:
        np.less_equal(far2, eps2, out=inside)
    inside_idx = np.flatnonzero(inside)
    if inside_idx.size == 0:
        return
    inn = np.take(cn, inside_idx)
    leaves = np.take(prefix, np.take(tree.node_range_hi, inn) + 1)
    leaves -= np.take(prefix, np.take(tree.node_range_lo, inn))
    # A handful of credits per step: np.add.at beats the bincount-backed
    # scatter_add, whose cost is one pass over every query.  The takes use
    # mode="clip" (every id is in range) because the default buffers ``out``.
    np.add.at(counts, np.take(cq, inside_idx), leaves)
    dev.counters.add("scatter_adds", inside_idx.size)
    keep.reshape(-1)[np.take(c_idx, inside_idx)] = False


def count_within(
    tree: BVH,
    queries: np.ndarray,
    eps: float | np.ndarray,
    stop_at: float | None = None,
    device: Device | None = None,
    chunk_size: int | None = DEFAULT_CHUNK_SIZE,
    leaf_weights: np.ndarray | None = None,
    watchdog: Callable[[], None] | None = None,
) -> np.ndarray:
    """Count leaves within ``eps`` of each query (point-leaf trees).

    ``eps`` is a scalar or an ``(m,)`` per-query radius array, validated
    and honoured exactly as in :func:`for_each_leaf_hit`, and so is
    ``chunk_size``: the counts run as one ``"bvh_count"`` launch over one
    :func:`chunk_plan`.

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
    returned counts are identical for every ``chunk_size``.

    Unweighted counts credit a contained subtree whole: a
    child whose box lies inside the query's ball adds its leaf count
    (``range_hi - range_lo + 1``, a difference of the all-ones prefix) in
    the step that reaches it instead of being walked to its leaves.  The
    credit is exactly the hits the walk would deliver, so the contract
    above is unchanged; the saving shows in ``nodes_visited`` and
    ``distance_evals``, and each far-corner test is one ``box_tests``.
    Weighted counts walk every leaf, so their float sums keep the
    leaf-by-leaf order (and ``counts >= stop_at`` its exact ties).

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
    queries, eps = _validated(tree, queries, eps)
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
    plan = chunk_plan(m, chunk_size)
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
        finished_fn=polled(finished_fn, watchdog),
        device=dev,
        kernel_name="bvh_count",
        contained=(
            (counts, np.arange(tree.n_primitives + 1, dtype=np.int64))
            if leaf_weights is None
            else None
        ),
    )
    return counts
