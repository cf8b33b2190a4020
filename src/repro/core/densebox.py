"""FDBSCAN-DenseBox — dense-cell aware fused DBSCAN (Section 4.2).

When ``|N_eps(x)| >> minpts``, most distance computations are provably
redundant.  FDBSCAN-DenseBox superimposes a grid of cell length
``eps / sqrt(d)`` (cell diameter ``eps``) over the domain: any cell with at
least ``minpts`` points — a *dense cell* — consists purely of core points
of one cluster.  The BVH is then built over a *mixed* primitive set:
isolated points plus one box per dense cell, which both shrinks the tree
and lets dense regions be resolved per-cell instead of per-point.

Phases:

1. **decompose** — the eps grid binning (cached per ``eps`` by the
   index), then, per fit, the dense cells, the mixed primitives
   (:func:`repro.grid.dense_cells.threshold_binning`) and their tree;
2. **preprocessing** — only isolated points need a core test; their
   batched traversal counts isolated-point hits directly and counts the
   members of hit dense boxes within ``eps``, terminating at ``minpts``.
   Unweighted, a subtree wholly inside the query's ball is credited its
   total member count (a point leaf 1, a cell box its size) without
   descending, as :func:`repro.bvh.traversal.count_within` credits its
   leaf count;
3. **main phase** — (a) all points of each dense cell are unioned
   (they are one cluster by construction); (b) a batched traversal for
   *all* points resolves discovered objects: a point hit follows the
   standard core/border rule; a dense-box hit needs only *one* member
   within ``eps``, after which the query is unioned into (or, if
   non-core, attached to) the cell's cluster.  Step (b) skips objects
   already in the query's cluster, through FDBSCAN's main phase
   (:func:`repro.core.framework.main_phase`): it runs in refresh
   epochs in spread order, and before each epoch every primitive takes
   the component of a representative point (an isolated point its own,
   a box its cell's first member, which (a) joined to every other).  A
   query never sees its own primitive, nor any box or point, or
   subtree of them, already in its component.  On dense data nearly
   every box hit joins a cell already in the query's cluster, so this
   removes most of the phase's box scans and unions.  Non-core points
   share one sentinel component, so a non-core query skips the other
   non-core points; boxes are core, so it never skips a box or a core
   point.  Isolated points with no neighbour but themselves (an exact
   unweighted count of 1) run no main-phase query.

The counters charge the modelled kernel's linear member scan: to the end
in preprocessing, to the first member within ``eps`` in the main phase.
The host finds the same members with less work (:func:`_scan_cells`):
a block scan that stops after the first hit, member counts without
distance math for cells wholly inside the query's ball, and, with early
exit and no weights, a preprocessing scan that stops once the query has
``minpts`` (a count below ``minpts`` is still exact).  A subtree credit
is charged as the kernel would do it: one far-corner ``box_tests`` and
one ``scatter_adds``, and nothing below the credited node.

The pair-once mask generalises to the mixed tree: every query is masked by
the sorted position of *its own primitive* (its point, or its cell's box),
so object pairs are processed by exactly one side.  The same positions
order the refresh epochs.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bvh.builder import build_bvh, release_bvh
from repro.bvh.traversal import run_chunks
from repro.bvh.tree import BVH
from repro.core.framework import PairResolver, main_phase
from repro.core.index import DBSCANIndex
from repro.core.labels import DBSCANResult
from repro.core.validation import validate_params, validate_points, validate_weights
from repro.device.device import Device, default_device
from repro.device.primitives import (
    concatenated_ranges,
    scatter_add,
    segment_ids_from_counts,
)
from repro.grid.dense_cells import DenseDecomposition, threshold_binning


def _scan_cells(
    cell_pts: np.ndarray,
    deco: DenseDecomposition,
    q_pts: np.ndarray,
    ranks: np.ndarray,
    eps2: float,
    first_only: bool,
    quota: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Find the members of hit dense cells that lie within eps of their query.

    Hit ``k`` pairs query point ``q_pts[k]`` with dense cell ``ranks[k]``;
    ``cell_pts`` is ``X[deco.members]``.  Members are tested in scan order in
    blocks of 1, 2, 4, ...; with ``first_only`` a hit stops after the first
    block holding a member within eps.  Otherwise a cell whose tight box lies
    wholly inside the ball yields every member with no distance math (the
    farthest-corner test is exact: float subtraction, squaring and summation
    are monotone).  Returns ``(starts, cnts, hit, slot)``: each hit cell's
    CSR view into ``deco.members``, and the hit and scan slot of every member
    found, in scan order (with ``first_only``, only each hit's first).

    ``quota = (owner, need)`` stops the scan of a query once it has enough
    members: hit ``k`` belongs to query ``owner[k]``, which still needs
    ``need[owner[k]]`` (updated in place).  Contained cells count first,
    then each block's finds; after a block, the hits of a query whose need
    reached zero stop.  A query that never gets there scans every member,
    so its count stays exact.
    """
    starts, cnts = deco.dense_members(ranks)
    if quota is not None:
        owner, need = quota
    end = cnts.copy()  # scan end per hit; a first-only hit ends at its find
    hits, slots = [], []
    active = np.arange(ranks.shape[0])
    if not first_only:
        box = deco.n_isolated + ranks
        far = np.maximum(q_pts - deco.prim_lo[box], deco.prim_hi[box] - q_pts)
        inside = np.einsum("ij,ij->i", far, far) <= eps2
        n_in = cnts[inside]
        hits.append(np.repeat(active[inside], n_in))
        slots.append(concatenated_ranges(np.zeros_like(n_in), n_in))
        active = active[~inside]
        if quota is not None:
            np.subtract.at(need, owner[inside], n_in)
    offset, block = 0, 1
    while True:
        live = end[active] > offset
        if quota is not None:
            live &= need[owner[active]] > 0
        active = active[live]
        if not active.size:
            break
        take = np.minimum(cnts[active] - offset, block)
        h = active[segment_ids_from_counts(take)]
        slot = concatenated_ranges(np.full(active.shape[0], offset), take)
        diff = q_pts[h] - cell_pts[starts[h] + slot]
        ok = np.einsum("ij,ij->i", diff, diff) <= eps2
        h, slot = h[ok], slot[ok]
        if first_only:
            first = np.ones(h.shape[0], dtype=bool)
            first[1:] = h[1:] != h[:-1]
            h, slot = h[first], slot[first]
            end[h] = 0
        hits.append(h)
        slots.append(slot)
        if quota is not None:
            need -= np.bincount(owner[h], minlength=need.shape[0])
        offset += block
        block *= 2
    hit, slot = np.concatenate(hits), np.concatenate(slots)
    # Each list entry is in (hit, slot) order and later rounds hold later
    # slots, so a stable sort by hit restores scan order.
    o = np.argsort(hit, kind="stable")
    return starts, cnts, hit[o], slot[o]


def _isolated_counts(
    X: np.ndarray,
    eps: float,
    minpts: int,
    deco: DenseDecomposition,
    tree: BVH,
    dev: Device,
    weights: np.ndarray | None,
    early_exit: bool,
) -> np.ndarray:
    """Neighbour counts (summed weights, if weighted) of the isolated
    points, by one ``densebox_preprocess`` traversal of the mixed tree;
    with ``early_exit`` a count stops once it reaches ``minpts``."""
    queries = X[deco.isolated_idx]
    cell_pts = X[deco.members]
    counts = np.zeros(
        deco.n_isolated, dtype=np.int64 if weights is None else np.float64
    )

    def pre_hits(q_ids: np.ndarray, leaf_pos: np.ndarray) -> None:
        prim = tree.order[leaf_pos]
        box = deco.prim_is_box[prim]
        pt_hits = ~box
        if pt_hits.any():
            # A point-primitive hit already passed the (exact,
            # degenerate-box) distance test; the query's own
            # primitive contributes its self-count here.
            if weights is None:
                scatter_add(counts, q_ids[pt_hits], counters=dev.counters)
            else:
                scatter_add(
                    counts,
                    q_ids[pt_hits],
                    weights[deco.prim_point[prim[pt_hits]]],
                    counters=dev.counters,
                )
            dev.counters.add("distance_evals", int(pt_hits.sum()))
        if box.any():
            qb = q_ids[box]
            ranks = deco.prim_point[prim[box]]
            quota = None
            if early_exit and weights is None:
                # Members past minpts cannot change is_core.
                uq, owner = np.unique(qb, return_inverse=True)
                quota = (owner, minpts - counts[uq])
            starts, cnts, hit, slot = _scan_cells(
                cell_pts, deco, queries[qb], ranks, eps * eps,
                first_only=False, quota=quota,
            )
            values = None
            if weights is not None:  # added one by one, in scan order
                values = weights[deco.members[starts[hit] + slot]]
            scatter_add(counts, qb[hit], values)
            # The kernel tests and scatters every member of every hit
            # cell; charge that, not the host's shortcut.
            dev.counters.add("scatter_adds", int(cnts.sum()))
            dev.counters.add("distance_evals", int(cnts.sum()))

    finished_fn = None
    if early_exit:

        def finished_fn(ids: np.ndarray) -> np.ndarray:
            return counts[ids] >= minpts

    contained = None
    if weights is None:
        # A subtree inside a query's ball credits its members
        # whole: one per point leaf, a cell's count per box leaf.
        sizes = np.ones(tree.n_primitives, dtype=np.int64)
        sizes[deco.n_isolated :] = deco.cell_counts[deco.dense_cells]
        prefix = np.zeros(tree.n_primitives + 1, dtype=np.int64)
        np.cumsum(sizes[tree.order], out=prefix[1:])
        contained = (counts, prefix)
    run_chunks(
        tree,
        queries,
        eps,
        pre_hits,
        finished_fn=finished_fn,
        device=dev,
        kernel_name="densebox_preprocess",
        leaf_test_is_distance=False,
        contained=contained,
    )
    return counts


def fdbscan_densebox(
    X: np.ndarray,
    eps: float,
    min_samples: int,
    device: Device | None = None,
    use_mask: bool = True,
    early_exit: bool = True,
    sample_weight=None,
    index: DBSCANIndex | None = None,
) -> DBSCANResult:
    """Cluster ``X`` with FDBSCAN-DenseBox.

    Arguments match :func:`repro.core.fdbscan.fdbscan` (including the
    weighted-density ``sample_weight``: dense cells then threshold summed
    member weight, and the all-members-core guarantee carries over; the
    device's ``chunk_size`` and ``watchdog`` apply to both traversals).
    The main phase runs in its refresh epochs.  ``info`` additionally carries
    ``dense_fraction`` (share of points inside dense cells — the regime
    indicator the paper reports), ``n_dense_cells`` and ``total_cells``
    (the virtual grid size).

    A prebuilt ``index`` lends the fit its cached eps binning
    (:meth:`~repro.core.index.DBSCANIndex.grid_binning`): the first fit
    at an ``eps`` bins the points live, and a later one replays the
    recorded cost onto ``device`` instead, so ``info["index_reused"]``
    means the binning was replayed.  The dense cells and the mixed tree
    depend on ``minpts`` and the weights, so every fit builds them live
    and returns their ``"grid"`` and ``"bvh"`` bytes to the ledger when
    it ends.  The index used is returned in ``info["index"]``.
    """
    X = validate_points(X)
    eps, minpts = validate_params(eps, min_samples)
    dev = default_device(device)
    n = X.shape[0]
    eps2 = eps * eps
    info: dict = {"algorithm": "fdbscan-densebox", "n": n, "eps": eps, "min_samples": minpts}

    weights = None if sample_weight is None else validate_weights(sample_weight, n)

    # --- grid binning, dense cells and the mixed tree -----------------------
    t0 = time.perf_counter()
    if index is None:
        index = DBSCANIndex(X)
    else:
        index.check_points(X)
    binning, reused = index.grid_binning(eps, device=dev)
    deco = threshold_binning(X, binning, minpts, device=dev, sample_weight=weights)
    tree = None
    try:
        tree = build_bvh(deco.prim_lo, deco.prim_hi, device=dev)
        order = tree.order
        cell_pts = X[deco.members]
        t1 = time.perf_counter()
        info["t_build"] = t1 - t0
        info["index"] = index
        info["index_reused"] = reused
        info["dense_fraction"] = deco.dense_fraction()
        info["n_dense_cells"] = deco.n_dense
        info["total_cells"] = deco.grid.total_cells

        # --- preprocessing: core status ------------------------------------------
        is_core: np.ndarray | None
        active = None
        if weights is None and minpts == 2:
            is_core = None
        else:
            is_core = np.zeros(n, dtype=bool)
            is_core[deco.is_dense_point] = True  # dense-cell points are core by construction
            if weights is None and minpts == 1:
                is_core[:] = True  # every point is its own neighbour
            elif deco.n_isolated:
                counts = _isolated_counts(
                    X, eps, minpts, deco, tree, dev, weights, early_exit
                )
                is_core[deco.isolated_idx] = counts >= minpts
                if weights is None:
                    active = np.ones(n, dtype=bool)
                    active[deco.isolated_idx] = counts > 1
                if not early_exit:
                    info["isolated_core_counts"] = counts
        t2 = time.perf_counter()
        info["t_preprocess"] = t2 - t1

        # --- main phase ------------------------------------------------------------
        # (a) union all points within each dense cell.  A box primitive's
        # representative is its cell's first member; an isolated point is its own.
        starts, cnts = deco.dense_members(np.arange(deco.n_dense))
        firsts = deco.members[starts]
        rest = deco.members[concatenated_ranges(starts + 1, cnts - 1)]

        # (b) every point against the mixed tree, skipping primitives already
        # in its component: its own point or box among them.
        prim_of_point = np.empty(n, dtype=np.int64)
        prim_of_point[deco.isolated_idx] = np.arange(deco.n_isolated, dtype=np.int64)
        dense_pts = np.flatnonzero(deco.is_dense_point)
        prim_of_point[dense_pts] = deco.n_isolated + deco.dense_rank_of_cell[
            deco.cell_of_point[dense_pts]
        ]

        def main_hits(resolver: PairResolver, q_ids: np.ndarray, leaf_pos: np.ndarray) -> None:
            prim = order[leaf_pos]
            box = deco.prim_is_box[prim]
            pt_hits = ~box
            if pt_hits.any():
                resolver.add(q_ids[pt_hits], deco.prim_point[prim[pt_hits]])
                dev.counters.add("distance_evals", int(pt_hits.sum()))
            if box.any():
                qb = q_ids[box]
                ranks = deco.prim_point[prim[box]]
                starts, cnts, hit, slot = _scan_cells(
                    cell_pts, deco, X[qb], ranks, eps2, first_only=True
                )
                # The kernel scans each cell linearly and stops at the first
                # member within eps: charge first-hit slot + 1 tests, or the
                # whole cell on a miss.
                evals = cnts.copy()
                evals[hit] = slot + 1
                dev.counters.add("distance_evals", int(evals.sum()))
                if not hit.size:
                    return
                # The member is a dense-cell point, hence core: a core query
                # is unioned into the cell's cluster, a non-core query becomes
                # a border candidate of it — both are exactly the resolver's
                # per-edge rule for a (query, core member) pair.
                resolver.add(qb[hit], deco.members[starts[hit] + slot])

        return main_phase(
            tree,
            X,
            eps,
            is_core,
            dev,
            "densebox_main",
            info,
            use_mask=use_mask,
            active=active,
            hits=main_hits,
            positions=tree.position[prim_of_point],
            prim_rep=np.concatenate([deco.isolated_idx, firsts]),
            unions=(np.repeat(firsts, cnts - 1), rest),
            leaf_test_is_distance=False,
        )
    finally:
        # The mixed tree and the dense cells live for one fit; the eps
        # binning stays cached in the index.
        if tree is not None:
            release_bvh(tree, dev)
        dev.memory.free(deco.nbytes() - binning.nbytes(), "grid")
