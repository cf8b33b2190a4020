"""Grid-only DBSCAN: the cell-binary-search alternative the paper rejects.

Section 4.2: "While it is possible to do a series of binary searches over
a list of cells to produce a list of neighboring non-empty cells, in this
work we use an alternative approach [the mixed-primitive BVH]."  This
module implements that rejected design so the ablation benchmarks can
compare the two.  It is essentially the structure of the cell-based halo
finder of Sewell et al. [36] and the grid of Gowanlock [14] that the
paper builds on:

1. impose the same ``eps / sqrt(d)`` grid and compact the non-empty cells
   into a *sorted* flat-id list;
2. for every non-empty cell, enumerate the ``(2 ceil(sqrt(d)) + 1)^d``
   neighbour offsets and **binary-search** each candidate id in the
   sorted list (the step the BVH traversal replaces);
3. exploit the cell guarantees: same-cell pairs are within ``eps`` by
   construction (no distance tests), dense cells are pre-unioned, and
   dense-dense cell contacts need only *one* hit (short-circuited scan);
4. everything else goes through the shared framework pair resolution.

The design's weaknesses — the reason the paper prefers the BVH — show in
the counters: ``cell_probes`` grows with the offset volume (25 cells in
2-D, 125 in 3-D) and most probes miss on sparse data, each being a
dependent ``log(cells)`` walk; and the flat int64 cell id must exist,
which the cosmology-scale virtual grids of Section 5.2 already exceed
in higher resolutions (the tree needs no such id).
"""

from __future__ import annotations

import itertools
import time
from typing import Iterator

import numpy as np

from repro.core.framework import PairResolver
from repro.core.labels import DBSCANResult, finalize_clusters
from repro.core.validation import validate_params, validate_points
from repro.device.device import Device, default_device
from repro.device.primitives import (
    concatenated_ranges,
    scatter_add,
    segment_ids_from_counts,
)
from repro.grid.grid import build_grid, compact_cells
from repro.unionfind.ecl import EclUnionFind

#: Point-pair expansion chunk: bounds transient memory like the traversal
#: chunking does for the tree algorithms.
_EXPAND_LIMIT = 2_000_000


def _neighbor_offsets(dim: int) -> np.ndarray:
    """Cell-coordinate offsets whose cells can contain eps-neighbours.

    With cell edge ``eps/sqrt(d)``, points within ``eps`` can be at most
    ``ceil(sqrt(d))`` cells apart along each axis.
    """
    radius = int(np.ceil(np.sqrt(dim)))
    return np.array(
        list(itertools.product(range(-radius, radius + 1), repeat=dim)), dtype=np.int64
    )


def _chunks_by_load(loads: np.ndarray, limit: int) -> Iterator[slice]:
    """Split index range into slices whose summed loads stay near limit."""
    total = loads.shape[0]
    start = 0
    running = np.cumsum(loads)
    while start < total:
        base = running[start - 1] if start else 0
        end = int(np.searchsorted(running, base + limit, side="right"))
        end = max(end, start + 1)  # an over-limit item still travels alone
        yield slice(start, min(end, total))
        start = end


class _GridIndex:
    """Compact occupied-cell index with binary-search neighbour lookup."""

    def __init__(self, X: np.ndarray, eps: float, minpts: int, dev: Device):
        self.X = X
        self.eps2 = eps * eps
        grid = build_grid(X, eps)
        if not grid.flat_ids_fit():
            raise OverflowError(
                "grid-only DBSCAN needs flat int64 cell ids; the virtual grid "
                "is too large (a limitation of this design — use the tree "
                "algorithms for such domains)"
            )
        self.grid = grid
        coords = grid.cell_coords(X)
        (
            self.cell_of_point,
            self.n_cells,
            self.members,
            self.cell_starts,
            self.cell_counts,
        ) = compact_cells(grid, coords)
        rep_coords = coords[self.members[self.cell_starts]]
        self.cell_coords = rep_coords
        self.sorted_flat = grid.flatten_coords(rep_coords)  # sorted: cells are
        # compacted in flat-id order by construction
        self.dense_mask = self.cell_counts >= minpts
        self.dev = dev

    def neighbor_cell_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All unordered pairs (a <= b) of non-empty cells whose boxes may
        contain eps-neighbours, found by binary-searching each offset."""
        offsets = _neighbor_offsets(self.grid.dim)
        srcs, dsts = [], []
        probes = 0
        with self.dev.kernel("grid_cell_search", threads=self.n_cells) as launch:
            for off in offsets:
                cand = self.cell_coords + off
                valid = np.all((cand >= 0) & (cand < self.grid.shape), axis=1)
                flat = self.grid.flatten_coords(cand[valid])
                pos = np.searchsorted(self.sorted_flat, flat)
                probes += flat.shape[0]
                found = (pos < self.n_cells) & (
                    self.sorted_flat[np.minimum(pos, self.n_cells - 1)] == flat
                )
                srcs.append(np.flatnonzero(valid)[found])
                dsts.append(pos[found])
            launch.steps = offsets.shape[0]
        self.dev.counters.add("cell_probes", probes)
        src = np.concatenate(srcs)
        dst = np.concatenate(dsts)
        self.dev.counters.add("cell_probe_hits", src.shape[0])
        keep = src <= dst
        return src[keep], dst[keep]

    def expand_pairs(self, cells_a: np.ndarray, cells_b: np.ndarray):
        """Yield ``(pa, pb, pair_row)`` chunks of all cross point pairs for
        the matched cell rows, bounded by the expansion limit."""
        ca = self.cell_counts[cells_a]
        cb = self.cell_counts[cells_b]
        combos = ca * cb
        for rows in _chunks_by_load(combos, _EXPAND_LIMIT):
            sub_a, sub_b = cells_a[rows], cells_b[rows]
            sub_ca, sub_cb = ca[rows], cb[rows]
            sub_combos = combos[rows]
            seg = segment_ids_from_counts(sub_combos)
            within = np.arange(int(sub_combos.sum()), dtype=np.int64) - np.repeat(
                np.cumsum(sub_combos) - sub_combos, sub_combos
            )
            ai = within // sub_cb[seg]
            bi = within % sub_cb[seg]
            pa = self.members[self.cell_starts[sub_a][seg] + ai]
            pb = self.members[self.cell_starts[sub_b][seg] + bi]
            yield pa, pb, seg, rows

    def within(self, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
        diff = self.X[pa] - self.X[pb]
        self.dev.counters.add("distance_evals", int(pa.shape[0]))
        return np.einsum("ij,ij->i", diff, diff) <= self.eps2


def _count_phase(index: _GridIndex, src, dst, minpts: int) -> np.ndarray:
    """Exact |N_eps(x)| for points in non-dense cells (dense-cell points
    are core by construction and never need a count)."""
    n = index.X.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    # Same-cell contribution: every same-cell pair is within eps (cell
    # diameter <= eps), so each point starts at its cell population.
    counts += index.cell_counts[index.cell_of_point]
    # Cross-cell contributions, directed from non-dense source cells only.
    cross = src != dst
    directed = [
        (src[cross], dst[cross]),
        (dst[cross], src[cross]),
    ]
    with index.dev.kernel("grid_count", threads=n) as launch:
        steps = 0
        for a, b in directed:
            use = ~index.dense_mask[a]
            a, b = a[use], b[use]
            for pa, pb, _seg, _rows in index.expand_pairs(a, b):
                steps += 1
                hit = index.within(pa, pb)
                scatter_add(counts, pa[hit], counters=index.dev.counters)
        launch.steps = steps
    return counts


def grid_dbscan(
    X: np.ndarray,
    eps: float,
    min_samples: int,
    device: Device | None = None,
) -> DBSCANResult:
    """Cluster with the grid/binary-search design (no tree).

    Exact DBSCAN semantics shared with every other algorithm here; the
    point of the implementation is its *cost profile*, reported through
    the ``cell_probes`` / ``cell_probe_hits`` / ``distance_evals``
    counters the ablation benchmark compares against FDBSCAN-DenseBox.
    """
    X = validate_points(X)
    eps, minpts = validate_params(eps, min_samples)
    dev = default_device(device)
    n = X.shape[0]
    t0 = time.perf_counter()

    index = _GridIndex(X, eps, minpts, dev)
    src, dst = index.neighbor_cell_pairs()
    dense = index.dense_mask

    # --- core determination ------------------------------------------------
    if minpts == 2:
        is_core = None
        resolution_core = np.ones(n, dtype=bool)
    elif minpts == 1:
        is_core = np.ones(n, dtype=bool)
        resolution_core = is_core
    else:
        counts = _count_phase(index, src, dst, minpts)
        is_core = counts >= minpts
        is_core[dense[index.cell_of_point]] = True
        resolution_core = is_core

    # --- main phase ---------------------------------------------------------
    uf = EclUnionFind(n, device=dev)
    resolver = PairResolver(uf, resolution_core, device=dev)
    with dev.kernel("grid_main", threads=n) as launch:
        steps = 0
        same = src == dst
        # (1) same-cell: all pairs are within eps by the diameter guarantee;
        # union first member with the rest when the cell is uniformly core,
        # otherwise resolve pairs without distance tests.
        same_cells = src[same]
        uniform_core = (
            dense[same_cells]
            if minpts > 2
            else np.ones(same_cells.shape[0], dtype=bool)
        )
        # dense (or minpts<=2 multi-point) cells: chain-union members
        chain = same_cells[uniform_core | (minpts <= 2)]
        chain = chain[index.cell_counts[chain] > 1]
        if chain.size:
            starts = index.cell_starts[chain]
            cnts = index.cell_counts[chain]
            firsts = index.members[starts]
            rest = index.members[concatenated_ranges(starts + 1, cnts - 1)]
            uf.union(np.repeat(firsts, cnts - 1), rest)
            steps += 1
        # non-dense same-cell pairs at minpts>2: mixed core status, still no
        # distance tests needed (within eps guaranteed)
        if minpts > 2:
            mixed = same_cells[~uniform_core]
            mixed = mixed[index.cell_counts[mixed] > 1]
            for pa, pb, _seg, _rows in index.expand_pairs(mixed, mixed):
                keep = pa < pb
                resolver.add(pa[keep], pb[keep])
                steps += 1

        # (2) cross-cell dense-dense: one hit decides the whole contact.
        cross_src, cross_dst = src[~same], dst[~same]
        if minpts > 2:
            dd = dense[cross_src] & dense[cross_dst]
        else:
            dd = np.zeros(cross_src.shape[0], dtype=bool)
        if dd.any():
            a, b = cross_src[dd], cross_dst[dd]
            linked = np.zeros(a.shape[0], dtype=bool)
            rep_a = np.empty(a.shape[0], dtype=np.int64)
            rep_b = np.empty(a.shape[0], dtype=np.int64)
            for pa, pb, seg, rows in index.expand_pairs(a, b):
                hit = index.within(pa, pb)
                # first hit per cell pair in this chunk
                fresh = np.unique(seg[hit])
                global_rows = np.arange(rows.start, rows.stop)[fresh]
                newly = ~linked[global_rows]
                sel = fresh[newly]
                # representative pair: the first hitting (pa, pb) per row
                order = np.argsort(seg[hit], kind="stable")
                row_sorted = seg[hit][order]
                first_pos = np.searchsorted(row_sorted, sel)
                rep_a[rows.start + sel] = pa[hit][order][first_pos]
                rep_b[rows.start + sel] = pb[hit][order][first_pos]
                linked[rows.start + sel] = True
                steps += 1
            if linked.any():
                uf.union(rep_a[linked], rep_b[linked])

        # (3) everything else cross-cell: exact pair resolution.
        a, b = cross_src[~dd], cross_dst[~dd]
        for pa, pb, _seg, _rows in index.expand_pairs(a, b):
            hit = index.within(pa, pb)
            resolver.add(pa[hit], pb[hit])
            steps += 1
        resolver.finalize()
        launch.steps = steps

    labels, core_mask, n_clusters = finalize_clusters(uf.parents, is_core, dev.counters)
    uf.release()
    info = {
        "algorithm": "grid-dbscan",
        "n": n,
        "eps": eps,
        "min_samples": minpts,
        "n_cells": index.n_cells,
        "dense_fraction": float(dense[index.cell_of_point].mean()),
        "t_total": time.perf_counter() - t0,
    }
    return DBSCANResult(labels=labels, is_core=core_mask, n_clusters=n_clusters, info=info)
