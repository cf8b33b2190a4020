"""The virtual regular grid of FDBSCAN-DenseBox.

The grid is *virtual*: only per-axis integer coordinates are ever
computed, and the set of non-empty cells is recovered by sorting the
per-point coordinates.  This is what lets the algorithm handle the
paper's cosmology configuration — 3.5 billion virtual cells, 28 million
non-empty — without allocating per-cell storage.

Cell length is ``eps / sqrt(d)``: the cell diagonal is then exactly
``eps``, so any two points sharing a cell are within ``eps`` of each
other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.bvh.aabb import point_bounds
from repro.device.primitives import sort_by_key

_FLAT_ID_LIMIT = np.int64(2) ** 62
#: Bound on the cells along one axis: per-axis coordinates are int64, and
#: this keeps the upper-face widening and neighbour offsets clear of 2**63.
_AXIS_CELL_LIMIT = 2.0**62


class GridOverflowError(ValueError):
    """``eps`` is too small for the data's extent: some axis would need
    more cells than an int64 coordinate can hold."""


@dataclass
class RegularGrid:
    """A virtual regular grid over an axis-aligned domain.

    Attributes
    ----------
    lo, hi:
        ``(d,)`` domain bounds (the data's bounding box).
    cell_size:
        Edge length of every cell, ``eps / sqrt(d)``.
    shape:
        ``(d,)`` int64 — number of cells along each axis (≥ 1).
    """

    lo: np.ndarray
    hi: np.ndarray
    cell_size: float
    shape: np.ndarray

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def total_cells(self) -> int:
        """Number of virtual cells (a Python int — may exceed int64)."""
        return int(np.prod(self.shape.astype(object)))

    def cell_coords(self, points: np.ndarray) -> np.ndarray:
        """Per-axis integer cell coordinates of each point, ``(n, d)`` int64.

        Points on the upper domain boundary are clamped into the last cell
        (the half-open cell convention, closed at the domain edge).
        """
        points = np.asarray(points, dtype=np.float64)
        rel = (points - self.lo) / self.cell_size
        coords = np.floor(rel).astype(np.int64)
        np.clip(coords, 0, self.shape - 1, out=coords)
        return coords

    def flat_ids_fit(self) -> bool:
        """Whether flattened cell ids fit comfortably in int64."""
        return self.total_cells < int(_FLAT_ID_LIMIT)

    def flatten_coords(self, coords: np.ndarray) -> np.ndarray:
        """Row-major flattened cell id per coordinate row (int64).

        Only valid when :meth:`flat_ids_fit`; callers needing the general
        case use :func:`compact_cells`, which falls back to lexicographic
        row comparison.
        """
        if not self.flat_ids_fit():
            raise OverflowError(
                f"grid has {self.total_cells} cells; flat int64 ids would overflow"
            )
        flat = coords[:, 0].copy()
        for axis in range(1, self.dim):
            flat *= self.shape[axis]
            flat += coords[:, axis]
        return flat


def build_grid(points: np.ndarray, eps: float) -> RegularGrid:
    """Construct the virtual grid for a dataset and search radius.

    The domain is the data's bounding box; the cell edge is
    ``eps / sqrt(d)`` so the cell diameter is ``eps``.  Raises
    :class:`GridOverflowError` when an axis would need ``2**62`` cells or
    more (int64 coordinates would wrap).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError(f"points must be a non-empty (n, d) array; got {points.shape}")
    if eps <= 0 or not np.isfinite(eps):
        raise ValueError(f"eps must be positive and finite; got {eps}")
    dim = points.shape[1]
    lo, hi = point_bounds(points)
    cell_size = float(eps) / math.sqrt(dim)
    extent = hi - lo
    cells = np.ceil(extent / cell_size)
    if not (cells < _AXIS_CELL_LIMIT).all():
        raise GridOverflowError(
            f"eps={eps:g} is too small for the data's extent "
            f"{float(extent.max()):g}: the grid would need "
            f"{float(cells.max()):.3g} cells along one axis (limit 2**62)"
        )
    shape = np.maximum(cells, 1).astype(np.int64)
    # Guard against a point landing exactly on the open upper face due to
    # floating-point division: widen by one cell where that could happen.
    shape = np.where(extent >= shape * cell_size, shape + 1, shape)
    return RegularGrid(lo=lo, hi=hi, cell_size=cell_size, shape=shape)


def compact_cells(grid: RegularGrid, coords: np.ndarray):
    """Compact the occupied cells of a coordinate assignment.

    Returns ``(cell_of_point, n_cells, order, cell_starts, cell_counts)``:

    - ``cell_of_point``: compacted cell index in ``[0, n_cells)`` per point
      (dataset order); cells are numbered in flat-id (row-major) order;
    - ``order``: point indices sorted by cell (the CSR permutation);
    - ``cell_starts`` / ``cell_counts``: CSR segmentation of ``order`` by
      compacted cell.

    Uses int64 flat ids when they fit and falls back to a lexicographic
    sort of the coordinate rows for astronomically large virtual grids
    (the paper's billions-of-cells regime).
    """
    n = coords.shape[0]
    if grid.flat_ids_fit():
        flat = grid.flatten_coords(coords)
        sorted_flat, order = sort_by_key(flat)
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        np.not_equal(sorted_flat[1:], sorted_flat[:-1], out=boundary[1:])
    else:  # lexicographic fallback: compare coordinate rows directly
        order = np.lexsort(coords.T[::-1])
        sorted_coords = coords[order]
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        np.any(sorted_coords[1:] != sorted_coords[:-1], axis=1, out=boundary[1:])
    cell_rank_sorted = np.cumsum(boundary) - 1
    n_cells = int(cell_rank_sorted[-1]) + 1
    cell_of_point = np.empty(n, dtype=np.int64)
    cell_of_point[order] = cell_rank_sorted
    cell_starts = np.flatnonzero(boundary).astype(np.int64)
    cell_counts = np.diff(np.append(cell_starts, n)).astype(np.int64)
    return cell_of_point, n_cells, order.astype(np.int64), cell_starts, cell_counts
