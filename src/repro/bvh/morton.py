"""Morton (Z-order) codes for 1-, 2- and 3-dimensional data.

The linear BVH builder (Karras 2012) works on primitives sorted along a
space-filling curve.  Following ArborX we use Morton order: each axis is
quantised to a fixed-width integer grid and the per-axis bits are
interleaved.  Bit budgets per axis (codes fit in a non-negative int64):

=========  ==============  ===========
dimension  bits per axis   code bits
=========  ==============  ===========
1          62              62
2          31              62
3          21              63
=========  ==============  ===========

The paper targets "low-dimensional (e.g., spatial) data"; dimensions above
3 are rejected, matching that scope.

All routines are fully vectorised over the point set; the bit spreading
uses the classic magic-number sequences.
"""

from __future__ import annotations

import numpy as np

from repro.bvh.aabb import point_bounds

MAX_MORTON_DIM = 3

_BITS_PER_AXIS = {1: 62, 2: 31, 3: 21}


def bits_per_axis(dim: int) -> int:
    """Quantisation width per axis for ``dim``-dimensional codes."""
    try:
        return _BITS_PER_AXIS[dim]
    except KeyError:
        raise ValueError(
            f"Morton codes support 1 <= dim <= {MAX_MORTON_DIM}; got dim={dim}"
        ) from None


def expand_bits_2d(x: np.ndarray) -> np.ndarray:
    """Spread the low 31 bits of each uint64 so one zero separates them
    (bit ``i`` moves to position ``2 i``)."""
    x = x.astype(np.uint64) & np.uint64(0x7FFFFFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x | (x << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x << np.uint64(2))) & np.uint64(0x3333333333333333)
    x = (x | (x << np.uint64(1))) & np.uint64(0x5555555555555555)
    return x


def expand_bits_3d(x: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of each uint64 so two zeros separate them
    (bit ``i`` moves to position ``3 i``)."""
    x = x.astype(np.uint64) & np.uint64(0x1FFFFF)
    x = (x | (x << np.uint64(32))) & np.uint64(0x001F00000000FFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x001F0000FF0000FF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    x = (x | (x << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    x = (x | (x << np.uint64(2))) & np.uint64(0x1249249249249249)
    return x


def normalize_to_grid(points: np.ndarray, lo: np.ndarray, hi: np.ndarray, bits: int) -> np.ndarray:
    """Quantise points inside the scene box ``[lo, hi]`` to integer grid
    coordinates in ``[0, 2**bits - 1]`` per axis.

    Degenerate axes (``hi == lo``) map to 0 — a scene flat in one dimension
    still gets a valid ordering from the remaining axes.
    """
    points = np.asarray(points, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    extent = hi - lo
    safe_extent = np.where(extent > 0, extent, 1.0)
    unit = (points - lo) / safe_extent
    unit = np.where(extent > 0, unit, 0.0)
    scale = float(2**bits - 1)
    cells = np.clip(np.floor(unit * scale + 0.5), 0, scale)
    return cells.astype(np.uint64)


def morton_codes(points: np.ndarray, lo: np.ndarray | None = None, hi: np.ndarray | None = None) -> np.ndarray:
    """Morton code per point, returned as non-negative ``int64``.

    ``lo``/``hi`` give the scene bounds used for quantisation; by default
    they are the point set's own bounds.  Codes order the points along the
    Z-curve; equal codes (points sharing a quantisation cell) are legal and
    handled downstream by the builder's index tie-break.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be (n, d); got shape {points.shape}")
    n, dim = points.shape
    bits = bits_per_axis(dim)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if not np.isfinite(points).all():
        raise ValueError("points must be finite to compute Morton codes")
    if lo is None or hi is None:
        own_lo, own_hi = point_bounds(points)
        lo = own_lo if lo is None else lo
        hi = own_hi if hi is None else hi
    grid = normalize_to_grid(points, lo, hi, bits)
    if dim == 1:
        code = grid[:, 0]
    elif dim == 2:
        code = expand_bits_2d(grid[:, 0]) | (expand_bits_2d(grid[:, 1]) << np.uint64(1))
    else:
        code = (
            expand_bits_3d(grid[:, 0])
            | (expand_bits_3d(grid[:, 1]) << np.uint64(1))
            | (expand_bits_3d(grid[:, 2]) << np.uint64(2))
        )
    return code.astype(np.int64)


def compact_bits_2d(code: np.ndarray) -> np.ndarray:
    """Inverse of :func:`expand_bits_2d` (used only by tests)."""
    x = code.astype(np.uint64) & np.uint64(0x5555555555555555)
    x = (x | (x >> np.uint64(1))) & np.uint64(0x3333333333333333)
    x = (x | (x >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x | (x >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
    x = (x | (x >> np.uint64(16))) & np.uint64(0x00000000FFFFFFFF)
    return x


def compact_bits_3d(code: np.ndarray) -> np.ndarray:
    """Inverse of :func:`expand_bits_3d` (used only by tests)."""
    x = code.astype(np.uint64) & np.uint64(0x1249249249249249)
    x = (x | (x >> np.uint64(2))) & np.uint64(0x10C30C30C30C30C3)
    x = (x | (x >> np.uint64(4))) & np.uint64(0x100F00F00F00F00F)
    x = (x | (x >> np.uint64(8))) & np.uint64(0x001F0000FF0000FF)
    x = (x | (x >> np.uint64(16))) & np.uint64(0x001F00000000FFFF)
    x = (x | (x >> np.uint64(32))) & np.uint64(0x00000000001FFFFF)
    return x
