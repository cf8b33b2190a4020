"""Spatial domain decomposition: recursive coordinate bisection + ghosts.

RCB is the decomposition the distributed DBSCAN literature uses (and what
HACC-style simulations already provide): recursively split the longest
axis of the current box at the weighted median so every rank receives a
near-equal share of points in a compact axis-aligned region.

Ghost selection implements the eps-halo: rank ``r`` additionally receives
every remote point within ``eps`` of its region.  Because any neighbour
of an owned point lies within ``eps`` of the region, owned points see
their *complete* eps-neighbourhood locally — core status and every
owned-point pair can be resolved without further communication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bvh.aabb import mindist_point_box_sq, point_bounds


@dataclass
class Partition:
    """An RCB decomposition of a point set.

    Attributes
    ----------
    n_ranks:
        Number of ranks (any positive integer, not only powers of two).
    rank_of_point:
        ``(n,)`` — owning rank per point.
    box_lo, box_hi:
        ``(n_ranks, d)`` — each rank's region (a partition of the data's
        bounding box, so regions tile space with no gaps).
    """

    n_ranks: int
    rank_of_point: np.ndarray
    box_lo: np.ndarray
    box_hi: np.ndarray

    def owned(self, rank: int) -> np.ndarray:
        """Global indices owned by ``rank``."""
        return np.flatnonzero(self.rank_of_point == rank)

    def counts(self) -> np.ndarray:
        """Points per rank."""
        return np.bincount(self.rank_of_point, minlength=self.n_ranks)


@dataclass
class GhostExchange:
    """Ghost (halo) selection for one partition at one ``eps``.

    ``ghosts[r]`` holds the global indices of the remote points replicated
    onto rank ``r``.
    """

    ghosts: list[np.ndarray]

    def total_ghosts(self) -> int:
        return int(sum(g.shape[0] for g in self.ghosts))


def rcb_partition(X: np.ndarray, n_ranks: int) -> Partition:
    """Recursively bisect the data into ``n_ranks`` spatial regions.

    Splits the longest axis at the weighted median; rank counts divide as
    evenly as possible at every level, so non-power-of-two rank counts are
    fine.  Every point is assigned to exactly one rank and every rank's
    box is a face-to-face tile of its parent box.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"X must be non-empty (n, d); got {X.shape}")
    if n_ranks < 1:
        raise ValueError(f"n_ranks must be >= 1; got {n_ranks}")
    n, d = X.shape
    rank_of_point = np.zeros(n, dtype=np.int64)
    box_lo = np.empty((n_ranks, d))
    box_hi = np.empty((n_ranks, d))

    # Work queue of (point indices, box, rank range [r0, r1)).
    root_lo, root_hi = point_bounds(X)
    queue = [(np.arange(n, dtype=np.int64), root_lo, root_hi, 0, n_ranks)]
    while queue:
        idx, lo, hi, r0, r1 = queue.pop()
        k = r1 - r0
        if k == 1:
            rank_of_point[idx] = r0
            box_lo[r0] = lo
            box_hi[r0] = hi
            continue
        k_left = k // 2
        axis = int(np.argmax(hi - lo))
        coords = X[idx, axis]
        order = np.argsort(coords, kind="stable")
        n_left = int(round(idx.shape[0] * (k_left / k)))
        n_left = min(max(n_left, 0), idx.shape[0])
        left_idx = idx[order[:n_left]]
        right_idx = idx[order[n_left:]]
        if n_left == 0:
            cut = lo[axis]
        elif n_left == idx.shape[0]:
            cut = hi[axis]
        else:
            cut = 0.5 * (coords[order[n_left - 1]] + coords[order[n_left]])
        left_hi = hi.copy()
        left_hi[axis] = cut
        right_lo = lo.copy()
        right_lo[axis] = cut
        queue.append((left_idx, lo.copy(), left_hi, r0, r0 + k_left))
        queue.append((right_idx, right_lo, hi.copy(), r0 + k_left, r1))
    return Partition(n_ranks=n_ranks, rank_of_point=rank_of_point, box_lo=box_lo, box_hi=box_hi)


def select_ghosts(X: np.ndarray, partition: Partition, eps: float) -> GhostExchange:
    """Eps-halo ghosts: per rank, all remote points within ``eps`` of its box."""
    X = np.asarray(X, dtype=np.float64)
    if eps < 0 or not np.isfinite(eps):
        raise ValueError(f"eps must be finite and non-negative; got {eps}")
    eps2 = eps * eps
    ghosts = []
    for rank in range(partition.n_ranks):
        d2 = mindist_point_box_sq(
            X, partition.box_lo[rank][None, :], partition.box_hi[rank][None, :]
        )
        near = (d2 <= eps2) & (partition.rank_of_point != rank)
        ghosts.append(np.flatnonzero(near).astype(np.int64))
    return GhostExchange(ghosts=ghosts)
