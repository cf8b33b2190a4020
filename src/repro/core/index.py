"""Reusable spatial index for parameter sweeps.

The paper's cost model makes BVH construction a fixed prefix of every
run: the tree depends only on the *points*, never on ``eps`` or
``minpts``.  Yet a naive figure sweep (Section 5: eps panels in Figures
4/7, minpts panels in Figures 4/6) rebuilds that identical tree for every
cell.  :class:`DBSCANIndex` factors the construction out — the follow-up
ArborX work makes exactly this index-reuse a first-class primitive, and
"Theoretically-Efficient and Practical Parallel DBSCAN" (Wang et al.)
likewise separates index construction from the per-parameter clustering
phases.

An index wraps:

- the **points BVH** (tree + sorted order), shared by every FDBSCAN run
  over the same point set regardless of parameters;
- a bounded cache of **grid binnings** for FDBSCAN-DenseBox, keyed by
  ``eps`` alone: the dense cells and the mixed tree built over them
  depend on ``minpts`` and the weights too, so every DenseBox fit builds
  those from the cached binning and frees them when it ends;
- a **content fingerprint** of the validated points, so a stale index can
  never be silently applied to different data.

Accounting contract
-------------------
Each component is built *live* on the device of the first run that needs
it, under :meth:`~repro.device.device.Device.recording`; every later run
**replays** the recorded cost onto its own device
(:meth:`~repro.device.device.Device.replay`).  A warm run therefore skips
the build's wall time — that is the speedup — while its counters, kernel
trace (spans flagged ``replayed=True``) and memory peak remain comparable
to a cold run's.  The points tree charges each device once: a device that
built it, or already had it replayed, holds the tree's bytes, so a later
run on that device charges nothing (a long-lived device — a service's —
would otherwise pay for one tree on every fit; see ``docs/gpu-model.md``).
Under a memory cap, replaying raises the same
:class:`~repro.device.memory.DeviceMemoryError` a cold build would.
Only runs replay: :meth:`~DBSCANIndex.morton_schedule` and
:meth:`~DBSCANIndex.tree_statistics` read the cached points tree and
charge nothing, unless they have to build it.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.bvh.aabb import boxes_from_points
from repro.bvh.builder import build_bvh, release_bvh
from repro.bvh.tree import BVH
from repro.core.validation import validate_points
from repro.device.device import Device, ReplayableCost, default_device
from repro.grid.dense_cells import GridBinning, bin_points

#: Bound on cached eps-keyed grid binnings (FIFO eviction).  A binning is
#: the minpts-independent half of a decomposition (cell ids + CSR
#: membership), so one entry serves a whole minpts sweep at that eps.
DEFAULT_MAX_BINNINGS = 8


def points_fingerprint(X: np.ndarray) -> str:
    """Content hash of a validated point set (shape + raw float64 bytes)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    digest = hashlib.sha1()
    digest.update(repr(X.shape).encode())
    digest.update(X.tobytes())
    return digest.hexdigest()


@dataclass
class _PointsEntry:
    tree: BVH
    cost: ReplayableCost


@dataclass
class _BinningEntry:
    binning: GridBinning
    cost: ReplayableCost


class DBSCANIndex:
    """Prebuilt spatial index over one point set.

    Build one per dataset and pass it as ``index=`` to
    :func:`~repro.core.api.dbscan`,
    :func:`~repro.core.fdbscan.fdbscan` or
    :func:`~repro.core.densebox.fdbscan_densebox`; every run also returns
    the index it used in ``result.info["index"]``, so the first (cold)
    call can seed reuse for the rest of a sweep::

        index = None
        for eps in eps_values:
            res = dbscan(X, eps, minpts, algorithm="fdbscan", index=index)
            index = res.info["index"]       # built on the first iteration

    Components are built lazily on first use; see the module docstring
    for the cost-replay accounting contract.

    Parameters
    ----------
    X:
        ``(n, d)`` points, validated exactly as the clustering entry
        points validate them.
    """

    def __init__(self, X: np.ndarray):
        X = validate_points(X)
        self._X = X
        self.n, self.dim = X.shape
        self.fingerprint = points_fingerprint(X)
        self._points: _PointsEntry | None = None
        #: devices the points tree is charged to (by identity: ``Device``
        #: is an eq-dataclass, so it is unhashable).
        self._charged: list[weakref.ref] = []
        self._binnings: "OrderedDict[float, _BinningEntry]" = OrderedDict()
        #: live grid binnings actually executed for this index.
        self.binning_builds = 0
        #: binnings served from the eps-keyed cache (replayed, not re-run).
        self.binning_hits = 0
        #: cached shape statistics of the points tree.
        self._tree_stats = None

    # -- compatibility ---------------------------------------------------------

    def check_points(self, X: np.ndarray) -> None:
        """Raise ``ValueError`` unless ``X`` is the indexed point set.

        The check hashes the validated input — O(n), negligible next to
        clustering — so a stale index can never silently produce labels
        for the wrong data.
        """
        X = validate_points(X)
        if X.shape != (self.n, self.dim):
            raise ValueError(
                f"index was built over shape {(self.n, self.dim)}; got {X.shape}"
            )
        if points_fingerprint(X) != self.fingerprint:
            raise ValueError(
                "index fingerprint mismatch: the given points differ from the "
                "ones this DBSCANIndex was built over"
            )

    # -- component accessors ---------------------------------------------------

    @property
    def has_points_tree(self) -> bool:
        return self._points is not None

    def points_tree(self, device: Device | None = None) -> tuple[BVH, bool]:
        """The BVH over the raw points (FDBSCAN's index).

        Returns ``(tree, reused)``.  The first call builds the tree live
        on ``device`` and records its cost; a later call on a device the
        tree is not yet charged to replays that cost onto it, and a call
        on a charged device charges nothing.
        """
        dev = default_device(device)
        if self._points is not None:
            if not any(ref() is dev for ref in self._charged):
                dev.replay(self._points.cost)
                self._charged.append(weakref.ref(dev))
            return self._points.tree, True
        with dev.recording() as cost:
            lo, hi = boxes_from_points(self._X)
            tree = build_bvh(lo, hi, device=dev)
        self._points = _PointsEntry(tree=tree, cost=cost)
        self._charged.append(weakref.ref(dev))
        return tree, False

    def release_points_tree(self) -> None:
        """Free the points tree's bytes on every live device it is charged
        to and drop it; a later :meth:`points_tree` builds it again."""
        if self._points is not None:
            for ref in self._charged:
                dev = ref()
                if dev is not None:
                    release_bvh(self._points.tree, dev)
        self._points = None
        self._charged = []

    def _cached_points_tree(self, device: Device | None) -> BVH:
        """The points tree without replaying its cost: a cached tree is
        read as is, and a missing one is built live on ``device``.  For
        accessors that derive data from the tree rather than run a fit."""
        if self._points is not None:
            return self._points.tree
        return self.points_tree(device)[0]

    def morton_schedule(self, device: Device | None = None) -> np.ndarray:
        """The indexed points in Morton (Z-curve) order: the points tree's
        leaf order, a stable sort of their Morton codes.  Charges
        ``device`` only if this call has to build the tree."""
        return self._cached_points_tree(device).order

    def tree_statistics(self, device: Device | None = None):
        """Shape statistics of the points tree (for reports and tests).

        Computed once per index (the tree never changes) and cached.
        Charges ``device`` only if this call has to build the tree.
        """
        if self._tree_stats is None:
            from repro.bvh.statistics import tree_statistics

            self._tree_stats = tree_statistics(self._cached_points_tree(device))
        return self._tree_stats

    def grid_binning(
        self,
        eps: float,
        device: Device | None = None,
    ) -> tuple[GridBinning, bool]:
        """The eps-keyed grid binning (the minpts-independent half of a
        DenseBox decomposition).

        Returns ``(binning, reused)``.  Cell coordinates and the CSR
        membership depend only on the points and ``eps``, so one cached
        binning serves every ``minpts`` (and every sample weighting) at
        that ``eps`` — a minpts sweep re-thresholds dense cells instead of
        redecomposing.  The first call per eps bins live on ``device`` and
        records the cost; later calls replay it.  At most
        :data:`DEFAULT_MAX_BINNINGS` entries are kept (FIFO).
        """
        dev = default_device(device)
        key = float(eps)
        entry = self._binnings.get(key)
        if entry is not None:
            self._binnings.move_to_end(key)
            dev.replay(entry.cost)
            self.binning_hits += 1
            return entry.binning, True
        with dev.recording() as cost:
            binning = bin_points(self._X, eps, device=dev)
        self._binnings[key] = _BinningEntry(binning=binning, cost=cost)
        self.binning_builds += 1
        while len(self._binnings) > DEFAULT_MAX_BINNINGS:
            self._binnings.popitem(last=False)
        return binning, False

    # -- introspection ---------------------------------------------------------

    def build_seconds(self) -> dict[str, float]:
        """Recorded build wall-seconds per component (cold costs a warm
        run skipped; keys: ``"points"`` and one ``"binning eps=.."`` per
        cached grid binning)."""
        out: dict[str, float] = {}
        if self._points is not None:
            out["points"] = self._points.cost.seconds
        for eps, bentry in self._binnings.items():
            out[f"binning eps={eps:g}"] = bentry.cost.seconds
        return out

    def nbytes(self) -> int:
        """Host-side footprint of the cached structures."""
        total = 0
        if self._points is not None:
            total += self._points.tree.nbytes()
        for bentry in self._binnings.values():
            total += bentry.binning.nbytes()
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        built = "built" if self._points is not None else "unbuilt"
        return (
            f"DBSCANIndex(n={self.n}, dim={self.dim}, points_tree={built}, "
            f"binnings={len(self._binnings)}, fp={self.fingerprint[:10]})"
        )
