"""Mutable, crash-safe index state: compact points, one lazily rebuilt tree.

A served index accepts inserts and deletes *between* queries.
:class:`ServiceIndex` keeps exactly the live points, in id order, next to
their immutable, monotonically assigned ids, plus one immutable
:class:`~repro.core.index.DBSCANIndex` over exactly those points:

- a **mutation** (insert or delete) rewrites the two arrays and discards
  the index, freeing its tree's bytes from every device ledger that paid
  for it (:meth:`~repro.core.index.DBSCANIndex.release_points_tree`);
- the next query rebuilds the index and its tree in :meth:`ensure_ready`;
- ``cluster`` is :func:`~repro.core.fdbscan.fdbscan` on that index, so
  the service runs the same pruned main phase as every batch fit, and
  ``count`` and ``knn`` traverse the same tree.

No tree is mutated after its build: a tree always covers exactly the
live points, so counts need no masking and knn no compaction.

**Fingerprints are layout-independent**: :meth:`fingerprint` hashes the
live ``(id, point)`` pairs in id order, so it is a pure function of the
mutation history — two services that applied the same journal agree
bit-for-bit.  The fingerprint changes exactly when live geometry changes
(insert/delete), never on queries or rebuilds.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.bvh.knn import knn_radii
from repro.bvh.traversal import count_within
from repro.core.fdbscan import fdbscan
from repro.core.index import DBSCANIndex
from repro.core.validation import validate_params, validate_points
from repro.device.device import Device, default_device


class ServiceIndex:
    """One named, mutable index (see module docstring for the model)."""

    def __init__(self, name: str, X: np.ndarray):
        X = validate_points(X)
        self.name = name
        self.dim = X.shape[1]
        #: The live points in id order, and their ids (ascending).
        self.points = np.ascontiguousarray(X, dtype=np.float64).copy()
        self.ids = np.arange(X.shape[0], dtype=np.int64)
        self.next_id = X.shape[0]
        #: The index over :attr:`points`; ``None`` until the next query.
        self.index: DBSCANIndex | None = None
        self.tree = None
        #: Bumped on every mutation — the result cache's staleness key.
        self.generation = 0
        #: Indexes built over the live points (the first one included).
        self.builds = 0
        self._fp: str | None = None

    # -- introspection ---------------------------------------------------------

    @property
    def n_live(self) -> int:
        return self.points.shape[0]

    def stats(self) -> dict:
        return {
            "n_live": self.n_live,
            "dim": self.dim,
            "generation": self.generation,
            "builds": self.builds,
            "fingerprint": self.fingerprint(),
        }

    def fingerprint(self) -> str:
        """Content hash of the live ``(id, point)`` pairs in id order —
        layout-independent (module docstring)."""
        if self._fp is None:
            digest = hashlib.sha1()
            digest.update(np.int64(self.ids.size).tobytes())
            digest.update(self.ids.tobytes())
            digest.update(self.points.tobytes())
            self._fp = digest.hexdigest()
        return self._fp

    # -- mutation --------------------------------------------------------------

    def _mutated(self, points: np.ndarray, ids: np.ndarray) -> None:
        order = np.argsort(ids, kind="stable")
        self.points = np.ascontiguousarray(points[order])
        self.ids = np.ascontiguousarray(ids[order])
        self.release()
        self.generation += 1
        self._fp = None

    def insert(self, rows: np.ndarray, ids: list[int] | None = None) -> list[int]:
        """Insert rows; returns their assigned ids.

        ``ids`` is only passed by journal replay (re-applying the exact
        ids the original run assigned).
        """
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise ValueError(f"insert rows must be (k, {self.dim}); got {rows.shape}")
        # The grown point set must stay valid (finite squared distances)
        # before anything is applied.
        grown = validate_points(np.concatenate([self.points, rows]))
        if ids is None:
            new_ids = list(range(self.next_id, self.next_id + rows.shape[0]))
        else:
            if len(ids) != rows.shape[0]:
                raise ValueError("ids must match the number of rows")
            new_ids = [int(i) for i in ids]
        self.next_id = max(self.next_id, max(new_ids) + 1)
        self._mutated(grown, np.concatenate([self.ids, np.asarray(new_ids, dtype=np.int64)]))
        return new_ids

    def delete(self, ids: list[int]) -> int:
        """Delete the given ids; all-or-nothing (unknown id raises
        ``KeyError`` before anything is applied).  Returns the count."""
        wanted = np.unique(np.asarray(list(ids), dtype=np.int64))
        missing = wanted[~np.isin(wanted, self.ids)]
        if missing.size:
            raise KeyError(f"unknown point ids: {missing[:8].tolist()}")
        keep = ~np.isin(self.ids, wanted)
        self._mutated(self.points[keep], self.ids[keep])
        return int(wanted.size)

    # -- tree maintenance ------------------------------------------------------

    def release(self) -> None:
        """Discard the index, freeing its tree's bytes on every device
        it was charged to."""
        if self.index is not None:
            self.index.release_points_tree()
        self.index = self.tree = None

    def ensure_ready(self, device: Device) -> None:
        """Build the index over the live points if a mutation discarded
        it, and charge its tree to ``device`` (once per device)."""
        if self.n_live == 0:
            return
        if self.index is None:
            self.index = DBSCANIndex(self.points)
            self.builds += 1
        self.tree, _ = self.index.points_tree(device)

    # -- queries ---------------------------------------------------------------

    def count(
        self,
        eps: float,
        min_samples: int,
        queries: np.ndarray | None = None,
        device: Device | None = None,
        watchdog=None,
    ) -> dict:
        """Exact neighbour counts within ``eps`` for ``queries`` (default:
        the live points themselves), plus the core count at
        ``min_samples``.  Always exact — counts are the ladder's floor,
        so they are never themselves degraded."""
        eps, minpts = validate_params(eps, min_samples)
        device = default_device(device)
        self.ensure_ready(device)
        if self.n_live == 0:
            return {"counts": [], "n_core": 0, "n_points": 0}
        if queries is None:
            queries = self.points
        counts = count_within(self.tree, queries, eps, device=device, watchdog=watchdog)
        return {
            "counts": counts.tolist(),
            "n_core": int((counts >= minpts).sum()),
            "n_points": int(queries.shape[0]),
        }

    def cluster(
        self,
        eps: float,
        min_samples: int,
        device: Device | None = None,
        watchdog=None,
        count_only: bool = False,
    ) -> dict:
        """DBSCAN over the live points: :func:`~repro.core.fdbscan.fdbscan`
        on the index.

        Labels are returned in **id order** (``ids[i]`` labels point
        ``ids[i]``); cluster numbering is only stable up to permutation
        (compare with :func:`repro.metrics.equivalence.partitions_equal`).

        ``count_only=True`` is the ladder's degraded form: run just the
        early-exited core-count phase and skip the union-find main phase.
        """
        eps, minpts = validate_params(eps, min_samples)
        device = default_device(device)
        self.ensure_ready(device)
        if self.n_live == 0:
            out = {"n_points": 0, "n_core": 0}
            if not count_only:
                out.update({"ids": [], "labels": [], "is_core": [], "n_clusters": 0})
            return out
        if count_only:
            counts = count_within(
                self.tree, self.points, eps, stop_at=minpts, device=device,
                watchdog=watchdog,
            )
            return {"n_points": self.n_live, "n_core": int((counts >= minpts).sum())}
        result = fdbscan(
            self.points, eps, minpts, device=device, index=self.index, watchdog=watchdog,
        )
        return {
            "ids": self.ids.tolist(),
            "labels": result.labels.tolist(),
            "is_core": result.is_core.tolist(),
            "n_clusters": int(result.n_clusters),
            "n_points": self.n_live,
            "n_core": int(result.is_core.sum()),
        }

    def knn(
        self,
        k: int,
        queries: np.ndarray | None = None,
        device: Device | None = None,
        watchdog=None,
    ) -> dict:
        """Distance to each query's ``k``-th nearest live point."""
        device = default_device(device)
        self.ensure_ready(device)
        if self.n_live == 0 or k > self.n_live:
            raise ValueError(f"k={k} exceeds the {self.n_live} live points")
        if queries is None:
            queries = self.points
        radii = knn_radii(self.tree, queries, int(k), device=device, watchdog=watchdog)
        return {"radii": [round(float(r), 12) for r in radii], "n_points": int(queries.shape[0])}
