"""Mutable, crash-safe index state: tombstones, refit, periodic rebuild.

A served index must accept inserts and deletes *between* queries without
rebuilding its BVH from scratch each time.  :class:`ServiceIndex` wraps
the repository's immutable :class:`~repro.core.index.DBSCANIndex` with a
slot model:

- **slots** are tree-leaf positions.  ``slot_points``/``slot_ids`` hold
  one point (and its immutable, monotonically assigned id) per slot;
  ``alive`` masks deletions as **tombstones** — the tree keeps the dead
  leaf, traversals exclude it with 0-weight counts
  (:func:`~repro.bvh.traversal.count_within` ``leaf_weights``) and an
  alive-mask filter on the pair stream.
- an **insert** reuses a tombstoned slot when one exists: the slot's
  coordinates are overwritten and the tree is repaired in one batched
  bottom-up :func:`~repro.bvh.refit.refit_bvh` at the next query (which
  also drops the packed traversal layout via ``invalidate_packed`` — the
  staleness hazard the churn tests pin down).  With no free slot the row
  is appended, which forces a full rebuild at the next query.
- a **periodic rebuild** (every ``rebuild_every`` mutations, or whenever
  appended rows / a knn query require it) compacts tombstones into a
  fresh tree, restoring traversal efficiency.

**Fingerprints are layout-independent**: :meth:`fingerprint` hashes the
live ``(id, point)`` pairs in id order, so it is a pure function of the
mutation history — two services that applied the same journal agree
bit-for-bit even if their rebuilds happened at different times.  The
fingerprint changes exactly when live geometry changes (insert/delete),
never on queries, refits or rebuilds.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.bvh.refit import refit_bvh
from repro.bvh.knn import knn_radii
from repro.bvh.traversal import count_within, for_each_leaf_hit
from repro.core.framework import PairResolver
from repro.core.index import DBSCANIndex
from repro.core.labels import finalize_clusters
from repro.core.validation import validate_params, validate_points
from repro.device.device import Device, default_device
from repro.unionfind.ecl import EclUnionFind

#: Default mutation count between full rebuilds.
DEFAULT_REBUILD_EVERY = 64


class ServiceIndex:
    """One named, mutable index (see module docstring for the model)."""

    def __init__(
        self,
        name: str,
        X: np.ndarray,
        ids: np.ndarray | None = None,
        rebuild_every: int = DEFAULT_REBUILD_EVERY,
    ):
        if rebuild_every < 1:
            raise ValueError(f"rebuild_every must be >= 1; got {rebuild_every}")
        X = validate_points(X)
        self.name = name
        self.dim = X.shape[1]
        self.rebuild_every = int(rebuild_every)
        self.slot_points = np.ascontiguousarray(X, dtype=np.float64).copy()
        if ids is None:
            self.slot_ids = np.arange(X.shape[0], dtype=np.int64)
        else:
            self.slot_ids = np.asarray(ids, dtype=np.int64).copy()
            if self.slot_ids.shape != (X.shape[0],):
                raise ValueError("ids must have one entry per point")
        self.next_id = int(self.slot_ids.max()) + 1 if self.slot_ids.size else 0
        self.alive = np.ones(X.shape[0], dtype=bool)
        self._free: list[int] = []  # tombstoned slots, reusable by inserts
        self.index: DBSCANIndex | None = DBSCANIndex(self.slot_points.copy())
        self.tree = None
        self._boxes_dirty = False
        self.mutations_since_rebuild = 0
        #: Bumped on every mutation — the result cache's staleness key.
        self.generation = 0
        self.rebuilds = 0
        self.refits = 0
        self._fp: str | None = None

    # -- introspection ---------------------------------------------------------

    @property
    def n_slots(self) -> int:
        return self.slot_points.shape[0]

    @property
    def n_live(self) -> int:
        return int(self.alive.sum())

    @property
    def n_tombstones(self) -> int:
        return self.n_slots - self.n_live

    def live_slots(self) -> np.ndarray:
        return np.flatnonzero(self.alive)

    def stats(self) -> dict:
        return {
            "n_live": self.n_live,
            "n_tombstones": self.n_tombstones,
            "n_slots": self.n_slots,
            "dim": self.dim,
            "generation": self.generation,
            "rebuilds": self.rebuilds,
            "refits": self.refits,
            "mutations_since_rebuild": self.mutations_since_rebuild,
            "fingerprint": self.fingerprint(),
        }

    def fingerprint(self) -> str:
        """Content hash of the live ``(id, point)`` pairs in id order —
        layout-independent (module docstring)."""
        if self._fp is None:
            live = self.live_slots()
            ids = self.slot_ids[live]
            order = np.argsort(ids, kind="stable")
            digest = hashlib.sha1()
            digest.update(np.int64(ids.size).tobytes())
            digest.update(np.ascontiguousarray(ids[order]).tobytes())
            digest.update(
                np.ascontiguousarray(self.slot_points[live][order], dtype=np.float64).tobytes()
            )
            self._fp = digest.hexdigest()
        return self._fp

    # -- mutation --------------------------------------------------------------

    def _mutated(self) -> None:
        self.generation += 1
        self.mutations_since_rebuild += 1
        self._fp = None

    def insert(self, rows: np.ndarray, ids: list[int] | None = None) -> list[int]:
        """Insert rows; returns their assigned ids.

        ``ids`` is only passed by journal replay (re-applying the exact
        ids the original run assigned).  Tombstoned slots are reused
        first (repaired by one batched refit at the next query); leftover
        rows are appended and force a rebuild at the next query.
        """
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise ValueError(f"insert rows must be (k, {self.dim}); got {rows.shape}")
        # The grown point set must stay valid (finite squared distances)
        # before anything is applied.
        validate_points(np.concatenate([self.slot_points[self.alive], rows]))
        if ids is None:
            new_ids = list(range(self.next_id, self.next_id + rows.shape[0]))
        else:
            if len(ids) != rows.shape[0]:
                raise ValueError("ids must match the number of rows")
            new_ids = [int(i) for i in ids]
        self.next_id = max(self.next_id, max(new_ids) + 1)

        n_reuse = min(len(self._free), rows.shape[0])
        for j in range(n_reuse):
            slot = self._free.pop()
            self.slot_points[slot] = rows[j]
            self.slot_ids[slot] = new_ids[j]
            self.alive[slot] = True
            self._boxes_dirty = True
        if n_reuse < rows.shape[0]:
            extra = rows[n_reuse:]
            self.slot_points = np.concatenate([self.slot_points, extra])
            self.slot_ids = np.concatenate(
                [self.slot_ids, np.asarray(new_ids[n_reuse:], dtype=np.int64)]
            )
            self.alive = np.concatenate([self.alive, np.ones(extra.shape[0], dtype=bool)])
        self._mutated()
        return new_ids

    def delete(self, ids: list[int]) -> int:
        """Tombstone the given ids; all-or-nothing (unknown id raises
        ``KeyError`` before anything is applied).  Returns the count."""
        wanted = np.asarray(sorted(set(int(i) for i in ids)), dtype=np.int64)
        live = self.live_slots()
        pos = {int(pid): int(slot) for slot, pid in zip(live, self.slot_ids[live])}
        missing = [int(i) for i in wanted if int(i) not in pos]
        if missing:
            raise KeyError(f"unknown point ids: {missing[:8]}")
        for pid in wanted:
            slot = pos[int(pid)]
            self.alive[slot] = False
            self._free.append(slot)
        self._mutated()
        return int(wanted.size)

    # -- tree maintenance ------------------------------------------------------

    def _rebuild(self) -> None:
        """Compact live points (in id order) into fresh slot arrays and a
        fresh index; the tree is rebuilt lazily by :meth:`ensure_ready`."""
        live = self.live_slots()
        ids = self.slot_ids[live]
        order = np.argsort(ids, kind="stable")
        self.slot_points = np.ascontiguousarray(self.slot_points[live][order])
        self.slot_ids = np.ascontiguousarray(ids[order])
        self.alive = np.ones(self.slot_points.shape[0], dtype=bool)
        self._free = []
        self.index = (
            DBSCANIndex(self.slot_points.copy())
            if self.slot_points.shape[0]
            else None
        )
        self.tree = None
        self._boxes_dirty = False
        self.mutations_since_rebuild = 0
        self.rebuilds += 1

    def ensure_ready(self, device: Device, for_knn: bool = False) -> None:
        """Bring the tree in sync with the slot state: rebuild when
        appended rows / the mutation budget / a knn query demand it,
        else repair moved leaf boxes with one batched refit."""
        if self.n_live == 0:
            self.tree = None
            return
        covered = self.index is not None and self.index.n == self.n_slots
        if (
            not covered
            or self.mutations_since_rebuild >= self.rebuild_every
            or (for_knn and self.n_tombstones)
        ):
            self._rebuild()
        if self.tree is None:
            self.tree, _ = self.index.points_tree(device)
        if self._boxes_dirty:
            # Batched repair: rewrite every leaf box from the slot
            # coordinates (idempotent — untouched slots rewrite their own
            # box), then refit internal boxes bottom-up.  refit_bvh drops
            # the packed traversal layout, so the next traversal cannot
            # read stale child boxes.
            n_int = self.tree.n_internal
            leaves = self.slot_points[self.tree.order]
            self.tree.node_lo[n_int:] = leaves
            self.tree.node_hi[n_int:] = leaves
            with device.kernel("service_refit", threads=self.n_slots):
                refit_bvh(self.tree)
            self._boxes_dirty = False
            self.refits += 1

    # -- queries ---------------------------------------------------------------

    def _masked_counts(
        self,
        queries: np.ndarray,
        eps: float,
        device: Device,
        stop_at=None,
        watchdog=None,
    ) -> np.ndarray:
        """Neighbour counts over *live* points only (tombstones weigh 0)."""
        if self.n_tombstones:
            weights = self.alive.astype(np.float64)[self.tree.order]
            return count_within(
                self.tree, queries, eps, stop_at=stop_at, device=device,
                leaf_weights=weights, watchdog=watchdog,
            )
        return count_within(
            self.tree, queries, eps, stop_at=stop_at, device=device,
            watchdog=watchdog,
        )

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
            queries = self.slot_points[self.live_slots()]
        counts = self._masked_counts(
            queries, eps, device, stop_at=None, watchdog=watchdog
        )
        counts = np.rint(np.asarray(counts, dtype=np.float64)).astype(np.int64)
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
        """DBSCAN over the live points, tombstone-masked.

        Labels are returned in **id order** (``ids[i]`` labels point
        ``ids[i]``) so responses are comparable across rebuilds; cluster
        numbering follows the internal slot layout and is only stable up
        to permutation (compare with
        :func:`repro.metrics.equivalence.partitions_equal`).

        ``count_only=True`` is the ladder's degraded form: run just the
        early-exited core-count phase and skip the union-find main phase.
        """
        eps, minpts = validate_params(eps, min_samples)
        device = default_device(device)
        self.ensure_ready(device)
        live = self.live_slots()
        n_live = live.size
        if n_live == 0:
            out = {"n_points": 0, "n_core": 0}
            if not count_only:
                out.update({"ids": [], "labels": [], "is_core": [], "n_clusters": 0})
            return out
        queries = self.slot_points[live]
        counts = self._masked_counts(
            queries, eps, device, stop_at=minpts, watchdog=watchdog
        )
        is_core = np.asarray(counts >= minpts)
        if count_only:
            return {"n_points": int(n_live), "n_core": int(is_core.sum())}

        uf = EclUnionFind(n_live, device=device)
        resolver = PairResolver(uf, is_core, device=device)
        slot_to_live = np.full(self.n_slots, -1, dtype=np.int64)
        slot_to_live[live] = np.arange(n_live, dtype=np.int64)
        mask_positions = self.tree.position[live]
        order = self.tree.order
        alive = self.alive
        any_dead = self.n_tombstones > 0

        def on_hits(q_ids: np.ndarray, leaf_pos: np.ndarray) -> None:
            slots = order[leaf_pos]
            if any_dead:
                keep = alive[slots]
                resolver.add(q_ids[keep], slot_to_live[slots[keep]])
            else:
                resolver.add(q_ids, slot_to_live[slots])

        for_each_leaf_hit(
            self.tree,
            queries,
            eps,
            on_hits,
            mask_positions=mask_positions,
            device=device,
            kernel_name="service_cluster",
            watchdog=watchdog,
        )
        resolver.finalize()
        labels, core_mask, n_clusters = finalize_clusters(uf.parents, is_core, device.counters)
        ids = self.slot_ids[live]
        id_order = np.argsort(ids, kind="stable")
        return {
            "ids": ids[id_order].tolist(),
            "labels": labels[id_order].tolist(),
            "is_core": core_mask[id_order].tolist(),
            "n_clusters": int(n_clusters),
            "n_points": int(n_live),
            "n_core": int(is_core.sum()),
        }

    def knn(
        self,
        k: int,
        queries: np.ndarray | None = None,
        device: Device | None = None,
        watchdog=None,
    ) -> dict:
        """Distance to each query's ``k``-th nearest live point.

        knn has no tombstone-masked form (its gather ranks every leaf it
        reaches, dead or alive), so a dirty index compacts first —
        ``ensure_ready(for_knn=True)`` guarantees zero tombstones.
        """
        device = default_device(device)
        self.ensure_ready(device, for_knn=True)
        if self.n_live == 0 or k > self.n_live:
            raise ValueError(f"k={k} exceeds the {self.n_live} live points")
        if queries is None:
            queries = self.slot_points
        radii = knn_radii(self.tree, queries, int(k), device=device, watchdog=watchdog)
        return {"radii": [round(float(r), 12) for r in radii], "n_points": int(queries.shape[0])}
