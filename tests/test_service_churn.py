"""Service-style churn over ``refit_bvh`` + ``invalidate_packed``.

The serving tier mutates indexes in place: deletes tombstone slots,
inserts overwrite them, and the BVH is *refit* (leaf boxes rewritten,
internal boxes recomputed bottom-up) rather than rebuilt.  Two things
must hold under interleaved insert/delete/query sequences:

- traversals never read **stale packed child boxes** — the
  packed-children cache is invalidated whenever the refit moves
  geometry, so every query answers against the current points;
- fingerprints invalidate **exactly** when geometry changes: any
  insert/delete changes the fingerprint, queries never do, and an
  insert+delete that restores the same (id, point) multiset restores the
  same fingerprint bit-for-bit.
"""

import numpy as np
import pytest

from repro.bvh.aabb import boxes_from_points
from repro.bvh.builder import build_bvh
from repro.bvh.refit import refit_bvh
from repro.bvh.traversal import count_within
from repro.core.fdbscan import fdbscan
from repro.core.labels import DBSCANResult
from repro.device.device import Device
from repro.metrics.equivalence import assert_dbscan_equivalent
from repro.service.state import ServiceIndex


def _brute_counts(points, queries, eps):
    d2 = ((queries[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    return (d2 <= eps * eps).sum(axis=1)


def _as_result(cluster_response: dict) -> DBSCANResult:
    return DBSCANResult(
        labels=np.asarray(cluster_response["labels"], dtype=np.int64),
        is_core=np.asarray(cluster_response["is_core"], dtype=bool),
        n_clusters=int(cluster_response["n_clusters"]),
    )


class TestPackedBoxesNeverStale:
    def test_refit_invalidates_packed_children(self, rng):
        pts = rng.uniform(0, 1, size=(128, 2))
        lo, hi = boxes_from_points(pts)
        tree = build_bvh(lo, hi)
        # Populate the packed cache through a traversal.
        dev = Device()
        count_within(tree, pts, 0.1, device=dev)
        assert tree._packed is not None
        # Move the geometry and refit: the cache must be dropped.
        moved = pts + 0.25
        n = tree.n_primitives
        mlo, mhi = boxes_from_points(moved[tree.order])
        tree.node_lo[n - 1:] = mlo
        tree.node_hi[n - 1:] = mhi
        refit_bvh(tree)
        assert tree._packed is None

    @pytest.mark.parametrize("eps", [0.12, 0.4])
    def test_counts_track_moving_points_through_refits(self, rng, eps):
        pts = rng.uniform(0, 1, size=(200, 2)).copy()
        lo, hi = boxes_from_points(pts)
        tree = build_bvh(lo, hi)
        dev = Device()
        for round_ in range(4):
            got = count_within(tree, pts, eps, device=dev)
            np.testing.assert_array_equal(got, _brute_counts(pts, pts, eps))
            # perturb a block of points, rewrite their leaf boxes, refit
            idx = rng.choice(200, size=40, replace=False)
            pts[idx] += rng.normal(0, 0.05, size=(40, 2))
            n = tree.n_primitives
            nlo, nhi = boxes_from_points(pts[tree.order])
            tree.node_lo[n - 1:] = nlo
            tree.node_hi[n - 1:] = nhi
            refit_bvh(tree)


class TestServiceIndexChurn:
    @pytest.mark.parametrize("rebuild_every", [3, 10_000])
    def test_interleaved_insert_delete_query_matches_fresh_fdbscan(
        self, rng, rebuild_every
    ):
        # rebuild_every=3 exercises the periodic-rebuild path,
        # 10_000 forces the tombstone + refit path throughout.
        X = rng.uniform(0, 1, size=(250, 2))
        si = ServiceIndex("churn", X, rebuild_every=rebuild_every)
        dev = Device()
        for round_ in range(5):
            live_ids = si.slot_ids[si.alive]
            kill = rng.choice(live_ids, size=7, replace=False)
            si.delete([int(k) for k in kill])
            si.insert(rng.uniform(0, 1, size=(6, 2)))
            res = si.cluster(0.09, 4, device=dev)
            live_pts = si.slot_points[si.alive]
            order = np.argsort(si.slot_ids[si.alive], kind="stable")
            ref = fdbscan(live_pts[order], 0.09, 4)
            # DBSCAN-equivalence: identical cores/noise/core-partition,
            # border attachments legal (they may legitimately differ).
            assert_dbscan_equivalent(_as_result(res), ref, live_pts[order], 0.09)
        if rebuild_every == 3:
            assert si.rebuilds > 0
        else:
            assert si.refits > 0

    def test_counts_exclude_tombstones(self, rng):
        X = rng.uniform(0, 1, size=(150, 2))
        si = ServiceIndex("t", X, rebuild_every=10_000)
        dev = Device()
        res = si.cluster(0.1, 3, device=dev)  # build the tree first
        si.delete(res["ids"][:50])
        out = si.count(0.1, 3, device=dev)
        live = si.slot_points[si.alive]
        order = np.argsort(si.slot_ids[si.alive], kind="stable")
        np.testing.assert_array_equal(
            out["counts"], _brute_counts(live, live[order], 0.1)
        )

    def test_knn_after_churn_matches_brute_force(self, rng):
        X = rng.uniform(0, 1, size=(120, 2))
        si = ServiceIndex("k", X, rebuild_every=10_000)
        dev = Device()
        res = si.cluster(0.1, 3, device=dev)
        si.delete(res["ids"][5:25])
        si.insert(rng.uniform(0, 1, size=(10, 2)))
        k = 4
        out = si.knn(k, device=dev)
        live = si.slot_points[si.alive]
        order = np.argsort(si.slot_ids[si.alive], kind="stable")
        queries = live[order]
        d = np.sqrt(((queries[:, None, :] - queries[None, :, :]) ** 2).sum(axis=2))
        expected = np.sort(d, axis=1)[:, k - 1]
        np.testing.assert_allclose(out["radii"], expected, atol=1e-9)


class TestFingerprintExactness:
    def test_queries_never_change_the_fingerprint(self, rng):
        si = ServiceIndex("f", rng.uniform(0, 1, size=(100, 2)))
        dev = Device()
        fp = si.fingerprint()
        si.cluster(0.1, 3, device=dev)
        si.count(0.1, 3, device=dev)
        si.knn(3, device=dev)
        assert si.fingerprint() == fp

    def test_every_mutation_changes_the_fingerprint(self, rng):
        si = ServiceIndex("f", rng.uniform(0, 1, size=(100, 2)))
        fp0 = si.fingerprint()
        ids = si.insert(rng.uniform(0, 1, size=(2, 2)))
        fp1 = si.fingerprint()
        assert fp1 != fp0
        si.delete(ids[:1])
        fp2 = si.fingerprint()
        assert fp2 not in (fp0, fp1)
        si.delete(ids[1:])
        # back to the original geometry: the fingerprint must say so
        assert si.fingerprint() == fp0

    def test_restoring_geometry_restores_the_fingerprint(self, rng):
        si = ServiceIndex("f", rng.uniform(0, 1, size=(80, 2)))
        fp0 = si.fingerprint()
        ids = si.insert(np.array([[0.5, 0.5], [0.25, 0.75]]))
        assert si.fingerprint() != fp0
        si.delete(ids)
        # same live (id, point) multiset -> bit-equal fingerprint, even
        # though slots were consumed and tombstoned in between
        assert si.fingerprint() == fp0

    def test_rebuild_does_not_change_the_fingerprint(self, rng):
        si = ServiceIndex("f", rng.uniform(0, 1, size=(90, 2)), rebuild_every=1)
        dev = Device()
        res = si.cluster(0.1, 3, device=dev)
        si.delete(res["ids"][:5])
        fp = si.fingerprint()
        si.cluster(0.1, 3, device=dev)  # triggers the periodic rebuild
        assert si.rebuilds >= 1
        assert si.fingerprint() == fp
