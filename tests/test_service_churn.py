"""Service-style churn over :class:`~repro.service.state.ServiceIndex`.

The serving tier mutates indexes between queries: every insert or delete
rewrites the live point arrays and the next query rebuilds the index over
exactly those points.  Two things must hold under interleaved
insert/delete/query sequences:

- every query answers against the current live points — clusters,
  counts and knn radii equal a fresh computation over them;
- fingerprints invalidate **exactly** when geometry changes: any
  insert/delete changes the fingerprint, queries never do, and an
  insert+delete that restores the same (id, point) multiset restores the
  same fingerprint bit-for-bit.
"""

import numpy as np

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


class TestServiceIndexChurn:
    def test_interleaved_insert_delete_query_matches_fresh_fdbscan(self, rng):
        X = rng.uniform(0, 1, size=(250, 2))
        si = ServiceIndex("churn", X)
        dev = Device()
        for round_ in range(5):
            kill = rng.choice(si.ids, size=7, replace=False)
            si.delete([int(k) for k in kill])
            si.insert(rng.uniform(0, 1, size=(6, 2)))
            res = si.cluster(0.09, 4, device=dev)
            assert res["ids"] == si.ids.tolist()
            ref = fdbscan(si.points, 0.09, 4)
            # DBSCAN-equivalence: identical cores/noise/core-partition,
            # border attachments legal (they may legitimately differ).
            assert_dbscan_equivalent(_as_result(res), ref, si.points, 0.09)
        assert si.builds == 5

    def test_counts_exclude_tombstones(self, rng):
        X = rng.uniform(0, 1, size=(150, 2))
        si = ServiceIndex("t", X)
        dev = Device()
        res = si.cluster(0.1, 3, device=dev)  # build the tree first
        si.delete(res["ids"][:50])
        out = si.count(0.1, 3, device=dev)
        live = X[50:]
        np.testing.assert_array_equal(si.points, live)
        np.testing.assert_array_equal(
            out["counts"], _brute_counts(live, live, 0.1)
        )

    def test_knn_after_churn_matches_brute_force(self, rng):
        X = rng.uniform(0, 1, size=(120, 2))
        si = ServiceIndex("k", X)
        dev = Device()
        res = si.cluster(0.1, 3, device=dev)
        si.delete(res["ids"][5:25])
        si.insert(rng.uniform(0, 1, size=(10, 2)))
        k = 4
        out = si.knn(k, device=dev)
        queries = si.points
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
        # same live (id, point) multiset -> bit-equal fingerprint
        assert si.fingerprint() == fp0

    def test_rebuild_does_not_change_the_fingerprint(self, rng):
        si = ServiceIndex("f", rng.uniform(0, 1, size=(90, 2)))
        dev = Device()
        res = si.cluster(0.1, 3, device=dev)
        si.delete(res["ids"][:5])
        fp = si.fingerprint()
        si.cluster(0.1, 3, device=dev)  # rebuilds over the live points
        assert si.builds == 2
        assert si.fingerprint() == fp
