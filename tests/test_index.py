"""Tests for the reusable spatial index (repro.core.index)."""

import numpy as np
import pytest

from repro.core.api import dbscan
from repro.core.densebox import fdbscan_densebox
from repro.core.fdbscan import fdbscan
from repro.core.index import DBSCANIndex, points_fingerprint
from repro.device.device import Device


class TestFingerprint:
    def test_deterministic_and_layout_insensitive(self, blobs_2d):
        a = points_fingerprint(blobs_2d)
        b = points_fingerprint(np.asfortranarray(blobs_2d))
        c = points_fingerprint(blobs_2d.copy())
        assert a == b == c

    def test_differs_on_content(self, blobs_2d):
        other = blobs_2d.copy()
        other[0, 0] += 1e-9
        assert points_fingerprint(other) != points_fingerprint(blobs_2d)

    def test_check_points_rejects_wrong_data(self, blobs_2d):
        index = DBSCANIndex(blobs_2d)
        other = blobs_2d.copy()
        other[3, 1] += 0.5
        with pytest.raises(ValueError, match="fingerprint"):
            index.check_points(other)
        with pytest.raises(ValueError, match="shape"):
            index.check_points(blobs_2d[:-1])
        index.check_points(blobs_2d)  # identity passes

    def test_stale_index_rejected_by_algorithms(self, blobs_2d, rng):
        index = DBSCANIndex(blobs_2d)
        other = rng.normal(size=blobs_2d.shape)
        with pytest.raises(ValueError, match="fingerprint"):
            fdbscan(other, 0.2, 5, index=index)
        with pytest.raises(ValueError, match="fingerprint"):
            fdbscan_densebox(other, 0.2, 5, index=index)


class TestPointsTreeReuse:
    def test_built_once_then_replayed(self, blobs_2d):
        index = DBSCANIndex(blobs_2d)
        assert not index.has_points_tree
        cold_dev = Device(name="cold")
        tree, reused = index.points_tree(cold_dev)
        assert not reused and index.has_points_tree
        warm_dev = Device(name="warm")
        tree2, reused2 = index.points_tree(warm_dev)
        assert reused2 and tree2 is tree

    def test_warm_accounting_matches_cold(self, blobs_2d):
        cold_dev, warm_dev = Device(name="cold"), Device(name="warm")
        cold = fdbscan(blobs_2d, 0.2, 5, device=cold_dev)
        warm = fdbscan(blobs_2d, 0.2, 5, device=warm_dev, index=cold.info["index"])
        assert not cold.info["index_reused"]
        assert warm.info["index_reused"]
        np.testing.assert_array_equal(cold.labels, warm.labels)
        assert cold_dev.counters.snapshot() == warm_dev.counters.snapshot()
        assert cold_dev.memory.peak_bytes == warm_dev.memory.peak_bytes

    def test_points_tree_charged_once_per_device(self, blobs_2d):
        # a long-lived device pays for one tree once, however many fits
        # it runs on it; each other device pays exactly one replay
        index = DBSCANIndex(blobs_2d)
        dev, other = Device(), Device()
        for device in (dev, dev, other, other):
            fdbscan(blobs_2d, 0.2, 5, device=device, index=index)
        tree, _ = index.points_tree(dev)
        for device, replayed in ((dev, 0), (other, 1)):
            build = device.profile()["bvh_build"]
            assert (build["launches"], build["replayed"]) == (1, replayed)
            assert device.memory.live_by_tag["bvh"] == tree.nbytes()

    def test_replayed_spans_flagged(self, blobs_2d):
        cold = fdbscan(blobs_2d, 0.2, 5, device=Device())
        warm_dev = Device()
        fdbscan(blobs_2d, 0.2, 5, device=warm_dev, index=cold.info["index"])
        build = warm_dev.profile()["bvh_build"]
        assert build["launches"] == 1
        assert build["replayed"] == 1
        spans = [s for s in warm_dev.trace_snapshot() if s["name"] == "bvh_build"]
        assert spans and all(s["replayed"] for s in spans)

    def test_accessors_read_cached_tree_without_replay(self, blobs_2d):
        # the set-up a user pays once: one live build, no replayed charge
        index = DBSCANIndex(blobs_2d)
        dev = Device()
        tree, _ = index.points_tree(dev)
        np.testing.assert_array_equal(index.morton_schedule(dev), tree.order)
        index.tree_statistics(dev)
        build = dev.profile()["bvh_build"]
        assert build["launches"] == 1
        assert build["replayed"] == 0

    def test_accessors_build_an_absent_tree_live(self, blobs_2d):
        index = DBSCANIndex(blobs_2d)
        dev = Device()
        index.tree_statistics(dev)
        index.morton_schedule(dev)
        assert index.has_points_tree
        build = dev.profile()["bvh_build"]
        assert (build["launches"], build["replayed"]) == (1, 0)

    def test_replay_hits_memory_cap_like_cold_build(self, blobs_2d):
        from repro.device.memory import DeviceMemoryError

        cold_dev = Device()
        cold = fdbscan(blobs_2d, 0.2, 5, device=cold_dev)
        with pytest.raises(DeviceMemoryError):
            fdbscan(
                blobs_2d, 0.2, 5,
                device=Device(capacity_bytes=1000),
                index=cold.info["index"],
            )


class TestDenseCache:
    def test_densebox_warm_accounting_matches_cold(self, blobs_2d):
        cold_dev, warm_dev = Device(), Device()
        cold = fdbscan_densebox(blobs_2d, 0.2, 5, device=cold_dev)
        warm = fdbscan_densebox(
            blobs_2d, 0.2, 5, device=warm_dev, index=cold.info["index"]
        )
        assert warm.info["index_reused"]
        np.testing.assert_array_equal(cold.labels, warm.labels)
        assert cold_dev.counters.snapshot() == warm_dev.counters.snapshot()
        assert cold_dev.memory.peak_bytes == warm_dev.memory.peak_bytes

    def test_repeated_cell_matches_cold_index(self, blobs_2d):
        # The dense cells and mixed tree are rebuilt for every fit: a cell
        # repeated on one index runs as a cold index does.
        index = DBSCANIndex(blobs_2d)
        fdbscan_densebox(blobs_2d, 0.2, 5, device=Device(), index=index)
        repeat_dev, cold_dev = Device(), Device()
        repeat = fdbscan_densebox(blobs_2d, 0.2, 5, device=repeat_dev, index=index)
        cold = fdbscan_densebox(blobs_2d, 0.2, 5, device=cold_dev, index=DBSCANIndex(blobs_2d))
        assert repeat.info["index_reused"] and not cold.info["index_reused"]
        np.testing.assert_array_equal(repeat.labels, cold.labels)
        np.testing.assert_array_equal(repeat.is_core, cold.is_core)
        assert repeat_dev.counters.snapshot() == cold_dev.counters.snapshot()
        assert repeat_dev.memory.peak_bytes == cold_dev.memory.peak_bytes


class TestApiIntegration:
    def test_info_returns_index_for_chaining(self, blobs_2d):
        res = dbscan(blobs_2d, 0.2, 5, algorithm="fdbscan")
        index = res.info["index"]
        assert isinstance(index, DBSCANIndex)
        res2 = dbscan(blobs_2d, 0.3, 5, algorithm="fdbscan", index=index)
        assert res2.info["index"] is index
        assert res2.info["index_reused"]

    def test_index_shared_across_algorithms(self, blobs_2d):
        index = DBSCANIndex(blobs_2d)
        a = dbscan(blobs_2d, 0.2, 5, algorithm="fdbscan", index=index)
        b = dbscan(blobs_2d, 0.2, 5, algorithm="fdbscan-densebox", index=index)
        assert a.info["index"] is b.info["index"] is index
        assert index.has_points_tree and index.binning_builds == 1

    def test_baseline_rejects_index(self, blobs_2d):
        with pytest.raises(ValueError, match="does not use a spatial index"):
            dbscan(blobs_2d, 0.2, 5, algorithm="brute", index=DBSCANIndex(blobs_2d))

    def test_unknown_algorithm_error_wins_over_index_error(self, blobs_2d):
        with pytest.raises(ValueError, match="unknown algorithm"):
            dbscan(blobs_2d, 0.2, 5, algorithm="nope", index=DBSCANIndex(blobs_2d))

    def test_build_seconds_and_nbytes(self, blobs_2d):
        index = DBSCANIndex(blobs_2d)
        assert index.nbytes() == 0
        dbscan(blobs_2d, 0.2, 5, algorithm="fdbscan", index=index)
        dbscan(blobs_2d, 0.2, 5, algorithm="fdbscan-densebox", index=index)
        secs = index.build_seconds()
        assert set(secs) == {"points", "binning eps=0.2"}
        assert all(s >= 0 for s in secs.values())
        assert index.nbytes() > 0
