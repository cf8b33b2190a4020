"""Tests for the device-memory ledger, including the OOM failure mode."""

import numpy as np
import pytest

from repro.baselines import cuda_dclust, grid_dbscan
from repro.core.densebox import fdbscan_densebox
from repro.core.fdbscan import fdbscan
from repro.core.multi_minpts import dbscan_minpts_sweep
from repro.device.device import Device
from repro.device.memory import DeviceMemoryError, MemoryTracker
from repro.distributed import distributed_dbscan
from repro.grid.dense_cells import bin_points
from repro.hierarchy.hdbscan import dbscan_star_cut, hdbscan


class TestBasicAccounting:
    def test_allocate_free_roundtrip(self):
        mem = MemoryTracker()
        mem.allocate(100, "a")
        assert mem.live_bytes == 100
        mem.free(100, "a")
        assert mem.live_bytes == 0
        assert mem.peak_bytes == 100

    def test_peak_is_high_watermark(self):
        mem = MemoryTracker()
        mem.allocate(50, "a")
        mem.free(50, "a")
        mem.allocate(30, "b")
        assert mem.peak_bytes == 50
        assert mem.live_bytes == 30

    def test_per_tag_peaks(self):
        mem = MemoryTracker()
        mem.allocate(10, "tree")
        mem.allocate(20, "labels")
        mem.free(10, "tree")
        mem.allocate(5, "tree")
        report = mem.report()
        assert report["peak_by_tag"]["tree"] == 10
        assert report["peak_by_tag"]["labels"] == 20

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            MemoryTracker().allocate(-1)

    def test_overfree_rejected(self):
        mem = MemoryTracker()
        mem.allocate(10, "a")
        with pytest.raises(ValueError, match="freeing"):
            mem.free(11, "a")

    def test_free_wrong_tag_rejected(self):
        mem = MemoryTracker()
        mem.allocate(10, "a")
        with pytest.raises(ValueError, match="freeing"):
            mem.free(10, "b")

    def test_reset(self):
        mem = MemoryTracker(capacity_bytes=100)
        mem.allocate(40, "x")
        mem.reset()
        assert mem.live_bytes == 0
        assert mem.peak_bytes == 0
        assert mem.capacity_bytes == 100


class TestCapacity:
    def test_oom_raised_at_cap(self):
        mem = MemoryTracker(capacity_bytes=100)
        mem.allocate(60, "a")
        with pytest.raises(DeviceMemoryError) as exc:
            mem.allocate(41, "b")
        assert exc.value.requested == 41
        assert exc.value.live == 60
        assert exc.value.capacity == 100
        assert exc.value.tag == "b"

    def test_ledger_unchanged_after_oom(self):
        mem = MemoryTracker(capacity_bytes=100)
        mem.allocate(60, "a")
        with pytest.raises(DeviceMemoryError):
            mem.allocate(50, "b")
        assert mem.live_bytes == 60
        assert "b" not in mem.live_by_tag

    def test_exact_fit_allowed(self):
        mem = MemoryTracker(capacity_bytes=100)
        mem.allocate(100, "a")  # no raise
        assert mem.live_bytes == 100

    def test_oom_is_a_memory_error(self):
        # Callers catching MemoryError must catch the device OOM too.
        assert issubclass(DeviceMemoryError, MemoryError)


class TestScopedAndArrays:
    def test_scoped_releases_on_exit(self):
        mem = MemoryTracker()
        with mem.scoped(64, "tmp"):
            assert mem.live_bytes == 64
        assert mem.live_bytes == 0

    def test_scoped_releases_on_exception(self):
        mem = MemoryTracker()
        with pytest.raises(RuntimeError):
            with mem.scoped(64, "tmp"):
                raise RuntimeError("boom")
        assert mem.live_bytes == 0

    def test_array_allocation(self):
        mem = MemoryTracker()
        arr = mem.array((10, 3), np.float64, "pts")
        assert arr.shape == (10, 3)
        assert mem.live_bytes == arr.nbytes
        mem.free_array(arr, "pts")
        assert mem.live_bytes == 0

    def test_track_existing_array(self):
        mem = MemoryTracker()
        arr = np.ones(16, dtype=np.int64)
        out = mem.track_array(arr, "x")
        assert out is arr
        assert mem.live_bytes == 128


class TestTransientAllocations:
    def test_transient_exempt_from_cap(self):
        mem = MemoryTracker(capacity_bytes=100)
        mem.allocate(90, "persistent")
        # scratch beyond the cap is allowed: it has no device counterpart
        mem.allocate(500, "frontier", transient=True)
        assert mem.live_bytes == 590
        mem.free(500, "frontier")
        assert mem.live_bytes == 90

    def test_transient_still_recorded_in_peaks(self):
        mem = MemoryTracker(capacity_bytes=100)
        mem.allocate(500, "frontier", transient=True)
        mem.free(500, "frontier")
        assert mem.peak_by_tag["frontier"] == 500

    def test_persistent_still_capped(self):
        mem = MemoryTracker(capacity_bytes=100)
        mem.allocate(500, "frontier", transient=True)
        with pytest.raises(DeviceMemoryError):
            mem.allocate(101, "tree")


#: One fit per algorithm on a fresh device; each returns its union-find,
#: border and component-mask bytes to the ledger when it ends.
_LEDGER_X = np.random.default_rng(3).normal(0.0, 0.05, (300, 2))
_LEDGER_FITS = {
    "fdbscan": lambda dev: fdbscan(_LEDGER_X, 0.05, 5, device=dev),
    "densebox": lambda dev: fdbscan_densebox(_LEDGER_X, 0.05, 5, device=dev),
    "minpts_sweep": lambda dev: dbscan_minpts_sweep(_LEDGER_X, 0.05, (3, 5), device=dev),
    "hdbscan": lambda dev: hdbscan(_LEDGER_X, 5, device=dev),
    "dbscan_star_cut": lambda dev: dbscan_star_cut(_LEDGER_X, 0.05, 5, device=dev),
    "cuda-dclust": lambda dev: cuda_dclust(_LEDGER_X, 0.05, 5, device=dev),
    "grid": lambda dev: grid_dbscan(_LEDGER_X, 0.05, 5, device=dev),
    "distributed": lambda dev: distributed_dbscan(_LEDGER_X, 0.05, 5, device=dev),
}


@pytest.mark.parametrize("name", sorted(_LEDGER_FITS))
def test_fit_returns_transient_bytes_to_ledger(name):
    dev = Device()
    _LEDGER_FITS[name](dev)
    for tag in ("labels", "border", "components"):
        assert dev.memory.live_by_tag.get(tag, 0) == 0, tag
    if name == "densebox":
        # The mixed tree and dense cells live for one fit; only the eps
        # binning stays, cached in the index.  They are freed after the
        # fit's high-water mark, so the peak counts them once.
        binning = bin_points(_LEDGER_X, 0.05, device=Device())
        assert dev.memory.live_by_tag["bvh"] == 0
        assert dev.memory.live_by_tag["grid"] == binning.nbytes()
        assert dev.memory.peak_bytes == 91_530
