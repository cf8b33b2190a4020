"""Tests for kernel counters and the Device handle."""

import time

import numpy as np
import pytest

from repro.device.counters import KernelCounters
from repro.device.device import Device, default_device, get_default_device


class TestKernelCounters:
    def test_add_known_field(self):
        c = KernelCounters()
        c.add("distance_evals", 5)
        c.add("distance_evals")
        assert c.distance_evals == 6

    def test_add_adhoc_counter(self):
        c = KernelCounters()
        c.add("box_tests", 3)
        assert c.extra["box_tests"] == 3
        c.add("box_tests", 2)
        assert c.extra["box_tests"] == 5

    def test_observe_peak(self):
        c = KernelCounters()
        c.observe_peak("frontier_peak", 10)
        c.observe_peak("frontier_peak", 4)
        assert c.frontier_peak == 10

    def test_snapshot_and_diff(self):
        c = KernelCounters()
        c.add("union_ops", 2)
        before = c.snapshot()
        c.add("union_ops", 5)
        c.observe_peak("frontier_peak", 7)
        delta = c.diff(before)
        assert delta["union_ops"] == 5
        # high-watermark reported as current value, not a delta
        assert delta["frontier_peak"] == 7

    def test_reset(self):
        c = KernelCounters()
        c.add("find_steps", 3)
        c.add("custom", 1)
        c.reset()
        assert c.find_steps == 0
        assert c.extra == {}


class TestDevice:
    def test_kernel_records_launch(self):
        dev = Device()
        with dev.kernel("k1", threads=128) as launch:
            launch.steps = 4
            time.sleep(0.001)
        assert dev.counters.kernel_launches == 1
        assert dev.counters.thread_steps == 4
        assert dev.launches[0].name == "k1"
        assert dev.launches[0].threads == 128
        assert dev.launches[0].seconds > 0

    def test_phase_seconds_accumulates_by_name(self):
        dev = Device()
        with dev.kernel("a", 1):
            pass
        with dev.kernel("a", 1):
            pass
        with dev.kernel("b", 1):
            pass
        phases = dev.phase_seconds()
        assert set(phases) == {"a", "b"}

    def test_launch_recorded_even_on_exception(self):
        dev = Device()
        try:
            with dev.kernel("boom", 1):
                raise RuntimeError()
        except RuntimeError:
            pass
        assert len(dev.launches) == 1

    @pytest.mark.parametrize("chunk_size", [0, -1, 8.0, 0.5, True, False, "64"])
    def test_bad_chunk_size_raises(self, chunk_size):
        with pytest.raises(ValueError, match="chunk_size"):
            Device(chunk_size=chunk_size)

    def test_chunk_size_accepts_positive_int_or_none(self):
        assert Device().chunk_size == 8192
        assert Device(chunk_size=None).chunk_size is None
        assert Device(chunk_size=np.int64(7)).chunk_size == 7

    def test_capacity_forwarded(self):
        dev = Device(capacity_bytes=123)
        assert dev.memory.capacity_bytes == 123

    def test_reset_clears_everything(self):
        dev = Device()
        with dev.kernel("x", 1):
            dev.counters.add("union_ops", 1)
            dev.memory.allocate(10, "t")
        dev.reset()
        assert dev.counters.union_ops == 0
        assert dev.memory.live_bytes == 0
        assert len(dev.launches) == 0
        assert dev.launches_total == 0

    def test_report_shape(self):
        dev = Device(name="gpu-x")
        report = dev.report()
        assert report["device"] == "gpu-x"
        assert {"counters", "memory", "kernels"} <= set(report)

    def test_default_device_resolution(self):
        assert default_device(None) is get_default_device()
        dev = Device()
        assert default_device(dev) is dev
