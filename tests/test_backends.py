"""Cross-backend execution parity: ``"process"`` must be bit-identical
to ``"serial"``.

The process backend's whole contract is *identical work, different
scheduling*: labels, every work counter (``distance_evals``,
``box_tests``, ``scatter_adds``, ...) and therefore any fingerprint
derived from them must match the serial engine bit for bit across every
scheduling knob — traversal engine, query order, chunk size, pair
buffer.  These tests sweep that grid, then exercise the failure
surface (worker SIGKILL mid-chunk, deadline watchdogs, real OS-process
ranks in the distributed driver) and the trace/epoch handshake that
keeps worker kernel lanes monotone on the parent's timeline.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest

from repro.bvh.aabb import boxes_from_points
from repro.bvh.builder import build_bvh
from repro.bvh.traversal import count_within, for_each_leaf_hit
from repro.core.fdbscan import fdbscan
from repro.device.backends import ProcessBackend, coerce_backend
from repro.device.device import Device, KernelFaultError
from repro.faults.deadline import Deadline, DeadlineExceededError


@pytest.fixture(scope="module")
def pool():
    """One private two-worker pool for the whole module (pools are
    expensive to spawn; the backend is stateless between calls)."""
    bk = ProcessBackend(workers=2)
    yield bk
    bk.close()


def _dataset(n: int = 600, d: int = 2, seed: int = 9) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [
            rng.normal(0.0, 0.15, size=(n // 2, d)),
            rng.normal(1.5, 0.2, size=(n - n // 2 - n // 6, d)),
            rng.uniform(-1.0, 3.0, size=(n // 6, d)),
        ]
    )


def _fingerprint(labels: np.ndarray, counters: dict) -> str:
    h = hashlib.sha256(np.ascontiguousarray(labels, dtype=np.int64).tobytes())
    for key in sorted(counters):
        h.update(f"{key}={counters[key]};".encode())
    return h.hexdigest()


def _run(X, backend=None, **kwargs):
    dev = Device()
    res = fdbscan(X, 0.2, 5, device=dev, backend=backend, **kwargs)
    return res, dev


class TestSchedulingKnobParity:
    @pytest.mark.parametrize("traversal", ["single", "dual"])
    @pytest.mark.parametrize("query_order", ["input", "morton"])
    @pytest.mark.parametrize("chunk_size", [64, 150])
    def test_labels_counters_fingerprints_equal(
        self, pool, traversal, query_order, chunk_size
    ):
        X = _dataset()
        serial, sdev = _run(
            X, traversal=traversal, query_order=query_order, chunk_size=chunk_size
        )
        proc, pdev = _run(
            X,
            backend=pool,
            traversal=traversal,
            query_order=query_order,
            chunk_size=chunk_size,
        )
        assert proc.info["backend"] == "process"
        assert serial.info["backend"] == "serial"
        np.testing.assert_array_equal(serial.labels, proc.labels)
        s_counters = sdev.counters.snapshot()
        p_counters = pdev.counters.snapshot()
        assert s_counters == p_counters
        for key in ("distance_evals", "box_tests", "scatter_adds"):
            assert s_counters[key] == p_counters[key]
        assert _fingerprint(serial.labels, s_counters) == _fingerprint(
            proc.labels, p_counters
        )

    @pytest.mark.parametrize("pair_buffer", [None, 64, 1])
    def test_pair_buffer_parity(self, pool, pair_buffer):
        X = _dataset()
        serial, sdev = _run(X, chunk_size=100, pair_buffer=pair_buffer)
        proc, pdev = _run(X, backend=pool, chunk_size=100, pair_buffer=pair_buffer)
        np.testing.assert_array_equal(serial.labels, proc.labels)
        assert sdev.counters.snapshot() == pdev.counters.snapshot()

    def test_3d_parity(self, pool):
        X = _dataset(d=3)
        serial, sdev = _run(X, chunk_size=128)
        proc, pdev = _run(X, backend=pool, chunk_size=128)
        np.testing.assert_array_equal(serial.labels, proc.labels)
        assert sdev.counters.snapshot() == pdev.counters.snapshot()


class TestAlgorithmParity:
    def test_densebox_parity(self, pool):
        from repro.core.densebox import fdbscan_densebox

        X = _dataset(n=700)
        out = {}
        for name, bk in (("serial", None), ("process", pool)):
            dev = Device()
            res = fdbscan_densebox(
                X, 0.12, 5, device=dev, chunk_size=96, backend=bk
            )
            out[name] = (res.labels, dev.counters.snapshot(), res.info["backend"])
        np.testing.assert_array_equal(out["serial"][0], out["process"][0])
        assert out["serial"][1] == out["process"][1]
        assert out["process"][2] == "process"

    def test_hdbscan_parity(self, pool):
        from repro.hierarchy.hdbscan import hdbscan

        X = _dataset(n=350)
        out = {}
        for name, bk in (("serial", None), ("process", pool)):
            dev = Device()
            res = hdbscan(X, min_cluster_size=8, min_samples=5, device=dev, backend=bk)
            out[name] = (res.labels, dev.counters.snapshot())
        np.testing.assert_array_equal(out["serial"][0], out["process"][0])
        assert out["serial"][1] == out["process"][1]

    def test_device_attached_backend_is_picked_up(self, pool):
        X = _dataset()
        serial, sdev = _run(X, chunk_size=100)
        dev = Device()
        dev.backend = pool
        res = fdbscan(X, 0.2, 5, device=dev, chunk_size=100)
        assert res.info["backend"] == "process"
        np.testing.assert_array_equal(serial.labels, res.labels)
        assert sdev.counters.snapshot() == dev.counters.snapshot()


class TestPerQueryRadii:
    """Per-query radii ride the call arena to the workers; the replayed
    hit stream and every counter must equal the serial engine's."""

    def _case(self):
        X = _dataset()
        radii = np.random.default_rng(4).uniform(0.0, 0.3, X.shape[0])
        radii[::11] = 0.0
        tree = build_bvh(*boxes_from_points(X))
        sorted_pos = np.empty(X.shape[0], dtype=np.int64)
        sorted_pos[tree.order] = np.arange(X.shape[0])
        return X, radii, tree, sorted_pos

    @pytest.mark.parametrize("traversal", ["single", "dual", "auto"])
    def test_leaf_hits_match_serial(self, pool, traversal):
        X, radii, tree, sorted_pos = self._case()
        out = {}
        for name, bk in (("serial", None), ("process", pool)):
            hits = []
            dev = Device()
            for_each_leaf_hit(
                tree, X, radii,
                lambda q, p: hits.append((q.astype(np.int64), p.astype(np.int64))),
                mask_positions=sorted_pos, device=dev, chunk_size=120,
                traversal=traversal, backend=bk,
            )
            out[name] = (
                np.concatenate([h[0] for h in hits]),
                np.concatenate([h[1] for h in hits]),
                dev.counters.snapshot(),
            )
        # the backend replays the serial (chunk, step) sequence exactly
        np.testing.assert_array_equal(out["process"][0], out["serial"][0])
        np.testing.assert_array_equal(out["process"][1], out["serial"][1])
        assert out["process"][2] == out["serial"][2]

    @pytest.mark.parametrize("traversal", ["single", "dual", "auto"])
    def test_counts_match_serial(self, pool, traversal):
        X, radii, tree, _ = self._case()
        out = {}
        for name, bk in (("serial", None), ("process", pool)):
            dev = Device()
            counts = count_within(
                tree, X, radii, stop_at=6, device=dev, chunk_size=120,
                traversal=traversal, backend=bk,
            )
            # all five chunks run in one launch, whatever their engines
            assert dev.profile()["bvh_count"]["launches"] == 1
            out[name] = (counts, dev.counters.snapshot())
        np.testing.assert_array_equal(out["process"][0], out["serial"][0])
        assert out["process"][1] == out["serial"][1]

    def test_knn_radii_match_serial(self, pool):
        from repro.bvh.knn import knn_radii

        X, _, tree, _ = self._case()
        serial = knn_radii(tree, X, 5, chunk_size=120)
        proc = knn_radii(tree, X, 5, chunk_size=120, backend=pool)
        np.testing.assert_array_equal(proc, serial)


class TestCoercion:
    def test_coerce_specs(self, pool):
        assert coerce_backend(None).name == "serial"
        assert coerce_backend("serial").name == "serial"
        assert coerce_backend(pool) is pool
        shared = coerce_backend("process", workers=2)
        assert shared.name == "process"
        # the shared singleton is reused, not respawned per call
        assert coerce_backend("process", workers=2) is shared

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            coerce_backend("gpu")


class TestWorkerFaults:
    def test_worker_death_mid_chunk_raises_typed_then_recovers(self):
        bk = ProcessBackend(workers=1)
        try:
            X = _dataset()
            baseline, sdev = _run(X, chunk_size=100)
            bk._inject_worker_crash()
            with pytest.raises(KernelFaultError):
                _run(X, backend=bk, chunk_size=100)
            # the pool respawns its dead worker on the next dispatch and
            # the rerun is bit-identical to serial
            res, dev = _run(X, backend=bk, chunk_size=100)
            np.testing.assert_array_equal(baseline.labels, res.labels)
            assert sdev.counters.snapshot() == dev.counters.snapshot()
        finally:
            bk.close()

    def test_deadline_watchdog_fires_under_process_backend(self, pool):
        X = _dataset()
        deadline = Deadline(max_checks=1, label="backend-test")
        with pytest.raises(DeadlineExceededError):
            fdbscan(
                X, 0.2, 5, device=Device(), backend=pool,
                chunk_size=100, watchdog=deadline.check,
            )


class TestWorkerLanes:
    def test_worker_lanes_are_monotone_on_parent_timeline(self, pool):
        """Satellite: the per-process ``perf_counter`` epoch handshake
        must land every worker launch at a translated ``t_start`` that is
        monotone within its ``kernel@wN`` lane and non-negative on the
        parent device's clock."""
        dev = Device()
        fdbscan(_dataset(n=900), 0.2, 5, device=dev, backend=pool, chunk_size=64)
        lanes: dict[str, list[float]] = {}
        for rec in dev.launches:
            if "@w" in rec.name:
                lanes.setdefault(rec.name, []).append(rec.t_start)
        assert lanes, "process run recorded no worker lanes"
        for name, starts in lanes.items():
            assert all(t >= 0.0 for t in starts), name
            assert starts == sorted(starts), f"lane {name} not monotone"
        # lane launches carry no self time and no counters: the wrapping
        # parent kernel already accounts both (no double counting)
        for rec in dev.launches:
            if "@w" in rec.name:
                assert rec.self_seconds == 0.0

    def test_profile_keeps_wall_attribution(self, pool):
        dev = Device()
        fdbscan(_dataset(n=900), 0.2, 5, device=dev, backend=pool, chunk_size=64)
        prof = dev.profile()
        assert "fdbscan_main" in prof
        worker = [k for k in prof if "@w" in k]
        assert worker
        # counters live on the wrapping kernels, not the worker lanes
        for k in worker:
            assert not any((prof[k].get("counters") or {}).values())


class TestBenchAB:
    def test_run_once_roundtrip_and_ab_report(self, tmp_path):
        from repro.bench.harness import run_once
        from repro.bench.history import load_records, save_records
        from repro.bench.report import format_backend_ab

        X = _dataset(n=800)
        records = [
            run_once(
                "fdbscan", X, 0.2, 5, dataset="ab",
                tree_kwargs={"chunk_size": 128}, backend=bk, workers=2,
            )
            for bk in ("serial", "process")
        ]
        assert [r.backend for r in records] == ["serial", "process"]
        assert records[0].counters == records[1].counters
        path = tmp_path / "h.json"
        save_records(str(path), records)
        loaded, _ = load_records(str(path))
        assert [r.backend for r in loaded] == ["serial", "process"]
        text = format_backend_ab(loaded)
        assert "equal" in text and "MISMATCH" not in text

    def test_ab_report_strict_raises_on_counter_divergence(self):
        from repro.bench.harness import RunRecord
        from repro.bench.report import format_backend_ab

        kw = dict(algorithm="fdbscan", dataset="x", n=10, eps=0.1, min_samples=5,
                  seconds=1.0, status="ok")
        ser = RunRecord(backend="serial", counters={"distance_evals": 10}, **kw)
        proc = RunRecord(backend="process", counters={"distance_evals": 11}, **kw)
        with pytest.raises(AssertionError, match="distance_evals"):
            format_backend_ab([ser, proc])
        text = format_backend_ab([ser, proc], strict=False)
        assert "MISMATCH" in text

    def test_backend_is_part_of_history_identity(self):
        from repro.bench.harness import RunRecord
        from repro.bench.history import _key

        kw = dict(algorithm="fdbscan", dataset="x", n=10, eps=0.1, min_samples=5)
        assert _key(RunRecord(backend="serial", **kw)) != _key(
            RunRecord(backend="process", **kw)
        )


class TestDistributedProcessRanks:
    def test_clean_run_matches_simulated_ranks(self):
        from repro.distributed import distributed_dbscan

        X = _dataset(n=400)
        sim_dev, proc_dev = Device(), Device()
        sim = distributed_dbscan(X, 0.25, 5, n_ranks=3, device=sim_dev)
        proc = distributed_dbscan(
            X, 0.25, 5, n_ranks=3, device=proc_dev, backend="process"
        )
        np.testing.assert_array_equal(sim.labels, proc.labels)
        assert sim_dev.counters.snapshot() == proc_dev.counters.snapshot()
        assert proc.info["rank_processes"] is True
        assert sim.info["rank_processes"] is False
        assert proc.info["backend"] == "process"
        rank_lanes = [r.name for r in proc_dev.launches if "@r" in r.name]
        assert rank_lanes, "rank kernels were not replayed onto the parent"


@pytest.mark.chaos
class TestDistributedProcessRankChaos:
    BASE_SEED = int(os.environ.get("CHAOS_SEED", "0"))

    @pytest.mark.parametrize("round_", range(2))
    def test_faulted_run_matches_simulated_and_reference(self, round_):
        from repro.baselines.sequential_dbscan import sequential_dbscan
        from repro.distributed import distributed_dbscan
        from repro.faults import FaultPlan, FaultSpec
        from repro.metrics.equivalence import assert_dbscan_equivalent

        seed = self.BASE_SEED * 100 + round_
        X = _dataset(n=300, seed=seed + 1)
        plan = lambda: FaultPlan(seed, FaultSpec.uniform(0.3, crash=0.4))  # noqa: E731
        sim_dev, proc_dev = Device(), Device()
        sim = distributed_dbscan(
            X, 0.25, 5, n_ranks=4, device=sim_dev, fault_plan=plan()
        )
        proc = distributed_dbscan(
            X, 0.25, 5, n_ranks=4, device=proc_dev, fault_plan=plan(),
            backend="process",
        )
        # real SIGKILLed rank processes recover to the simulated run's
        # exact output: same labels, same fault log, same counters
        np.testing.assert_array_equal(sim.labels, proc.labels)
        assert [f["kind"] for f in sim.info["fault_log"]] == [
            f["kind"] for f in proc.info["fault_log"]
        ]
        assert sim.info["faults"] == proc.info["faults"]
        assert sim.info["dead_ranks"] == proc.info["dead_ranks"]
        assert sim_dev.counters.snapshot() == proc_dev.counters.snapshot()
        assert_dbscan_equivalent(proc, sequential_dbscan(X, 0.25, 5), X, 0.25)
