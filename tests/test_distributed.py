"""Tests for the distributed extension: RCB partitioning, ghost halos,
the simulated communicator and the three-phase driver."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.sequential_dbscan import sequential_dbscan
from repro.device.device import Device
from repro.device.memory import DeviceMemoryError
from repro.distributed import (
    SimulatedComm,
    distributed_dbscan,
    rcb_partition,
    select_ghosts,
)
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.metrics.equivalence import assert_dbscan_equivalent
from repro.obs.span import Tracer


class TestRcbPartition:
    def test_every_point_assigned_once(self, blobs_2d):
        part = rcb_partition(blobs_2d, 4)
        assert part.rank_of_point.shape == (blobs_2d.shape[0],)
        assert part.counts().sum() == blobs_2d.shape[0]

    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 5, 8])
    def test_balance(self, blobs_2d, n_ranks):
        part = rcb_partition(blobs_2d, n_ranks)
        counts = part.counts()
        assert counts.min() >= 0.5 * blobs_2d.shape[0] / n_ranks

    def test_points_inside_their_boxes(self, blobs_2d):
        part = rcb_partition(blobs_2d, 6)
        for r in range(6):
            pts = blobs_2d[part.owned(r)]
            assert (pts >= part.box_lo[r] - 1e-9).all()
            assert (pts <= part.box_hi[r] + 1e-9).all()

    def test_boxes_tile_the_domain(self, blobs_2d):
        # total volume of rank boxes equals the root box volume
        part = rcb_partition(blobs_2d, 8)
        volumes = np.prod(part.box_hi - part.box_lo, axis=1)
        root = np.prod(blobs_2d.max(0) - blobs_2d.min(0))
        assert volumes.sum() == pytest.approx(root)

    def test_single_rank(self, blobs_2d):
        part = rcb_partition(blobs_2d, 1)
        assert (part.rank_of_point == 0).all()

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="n_ranks"):
            rcb_partition(np.zeros((3, 2)), 0)
        with pytest.raises(ValueError, match="non-empty"):
            rcb_partition(np.zeros((0, 2)), 2)

    def test_duplicate_points_split_cleanly(self):
        X = np.ones((40, 2))
        part = rcb_partition(X, 4)
        assert part.counts().sum() == 40


class TestGhosts:
    def test_ghosts_are_remote(self, blobs_2d):
        part = rcb_partition(blobs_2d, 4)
        halo = select_ghosts(blobs_2d, part, 0.3)
        for r in range(4):
            assert not np.any(part.rank_of_point[halo.ghosts[r]] == r)

    def test_ghosts_cover_owned_neighborhoods(self, blobs_2d):
        # every eps-neighbour of an owned point is local (owned or ghost)
        eps = 0.3
        part = rcb_partition(blobs_2d, 4)
        halo = select_ghosts(blobs_2d, part, eps)
        diff = blobs_2d[:, None] - blobs_2d[None, :]
        adj = np.einsum("ijk,ijk->ij", diff, diff) <= eps * eps
        for r in range(4):
            local = set(part.owned(r).tolist()) | set(halo.ghosts[r].tolist())
            for i in part.owned(r):
                for j in np.flatnonzero(adj[i]):
                    assert int(j) in local

    def test_zero_eps_minimal_halo(self, blobs_2d):
        part = rcb_partition(blobs_2d, 4)
        halo = select_ghosts(blobs_2d, part, 1e-12)
        # essentially only points on the cut planes
        assert halo.total_ghosts() < blobs_2d.shape[0] / 4

    def test_halo_grows_with_eps(self, blobs_2d):
        part = rcb_partition(blobs_2d, 4)
        small = select_ghosts(blobs_2d, part, 0.05).total_ghosts()
        big = select_ghosts(blobs_2d, part, 1.0).total_ghosts()
        assert big > small

    def test_invalid_eps(self, blobs_2d):
        part = rcb_partition(blobs_2d, 2)
        with pytest.raises(ValueError, match="eps"):
            select_ghosts(blobs_2d, part, -1.0)


class TestComm:
    def test_accounting(self):
        comm = SimulatedComm(3)
        comm.exchange("ghosts", [np.zeros(10), np.zeros(5), np.zeros(0)])
        assert comm.stats.messages == 3
        assert comm.stats.bytes_sent == 15 * 8
        assert comm.stats.by_phase["ghosts"]["messages"] == 3
        assert comm.stats.by_phase["ghosts"]["bytes"] == 15 * 8
        assert comm.stats.by_phase["ghosts"]["retransmits"] == 0

    def test_payload_count_checked(self):
        comm = SimulatedComm(2)
        with pytest.raises(ValueError, match="payloads"):
            comm.exchange("x", [np.zeros(1)])

    def test_invalid_ranks(self):
        with pytest.raises(ValueError, match="n_ranks"):
            SimulatedComm(0)


class TestDriver:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4, 7])
    @pytest.mark.parametrize("minpts", [2, 5])
    def test_equivalent_to_single_device(self, blobs_2d, n_ranks, minpts):
        dist = distributed_dbscan(blobs_2d, 0.3, minpts, n_ranks=n_ranks)
        single = sequential_dbscan(blobs_2d, 0.3, minpts)
        assert_dbscan_equivalent(dist, single, blobs_2d, 0.3)

    def test_3d(self, blobs_3d):
        dist = distributed_dbscan(blobs_3d, 0.5, 5, n_ranks=5)
        single = sequential_dbscan(blobs_3d, 0.5, 5)
        assert_dbscan_equivalent(dist, single, blobs_3d, 0.5)

    def test_minpts_1(self, blobs_2d):
        dist = distributed_dbscan(blobs_2d, 0.2, 1, n_ranks=3)
        single = sequential_dbscan(blobs_2d, 0.2, 1)
        assert_dbscan_equivalent(dist, single, blobs_2d, 0.2)

    def test_cluster_spanning_all_ranks(self):
        # A single filament crossing every cut: clusters must merge across
        # every rank boundary.
        t = np.linspace(0, 10, 400)
        X = np.column_stack([t, np.zeros_like(t)])
        dist = distributed_dbscan(X, 0.1, 3, n_ranks=6)
        assert dist.n_clusters == 1

    def test_border_on_rank_boundary_no_bridging(self):
        # Two clusters separated across a cut with a shared border point in
        # the middle: they must not merge through it, on any rank count.
        left = np.column_stack([np.linspace(0.0, 0.4, 50), np.zeros(50)])
        right = np.column_stack([np.linspace(1.0, 1.4, 50), np.zeros(50)])
        bridge = np.array([[0.7, 0.0]])
        X = np.concatenate([left, right, bridge])
        for n_ranks in (1, 2, 4):
            res = distributed_dbscan(X, 0.32, 10, n_ranks=n_ranks)
            assert res.n_clusters == 2, n_ranks
            assert res.labels[-1] >= 0  # the border point joined one side
            single = sequential_dbscan(X, 0.32, 10)
            assert_dbscan_equivalent(res, single, X, 0.32)

    def test_info_reports_decomposition_and_comm(self, blobs_2d):
        res = distributed_dbscan(blobs_2d, 0.3, 5, n_ranks=4)
        assert len(res.info["owned_per_rank"]) == 4
        assert len(res.info["ghosts_per_rank"]) == 4
        assert res.info["comm_bytes"] > 0
        assert set(res.info["comm_by_phase"]) >= {"ghosts", "merge_core_groups"}

    def test_comm_volume_grows_with_eps(self, blobs_2d):
        small = distributed_dbscan(blobs_2d, 0.05, 5, n_ranks=4)
        big = distributed_dbscan(blobs_2d, 1.0, 5, n_ranks=4)
        assert (
            big.info["comm_by_phase"]["ghosts"]["bytes"]
            > small.info["comm_by_phase"]["ghosts"]["bytes"]
        )

    @pytest.mark.parametrize("minpts", [1, 2, 5])
    def test_more_ranks_than_points(self, minpts):
        # rcb_partition emits empty ranks when n_ranks >= n; the driver must
        # not attempt a degenerate BVH build on a zero-owned rank.
        rng = np.random.default_rng(11)
        X = rng.normal(size=(5, 2))
        dist = distributed_dbscan(X, 0.8, minpts, n_ranks=8)
        single = sequential_dbscan(X, 0.8, minpts)
        assert_dbscan_equivalent(dist, single, X, 0.8)
        assert sum(dist.info["owned_per_rank"]) == 5
        assert 0 in dist.info["owned_per_rank"]

    def test_heavily_duplicated_coordinates(self):
        # All-identical coordinates make every RCB split degenerate: most
        # ranks own zero points and every survivor sees the full pile.
        X = np.ones((40, 2))
        for n_ranks in (4, 16):
            dist = distributed_dbscan(X, 0.1, 5, n_ranks=n_ranks)
            single = sequential_dbscan(X, 0.1, 5)
            assert_dbscan_equivalent(dist, single, X, 0.1)
            assert dist.n_clusters == 1
            assert sum(dist.info["owned_per_rank"]) == 40

    @given(st.integers(0, 5000), st.integers(1, 6), st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_equivalence_property(self, seed, n_ranks, minpts):
        rng = np.random.default_rng(seed)
        X = np.concatenate(
            [
                rng.normal(0, 0.1, size=(rng.integers(10, 80), 2)),
                rng.uniform(-1, 2, size=(rng.integers(10, 80), 2)),
            ]
        )
        dist = distributed_dbscan(X, 0.25, minpts, n_ranks=n_ranks)
        single = sequential_dbscan(X, 0.25, minpts)
        assert_dbscan_equivalent(dist, single, X, 0.25)


class TestDeviceFaultRecovery:
    """A ``DeviceMemoryError`` raised from *inside* a rank's local phase is
    a recoverable (retryable) failure, not a run-ending one."""

    @staticmethod
    def _oom_once_hook(device, fail_times=1):
        state = {"left": fail_times, "fired": 0}

        def hook(kernel_name):
            if state["left"] > 0:
                state["left"] -= 1
                state["fired"] += 1
                raise DeviceMemoryError(
                    0, device.memory.live_bytes, 0, tag="fault-injection"
                )

        device.fault_hook = hook
        return state

    def test_oom_inside_local_phase_is_retried(self, blobs_2d):
        device = Device(name="flaky")
        state = self._oom_once_hook(device)
        dist = distributed_dbscan(blobs_2d, 0.3, 5, n_ranks=4, device=device)
        assert state["fired"] == 1
        assert sum(dist.info["retries"].values()) == 1
        single = sequential_dbscan(blobs_2d, 0.3, 5)
        assert_dbscan_equivalent(dist, single, blobs_2d, 0.3)

    def test_oom_beyond_retry_budget_propagates(self, blobs_2d):
        device = Device(name="dead")
        self._oom_once_hook(device, fail_times=100)
        with pytest.raises(DeviceMemoryError):
            distributed_dbscan(
                blobs_2d, 0.3, 5, n_ranks=2, device=device,
                retry_policy=RetryPolicy(max_attempts=3),
            )

    def test_retry_policy_budget_respected(self, blobs_2d):
        # exactly max_attempts - 1 failures still succeed
        device = Device(name="flaky")
        state = self._oom_once_hook(device, fail_times=2)
        dist = distributed_dbscan(
            blobs_2d, 0.3, 5, n_ranks=2, device=device,
            retry_policy=RetryPolicy(max_attempts=3),
        )
        assert state["fired"] == 2
        assert sum(dist.info["retries"].values()) == 2
        single = sequential_dbscan(blobs_2d, 0.3, 5)
        assert_dbscan_equivalent(dist, single, blobs_2d, 0.3)


class TestRecoveryRebuild:
    """A partition whose rank dies at ``pre_main`` is rebuilt on a survivor
    with its core flags read from the replicated checkpoint, so its
    ``recover_local[p]`` span holds the BVH build but no neighbour count."""

    def test_pre_main_rebuild_skips_the_count(self, blobs_2d):
        clean = distributed_dbscan(blobs_2d, 0.3, 5, n_ranks=4)
        tracer = Tracer()
        plan = FaultPlan(0, FaultSpec(p_rank_crash=0.3))
        res = distributed_dbscan(
            blobs_2d, 0.3, 5, n_ranks=4, fault_plan=plan, tracer=tracer
        )
        assert {f["phase"] for f in res.info["fault_log"]} == {"pre_main"}
        np.testing.assert_array_equal(res.labels, clean.labels)
        np.testing.assert_array_equal(res.is_core, clean.is_core)

        children: dict[str, list] = {}
        for span in tracer.spans:
            children.setdefault(span.parent_id, []).append(span)

        def kernels_under(span):
            out = []
            for child in children.get(span.span_id, []):
                if child.category == "kernel":
                    out.append(child.name)
                out += kernels_under(child)
            return out

        rebuilds = [s for s in tracer.spans if s.name.startswith("recover_local[")]
        assert len(rebuilds) == len(res.info["recoveries"]) > 0
        for span in rebuilds:
            kernels = kernels_under(span)
            assert kernels, span.name  # the BVH was rebuilt here
            assert "bvh_count" not in kernels, span.name


class TestExample:
    def test_distributed_clustering_example_runs(self):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, str(root / "examples" / "distributed_clustering.py"),
             "2000", "2"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "merge_core_groups" in proc.stdout
