"""Chaos suite: fuzz the distributed driver with random seeded fault
plans and assert DBSCAN equivalence plus exact seed-replay determinism.

Marked ``chaos`` so CI can run it as its own matrix job over fault
seeds: ``CHAOS_SEED=<base> pytest -m chaos``.  Every plan used here is
derived deterministically from the base seed, so a failing seed is a
complete reproduction recipe.
"""

import os

import numpy as np
import pytest

from repro.baselines.sequential_dbscan import sequential_dbscan
from repro.device.device import Device
from repro.distributed import distributed_dbscan
from repro.faults import FaultPlan, FaultSpec
from repro.metrics.equivalence import assert_dbscan_equivalent

pytestmark = pytest.mark.chaos

#: Base seed for the fuzzed plans; CI sweeps it via the environment.
BASE_SEED = int(os.environ.get("CHAOS_SEED", "0"))


def _dataset(seed: int, n: int = 180) -> np.ndarray:
    rng = np.random.default_rng([seed, 0xDA7A])
    return np.concatenate(
        [
            rng.normal(0.0, 0.12, size=(n // 3, 2)),
            rng.normal([1.0, 1.0], 0.12, size=(n // 3, 2)),
            rng.uniform(-0.5, 1.5, size=(n - 2 * (n // 3), 2)),
        ]
    )


class TestChaosEquivalence:
    @pytest.mark.parametrize("round_", range(6))
    def test_fuzzed_plans_stay_equivalent(self, round_):
        seed = BASE_SEED * 1000 + round_
        X = _dataset(seed)
        plan = FaultPlan.random(seed, intensity=0.25)
        n_ranks = 3 + round_ % 4
        minpts = (2, 5, 1, 8)[round_ % 4]
        dist = distributed_dbscan(X, 0.25, minpts, n_ranks=n_ranks, fault_plan=plan)
        single = sequential_dbscan(X, 0.25, minpts)
        assert_dbscan_equivalent(dist, single, X, 0.25)
        assert len(dist.info["alive_ranks"]) >= 1
        # every dead rank's partitions ended on a surviving executor
        for p, executor in enumerate(dist.info["executor_of_partition"]):
            assert executor in dist.info["alive_ranks"], p

    def test_crash_heavy_plan_still_equivalent(self):
        X = _dataset(BASE_SEED + 17)
        plan = FaultPlan(
            BASE_SEED + 17,
            FaultSpec(p_rank_crash=0.8, p_drop=0.2, p_device_fault=0.3),
        )
        dist = distributed_dbscan(X, 0.25, 5, n_ranks=6, fault_plan=plan)
        assert dist.info["dead_ranks"]  # the storm actually killed ranks
        assert dist.info["recoveries"]
        single = sequential_dbscan(X, 0.25, 5)
        assert_dbscan_equivalent(dist, single, X, 0.25)

    def test_fault_free_plan_changes_nothing(self):
        X = _dataset(BASE_SEED + 29)
        quiet = distributed_dbscan(X, 0.25, 5, n_ranks=4, fault_plan=FaultPlan(0))
        clean = distributed_dbscan(X, 0.25, 5, n_ranks=4)
        np.testing.assert_array_equal(quiet.labels, clean.labels)
        assert quiet.info["fault_log"] == []
        assert quiet.info["comm_retransmits"] == 0


class TestChaosDeterminism:
    def test_seed_replay_is_exact(self):
        """Replaying a seed on a fresh device reproduces the identical
        fault log, retry counts, comm stats, device counters and
        labelling — the acceptance criterion."""
        seed = BASE_SEED + 41
        X = _dataset(seed)

        def run():
            plan = FaultPlan.random(seed, intensity=0.3)
            dev = Device()
            res = distributed_dbscan(X, 0.25, 5, n_ranks=5, device=dev, fault_plan=plan)
            return res, dev.counters.snapshot()

        (a, a_counters), (b, b_counters) = run(), run()
        assert a_counters == b_counters
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.is_core, b.is_core)
        assert a.info["fault_log"] == b.info["fault_log"]
        assert a.info["fault_log"]  # the plan actually injected something
        assert a.info["retries"] == b.info["retries"]
        assert a.info["recoveries"] == b.info["recoveries"]
        assert a.info["comm"] == b.info["comm"]
        assert a.info["sim_wait_seconds"] == b.info["sim_wait_seconds"]

    def test_different_seeds_inject_differently(self):
        X = _dataset(BASE_SEED + 53)
        logs = []
        for offset in range(3):
            plan = FaultPlan.random(BASE_SEED + 53 + offset, intensity=0.3)
            distributed_dbscan(X, 0.25, 5, n_ranks=4, fault_plan=plan)
            logs.append(plan.log_as_dicts())
        assert logs[0] != logs[1] or logs[1] != logs[2]
