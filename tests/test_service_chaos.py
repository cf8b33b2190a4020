"""Chaos suite for the clustering service: seeded service fault plans
through the whole request loop.

Marked ``chaos`` so CI runs it as its own matrix job over fault seeds
(``CHAOS_SEED=<seed> pytest -m chaos``).  One plan mixes malformed and
oversized requests, deadline storms, injected kernel faults and one
mid-stream crash-restart; the loop must yield

- **zero unhandled exceptions** — every response is a status, never a
  traceback;
- **correct-or-explicitly-degraded** responses per the ladder: an
  ``ok`` cluster answer is DBSCAN-equivalent to a fresh run on the same
  live points, a degraded one *names* its rung, a shed one carries
  ``Retry-After``, and errors carry typed codes;
- **bit-equal fingerprints** after the crash: the restarted service's
  journal replay reproduces the exact pre-crash index state.
"""

import os

import numpy as np
import pytest

from repro.core.fdbscan import fdbscan
from repro.core.labels import DBSCANResult
from repro.faults import FaultPlan, FaultSpec
from repro.metrics.equivalence import assert_dbscan_equivalent
from repro.service import ClusteringService
from repro.service.traffic import run_traffic

pytestmark = pytest.mark.chaos

#: Base seed for the plans; CI sweeps it via the environment.
BASE_SEED = int(os.environ.get("CHAOS_SEED", "0"))

_EXPECTED_STATUSES = {"ok", "degraded", "shed", "rejected", "error"}
_EXPECTED_ERROR_CODES = {
    "malformed", "oversized", "protocol", "not_found", "conflict",
    "deadline_exceeded", "kernel_fault", "invalid",
}
_EXPECTED_MODES = {
    None, "cached", "cache_miss_count_only", "count_only",
    "ladder", "backpressure", "breaker_open",
}


def _service_plan(seed: int) -> FaultPlan:
    spec = FaultSpec(
        p_device_fault=0.12,
        p_malformed=0.1,
        p_oversized=0.05,
        p_deadline_storm=0.08,
        p_invalidate=0.08,
        p_service_crash=0.04,
        fault_attempts=2,
    )
    return FaultPlan(seed, spec)


class TestServiceChaos:
    @pytest.mark.parametrize("round_", range(3))
    def test_seeded_storm_correct_or_explicitly_degraded(self, tmp_path, round_):
        seed = BASE_SEED * 1000 + round_
        journal = str(tmp_path / f"svc-{seed}.jsonl")
        # run_traffic handles the crash-restart internally; any unhandled
        # exception anywhere in the loop fails this test by propagating.
        report = run_traffic(
            n_requests=90,
            seed=seed,
            plan=_service_plan(seed),
            journal_path=journal,
            index_points=120,
        )
        # every request on the wire got a response with a known status
        # (a crash resets the ledger, so count from the wire records)
        assert len(report["records"]) == report["requests_sent"]
        assert {r["status"] for r in report["records"]} <= _EXPECTED_STATUSES
        # the final instance's ledger is internally consistent too
        assert sum(report["by_status"].values()) == report["requests"]
        assert set(report["by_status"]) <= _EXPECTED_STATUSES
        service = report["service"]
        for row in service.ledger:
            assert row["status"] in _EXPECTED_STATUSES
            assert row["mode"] in _EXPECTED_MODES
            if row["error_code"] is not None:
                assert row["error_code"] in _EXPECTED_ERROR_CODES
        # crash-restarts replayed to bit-equal fingerprints
        for restart in report["restarts"]:
            assert restart["bit_equal"], restart
        # the metrics totals equal the ledger (raises on mismatch)
        assert report["metrics_ledger"]["ok"]

    @pytest.mark.parametrize("round_", range(2))
    def test_ok_answers_are_dbscan_equivalent_under_faults(self, round_):
        seed = BASE_SEED * 1000 + 500 + round_
        rng = np.random.default_rng([seed, 0xC0DE])
        X = rng.random((200, 2))
        plan = FaultPlan(seed, FaultSpec(p_device_fault=0.35, fault_attempts=2))
        svc = ClusteringService(fault_plan=plan)
        svc.handle({"op": "create_index", "index": "a", "points": X.tolist()})
        ref = fdbscan(X, 0.08, 5)
        saw_ok = False
        for _ in range(8):
            r = svc.handle(
                {"op": "cluster", "index": "a", "eps": 0.08, "min_samples": 5}
            )
            if r["status"] == "ok":
                saw_ok = True
                got = DBSCANResult(
                    labels=np.asarray(r["result"]["labels"], dtype=np.int64),
                    is_core=np.asarray(r["result"]["is_core"], dtype=bool),
                    n_clusters=int(r["result"]["n_clusters"]),
                )
                assert_dbscan_equivalent(got, ref, X, 0.08)
            elif r["status"] == "shed":
                assert r["retry_after"] > 0
                svc.clock.sleep(r["retry_after"])
            else:
                assert r["error"]["code"] in _EXPECTED_ERROR_CODES
        assert saw_ok  # retries + breaker recovery must let some through

    def test_traversal_field_is_ignored(self):
        # An old client's engine preference is accepted and ignored:
        # status ok, full rung, labels bit-equal to the plain request's.
        seed = BASE_SEED * 1000 + 900
        X = np.random.default_rng([seed, 0x51E]).random((180, 2))
        plain = ClusteringService()
        plain.handle({"op": "create_index", "index": "a", "points": X.tolist()})
        r_plain = plain.handle(
            {"op": "cluster", "index": "a", "eps": 0.07, "min_samples": 4}
        )
        svc = ClusteringService()
        svc.handle({"op": "create_index", "index": "a", "points": X.tolist()})
        r_dual = svc.handle(
            {"op": "cluster", "index": "a", "eps": 0.07, "min_samples": 4,
             "traversal": "dual"}
        )
        assert r_plain["status"] == "ok" and r_plain.get("mode") is None
        assert r_dual["status"] == "ok" and r_dual.get("mode") is None
        assert r_plain["result"]["labels"] == r_dual["result"]["labels"]
        assert r_plain["result"]["is_core"] == r_dual["result"]["is_core"]

    def test_deadline_storm_kills_requests_not_the_service(self):
        seed = BASE_SEED * 1000 + 901
        X = np.random.default_rng([seed, 0xDEAD]).random((300, 2))
        svc = ClusteringService()
        svc.handle({"op": "create_index", "index": "a", "points": X.tolist()})
        for checks in (1, 2, 3, 5, 8):
            r = svc.handle(
                {"op": "cluster", "index": "a", "eps": 0.06, "min_samples": 5,
                 "deadline_checks": checks}
            )
            assert r["status"] == "error"
            assert r["error"]["code"] == "deadline_exceeded"
        # the index is unharmed: a storm is the clients' problem
        assert svc.breakers["a"].state == "closed"
        r = svc.handle({"op": "cluster", "index": "a", "eps": 0.06, "min_samples": 5})
        assert r["status"] == "ok"
        assert svc.verify_metrics_ledger()["ok"]

    def test_same_seed_same_shed_and_degrade_counts(self, tmp_path):
        seed = BASE_SEED * 1000 + 902
        reports = []
        for run in range(2):
            journal = str(tmp_path / f"svc-{run}.jsonl")
            reports.append(
                run_traffic(
                    n_requests=60,
                    seed=seed,
                    plan=_service_plan(seed),
                    journal_path=journal,
                    index_points=100,
                )
            )
        a, b = reports
        # wall latency differs run to run; the decisions must not
        assert a["by_status"] == b["by_status"]
        assert a["shed_reasons"] == b["shed_reasons"]
        assert a["degraded_modes"] == b["degraded_modes"]
        assert a["faults_applied"] == b["faults_applied"]
        assert [r["label"] for r in a["records"]] == [r["label"] for r in b["records"]]
        assert [r["status"] for r in a["records"]] == [r["status"] for r in b["records"]]
