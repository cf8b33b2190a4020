"""Unit tests for the resilient clustering service (`repro.service`).

Covers the pieces in isolation — protocol parsing, admission control,
circuit breaker, degradation ladder, journal — and the assembled
:class:`ClusteringService` loop: deadlines, breakers over injected
kernel faults, crash-replay fingerprints, and the metrics/ledger
equality proof.
"""

import json
import os

import numpy as np
import pytest

from repro.core.fdbscan import fdbscan
from repro.faults import FaultPlan, FaultSpec, SimClock
from repro.metrics.equivalence import partitions_equal
from repro.service import (
    AdmissionController,
    CircuitBreaker,
    ClusteringService,
    DegradationLadder,
    Journal,
    JournalCorruptError,
    MalformedRequestError,
    OversizedRequestError,
    ServiceConfig,
    parse_request,
)
from repro.service.protocol import ProtocolError


def _points(seed=0, n=200):
    return np.random.default_rng(seed).random((n, 2))


def _same_partition(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    mask = np.ones(a.shape[0], dtype=bool)
    return partitions_equal(a, b, mask) and np.array_equal(a == -1, b == -1)


class TestProtocol:
    def test_parses_cluster_request(self):
        req = parse_request(
            '{"op": "cluster", "id": "x", "index": "a", "eps": 0.1, "min_samples": 5}'
        )
        assert req.op == "cluster" and req.eps == 0.1 and req.min_samples == 5

    def test_not_json_is_malformed(self):
        with pytest.raises(MalformedRequestError):
            parse_request("{truncated")

    def test_non_object_is_malformed(self):
        with pytest.raises(MalformedRequestError):
            parse_request("[1, 2, 3]")

    def test_oversized_body_refused_before_parsing(self):
        big = '{"op": "ping", "pad": "' + "x" * 2048 + '"}'
        with pytest.raises(OversizedRequestError):
            parse_request(big, max_request_bytes=1024)

    def test_too_many_points_is_oversized(self):
        req = {"op": "create_index", "index": "a", "points": [[0.0, 0.0]] * 11}
        with pytest.raises(OversizedRequestError):
            parse_request(req, max_points=10)

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="'op' must be one of"):
            parse_request({"op": "launch_missiles"})

    def test_missing_params_rejected(self):
        with pytest.raises(ProtocolError):
            parse_request({"op": "cluster", "index": "a"})  # no eps/minpts

    def test_nonfinite_points_rejected(self):
        req = {"op": "create_index", "index": "a", "points": [[0.0, float("nan")]]}
        with pytest.raises(ProtocolError):
            parse_request(req)


class TestAdmission:
    def test_admits_until_backlog_full_then_sheds_with_retry_after(self):
        clock = SimClock()
        adm = AdmissionController(clock, max_backlog=1.0, max_queue=100)
        assert adm.offer(0.6).admitted
        assert adm.offer(0.3).admitted
        refused = adm.offer(0.5)
        assert not refused.admitted
        assert refused.retry_after > 0

    def test_backlog_drains_with_virtual_time(self):
        clock = SimClock()
        adm = AdmissionController(clock, max_backlog=1.0, max_queue=100)
        adm.offer(0.9)
        assert not adm.offer(0.9).admitted
        clock.sleep(1.0)
        assert adm.offer(0.9).admitted

    def test_queue_depth_bound(self):
        clock = SimClock()
        adm = AdmissionController(clock, max_backlog=1e9, max_queue=3)
        for _ in range(3):
            assert adm.offer(1e-6).admitted
        assert not adm.offer(1e-6).admitted


class TestBreaker:
    def test_trips_after_consecutive_failures_and_recovers_half_open(self):
        clock = SimClock()
        b = CircuitBreaker(clock, failure_threshold=3, cooldown=5.0)
        for _ in range(3):
            assert b.allow()[0]
            b.record_failure()
        allowed, retry_after = b.allow()
        assert not allowed and retry_after == pytest.approx(5.0)
        clock.sleep(5.0)
        # half-open: exactly one probe
        assert b.allow()[0]
        assert not b.allow()[0]
        b.record_success()
        assert b.state == "closed"

    def test_half_open_failure_reopens(self):
        clock = SimClock()
        b = CircuitBreaker(clock, failure_threshold=1, cooldown=2.0)
        b.record_failure()
        assert b.state == "open"
        clock.sleep(2.0)
        assert b.allow()[0]
        b.record_failure()
        assert b.state == "open" and b.trips == 2

    def test_success_resets_failure_streak(self):
        b = CircuitBreaker(SimClock(), failure_threshold=2)
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state == "closed"


class TestLadder:
    def test_rungs_by_pressure(self):
        ladder = DegradationLadder((0.6, 0.8, 0.95))
        assert ladder.rung(0.0) == "full"
        assert ladder.rung(0.5) == "full"
        assert ladder.rung(0.7) == "cached"
        assert ladder.rung(0.9) == "count_only"
        assert ladder.rung(0.99) == "shed"
        assert ladder.rung(5.0) == "shed"

    def test_thresholds_validated(self):
        with pytest.raises(ValueError):
            DegradationLadder((0.9, 0.5, 0.3))
        with pytest.raises(ValueError):
            DegradationLadder((0.5,))


class TestJournal:
    def test_append_and_reload(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        j = Journal(path)
        j.append({"seq": 1, "op": "insert"})
        j.append({"seq": 2, "op": "delete"})
        reloaded = Journal(path)
        assert [e["seq"] for e in reloaded.entries()] == [1, 2]

    def test_torn_tail_dropped_not_fatal(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        j = Journal(path)
        j.append({"seq": 1})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seq": 2, "op": "ins')  # crash mid-append
        reloaded = Journal(path)
        assert len(reloaded) == 1 and reloaded.dropped_tail

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"seq": 1}\ngarbage\n{"seq": 3}\n')
        with pytest.raises(JournalCorruptError):
            Journal(path)


class TestServiceLoop:
    def test_create_cluster_matches_direct_fdbscan(self):
        svc = ClusteringService()
        X = _points(1)
        r = svc.handle({"op": "create_index", "index": "a", "points": X.tolist()})
        assert r["status"] == "ok"
        r = svc.handle({"op": "cluster", "index": "a", "eps": 0.08, "min_samples": 5})
        assert r["status"] == "ok"
        ref = fdbscan(X, 0.08, 5)
        assert _same_partition(r["result"]["labels"], ref.labels)
        assert r["result"]["n_clusters"] == ref.n_clusters

    def test_handle_never_raises(self):
        svc = ClusteringService()
        for raw in (
            "not json",
            b"\xff\xfe",
            '{"op": "nope"}',
            {"op": "cluster", "index": "missing", "eps": 0.1, "min_samples": 2},
            {"op": "knn", "index": "missing", "k": 3},
            {"op": "delete", "index": "missing", "ids": [1]},
            12345,
            None,
        ):
            response = svc.handle(raw)
            assert response["status"] in ("rejected", "error")
        assert svc.verify_metrics_ledger()["ok"]

    def test_deadline_exceeded_is_typed_and_not_a_breaker_failure(self):
        svc = ClusteringService()
        svc.handle({"op": "create_index", "index": "a", "points": _points().tolist()})
        r = svc.handle(
            {"op": "cluster", "index": "a", "eps": 0.08, "min_samples": 5,
             "deadline_checks": 1}
        )
        assert r["status"] == "error"
        assert r["error"]["code"] == "deadline_exceeded"
        assert svc.breakers["a"].consecutive_failures == 0

    def test_watchdog_disarmed_after_every_request(self):
        svc = ClusteringService()
        svc.handle({"op": "create_index", "index": "a", "points": _points().tolist()})
        cluster = {"op": "cluster", "index": "a", "eps": 0.08, "min_samples": 5}

        def after(request, fault_plan, status, code):
            svc.fault_plan = fault_plan
            r = svc.handle(request)
            assert (r["status"], r.get("error", {}).get("code")) == (status, code)
            assert svc.device.watchdog is None
            svc.fault_plan = None
            assert svc.handle(cluster)["status"] == "ok"
            assert svc.device.watchdog is None

        after({**cluster, "deadline_checks": 0}, None, "error", "deadline_exceeded")
        faults = FaultPlan(0, FaultSpec(p_device_fault=1.0, fault_attempts=99))
        after(cluster, faults, "error", "kernel_fault")
        after(cluster, None, "ok", None)

    def test_kernel_faults_trip_breaker_then_half_open_recovers(self):
        plan = FaultPlan(0, FaultSpec(p_device_fault=1.0, fault_attempts=99))
        svc = ClusteringService(fault_plan=plan)
        svc.handle({"op": "create_index", "index": "a", "points": _points().tolist()})
        statuses = []
        for _ in range(5):
            r = svc.handle(
                {"op": "cluster", "index": "a", "eps": 0.08, "min_samples": 5}
            )
            statuses.append((r["status"], r.get("error", {}).get("code"), r.get("mode")))
        assert statuses[:3] == [("error", "kernel_fault", None)] * 3
        assert statuses[3][0] == "shed" and statuses[3][2] == "breaker_open"
        # cooldown passes -> half-open probe; faults stop -> recovery
        svc.fault_plan = None
        svc.clock.sleep(svc.config.breaker_cooldown)
        r = svc.handle({"op": "cluster", "index": "a", "eps": 0.08, "min_samples": 5})
        assert r["status"] == "ok"
        assert svc.breakers["a"].state == "closed"

    def test_insert_delete_roundtrip_and_fingerprint_changes(self):
        svc = ClusteringService()
        svc.handle({"op": "create_index", "index": "a", "points": _points().tolist()})
        fp0 = svc.indexes["a"].fingerprint()
        r = svc.handle(
            {"op": "insert", "index": "a", "points": [[0.5, 0.5], [0.6, 0.6]]}
        )
        assert r["status"] == "ok" and len(r["result"]["ids"]) == 2
        assert svc.indexes["a"].fingerprint() != fp0
        r = svc.handle({"op": "delete", "index": "a", "ids": r["result"]["ids"]})
        assert r["status"] == "ok" and r["result"]["deleted"] == 2
        assert svc.indexes["a"].fingerprint() == fp0

    def test_unknown_delete_ids_are_invalid_not_fatal(self):
        svc = ClusteringService()
        svc.handle({"op": "create_index", "index": "a", "points": _points().tolist()})
        r = svc.handle({"op": "delete", "index": "a", "ids": [99999]})
        assert r["status"] == "error" and r["error"]["code"] == "invalid"

    def test_journal_replay_restores_exact_fingerprints(self, tmp_path):
        path = str(tmp_path / "svc.jsonl")
        svc = ClusteringService(journal_path=path)
        svc.handle({"op": "create_index", "index": "a", "points": _points(2).tolist()})
        svc.handle({"op": "insert", "index": "a", "points": [[0.1, 0.9]]})
        svc.handle({"op": "delete", "index": "a", "ids": [5, 6]})
        svc.handle({"op": "create_index", "index": "b", "points": _points(3, 50).tolist()})
        fps = {name: si.fingerprint() for name, si in svc.indexes.items()}
        restarted = ClusteringService(journal_path=path)
        assert {n: s.fingerprint() for n, s in restarted.indexes.items()} == fps
        assert restarted.replayed_entries == 4

    def test_journal_fingerprints_are_pinned(self, tmp_path):
        # Journals already on disk must keep replaying bit-equal, so the
        # fingerprint of a fixed history is pinned, step by step.
        fps = [
            "3eba5238269fb185f308fccd7f0327e2a3a24e7e",
            "c67cae101ffc61e6c4b5c448081dde89393e6451",
            "fb25762757d14dd676cfd4ef02aa9645c69a9f85",
            "1e3d61b6ed513a2b7568f5dfc1345c22d792cf33",
            "05472d705b195699c1cd09fa3a4fff4e14e9bc1e",
            "0b78cc7fddbc76771b9a74a092b937709701cacb",
            "994899131ea44b11e7bc91f1aec654962712db14",
        ]
        lattice = [[i / 8, j / 4] for i in range(6) for j in range(4)]
        history = [
            ("create_index", "a", {"points": lattice}),
            ("insert", "a", {"points": [[0.5, 0.5], [0.75, 0.125]], "ids": [24, 25]}),
            ("delete", "a", {"ids": [3, 7]}),
            ("create_index", "b", {"points": [[0.0, 0.0, 1.0], [0.5, 0.25, 0.0]]}),
            ("insert", "a", {"points": [[0.25, 0.375]], "ids": [26]}),
            ("delete", "a", {"ids": [0, 24]}),
            ("insert", "b", {"points": [[1.0, 1.0, 1.0]], "ids": [2]}),
        ]
        svc = ClusteringService()
        for (op, name, payload), fp in zip(history, fps):
            body = {"op": op, "index": name, **payload}
            assigned = body.pop("ids") if op == "insert" else None
            r = svc.handle(body)
            assert r["status"] == "ok"
            if assigned is not None:
                assert r["result"]["ids"] == assigned
            assert svc.indexes[name].fingerprint() == fp
        # the same history as a journal file, each entry carrying its
        # pinned fingerprint, replays without divergence
        path = tmp_path / "svc.jsonl"
        path.write_text("".join(
            json.dumps({"seq": seq, "op": op, "index": name, **payload, "fingerprint": fp}) + "\n"
            for seq, ((op, name, payload), fp) in enumerate(zip(history, fps), start=1)
        ))
        restarted = ClusteringService(journal_path=str(path))
        assert restarted.replayed_entries == len(history)
        assert restarted.indexes["a"].fingerprint() == fps[5]
        assert restarted.indexes["b"].fingerprint() == fps[6]

    def test_device_ledger_holds_only_live_trees(self):
        # A mutation discards the index's tree and a dropped index frees
        # its tree, so the service device's "bvh" bytes are exactly those
        # of the trees still in use, however long the churn; no "labels"
        # bytes outlive their request.
        svc = ClusteringService()
        for name, seed in (("a", 0), ("b", 1)):
            svc.handle({"op": "create_index", "index": name, "points": _points(seed, 120).tolist()})
        query = {"eps": 0.08, "min_samples": 5}
        requests = []
        for round_ in range(4):
            for name in ("a", "b"):
                requests += [
                    {"op": "cluster", "index": name, **query},
                    {"op": "insert", "index": name, "points": _points(10 + round_, 3).tolist()},
                    {"op": "count", "index": name, **query},
                    {"op": "delete", "index": name, "ids": [2 * round_, 2 * round_ + 1]},
                    {"op": "knn", "index": name, "k": 3},
                ]
        requests += [{"op": "cluster", "index": "a", **query}, {"op": "drop_index", "index": "b"}]
        for body in requests:
            svc.clock.sleep(10.0)  # drain the admission backlog
            assert svc.handle(body)["status"] == "ok"
        live = sum(si.tree.nbytes() for si in svc.indexes.values() if si.tree is not None)
        assert live > 0
        assert svc.device.memory.live_by_tag["bvh"] == live
        # Each cluster request's union-find is returned to the ledger.
        assert svc.device.memory.peak_by_tag["labels"] > 0
        assert svc.device.memory.live_by_tag["labels"] == 0

    def test_replay_detects_divergence(self, tmp_path):
        path = str(tmp_path / "svc.jsonl")
        svc = ClusteringService(journal_path=path)
        svc.handle({"op": "create_index", "index": "a", "points": _points().tolist()})
        # tamper with the recorded fingerprint
        lines = open(path).read().splitlines()
        entry = json.loads(lines[0])
        entry["fingerprint"] = "0" * 40
        with open(path, "w") as fh:
            fh.write(json.dumps(entry) + "\n")
        with pytest.raises(JournalCorruptError, match="fingerprint"):
            ClusteringService(journal_path=path)

    def test_backpressure_sheds_with_retry_after(self):
        config = ServiceConfig(max_backlog=0.1, max_queue=1000)
        svc = ClusteringService(config=config)
        svc.handle({"op": "create_index", "index": "a", "points": _points().tolist()})
        shed = None
        for _ in range(30):
            r = svc.handle(
                {"op": "cluster", "index": "a", "eps": 0.08, "min_samples": 5}
            )
            if r["status"] == "shed":
                shed = r
                break
        assert shed is not None and shed["retry_after"] > 0

    def test_traversal_field_leaves_labels_unchanged(self):
        # Older clients still send an engine preference: it is validated
        # and ignored, so the answer is the plain request's.
        X = _points(4)
        plain = ClusteringService()
        plain.handle({"op": "create_index", "index": "a", "points": X.tolist()})
        r_plain = plain.handle(
            {"op": "cluster", "index": "a", "eps": 0.08, "min_samples": 5}
        )
        for traversal in ("single", "dual", "auto"):
            svc = ClusteringService()
            svc.handle({"op": "create_index", "index": "a", "points": X.tolist(),
                        "traversal": traversal})
            r = svc.handle(
                {"op": "cluster", "index": "a", "eps": 0.08, "min_samples": 5,
                 "traversal": traversal}
            )
            assert r["status"] == "ok" and r.get("mode") is None
            assert r["result"] == r_plain["result"]
        bad = plain.handle({"op": "cluster", "index": "a", "eps": 0.08,
                            "min_samples": 5, "traversal": "triple"})
        assert bad["status"] == "rejected"

    def test_count_only_rung_is_explicitly_degraded(self):
        config = ServiceConfig(ladder_thresholds=(0.0, 0.0, 4.0))
        svc = ClusteringService(config=config)
        svc.handle({"op": "create_index", "index": "a", "points": _points().tolist()})
        r = svc.handle({"op": "cluster", "index": "a", "eps": 0.08, "min_samples": 5})
        assert r["status"] == "degraded"
        assert r["mode"] in ("count_only", "cache_miss_count_only")
        assert "labels" not in r["result"] and "n_core" in r["result"]

    def test_metrics_totals_equal_ledger(self):
        svc = ClusteringService()
        svc.handle({"op": "create_index", "index": "a", "points": _points().tolist()})
        svc.handle({"op": "cluster", "index": "a", "eps": 0.08, "min_samples": 5})
        svc.handle({"op": "ping"})
        svc.handle("garbage")
        svc.handle({"op": "knn", "index": "a", "k": 3})
        proof = svc.verify_metrics_ledger()
        assert proof["ok"]
        assert proof["checks"]["requests_total"] == len(svc.ledger) == 5

    def test_stats_and_metrics_ops_always_served(self):
        svc = ClusteringService()
        r = svc.handle({"op": "stats"})
        assert r["status"] == "ok" and "backlog" in r["result"]
        r = svc.handle({"op": "metrics"})
        assert "repro_service_requests_total" in r["result"]["prometheus"]

    def test_serve_lines_round_trip(self):
        import io

        svc = ClusteringService()
        lines = [
            json.dumps({"op": "create_index", "index": "a",
                        "points": _points(0, 60).tolist()}),
            json.dumps({"op": "count", "index": "a", "eps": 0.1, "min_samples": 3}),
            "",
            "garbage",
        ]
        out = io.StringIO()
        served = svc.serve_lines(io.StringIO("\n".join(lines) + "\n"), out)
        assert served == 3  # blank line skipped
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r["status"] for r in responses] == ["ok", "ok", "rejected"]

    def test_serve_lines_advances_clock_with_wall_arrivals(self, monkeypatch):
        # Each stdin request arrives at its wall-clock time since start, so
        # a paced stream drains the admission backlog instead of piling
        # every request onto a clock that never moves.
        import io
        import time
        import types

        import repro.service.service as service_module

        wall = [0.0]
        monkeypatch.setattr(
            service_module,
            "time",
            types.SimpleNamespace(
                monotonic=lambda: wall[0], perf_counter=time.perf_counter
            ),
        )
        svc = ClusteringService()
        create = json.dumps({"op": "create_index", "index": "a",
                             "points": _points(0, 400).tolist()})
        count = json.dumps({"op": "count", "index": "a", "eps": 0.05,
                            "min_samples": 5})

        def paced():
            yield create
            for _ in range(200):
                wall[0] += 0.1
                yield count

        out = io.StringIO()
        assert svc.serve_lines(paced(), out) == 201
        statuses = [json.loads(line)["status"] for line in out.getvalue().splitlines()]
        assert statuses.count("shed") == 0
        assert svc.clock.now() == pytest.approx(20.0)


class TestServiceHTTP:
    def test_http_round_trip_and_metrics_endpoint(self):
        import threading
        import urllib.error
        import urllib.request

        from repro.service.http import start_http

        svc = ClusteringService()
        server = start_http(svc)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            def post(payload):
                req = urllib.request.Request(
                    f"http://127.0.0.1:{port}/",
                    data=json.dumps(payload).encode(),
                    method="POST",
                )
                try:
                    with urllib.request.urlopen(req) as resp:
                        return resp.status, json.loads(resp.read())
                except urllib.error.HTTPError as err:
                    return err.code, json.loads(err.read())

            code, _ = post({"op": "create_index", "index": "h",
                            "points": _points(0, 80).tolist()})
            assert code == 200
            code, body = post({"op": "cluster", "index": "h", "eps": 0.1,
                               "min_samples": 3})
            assert code == 200 and body["status"] == "ok"
            code, body = post({"op": "cluster", "index": "nope", "eps": 0.1,
                               "min_samples": 3})
            assert code == 404 and body["error"]["code"] == "not_found"
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics") as resp:
                assert resp.status == 200
                assert b"repro_service_requests_total" in resp.read()
        finally:
            server.shutdown()
            server.server_close()


class TestServiceFaultSpecs:
    def test_service_kinds_default_off_and_parse(self):
        spec = FaultSpec(p_device_fault=0.5)
        assert spec.p_malformed == spec.p_service_crash == 0.0
        parsed = FaultSpec.parse("malformed=0.1,storm=0.2,restart=0.3")
        assert parsed.p_malformed == 0.1
        assert parsed.p_deadline_storm == 0.2
        assert parsed.p_service_crash == 0.3

    def test_request_faults_deterministic_and_crash_once(self):
        spec = FaultSpec.service(0.3, crash=0.5)
        a = [kinds for plan in [FaultPlan(7, spec)]
             for kinds in (plan.request_faults(i) for i in range(50))]
        b = [kinds for plan in [FaultPlan(7, spec)]
             for kinds in (plan.request_faults(i) for i in range(50))]
        assert a == b
        # the crash is capped at one per plan *instance* (a process only
        # crashes once; the restarted plan may crash again)
        crashes = sum("service_crash" in kinds for kinds in a)
        assert crashes == 1
