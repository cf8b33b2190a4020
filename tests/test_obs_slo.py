"""Tests for SLO tracking (repro.obs.slo), histogram quantile
estimation, the bounded event log, and their integration into the
service's health, reports and event stream."""

import json

import pytest

from repro.bench.harness import RunRecord
from repro.bench.history import load_records, save_records
from repro.obs import MetricsRegistry
from repro.obs.slo import (
    SLO,
    evaluate_slo,
    evaluate_slos,
    format_slo_report,
    record_slo_gauges,
)
from repro.service.events import EventLog, load_events


class TestHistogramQuantile:
    def _hist(self, buckets=(1.0, 2.0, 4.0)):
        reg = MetricsRegistry()
        return reg.histogram("h", "test", buckets=buckets)

    def test_quantile_interpolates_within_bucket(self):
        h = self._hist()
        for _ in range(10):
            h.observe(1.5)  # all ten land in the (1, 2] bucket
        # rank 5 of 10 -> half-way through the bucket: 1 + 0.5 * (2 - 1)
        assert h.quantile(0.5) == pytest.approx(1.5)
        assert h.quantile(1.0) == pytest.approx(2.0)

    def test_quantile_first_bucket_lower_bound_is_zero(self):
        h = self._hist()
        for _ in range(4):
            h.observe(0.5)
        assert h.quantile(0.5) == pytest.approx(0.5)  # 0 + (2/4) * 1.0

    def test_quantile_inf_bucket_clamps_to_last_finite_bound(self):
        h = self._hist()
        h.observe(100.0)
        assert h.quantile(0.99) == pytest.approx(4.0)

    def test_quantile_empty_and_validation(self):
        h = self._hist()
        assert h.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_quantile_merges_label_sets(self):
        h = self._hist()
        for _ in range(9):
            h.observe(0.5, op="a")
        h.observe(3.0, op="b")
        assert h.quantile(0.5) < 1.0  # merged: dominated by the fast op
        assert h.quantile(0.5, labels={"op": "b"}) > 2.0

    def test_count_le_full_partial_and_inf(self):
        h = self._hist()
        for v in (0.5, 0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        # full first bucket (2) + half of (1,2] (1 obs * 0.5) at value 1.5
        assert h.count_le(1.5) == pytest.approx(2 + 0.5)
        # everything except the +Inf observation at the last finite bound
        assert h.count_le(4.0) == pytest.approx(4.0)
        # +Inf observations never count, however large the probe
        assert h.count_le(1e9) == pytest.approx(4.0)


class TestSLO:
    def test_slo_validation(self):
        with pytest.raises(ValueError):
            SLO("x", "latency", objective=0.99)  # no target_seconds
        with pytest.raises(ValueError):
            SLO("x", "availability", objective=1.5)
        with pytest.raises(ValueError):
            SLO("x", "nonsense", objective=0.9)

    def test_availability_burn_rate_math(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_service_requests_total", "t")
        for _ in range(96):
            c.inc(op="cluster", status="ok")
        c.inc(op="cluster", status="shed")  # deliberate refusal: good
        c.inc(op="cluster", status="rejected")  # typed refusal: good
        for _ in range(2):
            c.inc(op="cluster", status="error")  # bad
        slo = SLO("avail", "availability", objective=0.99,
                  metric="repro_service_requests_total")
        status = evaluate_slo(slo, reg)
        assert status["total"] == 100
        assert status["bad"] == 2
        # allowed = 1% of 100 = 1 bad; observed 2 -> burn rate 2.0
        assert status["burn_rate"] == pytest.approx(2.0)
        assert status["budget_remaining"] == pytest.approx(-1.0)
        assert not status["ok"]

    def test_latency_slo_uses_histogram_count_le(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_service_request_seconds", "t",
                          buckets=(0.1, 0.25, 1.0))
        for _ in range(99):
            h.observe(0.05, op="cluster")
        h.observe(0.9, op="cluster")
        slo = SLO("lat", "latency", objective=0.9, target_seconds=0.25,
                  metric="repro_service_request_seconds")
        status = evaluate_slo(slo, reg)
        assert status["total"] == 100
        assert status["good"] == pytest.approx(99.0)
        assert status["ok"]

    def test_empty_registry_is_ok_with_zero_burn(self):
        statuses = evaluate_slos(MetricsRegistry())
        assert all(s["ok"] and s["burn_rate"] == 0.0 for s in statuses)

    def test_latency_quantile_reads_histogram_quantile(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_service_request_seconds", "t",
                          buckets=(0.1, 0.25, 1.0))
        for _ in range(95):
            h.observe(0.05, op="cluster")
        for _ in range(5):
            h.observe(0.9, op="cluster")
        slo = SLO("latency_p95", "latency_quantile", objective=0.95,
                  target_seconds=0.25,
                  metric="repro_service_request_seconds")
        status = evaluate_slo(slo, reg)
        assert status["observed_seconds"] == pytest.approx(h.quantile(0.95))
        assert status["burn_rate"] == pytest.approx(
            h.quantile(0.95) / 0.25
        )
        # tight target: the p95 estimate exceeds it -> violated
        tight = SLO("latency_p95_tight", "latency_quantile", objective=0.95,
                    target_seconds=0.05,
                    metric="repro_service_request_seconds")
        assert not evaluate_slo(tight, reg)["ok"]

    def test_latency_quantile_windowed_rows(self):
        rows = [{"status": "ok", "wall_seconds": 0.01} for _ in range(19)]
        rows.append({"status": "ok", "wall_seconds": 2.0})
        slo = SLO("p50_window", "latency_quantile", objective=0.5,
                  target_seconds=0.1, window="last:20")
        status = evaluate_slo(slo, MetricsRegistry(), rows=rows)
        assert status["observed_seconds"] == pytest.approx(0.01)
        assert status["ok"]
        # a p99-style window sees the slow tail
        p99 = SLO("p99_window", "latency_quantile", objective=0.99,
                  target_seconds=0.1, window="last:20")
        assert not evaluate_slo(p99, MetricsRegistry(), rows=rows)["ok"]

    def test_latency_quantile_validation_and_gauges(self):
        with pytest.raises(ValueError):
            SLO("x", "latency_quantile", objective=0.95)  # no target
        reg = MetricsRegistry()
        h = reg.histogram("repro_service_request_seconds", "t",
                          buckets=(0.1, 0.25, 1.0))
        h.observe(0.05)
        statuses = evaluate_slos(reg)
        names = [s["name"] for s in statuses]
        assert "latency_p95" in names and "latency_p99" in names
        record_slo_gauges(reg, statuses)
        text = reg.to_prometheus()
        assert "repro_slo_quantile_seconds" in text
        report = format_slo_report(statuses)
        assert "latency_p95" in report and "p95" in report

    def test_gauges_and_report_text(self):
        reg = MetricsRegistry()
        statuses = evaluate_slos(reg)
        record_slo_gauges(reg, statuses)
        text = reg.to_prometheus()
        assert "repro_slo_burn_rate" in text
        assert "repro_slo_budget_remaining" in text
        report = format_slo_report(statuses)
        assert "request_latency" in report and "availability" in report


class TestEventLog:
    def test_ring_bound_and_dropped(self):
        log = EventLog(maxlen=4)
        for i in range(10):
            log.append({"seq": i})
        assert len(log) == 4
        assert log.dropped == 6
        assert [e["seq"] for e in log.snapshot()] == [6, 7, 8, 9]
        stats = log.stats()
        assert stats["appended"] == 10 and stats["retained"] == 4

    def test_jsonl_write_through_and_compaction(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path=str(path), maxlen=4)
        for i in range(10):
            log.append({"seq": i})
        lines = load_events(str(path))
        # the file is compacted whenever it would exceed maxlen lines
        assert len(lines) <= 2 * 4
        assert lines[-1] == {"seq": 9}

    def test_reattach_keeps_appending(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path=str(path), maxlen=100)
        log.append({"seq": 0})
        # a "restarted" process re-opens the same file and appends
        log2 = EventLog(path=str(path), maxlen=100)
        log2.append({"seq": 1})
        assert [e["seq"] for e in load_events(str(path))] == [0, 1]

    def test_maxlen_validation(self):
        with pytest.raises(ValueError):
            EventLog(maxlen=0)


class TestServiceIntegration:
    def _traffic(self, tmp_path, tag, n=60):
        from repro.service.service import ServiceConfig
        from repro.service.traffic import run_traffic

        cfg = ServiceConfig()
        return run_traffic(
            n_requests=n, seed=7, config=cfg, n_indexes=1, index_points=150,
            event_log_path=str(tmp_path / f"events-{tag}.jsonl"),
        )

    def test_every_request_gets_an_event_with_trace_exemplar(self, tmp_path):
        report = self._traffic(tmp_path, "events")
        service = report["service"]
        events = service.events.snapshot()
        assert len(events) == len(service.ledger) == service.events.appended_total
        # run_traffic installs a real tracer by default: every shed or
        # deadline-missed request joins to its trace
        problem = [
            e for e in events
            if e["status"] == "shed" or e["error_code"] == "deadline_exceeded"
        ]
        for event in problem:
            assert event["trace_id"] and event["span_id"]
        # and the JSONL file carries the same records
        on_disk = load_events(str(tmp_path / "events-events.jsonl"))
        assert len(on_disk) >= len(events) - service.events.dropped

    def test_report_has_slo_section_and_histogram_percentiles(self, tmp_path):
        report = self._traffic(tmp_path, "slo")
        assert {"p50", "p95", "p99", "max"} <= set(report["latency_ms"])
        names = [s["name"] for s in report["slo"]]
        assert "request_latency" in names and "availability" in names
        hist = report["service"].metrics.get("repro_service_request_seconds")
        assert report["latency_ms"]["p95"] == pytest.approx(
            hist.quantile(0.95) * 1e3
        )

    def test_health_reports_breakers_admission_slos(self, tmp_path):
        report = self._traffic(tmp_path, "health")
        health = report["service"].health()
        assert set(health) == {
            "ok", "indexes", "breakers", "admission", "slos", "events",
        }
        assert {"backlog", "pressure", "queue_depth"} <= set(health["admission"])
        assert health["indexes"]["idx0"]["n_live"] > 0
        assert isinstance(health["ok"], bool)

    def test_healthz_endpoint_serves_structured_json(self):
        import threading
        import urllib.request

        from repro.service.http import start_http
        from repro.service.service import ClusteringService

        service = ClusteringService()
        server = start_http(service)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz"
            ) as resp:
                payload = json.load(resp)
                assert resp.status == 200
            assert payload["ok"] is True
            assert "slos" in payload and "admission" in payload
        finally:
            server.shutdown()
            server.server_close()

    def test_trace_dropped_roundtrips_through_history(self, tmp_path):
        rec = RunRecord(
            algorithm="fdbscan", dataset="t", n=10, eps=0.1, min_samples=5,
            seconds=0.1, trace_dropped=17,
        )
        path = tmp_path / "hist.json"
        save_records(str(path), [rec], meta={})
        loaded, _ = load_records(str(path))
        assert loaded[0].trace_dropped == 17
