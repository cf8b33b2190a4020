"""Synthetic traffic: seeded load, service-level faults, latency report.

:func:`run_traffic` drives a :class:`~repro.service.service.ClusteringService`
with a deterministic request stream — a seeded op mix over a handful of
named indexes, exponential-ish virtual inter-arrival gaps — and applies
the *service-level* kinds of a :class:`~repro.faults.FaultPlan` to each
request **on the wire**, before the service sees it:

``malformed``
    The JSON text is truncated mid-payload (an interrupted client).
``oversized``
    The body is padded past ``max_request_bytes``.
``deadline_storm``
    The request ships an absurd deadline (``deadline_checks=1``) — it
    will be admitted and then killed by its own watchdog.
``invalidate``
    A small insert mutation is injected immediately before the request,
    invalidating fingerprints/caches under the reader's feet.
``service_crash``
    The service object is dropped on the floor (no shutdown, journal
    untouched) and a fresh one is constructed from the same journal
    path — the crash-recovery path, exercised mid-stream.  At most one
    per plan, and only meaningful with a real ``journal_path``.

Device-level kinds (kernel faults, OOM) ride along through the plan the
service itself holds.  Everything is keyed on ``(seed, request seq)``,
so a rerun replays byte-identically: the report's percentiles move, the
status counts do not.

The report (:func:`save_traffic_report`) carries p50/p95/p99 wall
latency (estimated from the service's own fixed-bucket histogram via
:meth:`~repro.obs.metrics.Histogram.quantile` — the same instrument a
Prometheus scrape would see), counts by status / op / shed-reason,
restart count, the SLO error-budget statuses, and the metrics-vs-ledger
equality proof.
"""

from __future__ import annotations

import json

import numpy as np

from repro.faults import FaultPlan
from repro.obs import Tracer
from repro.obs.slo import evaluate_slos
from repro.service.events import EventLog
from repro.service.service import ClusteringService, ServiceConfig

#: Default op mix (op, weight) for generated request streams.
DEFAULT_MIX = (
    ("cluster", 0.45),
    ("count", 0.2),
    ("knn", 0.15),
    ("insert", 0.1),
    ("delete", 0.05),
    ("stats", 0.05),
)


def generate_points(rng: np.random.Generator, n: int, dim: int = 2) -> list:
    """A small blob of points (as JSON-ready lists)."""
    centers = rng.uniform(0.2, 0.8, size=(3, dim))
    which = rng.integers(0, len(centers), size=n)
    pts = centers[which] + rng.normal(0.0, 0.04, size=(n, dim))
    return np.round(pts, 6).tolist()


def run_traffic(
    n_requests: int = 200,
    seed: int = 0,
    plan: FaultPlan | None = None,
    journal_path: str | None = None,
    config: ServiceConfig | None = None,
    n_indexes: int = 2,
    index_points: int = 400,
    mix=DEFAULT_MIX,
    mean_gap_s: float = 0.012,
    service: ClusteringService | None = None,
    tracer=None,
    event_log_path: str | None = None,
) -> dict:
    """Drive a service with ``n_requests`` seeded requests; return a report.

    A fresh service is built unless one is passed in; when ``plan``
    schedules a ``service_crash``, the service is torn down and rebuilt
    from ``journal_path`` mid-run (the pre/post fingerprints of every
    index are recorded in the report for the bit-equality assertion).

    A real :class:`~repro.obs.Tracer` is installed by default so every
    structured event (and therefore every shed / deadline miss in the
    report) carries a ``trace_id``/``span_id`` exemplar; pass an
    explicit tracer to share one across runs.  ``event_log_path``
    write-throughs the bounded event ring to JSONL (survives the
    simulated crash — the restarted service keeps appending).
    """
    rng = np.random.default_rng([int(seed), 0x7AF1C])
    cfg = config or ServiceConfig()
    if tracer is None:
        tracer = Tracer()
    if service is None:
        event_log = EventLog(path=event_log_path, maxlen=cfg.event_log_maxlen)
        service = ClusteringService(
            journal_path=journal_path, config=cfg, fault_plan=plan, tracer=tracer,
            event_log=event_log,
        )
    else:
        event_log = service.events
    ops, weights = zip(*mix)
    weights = np.asarray(weights, dtype=np.float64)
    weights = weights / weights.sum()
    names = [f"idx{i}" for i in range(n_indexes)]

    records: list[dict] = []
    restarts: list[dict] = []
    faults_applied: dict[str, int] = {}
    next_knn_k = 5

    def send(payload, label: str) -> dict:
        response = service.handle(payload)
        records.append(
            {
                "label": label,
                "status": response["status"],
                "mode": response.get("mode"),
                "error_code": response.get("error", {}).get("code"),
            }
        )
        return response

    # Seed the indexes (these count as requests too — a service has no
    # out-of-band setup path).
    for name in names:
        send(
            {
                "op": "create_index", "id": f"setup-{name}", "index": name,
                "points": generate_points(rng, index_points),
            },
            "setup",
        )

    for i in range(n_requests):
        # Virtual inter-arrival gap: drains the admission backlog at a
        # seeded rate, so the run actually sweeps the ladder's pressure
        # range instead of pinning at either end.
        sleep = getattr(service.clock, "sleep", None)
        if sleep is not None and mean_gap_s > 0:
            sleep(float(rng.exponential(mean_gap_s)))
        op = str(rng.choice(ops, p=weights))
        name = names[int(rng.integers(0, len(names)))]
        req: dict = {"op": op, "id": f"t{i}", "index": name}
        if op == "cluster":
            req.update(eps=0.08, min_samples=5)
            # Older clients still send an engine preference; the service
            # validates and ignores it, and the draws keep seeded streams
            # byte-identical.
            if rng.random() < 0.3:
                req["traversal"] = "dual" if rng.random() < 0.5 else "auto"
        elif op == "count":
            req.update(eps=0.08, min_samples=5)
        elif op == "knn":
            req["k"] = next_knn_k
        elif op == "insert":
            req["points"] = generate_points(rng, int(rng.integers(1, 6)))
        elif op == "delete":
            stats = service.indexes.get(name)
            if stats is None or stats.n_live < 8:
                req = {"op": "stats", "id": f"t{i}"}
                op = "stats"
            else:
                live = stats.ids
                take = rng.choice(live, size=min(2, live.size), replace=False)
                req["ids"] = [int(x) for x in take]

        kinds = plan.request_faults(i) if plan is not None else []
        for kind in kinds:
            faults_applied[kind] = faults_applied.get(kind, 0) + 1

        if "invalidate" in kinds:
            send(
                {
                    "op": "insert", "id": f"t{i}-inval", "index": name,
                    "points": generate_points(rng, 2),
                },
                "fault:invalidate",
            )
        if "deadline_storm" in kinds:
            req["deadline_checks"] = 1

        payload = json.dumps(req)
        if "oversized" in kinds:
            pad = "x" * (service.config.max_request_bytes + 1)
            payload = json.dumps(dict(req, pad=pad))
        elif "malformed" in kinds:
            payload = payload[: max(1, len(payload) * 2 // 3)]

        send(payload, "traffic")

        if "service_crash" in kinds and journal_path is not None:
            before = {
                n: si.fingerprint() for n, si in sorted(service.indexes.items())
            }
            # Crash: no shutdown, no journal close — just a new process.
            # The event ring dies with it; the JSONL file (if any) keeps
            # the pre-crash records and the new service appends after.
            service = ClusteringService(
                journal_path=journal_path, config=cfg, fault_plan=plan, tracer=tracer,
                event_log=EventLog(path=event_log_path, maxlen=cfg.event_log_maxlen),
            )
            after = {
                n: si.fingerprint() for n, si in sorted(service.indexes.items())
            }
            restarts.append(
                {
                    "at_request": i,
                    "fingerprints_before": before,
                    "fingerprints_after": after,
                    "bit_equal": before == after,
                    "replayed_entries": service.replayed_entries,
                }
            )

    report = build_report(service, records, restarts, faults_applied, seed)
    report["service"] = service  # stripped by save_traffic_report
    return report


def build_report(service, records, restarts, faults_applied, seed) -> dict:
    """Aggregate a finished run into the latency/status report."""
    lat_ms = [row["wall_seconds"] * 1e3 for row in service.ledger]
    # Percentiles come from the service's own latency histogram — the
    # same fixed-bucket estimate a dashboard's histogram_quantile() would
    # show — not a privileged exact-sample computation.
    hist = service.metrics.get("repro_service_request_seconds")
    service._refresh_gauges()
    by_status: dict[str, int] = {}
    by_op: dict[str, dict] = {}
    shed_reasons: dict[str, int] = {}
    degraded_modes: dict[str, int] = {}
    for row in service.ledger:
        by_status[row["status"]] = by_status.get(row["status"], 0) + 1
        op_bucket = by_op.setdefault(row["op"], {})
        op_bucket[row["status"]] = op_bucket.get(row["status"], 0) + 1
        if row["status"] == "shed":
            reason = row.get("mode") or "unknown"
            shed_reasons[reason] = shed_reasons.get(reason, 0) + 1
        if row["status"] == "degraded":
            mode = row.get("mode") or "unknown"
            degraded_modes[mode] = degraded_modes.get(mode, 0) + 1
    return {
        "seed": int(seed),
        # `requests` is the final service instance's ledger (a crash
        # resets it, like a real process restart); `requests_sent`
        # counts every request the generator put on the wire.
        "requests": len(service.ledger),
        "requests_sent": len(records),
        "latency_ms": {
            "p50": hist.quantile(0.50) * 1e3,
            "p95": hist.quantile(0.95) * 1e3,
            "p99": hist.quantile(0.99) * 1e3,
            "max": max(lat_ms) if lat_ms else 0.0,
        },
        "slo": evaluate_slos(service.metrics, service.config.slos),
        "events": service.events.stats(),
        "by_status": by_status,
        "by_op": by_op,
        "shed_reasons": shed_reasons,
        "degraded_modes": degraded_modes,
        "faults_applied": faults_applied,
        "restarts": restarts,
        "records": records,
        "metrics_ledger": service.verify_metrics_ledger(),
        "stats": service._stats(),
        "prometheus": service.metrics.to_prometheus(),
    }


def save_traffic_report(report: dict, path: str) -> None:
    """Write the report as JSON (dropping the live service handle)."""
    clean = {k: v for k, v in report.items() if k != "service"}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(clean, fh, indent=2, sort_keys=True)
        fh.write("\n")
