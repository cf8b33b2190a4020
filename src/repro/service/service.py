"""The request loop: deadlines, admission, breakers, ladder, journal.

:class:`ClusteringService` ties the package together.  One request flows

1. **parse** — :func:`~repro.service.protocol.parse_request`; protocol
   errors answer ``rejected`` with the typed code, nothing else runs.
2. **breaker** — an open per-index circuit breaker refuses instantly
   (``shed`` + ``Retry-After``), no device work.
3. **admission** — the virtual-cost estimate is offered to the
   controller; refusal answers ``shed`` with the exact drain time.
4. **ladder** — backlog pressure picks the degradation rung
   (full/cached/count_only/shed) the executor honours.
5. **execute** — under the per-request :class:`~repro.faults.Deadline`
   (threaded into the traversals as ``watchdog=``) and the retry policy;
   seeded kernel faults are injected through
   :meth:`~repro.faults.FaultPlan.device_faults` exactly like the bench
   harness does, and terminal kernel faults feed the breaker.
6. **account** — one ledger row, one ``request:<op>`` span, and the
   Prometheus-style counters whose totals provably equal the ledger
   (the equality is asserted in tests and exposed via
   :meth:`ClusteringService.verify_metrics_ledger`).

Every mutation that succeeds is journaled (fingerprint included) before
its response is returned — see :mod:`repro.service.journal` for the
crash-recovery contract.  ``handle`` never raises on any input: the
response's ``status``/``error.code`` is the only failure channel.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.datasets.registry import load_dataset
from repro.device.device import Device, KernelFaultError
from repro.device.memory import DeviceMemoryError
from repro.faults import (
    Deadline,
    DeadlineExceededError,
    FaultPlan,
    RetryPolicy,
    SimClock,
    call_with_retries,
)
from repro.obs import NULL_TRACER, MetricsRegistry
from repro.obs.metrics import record_trace_health
from repro.obs.slo import DEFAULT_SLOS, evaluate_slos, record_slo_gauges
from repro.service.admission import AdmissionController
from repro.service.events import DEFAULT_EVENT_MAXLEN, EventLog
from repro.service.breaker import CircuitBreaker
from repro.service.degrade import DegradationLadder
from repro.service.journal import Journal, JournalCorruptError
from repro.service.protocol import (
    DEFAULT_MAX_POINTS,
    DEFAULT_MAX_REQUEST_BYTES,
    MUTATION_OPS,
    ProtocolError,
    Request,
    make_response,
    parse_request,
)
from repro.service.state import ServiceIndex


@dataclass(frozen=True)
class ServiceConfig:
    """Service-wide knobs (all deterministic given a clock)."""

    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES
    max_points: int = DEFAULT_MAX_POINTS
    #: Applied when a request carries no deadline of its own.
    default_deadline_s: float | None = None
    default_deadline_checks: int | None = None
    max_backlog: float = 2.0
    max_queue: int = 128
    ladder_thresholds: tuple = (0.6, 0.8, 0.95)
    breaker_threshold: int = 3
    breaker_cooldown: float = 5.0
    result_cache_size: int = 32
    #: Virtual seconds per point that admission charges each op; the floor
    #: keeps tiny requests from being free.
    cost_per_point: dict = field(
        default_factory=lambda: {
            "cluster": 2e-4, "count": 1e-4, "knn": 4e-4,
            "create_index": 1e-4, "insert": 2e-5, "delete": 1e-5,
        }
    )
    cost_floor: float = 1e-3
    #: Service-level objectives evaluated over the metrics registry (and
    #: the request ledger for ``last:N``-window objectives), reported by
    #: ``/healthz``, ``/metrics`` gauges and traffic reports.
    slos: tuple = DEFAULT_SLOS
    #: Bound on the per-request structured event ring (and the JSONL
    #: event file's line cap; see :mod:`repro.service.events`).
    event_log_maxlen: int = DEFAULT_EVENT_MAXLEN


class ClusteringService:
    """A long-lived clustering service over named mutable indexes.

    Parameters
    ----------
    journal_path:
        Mutation journal location (``None`` = in-memory only).  If the
        file already holds entries they are replayed before the first
        request — fingerprints asserted per entry.
    clock:
        ``now()``/``sleep()`` provider for admission, breakers and retry
        backoff; defaults to a fresh :class:`~repro.faults.SimClock`
        (deterministic).  Wall latency is measured separately.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` whose *device* fault
        probabilities are injected per attempt.  (Request-level service
        faults are the *traffic generator's* job — they mutate what
        arrives on the wire, which a real service cannot distinguish
        from a hostile client.)
    """

    def __init__(
        self,
        journal_path: str | None = None,
        config: ServiceConfig | None = None,
        clock=None,
        device: Device | None = None,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        tracer=None,
        metrics: MetricsRegistry | None = None,
        event_log: EventLog | None = None,
    ):
        self.config = config or ServiceConfig()
        self.clock = clock if clock is not None else SimClock()
        self._started = time.monotonic()
        self.device = device or Device(name="service")
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy or RetryPolicy()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics or MetricsRegistry()
        cfg = self.config
        self.events = event_log if event_log is not None else EventLog(
            maxlen=cfg.event_log_maxlen
        )
        #: Per-request scratch the dispatch path fills (predicted cost,
        #: chosen rung, admission pressure) so ``handle`` can join them
        #: into the structured event record.  Reset at each request.
        self._req_obs: dict = {}
        self.admission = AdmissionController(
            self.clock, max_backlog=cfg.max_backlog, max_queue=cfg.max_queue
        )
        self.ladder = DegradationLadder(cfg.ladder_thresholds)
        self.indexes: dict[str, ServiceIndex] = {}
        self.breakers: dict[str, CircuitBreaker] = {}
        #: One row per handled request — the ground truth the metrics
        #: totals are checked against.
        self.ledger: list[dict] = []
        self.seq = 0
        self._cache: "OrderedDict[tuple, dict]" = OrderedDict()

        m = self.metrics
        self._m_requests = m.counter(
            "repro_service_requests_total", "requests handled, by op and status"
        )
        self._m_latency = m.histogram(
            "repro_service_request_seconds", "wall latency per request, by op"
        )
        self._m_shed = m.counter("repro_service_shed_total", "requests shed, by reason")
        self._m_degraded = m.counter(
            "repro_service_degraded_total", "degraded responses, by mode"
        )
        self._m_breaker = m.counter(
            "repro_service_breaker_trips_total", "breaker trips, by index"
        )
        self._m_deadline = m.counter(
            "repro_service_deadline_miss_total", "requests killed by their deadline"
        )
        self._m_retries = m.counter(
            "repro_service_kernel_retries_total", "transient kernel faults retried"
        )
        self._m_backlog = m.gauge(
            "repro_service_backlog_seconds", "admitted-but-undrained virtual work"
        )
        self._m_points = m.gauge("repro_service_index_points", "live points, by index")

        self.journal = Journal(journal_path)
        self.replayed_entries = self._replay_journal()

    # -- journal replay --------------------------------------------------------

    def _replay_journal(self) -> int:
        """Re-apply every journaled mutation, asserting each recorded
        fingerprint; returns the number of entries replayed."""
        count = 0
        for entry in self.journal.entries():
            op = entry.get("op")
            name = entry.get("index")
            try:
                if op == "create_index":
                    self._apply_create(name, entry)
                elif op == "drop_index":
                    self._drop(name)
                elif op == "insert":
                    self.indexes[name].insert(
                        np.asarray(entry["points"], dtype=np.float64), ids=entry["ids"]
                    )
                elif op == "delete":
                    self.indexes[name].delete(entry["ids"])
                else:
                    raise ValueError(f"unknown journal op {op!r}")
            except JournalCorruptError:
                raise
            except Exception as exc:
                raise JournalCorruptError(
                    f"journal entry {entry.get('seq')} ({op} on {name!r}) failed to "
                    f"replay: {exc}"
                ) from exc
            if op != "drop_index":
                got = self.indexes[name].fingerprint()
                want = entry.get("fingerprint")
                if want is not None and got != want:
                    raise JournalCorruptError(
                        f"journal entry {entry.get('seq')} replayed to fingerprint "
                        f"{got[:12]}, journal records {str(want)[:12]}"
                    )
            count += 1
        return count

    def _apply_create(self, name: str, entry: dict) -> None:
        if "points" in entry:
            X = np.asarray(entry["points"], dtype=np.float64)
        else:
            ds = entry["dataset"]
            X = load_dataset(ds["name"], ds["n"], seed=ds["seed"])
        self.indexes[name] = ServiceIndex(name, X)

    # -- helpers ---------------------------------------------------------------

    def _drop(self, name: str) -> None:
        index = self.indexes.pop(name, None)
        if index is not None:
            index.release()
        self.breakers.pop(name, None)

    def _breaker(self, name: str) -> CircuitBreaker:
        if name not in self.breakers:
            self.breakers[name] = CircuitBreaker(
                self.clock,
                failure_threshold=self.config.breaker_threshold,
                cooldown=self.config.breaker_cooldown,
            )
        return self.breakers[name]

    def _cost(self, req: Request) -> float:
        per_point = self.config.cost_per_point.get(req.op)
        if per_point is None:
            return 0.0  # ping/stats/metrics/drop_index: free
        if req.op in ("create_index", "insert"):
            n = req.points.shape[0] if req.points is not None else (
                req.dataset["n"] if req.dataset else 0
            )
        elif req.op == "delete":
            n = len(req.ids)
        else:
            index = self.indexes.get(req.index)
            n = index.n_live if index is not None else 0
            if req.points is not None:
                n = max(n, req.points.shape[0])
        return max(self.config.cost_floor, per_point * n)

    def _journal_mutation(self, req: Request, extra: dict) -> None:
        entry = {"seq": self.seq, "op": req.op, "index": req.index}
        entry.update(extra)
        if req.op != "drop_index":
            entry["fingerprint"] = self.indexes[req.index].fingerprint()
        self.journal.append(entry)

    # -- the loop --------------------------------------------------------------

    def uptime(self) -> float:
        """Monotonic wall-clock seconds since the service started: the
        ``arrival`` the live front-ends (stdin loop, HTTP) pass to
        :meth:`handle`, so the clock and the admission backlog keep pace
        with real time."""
        return time.monotonic() - self._started

    def handle_line(self, line: str) -> dict:
        """One stdin-loop request: raw JSON text in, response dict out."""
        return self.handle(line, arrival=self.uptime())

    def handle(self, raw, arrival: float | None = None) -> dict:
        """Handle one request (raw JSON text/bytes or a decoded dict).

        ``arrival`` optionally advances the virtual clock first (the
        traffic generator's arrival process).  Never raises.
        """
        self.seq += 1
        seq = self.seq
        self._req_obs = {}
        if arrival is not None and arrival > self.clock.now():
            # SimClock only moves via sleep(); wall clocks ignore this.
            sleep = getattr(self.clock, "sleep", None)
            if sleep is not None:
                sleep(arrival - self.clock.now())
        t_wall = time.perf_counter()
        try:
            req = parse_request(
                raw,
                max_request_bytes=self.config.max_request_bytes,
                max_points=self.config.max_points,
            )
            req_id = req.id if req.id is not None else f"r{seq}"
            response, mode = self._dispatch(req, req_id, seq)
        except ProtocolError as exc:
            req, mode = None, None
            req_id = f"r{seq}"
            response = make_response(
                req_id, "rejected", error_code=exc.code, error_message=str(exc)
            )
            self._m_shed.inc(reason=exc.code)
        except Exception as exc:  # noqa: BLE001 - the loop must never die
            req, mode = None, None
            req_id = f"r{seq}"
            response = make_response(
                req_id, "error", error_code="internal", error_message=f"{type(exc).__name__}: {exc}"
            )
        wall = time.perf_counter() - t_wall
        op = req.op if req is not None else "invalid"
        status = response["status"]
        self._m_requests.inc(op=op, status=status)
        self._m_latency.observe(wall, op=op)
        self._m_backlog.set(self.admission.backlog())
        row = {
            "seq": seq,
            "id": req_id,
            "op": op,
            "index": req.index if req is not None else None,
            "status": status,
            "mode": response.get("mode"),
            "error_code": response.get("error", {}).get("code"),
            "wall_seconds": wall,
            "virtual_time": self.clock.now(),
            "backlog": self.admission.backlog(),
        }
        self.ledger.append(row)
        span = self.tracer.add_span(
            f"request:{op}", "service", t_wall, wall,
            attributes={k: v for k, v in row.items() if v is not None},
            status="ok" if status in ("ok", "degraded") else status,
        )
        obs = self._req_obs
        index_name = req.index if req is not None else None
        index = self.indexes.get(index_name) if index_name else None
        self.events.append({
            "seq": seq,
            "id": req_id,
            "op": op,
            "index": index_name,
            "index_generation": index.generation if index is not None else None,
            "status": status,
            "mode": response.get("mode"),
            "error_code": row["error_code"],
            "predicted_cost": obs.get("predicted_cost"),
            "observed_wall": wall,
            "rung": obs.get("rung"),
            "backlog": row["backlog"],
            "pressure": obs.get("pressure"),
            "retry_after": response.get("retry_after"),
            "trace_id": span.trace_id if span is not None else None,
            "span_id": span.span_id if span is not None else None,
        })
        return response

    def _dispatch(self, req: Request, req_id, seq: int) -> tuple[dict, str | None]:
        op = req.op
        # -- admin ops: always served, never admitted/metered ------------------
        if op == "ping":
            return make_response(req_id, "ok", result={"pong": True, "seq": seq}), None
        if op == "stats":
            return make_response(req_id, "ok", result=self._stats()), None
        if op == "metrics":
            self._refresh_gauges()
            return make_response(
                req_id, "ok", result={"prometheus": self.metrics.to_prometheus()}
            ), None

        # -- index existence ---------------------------------------------------
        if op == "create_index":
            if req.index in self.indexes:
                return make_response(
                    req_id, "error", error_code="conflict",
                    error_message=f"index {req.index!r} already exists",
                ), None
        elif req.index not in self.indexes:
            return make_response(
                req_id, "error", error_code="not_found",
                error_message=f"no index named {req.index!r}",
            ), None

        if op == "drop_index":
            self._drop(req.index)
            self._journal_mutation(req, {})
            self._m_points.set(0, index=req.index)
            return make_response(req_id, "ok", result={"dropped": req.index}), None

        # -- circuit breaker ---------------------------------------------------
        breaker = self._breaker(req.index)
        allowed, retry_after = breaker.allow()
        if not allowed:
            self._m_shed.inc(reason="breaker_open")
            return make_response(
                req_id, "shed", retry_after=retry_after, mode="breaker_open"
            ), "breaker_open"

        # -- admission ---------------------------------------------------------
        predicted = self._cost(req)
        decision = self.admission.offer(predicted)
        self._req_obs.update(
            predicted_cost=predicted,
            pressure=decision.pressure,
            admitted=decision.admitted,
        )
        if not decision.admitted:
            self._m_shed.inc(reason="backpressure")
            return make_response(
                req_id, "shed", retry_after=decision.retry_after, mode="backpressure"
            ), "backpressure"
        rung = self.ladder.rung(decision.pressure)
        self._req_obs["rung"] = rung
        if rung == "shed" and op in ("cluster", "knn", "count"):
            self._m_shed.inc(reason="ladder")
            return make_response(
                req_id, "shed", retry_after=self.admission.backlog(), mode="ladder"
            ), "ladder"

        # -- deadline ----------------------------------------------------------
        deadline = Deadline(
            seconds=req.deadline_s if req.deadline_s is not None else self.config.default_deadline_s,
            max_checks=(
                req.deadline_checks
                if req.deadline_checks is not None
                else self.config.default_deadline_checks
            ),
            label=f"{req.index}:{op}:{seq}",
        )

        # -- execute under retries + fault injection ---------------------------
        phase = f"service[{req.index}:{op}:{seq}]"

        def attempt(attempt_no: int):
            ctx = (
                self.fault_plan.device_faults(self.device, phase, rank=0, attempt=attempt_no)
                if self.fault_plan is not None
                else nullcontext()
            )
            with ctx:
                return self._execute(req, rung, deadline)

        try:
            (result, mode), _attempts = call_with_retries(
                attempt,
                self.retry_policy,
                clock=self.clock,
                on_retry=lambda a, exc: self._m_retries.inc(index=req.index),
            )
        except _LadderShed:
            # knn has no degraded form below `full`: shed, not fake.
            self._m_shed.inc(reason="ladder")
            return make_response(
                req_id, "shed", retry_after=self.admission.backlog(), mode="ladder"
            ), "ladder"
        except DeadlineExceededError as exc:
            # A deadline miss is the request's failure, not the index's:
            # it must not feed the breaker.
            self._m_deadline.inc(op=op)
            return make_response(
                req_id, "error", error_code="deadline_exceeded", error_message=str(exc)
            ), None
        except (KernelFaultError, DeviceMemoryError) as exc:
            breaker.record_failure()
            if breaker.state == "open":
                self._m_breaker.inc(index=req.index)
            return make_response(
                req_id, "error", error_code="kernel_fault", error_message=str(exc)
            ), None
        except (ValueError, KeyError) as exc:
            # Semantically invalid against current state (bad k, unknown
            # ids, dim mismatch): the index is fine, the request is not.
            return make_response(
                req_id, "error", error_code="invalid", error_message=str(exc)
            ), None
        breaker.record_success()

        if req.index in self.indexes:
            self._m_points.set(self.indexes[req.index].n_live, index=req.index)
        status = "ok"
        if mode in ("count_only", "cache_miss_count_only"):
            status = "degraded"
            self._m_degraded.inc(mode=mode)
        return make_response(req_id, status, result=result, mode=mode), mode

    # -- execution -------------------------------------------------------------

    def _execute(self, req: Request, rung: str, deadline: Deadline) -> tuple[dict, str | None]:
        op = req.op
        watchdog = deadline.check
        index = self.indexes.get(req.index)

        if op == "create_index":
            if req.points is not None:
                X = req.points
            else:
                X = load_dataset(req.dataset["name"], req.dataset["n"], seed=req.dataset["seed"])
            self.indexes[req.index] = ServiceIndex(req.index, X)
            extra: dict = {}
            if req.points is not None:
                extra["points"] = np.asarray(req.points, dtype=np.float64).tolist()
            else:
                extra["dataset"] = req.dataset
            self._journal_mutation(req, extra)
            si = self.indexes[req.index]
            return {"index": req.index, "n_points": si.n_live,
                    "fingerprint": si.fingerprint()}, None

        if op == "insert":
            ids = index.insert(req.points)
            self._journal_mutation(
                req, {"points": np.asarray(req.points, dtype=np.float64).tolist(), "ids": ids}
            )
            return {"ids": ids, "n_live": index.n_live,
                    "fingerprint": index.fingerprint()}, None

        if op == "delete":
            removed = index.delete(req.ids)
            self._journal_mutation(req, {"ids": sorted(set(int(i) for i in req.ids))})
            return {"deleted": removed, "n_live": index.n_live,
                    "fingerprint": index.fingerprint()}, None

        if op == "count":
            # Counts are the ladder's floor: always exact, any rung.
            result = index.count(
                req.eps, req.min_samples, queries=req.points,
                device=self.device, watchdog=watchdog,
            )
            return result, None

        if op == "knn":
            if rung in ("cached", "count_only"):
                # knn has no weaker exact form below `full`; shed it
                # rather than fake it.
                raise _LadderShed()
            result = index.knn(
                req.k, queries=req.points, device=self.device, watchdog=watchdog,
            )
            return result, None

        # -- cluster, down the ladder -----------------------------------------
        cache_key = (req.index, index.generation, req.eps, req.min_samples)
        if rung == "full":
            result = index.cluster(
                req.eps, req.min_samples, device=self.device, watchdog=watchdog,
            )
            self._cache[cache_key] = result
            self._cache.move_to_end(cache_key)
            while len(self._cache) > self.config.result_cache_size:
                self._cache.popitem(last=False)
            return result, None
        if rung == "cached":
            hit = self._cache.get(cache_key)
            if hit is not None:
                self._cache.move_to_end(cache_key)
                return dict(hit), "cached"
            result = index.cluster(
                req.eps, req.min_samples, device=self.device,
                watchdog=watchdog, count_only=True,
            )
            return result, "cache_miss_count_only"
        # count_only rung
        result = index.cluster(
            req.eps, req.min_samples, device=self.device,
            watchdog=watchdog, count_only=True,
        )
        return result, "count_only"

    # -- reporting -------------------------------------------------------------

    def _refresh_gauges(self) -> None:
        """Re-derive the exposition-time gauges (SLO budgets, trace-drop
        health, event-ring evictions) from current state — called before
        every ``/metrics`` scrape and ``health()`` evaluation."""
        record_slo_gauges(
            self.metrics,
            evaluate_slos(self.metrics, self.config.slos, rows=self.ledger),
        )
        record_trace_health(self.metrics, tracer=self.tracer, devices=(self.device,))
        self.metrics.gauge(
            "repro_service_events_dropped",
            "structured events evicted from the bounded ring",
        ).set(self.events.dropped)

    def slo_status(self) -> list[dict]:
        """Every configured objective's error-budget status (``last:N``
        windows evaluate over the request ledger)."""
        return evaluate_slos(self.metrics, self.config.slos, rows=self.ledger)

    def health(self) -> dict:
        """Structured health: ``ok`` iff no breaker is open and every SLO
        is within budget.  The ``/healthz`` endpoint serialises this
        verbatim (HTTP 200 when ok, 503 otherwise)."""
        self._refresh_gauges()
        slos = self.slo_status()
        breakers = {
            name: {"state": b.state, "trips": b.trips}
            for name, b in self.breakers.items()
        }
        ok = all(s["ok"] for s in slos) and all(
            b["state"] != "open" for b in breakers.values()
        )
        return {
            "ok": ok,
            "indexes": {
                name: {"generation": si.generation, "n_live": si.n_live}
                for name, si in self.indexes.items()
            },
            "breakers": breakers,
            "admission": {
                "backlog": self.admission.backlog(),
                "pressure": self.admission.pressure(),
                "queue_depth": self.admission.queue_depth(),
            },
            "slos": slos,
            "events": self.events.stats(),
        }

    def _stats(self) -> dict:
        return {
            "seq": self.seq,
            "indexes": {name: si.stats() for name, si in self.indexes.items()},
            "breakers": {
                name: {"state": b.state, "trips": b.trips}
                for name, b in self.breakers.items()
            },
            "backlog": self.admission.backlog(),
            "pressure": self.admission.pressure(),
            "queue_depth": self.admission.queue_depth(),
            "admitted_total": self.admission.admitted_total,
            "shed_total": self.admission.shed_total,
            "journal_entries": len(self.journal),
            "replayed_entries": self.replayed_entries,
            "requests_handled": len(self.ledger),
            "events": self.events.stats(),
        }

    def verify_metrics_ledger(self) -> dict:
        """Prove the Prometheus totals equal the request ledger.

        Returns the comparison (``ok`` plus both sides per check);
        raises ``AssertionError`` on any mismatch — CI calls this after
        every traffic run.
        """
        by_status: dict[str, int] = {}
        by_op_status: dict[tuple, int] = {}
        for row in self.ledger:
            by_status[row["status"]] = by_status.get(row["status"], 0) + 1
            key = (row["op"], row["status"])
            by_op_status[key] = by_op_status.get(key, 0) + 1
        checks = {
            "requests_total": (self._m_requests.total(), float(len(self.ledger))),
            "latency_count": (
                float(sum(n for (_op, _s), n in by_op_status.items())),
                float(len(self.ledger)),
            ),
            "degraded_total": (
                self._m_degraded.total(),
                float(by_status.get("degraded", 0)),
            ),
        }
        for (op, status), n in sorted(by_op_status.items()):
            checks[f"requests{{op={op},status={status}}}"] = (
                self._m_requests.value(op=op, status=status),
                float(n),
            )
        mismatches = {k: v for k, v in checks.items() if v[0] != v[1]}
        if mismatches:
            raise AssertionError(f"metrics/ledger mismatch: {mismatches}")
        return {"ok": True, "checks": {k: v[0] for k, v in checks.items()}}

    # -- stdin loop ------------------------------------------------------------

    def serve_lines(self, in_stream, out_stream) -> int:
        """Serve newline-delimited JSON until EOF; returns requests served."""
        import json as _json

        served = 0
        for line in in_stream:
            line = line.strip()
            if not line:
                continue
            response = self.handle_line(line)
            out_stream.write(_json.dumps(response, separators=(",", ":")) + "\n")
            out_stream.flush()
            served += 1
        return served


class _LadderShed(Exception):
    """Internal: an executor rung refused the op (knn below full)."""
