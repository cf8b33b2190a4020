"""Resilient clustering service — the ROADMAP's serving tier.

A long-lived request loop (stdin-JSON via :meth:`ClusteringService.serve_lines`,
HTTP via :mod:`repro.service.http`) serving cluster / count / knn queries
and insert / delete mutations against named, persistent indexes.  The
package is organised around its failure modes:

``protocol``
    Request schema, size caps and typed parse errors (``malformed`` /
    ``oversized`` are *expected* inputs, not crashes).
``admission``
    Virtual-time admission control: bounded in-flight backlog and queue
    depth with explicit ``Retry-After`` backpressure.
``breaker``
    Per-index circuit breaker over kernel faults, recovering via
    half-open probes.
``degrade``
    The declared degradation ladder — ``full → cached → count_only →
    shed`` — selected by backlog pressure.
``journal``
    Append-only mutation journal; a restarted service replays it to the
    exact pre-crash index fingerprints.
``state``
    :class:`ServiceIndex` — mutable, crash-safe index state: the live
    points in id order and one index over them, rebuilt at the first
    query after a mutation; ``cluster`` runs ``fdbscan`` on it.
``service``
    :class:`ClusteringService` — the loop tying it all together, feeding
    ``repro.obs`` spans and Prometheus-style metrics per request.
``traffic``
    Seeded synthetic traffic generator + latency-percentile report.

See ``docs/service.md`` for the protocol and the robustness contracts.
"""

from repro.service.admission import AdmissionController, AdmissionDecision
from repro.service.breaker import CircuitBreaker
from repro.service.degrade import LADDER, DegradationLadder
from repro.service.journal import Journal, JournalCorruptError
from repro.service.protocol import (
    MalformedRequestError,
    OversizedRequestError,
    ProtocolError,
    Request,
    parse_request,
)
from repro.service.service import ClusteringService, ServiceConfig
from repro.service.state import ServiceIndex
from repro.service.traffic import run_traffic, save_traffic_report

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "CircuitBreaker",
    "ClusteringService",
    "DegradationLadder",
    "Journal",
    "JournalCorruptError",
    "LADDER",
    "MalformedRequestError",
    "OversizedRequestError",
    "ProtocolError",
    "Request",
    "ServiceConfig",
    "ServiceIndex",
    "parse_request",
    "run_traffic",
    "save_traffic_report",
]
