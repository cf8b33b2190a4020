"""Optional HTTP front-end over the stdin-loop service (stdlib only).

Endpoints:

- ``POST /`` — one request body (the same JSON the stdin loop takes);
  the service response comes back as JSON.  HTTP status mirrors the
  service status: 200 for ``ok``/``degraded``, 400 for ``rejected``,
  404/409 mapped from the error code, 429 with a ``Retry-After`` header
  for ``shed``, 500 otherwise.
- ``GET /metrics`` — Prometheus text exposition (SLO budget and trace-
  health gauges refreshed at scrape time).
- ``GET /healthz`` — structured readiness: the service's ``health()``
  JSON (per-index breaker state, admission pressure, SLO error budgets,
  event-log stats); 200 when ``ok``, 503 when a breaker is open or an
  objective's budget is spent.

The service object is single-threaded by design (one simulated device);
a lock serialises handler access so ``ThreadingHTTPServer``'s per-
connection threads cannot interleave requests mid-traversal.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.service.service import ClusteringService

_STATUS_HTTP = {"ok": 200, "degraded": 200, "rejected": 400, "shed": 429}
_ERROR_HTTP = {"not_found": 404, "conflict": 409, "deadline_exceeded": 504}


def make_handler(service: ClusteringService, lock: threading.Lock):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, fmt, *args):  # quiet by default
            pass

        def _send(self, code: int, body: str, content_type: str, retry_after=None):
            data = body.encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            if retry_after is not None:
                self.send_header("Retry-After", f"{retry_after:.3f}")
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path == "/metrics":
                with lock:
                    service._refresh_gauges()
                    text = service.metrics.to_prometheus()
                self._send(200, text, "text/plain; version=0.0.4")
            elif self.path == "/healthz":
                with lock:
                    health = service.health()
                self._send(
                    200 if health["ok"] else 503,
                    json.dumps(health, separators=(",", ":")),
                    "application/json",
                )
            else:
                self._send(404, '{"error":"not found"}', "application/json")

        def do_POST(self):
            if self.path != "/":
                self._send(404, '{"error":"not found"}', "application/json")
                return
            length = int(self.headers.get("Content-Length", 0))
            body = self.rfile.read(length)
            arrival = service.uptime()
            with lock:
                response = service.handle(body, arrival=arrival)
            status = response.get("status", "error")
            code = _STATUS_HTTP.get(status)
            if code is None:
                code = _ERROR_HTTP.get(
                    response.get("error", {}).get("code", ""), 500
                )
            self._send(
                code,
                json.dumps(response, separators=(",", ":")),
                "application/json",
                retry_after=response.get("retry_after"),
            )

    return Handler


def serve_http(service: ClusteringService, host: str = "127.0.0.1", port: int = 8088):
    """Run the HTTP front-end until interrupted; returns the bound server.

    Binds, then blocks in ``serve_forever`` — callers wanting a
    background server should use :func:`start_http` instead.
    """
    server = start_http(service, host, port)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.shutdown()
        server.server_close()
    return server


def start_http(service: ClusteringService, host: str = "127.0.0.1", port: int = 0):
    """Bind a :class:`ThreadingHTTPServer` (``port=0`` = ephemeral) and
    return it *without* blocking; callers drive ``serve_forever`` on a
    thread and ``shutdown()`` when done."""
    lock = threading.Lock()
    handler = make_handler(service, lock)
    server = ThreadingHTTPServer((host, port), handler)
    server.service = service
    return server
