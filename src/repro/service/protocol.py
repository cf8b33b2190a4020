"""Request protocol: one JSON object per request, typed parse errors.

A robust service treats garbage input as a *routine* input class, not an
exception path: :func:`parse_request` converts anything a client can send
— truncated JSON, wrong types, absurd sizes — into either a validated
:class:`Request` or a typed :class:`ProtocolError` whose ``code`` goes
straight into the error response.  Nothing a client sends may raise
anything else.

Wire format (stdin loop: one compact JSON object per line; HTTP: one per
POST body)::

    {"op": "cluster", "index": "main", "eps": 0.1, "min_samples": 5,
     "id": 42, "deadline_s": 0.5}

Fields
------
``op`` (required)
    One of :data:`OPS`.
``id``
    Client-chosen correlation id (string or number), echoed in the
    response; the service assigns ``"r<seq>"`` when omitted.
``index``
    Index name, required for every index-addressed op.
``points``
    ``[[x, y], ...]`` inline rows (``create_index``/``insert``; query
    points for ``count``/``knn`` — omitted means "the index's own live
    points").
``dataset``
    ``{"name": ..., "n": ..., "seed": ...}`` — generate the points from
    the named registry dataset instead of shipping them inline
    (``create_index`` only).
``eps`` / ``min_samples``
    Clustering parameters (``cluster``/``count``).
``k``
    Neighbour count (``knn``).
``ids``
    Point ids to remove (``delete``).
``deadline_s`` / ``deadline_checks``
    Per-request budget: wall seconds and/or a deterministic traversal
    step budget (whichever expires first).
``traversal``
    Accepted for compatibility with older clients and validated
    (``"single"``, ``"dual"`` or ``"auto"``), then ignored: there is one
    traversal engine, so answers never depend on it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

#: Accepted operations.
OPS = (
    "ping",
    "stats",
    "metrics",
    "create_index",
    "drop_index",
    "cluster",
    "count",
    "knn",
    "insert",
    "delete",
)

#: Ops that address a named index.
INDEX_OPS = ("create_index", "drop_index", "cluster", "count", "knn", "insert", "delete")

#: Ops that mutate index state (journaled).
MUTATION_OPS = ("create_index", "drop_index", "insert", "delete")

#: Default request size cap (bytes of the encoded JSON).
DEFAULT_MAX_REQUEST_BYTES = 1 << 20

#: Default cap on inline point rows per request.
DEFAULT_MAX_POINTS = 100_000


class ProtocolError(ValueError):
    """Base class for request-level failures; ``code`` names the class in
    the error response."""

    code = "protocol"


class MalformedRequestError(ProtocolError):
    """Not valid JSON / not an object / missing or mistyped fields."""

    code = "malformed"


class OversizedRequestError(ProtocolError):
    """Request over the byte or point-count cap."""

    code = "oversized"


@dataclass
class Request:
    """A validated request (see module docstring for field semantics)."""

    op: str
    id: object = None
    index: str | None = None
    points: np.ndarray | None = None
    dataset: dict | None = None
    eps: float | None = None
    min_samples: int | None = None
    k: int | None = None
    ids: list[int] = field(default_factory=list)
    deadline_s: float | None = None
    deadline_checks: int | None = None


def _require_number(obj: dict, key: str, positive: bool = True) -> float:
    value = obj.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise MalformedRequestError(f"{key!r} must be a number; got {value!r}")
    value = float(value)
    if not math.isfinite(value) or (positive and value <= 0):
        raise MalformedRequestError(f"{key!r} must be finite and positive; got {value}")
    return value


def _require_int(obj: dict, key: str, minimum: int = 1) -> int:
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise MalformedRequestError(f"{key!r} must be an integer; got {value!r}")
    if value < minimum:
        raise MalformedRequestError(f"{key!r} must be >= {minimum}; got {value}")
    return value


def _parse_points(rows, max_points: int) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise MalformedRequestError("'points' must be a non-empty list of rows")
    if len(rows) > max_points:
        raise OversizedRequestError(
            f"{len(rows)} points exceeds the per-request cap of {max_points}"
        )
    try:
        X = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise MalformedRequestError(f"'points' rows are not numeric: {exc}") from exc
    if X.ndim != 2:
        raise MalformedRequestError(
            f"'points' must be rectangular rows of coordinates; got shape {X.shape}"
        )
    if not 1 <= X.shape[1] <= 3:
        raise MalformedRequestError(
            f"points must have 1..3 coordinates per row; got {X.shape[1]}"
        )
    if not np.isfinite(X).all():
        raise MalformedRequestError("'points' contains non-finite values")
    return X


def parse_request(
    raw,
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
    max_points: int = DEFAULT_MAX_POINTS,
) -> Request:
    """Validate one wire request (str/bytes JSON or an already-decoded
    dict) into a :class:`Request`, raising only :class:`ProtocolError`
    subclasses."""
    if isinstance(raw, (bytes, bytearray)):
        if len(raw) > max_request_bytes:
            raise OversizedRequestError(
                f"request is {len(raw)} bytes; cap is {max_request_bytes}"
            )
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedRequestError(f"request is not UTF-8: {exc}") from exc
    if isinstance(raw, str):
        if len(raw.encode("utf-8", errors="replace")) > max_request_bytes:
            raise OversizedRequestError(
                f"request is {len(raw)} bytes; cap is {max_request_bytes}"
            )
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise MalformedRequestError(f"request is not valid JSON: {exc}") from exc
    else:
        obj = raw
    if not isinstance(obj, dict):
        raise MalformedRequestError(
            f"request must be a JSON object; got {type(obj).__name__}"
        )

    op = obj.get("op")
    if op not in OPS:
        raise MalformedRequestError(f"'op' must be one of {OPS}; got {op!r}")
    req = Request(op=op, id=obj.get("id"))
    if req.id is not None and not isinstance(req.id, (str, int, float)):
        raise MalformedRequestError("'id' must be a string or number")

    if op in INDEX_OPS:
        name = obj.get("index")
        if not isinstance(name, str) or not name:
            raise MalformedRequestError(f"op {op!r} needs a non-empty 'index' name")
        req.index = name

    if obj.get("traversal", "single") not in ("single", "dual", "auto"):
        raise MalformedRequestError(
            f"'traversal' must be 'single', 'dual' or 'auto'; got {obj['traversal']!r}"
        )

    if "deadline_s" in obj:
        req.deadline_s = _require_number(obj, "deadline_s")
    if "deadline_checks" in obj:
        req.deadline_checks = _require_int(obj, "deadline_checks", minimum=0)

    if op == "create_index":
        if "points" in obj:
            req.points = _parse_points(obj["points"], max_points)
        elif "dataset" in obj:
            ds = obj["dataset"]
            if not isinstance(ds, dict) or not isinstance(ds.get("name"), str):
                raise MalformedRequestError(
                    "'dataset' must be {'name': ..., 'n': ..., 'seed': ...}"
                )
            req.dataset = {
                "name": ds["name"],
                "n": _require_int(ds, "n") if "n" in ds else 1000,
                "seed": _require_int(ds, "seed", minimum=0) if "seed" in ds else 0,
            }
            if req.dataset["n"] > max_points:
                raise OversizedRequestError(
                    f"dataset n={req.dataset['n']} exceeds the cap of {max_points}"
                )
        else:
            raise MalformedRequestError("create_index needs 'points' or 'dataset'")
    elif op == "insert":
        req.points = _parse_points(obj.get("points"), max_points)
    elif op == "delete":
        ids = obj.get("ids")
        if (
            not isinstance(ids, list)
            or not ids
            or not all(isinstance(i, int) and not isinstance(i, bool) and i >= 0 for i in ids)
        ):
            raise MalformedRequestError("delete needs 'ids': a non-empty list of ids >= 0")
        req.ids = list(ids)
    elif op in ("cluster", "count"):
        req.eps = _require_number(obj, "eps")
        req.min_samples = _require_int(obj, "min_samples")
        if op == "count" and "points" in obj:
            req.points = _parse_points(obj["points"], max_points)
    elif op == "knn":
        req.k = _require_int(obj, "k")
        if "points" in obj:
            req.points = _parse_points(obj["points"], max_points)

    return req


def make_response(
    req_id,
    status: str,
    result: dict | None = None,
    mode: str | None = None,
    retry_after: float | None = None,
    error_code: str | None = None,
    error_message: str | None = None,
) -> dict:
    """Assemble the uniform response envelope.

    ``status`` is one of ``ok`` (exact answer), ``degraded`` (explicitly
    weaker answer per the ladder, named by ``mode``), ``shed`` (not
    attempted; come back in ``retry_after`` seconds), ``rejected``
    (malformed/oversized — retrying unchanged cannot help) and ``error``
    (attempted but failed; ``error.code`` says why).
    """
    resp: dict = {"id": req_id, "status": status}
    if mode is not None:
        resp["mode"] = mode
    if retry_after is not None:
        resp["retry_after"] = round(float(retry_after), 6)
    if result is not None:
        resp["result"] = result
    if error_code is not None:
        resp["error"] = {"code": error_code, "message": error_message or ""}
    return resp
