"""Per-request structured event log: join any outcome to its trace.

Metrics aggregate and spans time things, but neither answers the
on-call question "*which* request was shed, at what pressure, under
which index generation, and where is its trace?"  The event log does:
one structured record per handled request —

``seq, id, op, index, index_generation, status, mode, error_code,
predicted_cost, observed_wall, backlog, pressure, retry_after,
trace_id, span_id``

— where ``predicted_cost`` is the admission controller's virtual-cost
estimate (per-point constants with a floor, see
``docs/service.md``), ``observed_wall`` is the measured wall latency,
and ``trace_id``/``span_id`` are the exemplar linking the record to the
request's span in the trace tree.  A shed or deadline miss in a traffic
report can therefore be joined to its exact trace, and the
predicted-vs-observed columns show how far admission's estimate is from
the measured cost.

The log is **bounded** two ways: the in-memory ring keeps the last
``maxlen`` events (``dropped`` counts evictions, surfaced as a gauge),
and the optional JSONL file is size-capped — when appended lines exceed
``maxlen``, the file is compacted to the ring's contents, so a
long-lived service cannot grow an unbounded audit file.  Events are
plain JSON-ready dicts; the file is newline-delimited JSON, one event
per line, append-ordered.
"""

from __future__ import annotations

import json
from collections import deque

#: Default in-memory ring capacity (and JSONL file line cap).
DEFAULT_EVENT_MAXLEN = 4096


class EventLog:
    """Bounded per-request event ring with optional JSONL write-through."""

    def __init__(self, path: str | None = None, maxlen: int = DEFAULT_EVENT_MAXLEN):
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1; got {maxlen}")
        self.path = path
        self.maxlen = int(maxlen)
        self.events: "deque[dict]" = deque(maxlen=self.maxlen)
        self.appended_total = 0
        self._file_lines = 0
        if path is not None:
            # Re-attaching to an existing file (e.g. after a simulated
            # crash): keep appending, with the line cap still honoured.
            try:
                with open(path, encoding="utf-8") as fh:
                    self._file_lines = sum(1 for line in fh if line.strip())
            except FileNotFoundError:
                pass

    def append(self, event: dict) -> dict:
        """Record one event (JSON-ready dict); returns it."""
        self.events.append(event)
        self.appended_total += 1
        if self.path is not None:
            if self._file_lines >= self.maxlen:
                self._compact()
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(event, separators=(",", ":"), sort_keys=True) + "\n")
            self._file_lines += 1
        return event

    def _compact(self) -> None:
        """Rewrite the JSONL file to the ring's current contents."""
        with open(self.path, "w", encoding="utf-8") as fh:
            for event in self.events:
                fh.write(json.dumps(event, separators=(",", ":"), sort_keys=True) + "\n")
        self._file_lines = len(self.events)

    @property
    def dropped(self) -> int:
        """Events evicted from the bounded ring."""
        return self.appended_total - len(self.events)

    def snapshot(self) -> list[dict]:
        """The ring as a list, oldest first."""
        return [dict(e) for e in self.events]

    def stats(self) -> dict:
        return {
            "appended": self.appended_total,
            "retained": len(self.events),
            "dropped": self.dropped,
            "path": self.path,
        }

    def __len__(self) -> int:
        return len(self.events)


def load_events(path: str) -> list[dict]:
    """Read a JSONL event file back (skipping blank lines)."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
