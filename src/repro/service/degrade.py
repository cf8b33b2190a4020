"""The degradation ladder: declared, ordered, pressure-driven.

Under load the service does not fail — it descends an explicit ladder,
each rung trading answer quality (or freshness) for work, and every
response *names* the rung it was served from:

``full``
    Run the request: exact answer, ``mode=None``.
``cached``
    Serve the last exact result for identical ``(generation, op,
    params)`` from the result cache — stale-bounded by the index
    generation, so never *wrong*, only possibly cheaper than recompute.
    A cache miss falls through to ``count_only``.
``count_only``
    Skip the union-find main phase entirely: answer with core counts
    only (an early-exited preprocessing pass).  Explicitly degraded —
    ``status="degraded"``, ``mode="count_only"``.
``shed``
    Refuse with ``Retry-After``; no device work.

The rung is selected from the admission controller's backlog pressure by
fixed thresholds, so a seeded traffic replay descends the ladder at the
same requests every run.
"""

from __future__ import annotations

#: The ladder, best to worst.
LADDER = ("full", "cached", "count_only", "shed")


class DegradationLadder:
    """Map backlog pressure to a ladder rung.

    ``thresholds`` are the pressure cut-points for rungs 1..3: below
    ``thresholds[0]`` requests run ``full``; from ``thresholds[-1]`` up
    they are shed.  (The admission controller typically sheds by backlog
    bound first — the ladder's ``shed`` rung is the belt to that brace.)
    """

    def __init__(self, thresholds: tuple = (0.6, 0.8, 0.95)):
        if len(thresholds) != len(LADDER) - 1:
            raise ValueError(f"need {len(LADDER) - 1} thresholds; got {len(thresholds)}")
        if list(thresholds) != sorted(thresholds):
            raise ValueError(f"thresholds must be non-decreasing; got {thresholds}")
        self.thresholds = tuple(float(t) for t in thresholds)

    def rung(self, pressure: float) -> str:
        for cut, rung in zip(self.thresholds, LADDER):
            if pressure < cut:
                return rung
        return LADDER[-1]
