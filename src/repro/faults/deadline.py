"""Deadlines: cooperative watchdogs for traversals, kernels and bench cells.

A production request cannot be allowed to run forever — but the wavefront
traversals are long-lived loops with no natural preemption point, so the
deadline has to be *threaded through* them, the same way ``finished_fn``
early-exit is.  :class:`Deadline` is that thread: a single object that

- the traversals poll once per wavefront step (pass
  ``deadline.check`` as the ``watchdog=`` argument of
  :func:`~repro.bvh.traversal.for_each_leaf_hit` or any API above it);
- a :class:`~repro.device.device.Device` polls once per kernel launch
  (install :meth:`as_fault_hook` — the bench harness's per-cell watchdog,
  coarse but algorithm-agnostic);

and that raises :class:`DeadlineExceededError` the first time it is
consulted past its budget.

Two budget modes, usable together (whichever expires first wins):

``seconds``
    Elapsed time on a clock — wall (``time.monotonic``) by default, or
    any object with a ``now()`` method (e.g.
    :class:`~repro.faults.clock.SimClock` for deterministic replays).
``max_checks``
    A *step* budget: the deadline expires on the check after the
    ``max_checks``-th.  Fully deterministic — the chaos suite's
    "deadline storm" uses this so a storm of impossible deadlines
    reproduces bit-identically from a seed.

``DeadlineExceededError`` is deliberately **not** a
:class:`~repro.faults.retry.TransientFault`: retrying an expired budget
cannot succeed, so retry policies must let it propagate.
"""

from __future__ import annotations

import time


class DeadlineExceededError(RuntimeError):
    """A cooperative watchdog found its budget exhausted.

    Carries ``label`` (whose deadline), ``elapsed`` seconds and ``checks``
    performed, so handlers can report how far the work got.
    """

    def __init__(self, label: str, elapsed: float, checks: int, detail: str = ""):
        self.label = label
        self.elapsed = float(elapsed)
        self.checks = int(checks)
        self.detail = detail
        msg = f"deadline {label!r} exceeded after {elapsed:.6f}s / {checks} checks"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class _WallClock:
    """Minimal clock adapter over ``time.monotonic`` (the default)."""

    @staticmethod
    def now() -> float:
        return time.monotonic()


class Deadline:
    """A per-request (or per-cell) budget with a ``check()`` that raises.

    Parameters
    ----------
    seconds:
        Time budget, measured from construction on ``clock``.  ``None``
        disables the time mode.
    max_checks:
        Deterministic step budget: the ``(max_checks + 1)``-th call to
        :meth:`check` raises.  ``0`` means the very first check fires —
        the tightest possible storm.  ``None`` disables the step mode.
    clock:
        Object with ``now() -> float``; defaults to wall time.
    label:
        Identifies the budget in the raised error.

    A deadline with neither budget never expires (``check()`` is then a
    cheap no-op counter), so callers can thread one unconditionally.
    """

    def __init__(
        self,
        seconds: float | None = None,
        max_checks: int | None = None,
        clock=None,
        label: str = "deadline",
    ):
        if seconds is not None and seconds < 0:
            raise ValueError(f"seconds must be >= 0; got {seconds}")
        if max_checks is not None and max_checks < 0:
            raise ValueError(f"max_checks must be >= 0; got {max_checks}")
        self.seconds = seconds
        self.max_checks = max_checks
        self.clock = clock if clock is not None else _WallClock()
        self.label = label
        self.checks = 0
        self._start = self.clock.now()

    def elapsed(self) -> float:
        """Seconds since construction on the deadline's clock."""
        return self.clock.now() - self._start

    def expired(self) -> bool:
        """Whether either budget is exhausted (does not count as a check)."""
        if self.max_checks is not None and self.checks > self.max_checks:
            return True
        if self.seconds is not None and self.elapsed() > self.seconds:
            return True
        return False

    def remaining(self) -> float | None:
        """Seconds left on the time budget (``None`` without one)."""
        if self.seconds is None:
            return None
        return max(0.0, self.seconds - self.elapsed())

    def check(self, detail: str = "") -> None:
        """Count one poll; raise :class:`DeadlineExceededError` if over
        budget.  This is the traversal ``watchdog=`` callable."""
        self.checks += 1
        if self.max_checks is not None and self.checks > self.max_checks:
            raise DeadlineExceededError(self.label, self.elapsed(), self.checks, detail)
        if self.seconds is not None and self.elapsed() > self.seconds:
            raise DeadlineExceededError(self.label, self.elapsed(), self.checks, detail)

    def as_fault_hook(self):
        """A ``Device.fault_hook`` polling this deadline once per kernel
        launch — the bench harness's algorithm-agnostic cell watchdog."""

        def hook(kernel_name: str) -> None:
            self.check(detail=f"kernel={kernel_name}")

        return hook

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Deadline(label={self.label!r}, seconds={self.seconds}, "
            f"max_checks={self.max_checks}, checks={self.checks})"
        )
