"""Fault injection and fault tolerance for the (simulated) distributed stack.

The paper's production context — ArborX under MPI at exascale — has to
survive the single most common production event: something failing
mid-run.  This package supplies both halves of that story:

``plan``
    :class:`FaultPlan` — deterministic, seed-driven fault plans injecting
    message drop / duplication / reordering / bit-flip corruption /
    transient timeouts into :class:`~repro.distributed.comm.SimulatedComm`,
    phase-boundary rank crashes into the distributed driver, and transient
    device faults (OOM / kernel) into :class:`~repro.device.Device` via its
    ``fault_hook``.  Every injected fault lands in a structured log;
    replaying a seed reproduces the identical log.

``retry``
    :class:`RetryPolicy` — which error classes are transient, a bounded
    attempt budget, and bounded exponential backoff — plus
    :func:`call_with_retries`.

``clock``
    :class:`SimClock` — a deterministic virtual clock so retry waits are
    replayable and accountable rather than wall-clock noise.

``deadline``
    :class:`Deadline` — cooperative watchdogs threaded through the
    traversals (``watchdog=``) or armed as a ``Device.fault_hook``;
    wall-clock or deterministic step budgets, raising
    :class:`DeadlineExceededError` (deliberately *not* transient).

The chaos-test suite (``tests/test_chaos.py``, pytest marker ``chaos``)
fuzzes random fault plans over the distributed driver and asserts the
result stays DBSCAN-equivalent to a single-device run whenever at least
one rank survives.
"""

from repro.faults.clock import SimClock
from repro.faults.deadline import Deadline, DeadlineExceededError
from repro.faults.plan import (
    DEVICE_FAULT_KINDS,
    MESSAGE_FAULT_KINDS,
    SERVICE_FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    FaultSpec,
)
from repro.faults.retry import RetryPolicy, TransientFault, call_with_retries

__all__ = [
    "DEVICE_FAULT_KINDS",
    "MESSAGE_FAULT_KINDS",
    "SERVICE_FAULT_KINDS",
    "Deadline",
    "DeadlineExceededError",
    "FaultEvent",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "SimClock",
    "TransientFault",
    "call_with_retries",
]
