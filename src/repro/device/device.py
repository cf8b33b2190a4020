"""The :class:`Device` handle: one simulated GPU per algorithm run.

A :class:`Device` bundles the three pieces of per-run accounting the
reproduction reports alongside wall-clock time:

- :attr:`Device.counters` — machine-independent work counters
  (:class:`~repro.device.counters.KernelCounters`);
- :attr:`Device.memory`   — the device-memory ledger
  (:class:`~repro.device.memory.MemoryTracker`), optionally capped;
- the **kernel trace**   — every batched kernel the algorithms execute is
  wrapped in :meth:`Device.kernel`, which records a per-launch span (name,
  logical thread count, wavefront steps, wall seconds, counter deltas)
  into a bounded ring, giving a per-phase timing breakdown equivalent to
  ``nvprof`` (:meth:`Device.profile`, :meth:`Device.trace_snapshot`).

The trace additionally supports **build-cost replay**: a block of work
(e.g. one BVH construction) recorded with :meth:`Device.recording` can be
re-accounted on a *different* device with :meth:`Device.replay`.  This is
what lets a benchmark sweep reuse a prebuilt spatial index on a fresh
per-cell device while keeping that cell's counters, trace and memory peak
comparable to a cold run: the reused build's launches appear in the trace
flagged ``replayed=True`` and its counters/bytes are added exactly once
per cell.

Algorithms accept ``device=None`` and fall back to a shared default device
(:func:`get_default_device`), so casual callers never see this machinery.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from repro.device.counters import KernelCounters
from repro.device.memory import MemoryTracker

#: Default capacity of the kernel-trace ring.  Old launches are evicted
#: first; :attr:`Device.trace_dropped` reports how many were lost.
DEFAULT_TRACE_MAXLEN = 4096


class KernelFaultError(RuntimeError):
    """A transient, retryable kernel-launch failure.

    Raised by an installed :attr:`Device.fault_hook` (see
    :mod:`repro.faults`) to model the soft faults a long-running GPU fleet
    sees — ECC events, Xid resets, preempted launches — which a resilient
    driver retries rather than treating as fatal.
    """


@dataclass
class KernelLaunch:
    """Record of one batched kernel execution (a trace span).

    ``counters`` holds the counter *deltas* observed while the kernel body
    ran (``frontier_peak``, a high-watermark, is reported as its value at
    span end).  Spans of nested :meth:`Device.kernel` blocks overlap: the
    outer span's ``seconds`` and deltas include the inner's (*inclusive*
    time), while ``self_seconds`` is the outer span's time with every
    directly nested kernel span subtracted (*self* / exclusive time) — so
    ``sum(self_seconds)`` over any trace counts each wall second at most
    once.  ``replayed`` marks spans re-accounted from a recorded build
    (see :meth:`Device.replay`) rather than executed live; their
    ``seconds`` are the original execution's.
    """

    name: str
    threads: int
    seconds: float
    steps: int = 0
    t_start: float = 0.0
    counters: dict = field(default_factory=dict)
    replayed: bool = False
    self_seconds: float = 0.0


@dataclass
class ReplayableCost:
    """A recorded block of device work that can be re-accounted later.

    Produced by :meth:`Device.recording`; consumed by
    :meth:`Device.replay`.  Holds the block's launches, counter deltas,
    *net* memory growth per tag, and wall seconds.
    """

    launches: list[KernelLaunch] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    mem_by_tag: dict = field(default_factory=dict)
    seconds: float = 0.0


@dataclass
class Device:
    """A simulated GPU: counters + memory ledger + kernel trace.

    Parameters
    ----------
    name:
        Cosmetic identifier, shown in reports.
    capacity_bytes:
        Device memory cap forwarded to :class:`MemoryTracker`; ``None``
        (default) disables OOM simulation.
    trace_maxlen:
        Kernel-trace ring capacity (oldest launches evicted first).
    """

    name: str = "sim-gpu0"
    capacity_bytes: int | None = None
    counters: KernelCounters = field(default_factory=KernelCounters)
    memory: MemoryTracker = field(init=False)
    trace_maxlen: int = DEFAULT_TRACE_MAXLEN
    launches: "deque[KernelLaunch]" = field(init=False)
    launches_total: int = field(init=False, default=0)
    #: Optional fault-injection hook, called with the kernel name before
    #: every launch.  May raise (e.g. :class:`KernelFaultError` or
    #: :class:`~repro.device.memory.DeviceMemoryError`) to simulate the
    #: launch failing; the failed launch is not recorded in the trace.
    #: Installed/removed by :meth:`repro.faults.FaultPlan.device_faults`.
    fault_hook: object = field(default=None, compare=False)
    #: Optional :class:`~repro.obs.span.Tracer`: when set, every kernel
    #: launch (and every replayed launch) is additionally recorded as a
    #: span in the shared trace tree, parented under whatever span the
    #: tracer currently has open (a benchmark cell, a driver phase...).
    tracer: object = field(default=None, compare=False)
    _epoch: float = field(init=False, default=0.0)
    _kernel_stack: list = field(init=False, default_factory=list, compare=False)

    def __post_init__(self):
        self.memory = MemoryTracker(self.capacity_bytes)
        self.launches = deque(maxlen=self.trace_maxlen)
        self._epoch = time.perf_counter()

    @contextmanager
    def kernel(self, name: str, threads: int):
        """Context manager wrapping one batched kernel launch.

        ``threads`` is the logical thread count (one per query/point/edge,
        as the paper's kernels assign).  The block's wall time, counter
        deltas and the launch are recorded as a trace span; the yielded
        :class:`KernelLaunch` lets the kernel body report how many
        wavefront steps it took (a divergence proxy: fewer steps for the
        same work means better convergence of the batched traversal).

        Nested ``kernel`` blocks record both views of time: ``seconds``
        is inclusive (the outer span contains the inner's), and
        ``self_seconds`` is exclusive (nested kernel time subtracted), so
        aggregations can choose whichever semantics they need without
        double counting — see :meth:`profile`.
        """
        if self.fault_hook is not None:
            self.fault_hook(name)
        tracer = self.tracer
        tspan = (
            tracer.start(
                name, category="kernel", attributes={"device": self.name, "threads": int(threads)}
            )
            if tracer is not None
            else None
        )
        start = time.perf_counter()
        launch = KernelLaunch(
            name=name, threads=int(threads), seconds=0.0, t_start=start - self._epoch
        )
        self.counters.add("kernel_launches", 1)
        before = self.counters.snapshot()
        self._kernel_stack.append(0.0)
        try:
            yield launch
        except BaseException:
            if tspan is not None:
                tspan.status = "error"
            raise
        finally:
            launch.seconds = time.perf_counter() - start
            nested_seconds = self._kernel_stack.pop()
            launch.self_seconds = max(launch.seconds - nested_seconds, 0.0)
            if self._kernel_stack:
                self._kernel_stack[-1] += launch.seconds
            self.counters.add("thread_steps", launch.steps)
            launch.counters = self.counters.diff(before)
            self.launches.append(launch)
            self.launches_total += 1
            if tspan is not None:
                tspan.attributes["steps"] = launch.steps
                tspan.attributes.update(
                    {f"counter.{k}": v for k, v in launch.counters.items() if v}
                )
                tracer.end(tspan)
                tracer.counter("frontier_peak", self.counters.frontier_peak)
                tracer.counter("device_live_bytes", self.memory.live_bytes)

    # -- recording / replay ----------------------------------------------------

    @contextmanager
    def recording(self):
        """Record the device work of a block into a :class:`ReplayableCost`.

        Captures the launches appended, the counter deltas, the *net*
        per-tag memory growth and the wall seconds of the block.  The cost
        can then be re-accounted on another device with :meth:`replay` —
        the mechanism behind reusable-index benchmarking (the reused
        build's cost is charged to every run that shares it, keeping
        fresh-device runs comparable to cold ones).

        The yielded cost is filled in when the block exits, including on
        exception (so a failed build is never silently half-recorded —
        but callers should discard the cost in that case).
        """
        cost = ReplayableCost()
        before_counters = self.counters.snapshot()
        before_total = self.launches_total
        before_tags = dict(self.memory.live_by_tag)
        start = time.perf_counter()
        try:
            yield cost
        finally:
            cost.seconds = time.perf_counter() - start
            cost.counters = self.counters.diff(before_counters)
            new = self.launches_total - before_total
            recorded = list(self.launches)[-new:] if new else []
            cost.launches = [replace(l, counters=dict(l.counters)) for l in recorded]
            cost.mem_by_tag = {
                tag: held - before_tags.get(tag, 0)
                for tag, held in self.memory.live_by_tag.items()
                if held - before_tags.get(tag, 0) > 0
            }

    def replay(self, cost: ReplayableCost) -> None:
        """Re-account a recorded block of work on this device.

        Counter deltas are added (``frontier_peak``, a high-watermark, is
        merged with :meth:`~KernelCounters.observe_peak`), the recorded
        launches are appended to the trace flagged ``replayed=True`` with
        their original durations, and the net memory growth is allocated
        tag by tag — which raises
        :class:`~repro.device.memory.DeviceMemoryError` under a capacity
        cap exactly as the live build would have (counters are applied
        first, mirroring a cold run where the build work precedes the
        failing allocation).
        """
        for key, value in cost.counters.items():
            if key == "frontier_peak":
                self.counters.observe_peak(key, value)
            else:
                self.counters.add(key, value)
        now = time.perf_counter() - self._epoch
        tracer = self.tracer
        trace_t = tracer.now() if tracer is not None else 0.0
        for launch in cost.launches:
            self.launches.append(
                replace(launch, counters=dict(launch.counters), t_start=now, replayed=True)
            )
            self.launches_total += 1
            if tracer is not None:
                # Replayed spans keep their recorded durations; consecutive
                # launches are laid end-to-end from the replay instant so
                # the batch reconstructs the original build's timeline.
                tracer.add_span(
                    launch.name,
                    category="kernel.replayed",
                    t_start=trace_t,
                    seconds=launch.seconds,
                    attributes={
                        "device": self.name,
                        "threads": launch.threads,
                        "steps": launch.steps,
                        "replayed": True,
                        **{f"counter.{k}": v for k, v in launch.counters.items() if v},
                    },
                )
                trace_t += launch.seconds
        for tag, nbytes in cost.mem_by_tag.items():
            self.memory.allocate(nbytes, tag)

    # -- trace views -----------------------------------------------------------

    @property
    def trace_dropped(self) -> int:
        """Launches evicted from the bounded trace ring."""
        return self.launches_total - len(self.launches)

    def trace_snapshot(self) -> list[dict]:
        """The trace ring as a list of plain span dicts (oldest first)."""
        return [
            {
                "name": l.name,
                "threads": l.threads,
                "steps": l.steps,
                "seconds": l.seconds,
                "self_seconds": l.self_seconds,
                "t_start": l.t_start,
                "replayed": l.replayed,
                "counters": dict(l.counters),
            }
            for l in self.launches
        ]

    def profile(self) -> dict:
        """Per-kernel aggregation of the trace (the ``nvprof`` summary view).

        Returns ``{name: {"launches", "replayed", "seconds",
        "self_seconds", "replayed_seconds", "threads", "steps",
        "counters"}}`` where ``replayed`` counts the launches
        re-accounted from a recorded build (their seconds are included —
        that is what keeps warm-index runs comparable to cold ones) and
        ``replayed_seconds`` is those launches' wall time (what a strict
        cold-equivalent budget adds back, since a warm run never actually
        waited for it).

        **Time semantics.**  ``seconds`` is *inclusive* span time: a
        kernel launched inside another kernel's span contributes to both
        names, so summing ``seconds`` across names over-counts wall time
        whenever kernels nest.  ``self_seconds`` is *exclusive* (each
        span's time minus its directly nested kernel spans): summing
        ``self_seconds`` across all names counts every wall second at
        most once, which makes it the correct column for whole-trace
        shares.  ``counters`` are per-kernel launch-delta totals and are
        inclusive exactly like ``seconds`` (``frontier_peak``, a
        high-watermark, is merged by max) — so counter-per-second rates
        computed within one row are always consistent.
        """
        out: dict[str, dict] = {}
        for l in self.launches:
            entry = out.setdefault(
                l.name,
                {
                    "launches": 0,
                    "replayed": 0,
                    "seconds": 0.0,
                    "self_seconds": 0.0,
                    "replayed_seconds": 0.0,
                    "threads": 0,
                    "steps": 0,
                    "counters": {},
                },
            )
            entry["launches"] += 1
            entry["seconds"] += l.seconds
            entry["self_seconds"] += l.self_seconds
            entry["threads"] += l.threads
            entry["steps"] += l.steps
            if l.replayed:
                entry["replayed"] += 1
                entry["replayed_seconds"] += l.seconds
            for key, value in l.counters.items():
                if key == "frontier_peak":
                    entry["counters"][key] = max(entry["counters"].get(key, 0), value)
                else:
                    entry["counters"][key] = entry["counters"].get(key, 0) + value
        return out

    def reset(self) -> None:
        """Clear counters, memory accounting and the kernel trace."""
        self.counters.reset()
        self.memory.reset()
        self.launches.clear()
        self.launches_total = 0
        self._epoch = time.perf_counter()

    def phase_seconds(self) -> dict[str, float]:
        """Total wall seconds per kernel name (the ``nvprof`` style view)."""
        out: dict[str, float] = {}
        for launch in self.launches:
            out[launch.name] = out.get(launch.name, 0.0) + launch.seconds
        return out

    def report(self) -> dict:
        """Combined run report: counters, memory, per-kernel profile."""
        return {
            "device": self.name,
            "counters": self.counters.snapshot(),
            "memory": self.memory.report(),
            "kernels": self.phase_seconds(),
            "profile": self.profile(),
            "trace_dropped": self.trace_dropped,
        }


_DEFAULT_DEVICE = Device(name="default-sim-gpu")


def get_default_device() -> Device:
    """The shared fallback device used when callers pass ``device=None``."""
    return _DEFAULT_DEVICE


def default_device(device: Device | None) -> Device:
    """Resolve an optional device argument to a concrete :class:`Device`."""
    return device if device is not None else _DEFAULT_DEVICE
