"""ECL-style synchronisation-free union-find, batched and vectorised.

The device-side structure is a single int64 ``parents`` array: element
``x`` is a root iff ``parents[x] == x``.  The three kernels the paper uses
(Section 4) appear here as:

:func:`find_roots`
    Vectorised *intermediate pointer jumping*: while following parent
    pointers, every element on the path is re-pointed to its grandparent
    (``parents[v] = parents[parents[v]]``), halving path lengths per sweep
    — Jaiganesh & Burtscher's middle ground between no compression and
    full compression, chosen because it needs no extra passes or atomics.

:func:`union_batch`
    Processes a whole batch of edges at once, mirroring the lock-free
    hooking race: each edge finds its two roots and the *larger root is
    hooked under the smaller*.  When several edges race to hook the same
    root in one sweep, ``atomicMin`` semantics (``np.minimum.at``) pick the
    smallest candidate parent — the same resolution concurrent atomicMin
    hooking converges to.  Sweeps repeat until every edge's endpoints share
    a root; hook-to-smaller guarantees monotone progress, so at most
    ``O(log n)`` sweeps are needed.

:func:`finalize_labels`
    The paper's finalisation kernel: intermediate jumping does not leave
    every path fully compressed at the end of the main phase, so one last
    pass points every element directly at its representative.

:class:`EclUnionFind` wraps the three kernels with device accounting.
"""

from __future__ import annotations

import numpy as np

from repro.device.counters import KernelCounters
from repro.device.device import Device, default_device


def find_roots(
    parents: np.ndarray,
    queries: np.ndarray,
    counters: KernelCounters | None = None,
    compress: bool = True,
) -> np.ndarray:
    """Root of each query element, with intermediate pointer jumping.

    ``parents`` is mutated (paths shorten) when ``compress`` is true; the
    forest's set structure is never changed, only flattened.
    """
    queries = np.asarray(queries, dtype=np.int64)
    current = parents[queries]
    steps = 0
    while True:
        nxt = parents[current]
        steps += 1
        moving = nxt != current
        if not moving.any():
            break
        if compress:
            # Intermediate jumping: skip the visited element over its
            # parent.  np.minimum.at resolves concurrent writes to one
            # element the way racing device stores do — any of the written
            # values is a valid grandparent; minimum keeps it deterministic
            # and monotone (parents only ever decrease toward roots,
            # because hooking attaches larger roots under smaller ones).
            np.minimum.at(parents, current[moving], parents[nxt[moving]])
        current = np.where(moving, nxt, current)
    if counters is not None:
        counters.add("find_steps", steps)
    return current


def union_batch(
    parents: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    counters: KernelCounters | None = None,
) -> int:
    """Union the sets of ``a[k]`` and ``b[k]`` for every edge ``k``.

    Returns the number of hooking sweeps.  Equal-endpoint and repeated
    edges are harmless (union is idempotent).
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape:
        raise ValueError(f"edge arrays differ in shape: {a.shape} vs {b.shape}")
    if counters is not None:
        counters.add("union_ops", a.shape[0])
    sweeps = 0
    while a.size:
        sweeps += 1
        ra = find_roots(parents, a, counters)
        rb = find_roots(parents, b, counters)
        unresolved = ra != rb
        if not unresolved.any():
            break
        a = a[unresolved]
        b = b[unresolved]
        hi = np.maximum(ra[unresolved], rb[unresolved])
        lo = np.minimum(ra[unresolved], rb[unresolved])
        # Lock-free hooking: larger root under smaller; concurrent hooks of
        # the same root resolve to the smallest candidate (atomicMin).
        np.minimum.at(parents, hi, lo)
    return sweeps


def finalize_labels(
    parents: np.ndarray, counters: KernelCounters | None = None
) -> np.ndarray:
    """Flatten every element's label to its representative, in place.

    After this kernel ``parents[x] == parents[parents[x]]`` for all ``x`` —
    the invariant the paper's finalisation phase establishes so cluster
    labels can be read off directly.  Returns ``parents``.
    """
    n = parents.shape[0]
    idx = np.arange(n, dtype=np.int64)
    roots = find_roots(parents, idx, counters)
    parents[:] = roots
    return parents


class EclUnionFind:
    """Device-accounted wrapper around the batched union-find kernels.

    Parameters
    ----------
    n:
        Element count; the structure starts as ``n`` singleton sets
        (``parents[x] = x``), the "forest of singleton non-overlapping
        trees" of Section 3.1.
    device:
        Accounting device; the parents array is charged to the
        ``"labels"`` tag (the paper stores cluster labels in this array).
    """

    def __init__(self, n: int, device: Device | None = None):
        if n < 0:
            raise ValueError(f"negative element count: {n}")
        self.device = default_device(device)
        self.parents = np.arange(n, dtype=np.int64)
        self.device.memory.allocate(self.parents.nbytes, tag="labels")

    @property
    def n(self) -> int:
        return self.parents.shape[0]

    def find(self, queries: np.ndarray) -> np.ndarray:
        """Representatives of the queried elements (with path shortening)."""
        return find_roots(self.parents, queries, self.device.counters)

    def union(self, a: np.ndarray, b: np.ndarray) -> None:
        """Union the sets of the edge endpoints ``(a[k], b[k])``."""
        union_batch(self.parents, a, b, self.device.counters)

    def finalize(self) -> np.ndarray:
        """Run the finalisation kernel; returns the flat labels array."""
        with self.device.kernel("uf_finalize", threads=self.n) as launch:
            finalize_labels(self.parents, self.device.counters)
            launch.steps = 1
        return self.parents

    def release(self) -> None:
        """Return the parents array's ``"labels"`` bytes to the device
        ledger, once the labels have been read off it."""
        self.device.memory.free(self.parents.nbytes, tag="labels")

    def n_sets(self) -> int:
        """Number of disjoint sets currently represented."""
        return int(np.count_nonzero(self.parents == np.arange(self.n)))
