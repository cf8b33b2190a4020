"""Pluggable execution backends behind :class:`~repro.device.device.Device`.

Every batched kernel in the reproduction is, by default, a single-threaded
numpy wavefront executed in the calling process — the ``"serial"`` backend.
This module adds the first *real* execution substrate: the ``"process"``
backend fans the traversal's chunk work out over a persistent pool of OS
worker processes, with the tree's arrays published once through
``multiprocessing.shared_memory`` (zero-copy for the workers) and only the
per-chunk results crossing the queue.

The parent builds the launch's chunk plan
(:func:`repro.bvh.traversal.chunk_plan`: the ``(ids, engine)`` chunks
the serial runner would run, with ``auto`` already resolved) and ships
one job per chunk; each worker runs its chunk through the same
:func:`~repro.bvh.traversal.run_chunks` runner.  The contract (see
``docs/backends.md``) is **bit-identical results**:

- *chunk counts* (``count_within``): each query's count accumulates
  entirely inside its own chunk, so workers run ``count_within``'s own
  count kernel (:func:`~repro.bvh.traversal.count_kernel`) — including
  the ``stop_at`` early exit — and the parent scatters the disjoint
  per-chunk count slices back together.
- *leaf hits* (``for_each_leaf_hit`` with no ``finished_fn`` and no
  component mask): workers record each wavefront step's ``(query, leaf)``
  batches and the parent replays them through the caller's callback in
  (chunk, step) order — the *identical* callback sequence the serial
  runner produces, so every downstream consumer (the buffered
  ``PairResolver``, weighted accumulations, union-find counters) is
  reproduced bit-for-bit by construction.

Traversals that keep cross-chunk state (a stateful ``finished_fn``, the
Borůvka component mask) or plan a single chunk run the plan serially —
same results, no parallelism — so callers never need to know which
kernels parallelise.

Counter merge semantics: worker counter deltas are added to the parent
device *inside* the parent's wrapping :meth:`Device.kernel` span, except
``kernel_launches`` and ``thread_steps`` (the parent wrapper supplies
both, matching the serial engine's single launch) and ``frontier_peak``
(a high-watermark, merged via ``observe_peak``).  Worker launches are
additionally appended to the parent trace as ``name@w<k>`` lanes with
their wall/self seconds translated through a per-worker epoch handshake
(``perf_counter`` is CLOCK_MONOTONIC, comparable across processes on one
boot), so :meth:`Device.profile` and the span tracer keep working.
"""

from __future__ import annotations

import atexit
import os
import queue as _queue_mod
import time
import traceback
from collections import OrderedDict
from multiprocessing import shared_memory

import multiprocessing as mp

import numpy as np

from repro.device.device import Device, KernelFaultError

#: Accepted ``--backend`` names.
BACKENDS = ("serial", "process")

#: How many distinct trees the parent keeps published (and each worker
#: keeps attached) before evicting the least-recently-used segment.
_TREE_CACHE = 4
#: Per-worker cache of per-call query segments (closed LRU-style).
_CALL_CACHE = 8

#: Poll interval while waiting on worker results: bounds both watchdog
#: latency and dead-worker detection latency.
_POLL_S = 0.05


# ---------------------------------------------------------------------------
# shared-memory arenas
# ---------------------------------------------------------------------------


def _align(offset: int, alignment: int = 16) -> int:
    return (offset + alignment - 1) & ~(alignment - 1)


class ShmArena:
    """One shared-memory segment holding several named numpy arrays.

    The parent copies the arrays in once; workers attach by ``(name,
    descr)`` and get zero-copy views.  POSIX semantics make the lifecycle
    easy: the parent may ``unlink`` the segment while workers still have
    it mapped — the memory survives until the last mapping closes.
    """

    def __init__(self, arrays: dict[str, np.ndarray]):
        descr = []
        offset = 0
        prepared = {}
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            prepared[name] = arr
            offset = _align(offset)
            descr.append((name, arr.dtype.str, arr.shape, offset))
            offset += arr.nbytes
        self.shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        for (name, dtype, shape, off) in descr:
            arr = prepared[name]
            if arr.nbytes:
                dst = np.ndarray(shape, dtype=dtype, buffer=self.shm.buf, offset=off)
                dst[...] = arr
        self.descr = descr
        self.nbytes = max(offset, 1)

    @property
    def name(self) -> str:
        return self.shm.name

    def ref(self) -> tuple:
        """The picklable ``(shm_name, descr)`` handle workers attach by."""
        return (self.shm.name, self.descr)

    def destroy(self) -> None:
        try:
            self.shm.close()
        except Exception:
            pass
        try:
            self.shm.unlink()
        except Exception:
            pass


def _attach_arena(ref: tuple) -> tuple:
    """Worker side: map ``(shm_name, descr)`` to ``(shm, {name: array})``.

    The attachment is immediately unregistered from the resource tracker:
    the *parent* owns the segment's lifetime (it created and will unlink
    it); without the unregister, every worker exit would prompt the
    tracker to warn about — or worse, unlink — segments it does not own.
    """
    shm_name, descr = ref
    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass
    arrays = {
        name: np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=off)
        for (name, dtype, shape, off) in descr
    }
    return shm, arrays


class _SharedTree:
    """A BVH facade over shared-memory arrays.

    Carries exactly the attributes the traversal engines touch: the
    fitted boxes, the leaf-range visibility array and the packed
    parent-major child layout.  ``order``/``position`` stay in the
    parent — callbacks (which consume them) run there.
    """

    __slots__ = ("n_primitives", "node_lo", "node_hi", "node_range_hi", "_packed")

    def __init__(self, arrays: dict, meta: dict):
        self.n_primitives = int(meta["n_primitives"])
        self.node_lo = arrays["node_lo"]
        self.node_hi = arrays["node_hi"]
        self.node_range_hi = arrays["node_range_hi"]
        self._packed = (
            arrays["ch_ids"],
            arrays["ch_lo"],
            arrays["ch_hi"],
            arrays["ch_rng_hi"],
        )

    @property
    def n_internal(self) -> int:
        return self.n_primitives - 1

    @property
    def root(self) -> int:
        return 0

    @property
    def dim(self) -> int:
        return self.node_lo.shape[1]

    def packed_children(self) -> tuple:
        return self._packed


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------


def _cached_attach(cache: OrderedDict, key, ref, limit: int):
    entry = cache.get(key)
    if entry is None:
        entry = _attach_arena(ref)
        cache[key] = entry
        while len(cache) > limit:
            _, (old_shm, _) = cache.popitem(last=False)
            try:
                old_shm.close()
            except Exception:
                pass
    else:
        cache.move_to_end(key)
    return entry


def _execute_job(wdev: Device, caches: dict, payload: dict) -> dict:
    # Imported here (not at module top) so a spawned worker resolves the
    # engine through its own interpreter's import machinery.
    from repro.bvh.traversal import count_kernel, run_chunks

    stamp, tree_ref, meta = payload["tree"]
    _, tree_arrays = _cached_attach(caches["trees"], stamp, tree_ref, _TREE_CACHE)
    tree = _SharedTree(tree_arrays, meta)
    call_key, call_ref = payload["call"]
    _, call_arrays = _cached_attach(caches["calls"], call_key, call_ref, _CALL_CACHE)
    queries = call_arrays["queries"]
    weights = call_arrays.get("weights")
    ids = payload["ids"]
    # Per-query radii travel in the call arena next to the queries.
    eps = call_arrays.get("radii", payload["eps"])

    wdev.counters.reset()
    before = wdev.counters.snapshot()
    if payload["kind"] == "count":
        # The count kernel `count_within` runs serially, over a full (m,)
        # accumulator of which only this chunk's slots are touched.
        counts = np.zeros(
            queries.shape[0], dtype=np.int64 if weights is None else np.float64
        )
        on_hits, finished_fn = count_kernel(
            counts, payload["stop_at"], weights, wdev.counters
        )
    else:
        # Leaf-hit recording: keep each wavefront step's batch so the
        # parent can replay the exact serial callback sequence.
        step_q: list[np.ndarray] = []
        step_p: list[np.ndarray] = []
        finished_fn = None

        def on_hits(q_ids, pos):
            step_q.append(q_ids.copy())
            step_p.append(pos.copy())

    res = run_chunks(
        tree,
        queries,
        eps,
        [(ids, payload["engine"])],
        on_hits,
        mask_positions=call_arrays.get("mask"),
        finished_fn=finished_fn,
        device=wdev,
        kernel_name=payload["kernel_name"],
        leaf_test_is_distance=payload["leaf_test_is_distance"],
    )
    if payload["kind"] == "count":
        out = {"counts": counts[ids]}
    elif step_q:
        out = {
            "hit_q": np.concatenate(step_q),
            "hit_pos": np.concatenate(step_p),
            "lens": np.array([a.shape[0] for a in step_q], dtype=np.int64),
        }
    else:
        out = {"hit_q": None, "hit_pos": None, "lens": np.zeros(0, dtype=np.int64)}

    launch = wdev.launches[-1]
    out.update(
        steps=res.steps,
        leaf_hits=res.leaf_hits,
        frontier_peak=res.frontier_peak,
        counters=wdev.counters.diff(before),
        launch={
            "threads": int(ids.shape[0]),
            "seconds": launch.seconds,
            "self_seconds": launch.self_seconds,
            "steps": launch.steps,
            "t_start": launch.t_start,
        },
    )
    return out


def _worker_main(worker_id: int, task_q, result_q) -> None:
    wdev = Device(name=f"proc-worker{worker_id}")
    # Epoch handshake: `wdev._epoch` is an *absolute* perf_counter stamp
    # (CLOCK_MONOTONIC, comparable across processes on one boot); the
    # parent uses it to translate worker-relative launch t_starts into
    # its own epoch so merged traces interleave correctly.
    result_q.put(("hello", worker_id, wdev._epoch))
    caches = {"trees": OrderedDict(), "calls": OrderedDict()}
    while True:
        msg = task_q.get()
        if msg is None:
            return
        if msg[0] == "boom":  # test hook: simulate a worker dying mid-chunk
            os._exit(17)
        _, seq, gen, payload = msg
        try:
            out = _execute_job(wdev, caches, payload)
            result_q.put(("ok", seq, gen, worker_id, out))
        except BaseException as exc:  # noqa: BLE001 - forwarded to parent
            result_q.put(
                (
                    "err",
                    seq,
                    gen,
                    worker_id,
                    type(exc).__name__,
                    str(exc),
                    traceback.format_exc(),
                )
            )


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------


class ExecutionBackend:
    """Interface every execution substrate implements.

    ``parallel`` is the dispatch gate: the traversal entry points build
    a chunk plan, consult it and hand eligible plans to
    :meth:`run_leaf_hits` / :meth:`run_count`; a ``False`` backend
    (serial) means "run the plan in process on the caller's thread" —
    :func:`repro.bvh.traversal.run_chunks`.
    """

    name = "serial"
    parallel = False

    def run_leaf_hits(self, *args, **kwargs):  # pragma: no cover - interface
        raise NotImplementedError

    def run_count(self, *args, **kwargs):  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        return None

    def describe(self) -> dict:
        return {"backend": self.name}


class SerialBackend(ExecutionBackend):
    """The in-process numpy wavefront path (the historical behaviour)."""


#: Shared serial backend instance (stateless).
SERIAL = SerialBackend()


class ProcessBackend(ExecutionBackend):
    """Multiprocess shared-memory chunk execution.

    A persistent pool of ``workers`` OS processes (forked where
    available) executes traversal chunks; tree arrays are published once
    per tree through shared memory and republished only when the tree is
    refit (``BVH.invalidate_packed`` drops the publication stamp).

    The pool is lazy (spawned on first parallel dispatch) and
    self-healing: an unexpectedly dead worker surfaces as a typed
    :class:`KernelFaultError` — feeding the existing breaker/retry
    machinery — and the next dispatch respawns a fresh pool against the
    still-published segments.
    """

    name = "process"
    parallel = True

    def __init__(self, workers: int | None = None, start_method: str | None = None):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1; got {workers}")
        self.workers = int(workers)
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else None
            )
        self._ctx = mp.get_context(start_method)
        self._procs: list = []
        self._task_q = None
        self._result_q = None
        self._epochs: dict[int, float] = {}
        self._broken = False
        self._gen = 0
        self._stamp_counter = 0
        self._trees: "OrderedDict[int, tuple]" = OrderedDict()
        self._tree_arenas: "OrderedDict[int, ShmArena]" = OrderedDict()
        self._closed = False
        atexit.register(self.close)

    # -- pool lifecycle -----------------------------------------------------

    def _ensure_pool(self) -> None:
        if self._closed:
            raise RuntimeError("ProcessBackend is closed")
        if self._procs and not self._broken:
            return
        self._teardown_procs()
        self._task_q = self._ctx.Queue()
        self._result_q = self._ctx.Queue()
        self._procs = [
            self._ctx.Process(
                target=_worker_main,
                args=(i, self._task_q, self._result_q),
                daemon=True,
                name=f"repro-backend-w{i}",
            )
            for i in range(self.workers)
        ]
        for p in self._procs:
            p.start()
        self._epochs = {}
        deadline = time.monotonic() + 30.0
        while len(self._epochs) < self.workers:
            try:
                msg = self._result_q.get(timeout=_POLL_S)
            except _queue_mod.Empty:
                if time.monotonic() > deadline or any(
                    not p.is_alive() for p in self._procs
                ):
                    self._broken = True
                    raise KernelFaultError(
                        "process backend: worker pool failed to start"
                    )
                continue
            if msg[0] == "hello":
                self._epochs[msg[1]] = msg[2]
        self._broken = False

    def _teardown_procs(self) -> None:
        if self._task_q is not None:
            for _ in self._procs:
                try:
                    self._task_q.put_nowait(None)
                except Exception:
                    pass
        for p in self._procs:
            p.join(timeout=1.0)
            if p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
        for q in (self._task_q, self._result_q):
            if q is not None:
                try:
                    q.close()
                    q.join_thread()
                except Exception:
                    pass
        self._procs = []
        self._task_q = None
        self._result_q = None
        self._epochs = {}

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._teardown_procs()
        finally:
            for arena in self._tree_arenas.values():
                arena.destroy()
            self._tree_arenas.clear()
            self._trees.clear()

    def __del__(self):  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass

    def describe(self) -> dict:
        return {"backend": self.name, "workers": self.workers}

    # -- test hook ----------------------------------------------------------

    def _inject_worker_crash(self) -> None:
        """Enqueue a poison job: the worker that picks it up dies with
        ``os._exit`` — the 'worker killed mid-chunk' scenario."""
        self._ensure_pool()
        self._task_q.put(("boom",))

    # -- publication --------------------------------------------------------

    def _publish_tree(self, tree) -> tuple:
        stamp = getattr(tree, "_shm_stamp", None)
        if stamp is not None and stamp in self._trees:
            self._trees.move_to_end(stamp)
            self._tree_arenas.move_to_end(stamp)
            return self._trees[stamp]
        ch_ids, ch_lo, ch_hi, ch_rng_hi = tree.packed_children()
        arena = ShmArena(
            {
                "node_lo": tree.node_lo,
                "node_hi": tree.node_hi,
                "node_range_hi": tree.node_range_hi,
                "ch_ids": ch_ids,
                "ch_lo": ch_lo,
                "ch_hi": ch_hi,
                "ch_rng_hi": ch_rng_hi,
            }
        )
        self._stamp_counter += 1
        stamp = self._stamp_counter
        try:
            tree._shm_stamp = stamp
        except Exception:
            pass
        meta = {"n_primitives": tree.n_primitives}
        ref = (stamp, arena.ref(), meta)
        self._trees[stamp] = ref
        self._tree_arenas[stamp] = arena
        while len(self._tree_arenas) > _TREE_CACHE:
            old_stamp, old_arena = self._tree_arenas.popitem(last=False)
            self._trees.pop(old_stamp, None)
            old_arena.destroy()
        return ref

    @staticmethod
    def _call_arrays(queries, eps, mask_positions, leaf_weights) -> dict:
        arrays = {"queries": queries}
        if isinstance(eps, np.ndarray):
            arrays["radii"] = eps
        if mask_positions is not None:
            arrays["mask"] = mask_positions
        if leaf_weights is not None:
            arrays["weights"] = leaf_weights
        return arrays

    # -- dispatch -----------------------------------------------------------

    def _dispatch(self, jobs: list[dict]):
        """Run jobs on the pool, yielding ``(seq, out)`` in seq order."""
        self._gen += 1
        gen = self._gen
        for seq, payload in enumerate(jobs):
            self._task_q.put(("job", seq, gen, payload))
        pending: dict[int, dict] = {}
        next_seq = 0
        outstanding = len(jobs)
        while outstanding:
            try:
                msg = self._result_q.get(timeout=_POLL_S)
            except _queue_mod.Empty:
                dead = [p for p in self._procs if not p.is_alive()]
                if dead:
                    self._broken = True
                    codes = ", ".join(
                        f"{p.name} exit={p.exitcode}" for p in dead
                    )
                    raise KernelFaultError(
                        f"process backend: worker died mid-chunk ({codes})"
                    )
                yield None  # poll point: caller checks its watchdog
                continue
            if msg[0] == "hello":
                self._epochs[msg[1]] = msg[2]
                continue
            if msg[1] is not None and msg[2] != gen:
                continue  # stale result from an aborted generation
            if msg[0] == "err":
                _, _seq, _gen, wid, kind, text, tb = msg
                self._broken = False
                if kind == "KernelFaultError":
                    raise KernelFaultError(text)
                raise RuntimeError(
                    f"process backend: worker {wid} raised {kind}: {text}\n{tb}"
                )
            _, seq, _gen, wid, out = msg
            out["worker"] = wid
            pending[seq] = out
            outstanding -= 1
            while next_seq in pending:
                yield next_seq, pending.pop(next_seq)
                next_seq += 1
        while next_seq in pending:
            yield next_seq, pending.pop(next_seq)
            next_seq += 1

    def _merge_counters(self, dev: Device, delta: dict) -> None:
        # The parent's wrapping Device.kernel span supplies the single
        # `kernel_launches` increment and the summed `thread_steps`
        # (launch.steps), exactly as the serial engine's one launch does
        # — so the workers' own bookkeeping for those two is dropped.
        for key, value in delta.items():
            if key in ("kernel_launches", "thread_steps"):
                continue
            if key == "frontier_peak":
                dev.counters.observe_peak(key, value)
            else:
                dev.counters.add(key, value)

    def _record_lane(self, dev: Device, kernel_name: str, out: dict) -> None:
        rec = out["launch"]
        epoch = self._epochs.get(out["worker"])
        t_abs = None if epoch is None else epoch + rec["t_start"]
        dev.record_external_launch(
            f"{kernel_name}@w{out['worker']}",
            threads=rec["threads"],
            seconds=rec["seconds"],
            steps=rec["steps"],
            t_start_abs=t_abs,
        )

    # -- entry points -------------------------------------------------------

    def run_leaf_hits(
        self,
        tree,
        queries,
        eps,
        plan,
        callback,
        *,
        mask_positions,
        device,
        kernel_name,
        leaf_test_is_distance,
        watchdog,
    ):
        """Run a leaf-hit plan in the workers, replaying every chunk's
        per-step hit batches through ``callback`` in plan order."""

        def replay(_ids, out):
            lens = out["lens"]
            if lens.size:
                bounds = np.cumsum(lens)[:-1]
                for q_step, p_step in zip(
                    np.split(out["hit_q"], bounds), np.split(out["hit_pos"], bounds)
                ):
                    callback(q_step, p_step)

        job = {"kind": "hits", "leaf_test_is_distance": leaf_test_is_distance}
        arrays = self._call_arrays(queries, eps, mask_positions, None)
        return self._run(
            tree, queries, eps, plan, job, arrays, device, kernel_name, watchdog, replay
        )

    def run_count(
        self,
        tree,
        queries,
        eps,
        plan,
        counts,
        *,
        stop_at,
        mask_positions,
        device,
        leaf_weights,
        watchdog,
    ):
        """Run a count plan in the workers, writing each chunk's counts
        into its slots of ``counts``."""

        def store(ids, out):
            counts[ids] = out["counts"]

        job = {"kind": "count", "stop_at": stop_at, "leaf_test_is_distance": True}
        arrays = self._call_arrays(queries, eps, mask_positions, leaf_weights)
        return self._run(
            tree, queries, eps, plan, job, arrays, device, "bvh_count", watchdog, store
        )

    def _run(
        self, tree, queries, eps, plan, job, arrays, dev, kernel_name, watchdog, consume
    ):
        """One job per plan chunk, their results consumed in plan order
        inside one parent kernel span."""
        from repro.bvh.traversal import TraversalResult

        self._ensure_pool()
        tree_ref = self._publish_tree(tree)
        call_arena = ShmArena(arrays)
        job = dict(
            job,
            tree=tree_ref,
            call=(call_arena.name, call_arena.ref()),
            eps=None if isinstance(eps, np.ndarray) else eps,
            kernel_name=kernel_name,
        )
        jobs = [dict(job, ids=ids, engine=engine) for ids, engine in plan]
        result = TraversalResult()
        try:
            with dev.kernel(kernel_name, threads=queries.shape[0]) as launch:
                for item in self._dispatch(jobs):
                    if item is None:
                        if watchdog is not None:
                            watchdog()
                        continue
                    seq, out = item
                    self._merge_counters(dev, out["counters"])
                    result.steps += out["steps"]
                    result.leaf_hits += out["leaf_hits"]
                    result.frontier_peak = max(
                        result.frontier_peak, out["frontier_peak"]
                    )
                    self._record_lane(dev, kernel_name, out)
                    consume(plan[seq][0], out)
                launch.steps = result.steps
        finally:
            call_arena.destroy()
        return result


# ---------------------------------------------------------------------------
# resolution
# ---------------------------------------------------------------------------

#: Shared process pools, one per worker count — string specs resolve here
#: so repeated `backend="process"` calls reuse one warm pool instead of
#: spawning (and leaking) a pool per call.
_SHARED_PROCESS: dict[int, ProcessBackend] = {}


def shared_process_backend(workers: int | None = None) -> ProcessBackend:
    key = int(workers) if workers is not None else 0
    backend = _SHARED_PROCESS.get(key)
    if backend is None or backend._closed:
        backend = ProcessBackend(workers=workers)
        _SHARED_PROCESS[key] = backend
    return backend


def coerce_backend(spec, workers: int | None = None) -> ExecutionBackend:
    """Resolve a backend argument: ``None``/``"serial"``/``"process"`` or
    an :class:`ExecutionBackend` instance (returned as-is)."""
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None or spec == "serial":
        return SERIAL
    if spec == "process":
        return shared_process_backend(workers)
    raise ValueError(f"backend must be one of {BACKENDS}; got {spec!r}")
