"""Real OS-process ranks for the distributed driver.

With ``backend="process"`` :func:`repro.distributed.driver.distributed_dbscan`
runs each rank's local compute — BVH build, neighbour counting, the fused
main traversal and its union-find — inside a dedicated worker process held
by a :class:`RankPool`, one pipe-connected child per rank.  Rank state
(the partition's tree, points and core flags) lives in the rank process
and **dies with it**: a plan-driven rank crash is a real ``SIGKILL``, so
the driver's checkpoint/re-ship recovery machinery is exercised against
genuine process loss, not a simulated one.  Dead ranks are never
respawned — partitions are reassigned to surviving rank processes exactly
as in the simulated path.

Determinism contract:

- each operation runs the *identical* rank-local code the in-process
  driver runs (the helpers are imported from the driver module), so the
  returned labels and counter deltas are bit-identical;
- every rank runs on its own fresh :class:`~repro.device.device.Device`;
  per-operation counter deltas are shipped back and merged into the
  parent device **including** ``kernel_launches``/``thread_steps`` (in
  the simulated path the rank kernels launch directly on the shared
  parent device, so the merged totals match exactly);
- rank kernel launches are replayed onto the parent as ``name@r<rank>``
  lanes through a ``perf_counter`` epoch handshake (each rank reports its
  device epoch once at startup, and
  :meth:`~repro.device.device.Device.record_external_launch` translates
  its launch starts onto the parent's timeline), keeping
  :meth:`Device.profile` and traces meaningful;
- injected *device* faults are evaluated by the parent from the pure
  :meth:`~repro.faults.plan.FaultPlan.device_fault_kind` decision and
  raised before the operation is dispatched — equivalent to the
  simulated hook, which fires at the first kernel launch of an attempt,
  before any work is recorded.

The message layer (:class:`~repro.distributed.comm.SimulatedComm`
envelopes, checksums, retransmits) stays in the parent: rank processes
are the *compute* substrate, while the communication fault model remains
the simulated one so fault schedules stay seed-stable whether ranks run
in-process or as OS processes.
"""

from __future__ import annotations

import multiprocessing as mp
import traceback

import numpy as np

from repro.device.device import Device, KernelFaultError

#: Seconds between liveness checks while waiting on a rank's reply.
_POLL_S = 0.05


# --------------------------------------------------------------------------
# rank-process side
# --------------------------------------------------------------------------


def _exec_op(dev: Device, state: dict, op: str, payload: dict) -> dict:
    """Execute one driver operation against this rank's resident state."""
    # Imported here so the child resolves them after fork; also avoids a
    # parent-side import cycle (driver imports this module lazily).
    from repro.bvh.aabb import boxes_from_points
    from repro.bvh.builder import build_bvh
    from repro.bvh.traversal import for_each_leaf_hit
    from repro.core.framework import resolve_pairs
    from repro.distributed.driver import _local_phase
    from repro.unionfind.ecl import EclUnionFind

    if op == "local":
        p = int(payload["partition"])
        pts = payload["pts"]
        n_owned = int(payload["n_owned"])
        tree, owned_core, local_core = _local_phase(
            pts,
            np.arange(pts.shape[0], dtype=np.int64),
            n_owned,
            float(payload["eps"]),
            int(payload["minpts"]),
            dev,
        )
        state[p] = {
            "tree": tree,
            "pts": pts,
            "n_owned": n_owned,
            "local_core": local_core,
        }
        return {
            "owned_core": owned_core,
            "local_core": local_core,
            "has_tree": tree is not None,
        }

    if op == "rebuild":
        # Crash recovery: the re-shipped points plus the replicated
        # core-flag checkpoint reconstruct phase-1 state without a
        # neighbour recount (mirrors the driver's ``ensure_local_state``).
        p = int(payload["partition"])
        pts = payload["pts"]
        n_owned = int(payload["n_owned"])
        minpts = int(payload["minpts"])
        if n_owned == 0 or pts.shape[0] == 0:
            tree = None
            local_core = np.zeros(pts.shape[0], dtype=bool)
        else:
            lo, hi = boxes_from_points(pts)
            tree = build_bvh(lo, hi, device=dev)
            if minpts > 2:
                local_core = payload["core"].copy()
            else:
                local_core = np.ones(pts.shape[0], dtype=bool)
        state[p] = {
            "tree": tree,
            "pts": pts,
            "n_owned": n_owned,
            "local_core": local_core,
        }
        return {"local_core": local_core, "has_tree": tree is not None}

    if op == "fill_ghost_core":
        st = state[int(payload["partition"])]
        st["local_core"][st["n_owned"] :] = payload["ghost_core"]
        return {}

    if op == "main":
        st = state[int(payload["partition"])]
        tree = st["tree"]
        pts = st["pts"]
        n_owned = st["n_owned"]
        local_core = st["local_core"]
        if tree is None or n_owned == 0:
            return {"labels": np.arange(local_core.shape[0], dtype=np.int64)}
        uf = EclUnionFind(local_core.shape[0], device=dev)
        order = tree.order

        def on_hits(q_ids: np.ndarray, leaf_pos: np.ndarray) -> None:
            nbr = order[leaf_pos]
            keep = nbr != q_ids
            resolve_pairs(uf, local_core, q_ids[keep], nbr[keep], dev)

        for_each_leaf_hit(
            tree,
            pts[:n_owned],
            float(payload["eps"]),
            on_hits,
            device=dev,
            kernel_name=payload["kernel_name"],
        )
        return {"labels": uf.finalize()}

    raise ValueError(f"unknown rank operation {op!r}")


def _rank_main(rank: int, conn) -> None:
    """Rank-process entry: a request loop over one duplex pipe."""
    dev = Device(name=f"rank{rank}")
    state: dict = {}
    conn.send(("hello", rank, dev._epoch))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        op, payload = msg
        try:
            launch_mark = dev.launches_total
            dev.counters.reset()
            before = dev.counters.snapshot()
            out = _exec_op(dev, state, op, payload)
            new = dev.launches_total - launch_mark
            out["counters"] = dev.counters.diff(before)
            out["launches"] = [
                {
                    "name": rec.name,
                    "threads": rec.threads,
                    "seconds": rec.seconds,
                    "steps": rec.steps,
                    "t_start": rec.t_start,
                }
                for rec in (list(dev.launches)[-new:] if new else [])
            ]
            conn.send(("ok", out))
        except Exception as exc:  # ship the failure type + traceback home
            conn.send(
                ("err", type(exc).__name__, str(exc), traceback.format_exc())
            )


# --------------------------------------------------------------------------
# parent side
# --------------------------------------------------------------------------


class RankPool:
    """``n_ranks`` pipe-connected rank processes with kill-for-real crashes."""

    def __init__(self, n_ranks: int, start_method: str | None = None):
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        ctx = mp.get_context(start_method)
        self.n_ranks = int(n_ranks)
        self.dead: set[int] = set()
        self.epochs: dict[int, float] = {}
        self._conns = []
        self._procs = []
        for r in range(self.n_ranks):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_rank_main,
                args=(r, child_conn),
                daemon=True,
                name=f"repro-rank{r}",
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        for r in range(self.n_ranks):
            kind, rank, epoch = self._conns[r].recv()
            assert kind == "hello"
            self.epochs[rank] = epoch

    def kill(self, rank: int) -> None:
        """SIGKILL a rank process (a plan-driven crash).  Its resident
        partition state is genuinely lost; the rank is never respawned."""
        if rank in self.dead:
            return
        self.dead.add(rank)
        proc = self._procs[rank]
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5.0)
        self._conns[rank].close()

    def run(self, rank: int, op: str, payload: dict) -> dict:
        """Dispatch one operation to a rank and wait for its reply.

        A rank that dies mid-operation (or was already killed) surfaces
        as a :class:`KernelFaultError`, feeding the driver's retry and
        reassignment machinery exactly like a transient device fault.
        """
        if rank in self.dead:
            raise KernelFaultError(f"rank {rank} process is dead")
        conn = self._conns[rank]
        proc = self._procs[rank]
        try:
            conn.send((op, payload))
            while True:
                if conn.poll(_POLL_S):
                    reply = conn.recv()
                    break
                if not proc.is_alive():
                    self.dead.add(rank)
                    raise KernelFaultError(
                        f"rank {rank} process died mid-operation "
                        f"(exitcode={proc.exitcode})"
                    )
        except (BrokenPipeError, EOFError, OSError) as exc:
            self.dead.add(rank)
            raise KernelFaultError(
                f"rank {rank} process died ({exc!r})"
            ) from exc
        status = reply[0]
        if status == "err":
            _, kind, text, tb = reply
            if kind == "KernelFaultError":
                raise KernelFaultError(text)
            raise RuntimeError(
                f"rank {rank} operation {op!r} failed: {kind}: {text}\n{tb}"
            )
        return reply[1]

    def close(self) -> None:
        """Shut every surviving rank down and release the pipes."""
        for r in range(self.n_ranks):
            if r in self.dead:
                continue
            try:
                self._conns[r].send(None)
            except (BrokenPipeError, OSError):
                pass
        for r in range(self.n_ranks):
            if r in self.dead:
                continue
            proc = self._procs[r]
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
            self._conns[r].close()
            self.dead.add(r)
