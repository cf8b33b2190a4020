"""The fault-tolerant distributed DBSCAN driver.

Three phases over an RCB partition with eps-halo ghosts (the scheme of
Patwary et al. SC'12 / BD-CATS, with the paper's fused tree algorithm as
the rank-local engine):

1. **local phase** — every rank builds a BVH over its owned + ghost
   points; owned points' neighbour counts are *exact* (the halo guarantees
   the full eps-neighbourhood is local), giving owned core flags;
2. **flag exchange** — ghost core flags arrive from their owner ranks
   (simulated; one boolean per ghost), after which each rank runs the
   single-device main phase (:func:`repro.core.framework.main_phase`:
   component-pruned, non-core pairs skipped) with only its owned rows
   querying and no leaf mask, since ghost rows never query: owned-owned
   pairs resolve locally, owned-ghost pairs on both sharing ranks
   (idempotent for unions), and each owned border point takes its
   minimum-row core neighbour — the attachment its owner ships in phase 3;
3. **merge phase** — each rank ships, per local cluster, its *core*
   members' global ids plus its owned border attachments.  Core groups are
   unioned globally — any core-core eps-pair was locally clustered on the
   owner's rank, so the global core partition is exact — and border points
   take their owner rank's attachment.  Borders are never unioned through,
   so no cluster bridging can occur across ranks either.

The result is DBSCAN-equivalent to a single-device run: identical core
and noise sets, identical core partition, legal border assignments.

Fault tolerance
---------------
With a :class:`~repro.faults.FaultPlan` the run additionally survives:

- **message faults** — handled inside :class:`SimulatedComm` (checksummed
  envelopes, verify-and-retransmit, deterministic backoff);
- **transient device faults** — each partition's local/main phase runs
  under a :class:`~repro.faults.RetryPolicy`: an injected (or real)
  :class:`~repro.device.DeviceMemoryError` / ``KernelFaultError`` inside a
  kernel is retried on a fresh attempt instead of aborting the run;
- **phase-boundary rank crashes** — the driver checkpoints at phase
  boundaries (the partition/halo decomposition is deterministic and
  recomputable; the post-local ``core_flags`` exchange doubles as a
  replicated checkpoint of every owned core flag; per-partition merge
  payloads are the phase-2 checkpoint).  When a rank dies permanently,
  each partition it executed is **reassigned to the least-loaded
  surviving rank**, which re-ships the partition's points/ghosts (and
  checkpointed core flags) and recomputes only the lost state — the BVH
  rebuild skips neighbour counting entirely when the core-flag
  checkpoint is available.  Because every partition's work is a pure
  function of (points, eps, minpts), the final labelling is identical no
  matter which rank executes it: **graceful degradation** — the result
  stays DBSCAN-equivalent whenever at least one rank survives.

All fault decisions, retries and recoveries are deterministic in the
plan's seed: replaying a seed reproduces the identical fault log, retry
counts and labelling.  Pass a *fresh* plan per run (its log accumulates).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from repro.bvh.aabb import boxes_from_points
from repro.bvh.builder import build_bvh, release_bvh
from repro.bvh.traversal import count_within
from repro.bvh.tree import BVH
from repro.core.framework import main_phase
from repro.core.labels import DBSCANResult, relabel_consecutive
from repro.core.validation import validate_params, validate_points
from repro.device.device import Device, default_device
from repro.device.primitives import run_length_encode
from repro.distributed.comm import SimulatedComm
from repro.distributed.partition import rcb_partition, select_ghosts
from repro.faults.clock import SimClock
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy, call_with_retries
from repro.obs.span import NULL_TRACER
from repro.unionfind.ecl import EclUnionFind, find_roots


def _merge_payloads(
    local_ids: np.ndarray,
    n_owned: int,
    local_core: np.ndarray,
    labels_local: np.ndarray | None,
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """One partition's merge-phase contributions, in global ids.

    ``labels_local`` are the partition's local cluster labels (``-1`` for
    an unattached non-core row; ``None`` when it owns no point).  Returns
    ``((group_firsts, group_members), (border_ids, border_targets))`` —
    the core-group union pairs and the owner-authoritative border
    attachments.  These arrays are exactly what the merge gather ships,
    so they double as the partition's phase-2 checkpoint.
    """
    empty = np.zeros(0, dtype=np.int64)
    if n_owned == 0 or local_ids.shape[0] == 0:
        return (empty, empty), (empty, empty)
    core_rows = np.flatnonzero(local_core)
    rep_of_label = np.full(local_ids.shape[0], -1, dtype=np.int64)
    if core_rows.size:
        groups = labels_local[core_rows]
        order = np.argsort(groups, kind="stable")
        core_sorted = core_rows[order]
        ugroups, starts, lengths = run_length_encode(groups[order])
        firsts = np.repeat(core_sorted[starts], lengths) if starts.size else core_sorted
        core_payload = (local_ids[firsts], local_ids[core_sorted])
        rep_of_label[ugroups] = core_sorted[starts]
    else:
        core_payload = (empty, empty)
    border_rows = np.flatnonzero(~local_core[:n_owned] & (labels_local[:n_owned] >= 0))
    if border_rows.size:
        targets = rep_of_label[labels_local[border_rows]]
        attach_payload = (local_ids[border_rows], local_ids[targets])
    else:
        attach_payload = (empty, empty)
    return core_payload, attach_payload


def distributed_dbscan(
    X: np.ndarray,
    eps: float,
    min_samples: int,
    n_ranks: int = 4,
    device: Device | None = None,
    fault_plan: FaultPlan | None = None,
    retry_policy: RetryPolicy | None = None,
    tracer=None,
) -> DBSCANResult:
    """Cluster ``X`` across ``n_ranks`` simulated ranks.

    ``info`` reports the decomposition (per-rank owned/ghost counts), the
    communication volume per phase, and — when faults are in play — the
    structured fault log, per-phase retry counts, rank recoveries and the
    surviving rank set.  Output is DBSCAN-equivalent to any single-device
    algorithm in the registry, including under any seeded ``fault_plan``
    that leaves at least one rank alive.

    ``retry_policy`` governs the transient-failure retries of rank-local
    compute and of message delivery; with a ``fault_plan`` present its
    attempt budget is raised (if needed) above the plan's bounded
    ``fault_attempts`` so injected faults always converge.

    With a ``tracer`` (:class:`~repro.obs.span.Tracer`), the run records
    one span tree: a ``distributed_dbscan`` root with child spans per
    phase (``partition``, ``ghost_exchange``, per-partition ``local[p]``
    / ``main[p]``, ``core_flag_exchange``, crash-boundary recoveries,
    ``merge`` and ``finalize``); device kernels and comm transmissions
    nest inside the phase that launched them, and every injected fault
    lands on the span that was open when it fired.
    """
    X = validate_points(X)
    eps, minpts = validate_params(eps, min_samples)
    dev = default_device(device)
    n = X.shape[0]
    t0 = time.perf_counter()

    tr = tracer if tracer is not None else NULL_TRACER
    plan = fault_plan
    if plan is not None and tracer is not None and plan.tracer is None:
        plan.tracer = tracer
    retry = retry_policy if retry_policy is not None else RetryPolicy()
    if plan is not None and retry.max_attempts <= plan.spec.fault_attempts:
        # Injected faults hit at most the first `fault_attempts` attempts of
        # any operation; one more attempt guarantees convergence.
        retry = replace(retry, max_attempts=plan.spec.fault_attempts + 1)
    clock = SimClock()
    comm = SimulatedComm(
        n_ranks,
        fault_plan=plan,
        retry_policy=replace(retry, max_attempts=max(retry.max_attempts, 6)),
        clock=clock,
        tracer=tracer,
    )

    root = tr.start(
        "distributed_dbscan",
        category="driver",
        attributes={"n": n, "eps": eps, "min_samples": minpts, "n_ranks": n_ranks},
    )
    prev_dev_tracer = dev.tracer
    if tracer is not None:
        dev.tracer = tracer
    # Every rank tree built, recovery rebuilds included: all are released
    # when the call ends, so recovery can reuse a tree until then.
    built: list[BVH] = []
    try:
        with tr.span("partition", category="phase"):
            partition = rcb_partition(X, n_ranks)
            halo = select_ghosts(X, partition, eps)
        owned_lists = [partition.owned(p) for p in range(n_ranks)]
        local_ids_per_rank = [
            np.concatenate([owned_lists[p], halo.ghosts[p]]) for p in range(n_ranks)
        ]

        # -- fault-tolerance state -------------------------------------------------
        alive = set(range(n_ranks))
        executor = list(range(n_ranks))  # executor[p]: rank running partition p
        trees: dict[int, tuple] = {}  # p -> (tree, local_core)
        merge_core: dict[int, tuple] = {}  # p -> (group_firsts, group_members)
        merge_attach: dict[int, tuple] = {}  # p -> (border_ids, border_targets)
        retries: dict[str, int] = {}
        recoveries: list[dict] = []
        checkpoints: list[str] = ["partition"]  # RCB+halo: deterministic, recomputable
        global_core = np.zeros(n, dtype=bool)
        ghosts_shipped = False
        core_checkpointed = False

        def run_attempt(phase_name: str, p: int, fn):
            """Run one partition-phase under the retry policy with device-fault
            injection armed per attempt."""

            def attempt(k: int):
                cm = (
                    plan.device_faults(dev, phase_name, p, attempt=k)
                    if plan is not None
                    else nullcontext()
                )
                with cm:
                    return fn()

            with tr.span(
                f"{phase_name}[{p}]", category="phase", attributes={"partition": p}
            ) as pspan:
                result, attempts = call_with_retries(attempt, retry, clock=clock)
                if pspan is not None:
                    pspan.attributes["attempts"] = attempts
            if attempts > 1:
                retries[phase_name] = retries.get(phase_name, 0) + attempts - 1
            return result

        def handle_crashes(boundary: str) -> None:
            """Kill plan-selected ranks at a phase boundary and recover: each
            dead executor's partitions move to the least-loaded survivor, which
            receives the partition's data (and checkpointed core flags) again
            and recomputes whatever state died with the rank."""
            if plan is None:
                return
            before = len(recoveries)
            with tr.span(
                f"crash_boundary:{boundary}",
                category="phase",
                attributes={"boundary": boundary},
            ) as bspan:
                for r in plan.crashed_ranks(boundary, alive):
                    alive.discard(r)
                    comm.mark_dead(r)
                for p in range(n_ranks):
                    if executor[p] in alive:
                        continue
                    loads = {a: 0 for a in alive}
                    for q in range(n_ranks):
                        if executor[q] in loads:
                            loads[executor[q]] += int(owned_lists[q].shape[0])
                    dead_rank = executor[p]
                    new_rank = min(sorted(alive), key=lambda a: (loads[a], a))
                    executor[p] = new_rank
                    lost = []
                    if trees.pop(p, None) is not None:
                        lost.append("local_state")
                    if merge_core.pop(p, None) is not None:
                        merge_attach.pop(p, None)
                        lost.append("merge_payloads")
                    reshipped = []
                    if ghosts_shipped:
                        # Restore the partition's inputs from the checkpoint store
                        # (dataset replica + replicated core flags).
                        comm.send("recovery_points", X[owned_lists[p]], sender=new_rank)
                        comm.send("recovery_ghosts", X[halo.ghosts[p]], sender=new_rank)
                        reshipped += ["points", "ghosts"]
                        if core_checkpointed:
                            comm.send(
                                "recovery_core_flags",
                                global_core[local_ids_per_rank[p]],
                                sender=new_rank,
                            )
                            reshipped.append("core_flags")
                    recoveries.append(
                        {
                            "boundary": boundary,
                            "partition": p,
                            "dead_rank": dead_rank,
                            "reassigned_to": new_rank,
                            "lost": lost,
                            "reshipped": reshipped,
                        }
                    )
                if bspan is not None:
                    bspan.attributes["recoveries"] = len(recoveries) - before
                    bspan.attributes["alive_ranks"] = len(alive)

        def local_state(p: int, core: np.ndarray | None = None):
            """Build partition ``p``'s BVH over its owned + ghost points and
            return ``(tree, local_core)``.

            With ``minpts > 2`` the owned core flags come from an early-exit
            neighbour count (exact: the halo makes each owned point's whole
            eps-neighbourhood local) or, when recovering, straight from the
            replicated ``core`` checkpoint without a recount; ghost flags are
            filled in after the exchange.  With ``minpts <= 2`` every point
            is locally core (``minpts == 2`` re-derives cores from component
            sizes at finalize).  A partition owning zero points (``n_ranks``
            near or above ``n``, or duplicates rounding a split to nothing)
            has no queries: it builds no tree.
            """
            ids = local_ids_per_rank[p]
            n_owned = owned_lists[p].shape[0]
            if n_owned == 0:
                return None, np.zeros(ids.shape[0], dtype=bool)
            pts = X[ids]
            lo, hi = boxes_from_points(pts)
            tree = build_bvh(lo, hi, device=dev)
            built.append(tree)
            if minpts <= 2:
                return tree, np.ones(ids.shape[0], dtype=bool)
            if core is None:
                core = np.zeros(ids.shape[0], dtype=bool)
                counts = count_within(
                    tree, pts[:n_owned], eps, stop_at=minpts, device=dev
                )
                core[:n_owned] = counts >= minpts
            return tree, core

        def ensure_local_state(p: int) -> None:
            """Recompute a partition's phase-1 state lost to a crash, taking
            core flags from the replicated checkpoint."""
            if p not in trees:
                trees[p] = run_attempt(
                    "recover_local",
                    p,
                    lambda: local_state(p, core=global_core[local_ids_per_rank[p]]),
                )

        def rank_main_phase(p: int) -> None:
            """Fused main phase for one partition, then its merge payloads
            (which double as the phase-2 checkpoint)."""
            ensure_local_state(p)
            tree, local_core = trees[p]
            ids = local_ids_per_rank[p]
            n_owned = owned_lists[p].shape[0]
            if minpts > 2 and tree is not None and ids.shape[0] > n_owned:
                # Idempotent under recovery: these are the checkpointed values.
                local_core[n_owned:] = global_core[ids[n_owned:]]

            def attempt():
                if tree is None:
                    return None
                # Ghost rows do not query, so no leaf mask: each owned
                # query must see every neighbour, ghosts included.
                return main_phase(
                    tree,
                    X[ids],
                    eps,
                    local_core,
                    dev,
                    f"dist_main_rank{p}",
                    {},
                    use_mask=False,
                    active=np.arange(ids.shape[0]) < n_owned,
                ).labels

            labels_local = run_attempt("main", p, attempt)
            merge_core[p], merge_attach[p] = _merge_payloads(
                ids, n_owned, local_core, labels_local
            )

        # --- boundary: ranks may be dead before any work starts -------------------
        handle_crashes("pre_local")

        # Ghost coordinates travel to their consumer ranks.
        with tr.span("ghost_exchange", category="phase"):
            comm.exchange("ghosts", [X[g] for g in halo.ghosts], senders=executor)
        ghosts_shipped = True

        # --- phase 1: local core determination ------------------------------------
        for p in range(n_ranks):
            trees[p] = run_attempt("local", p, lambda p=p: local_state(p))
            if minpts != 2:
                global_core[owned_lists[p]] = trees[p][1][: owned_lists[p].shape[0]]

        # The core-flag exchange doubles as a replicated checkpoint: after it,
        # every owned core flag survives any individual rank's death.
        if minpts > 2:
            with tr.span("core_flag_exchange", category="phase"):
                comm.exchange(
                    "core_flags", [global_core[g] for g in halo.ghosts], senders=executor
                )
        core_checkpointed = True
        checkpoints.append("core_flags")

        # --- boundary: post-local crashes lose in-memory trees --------------------
        handle_crashes("pre_main")

        # --- phase 2: ghost core-flag fill + local main phase ----------------------
        for p in range(n_ranks):
            rank_main_phase(p)
        checkpoints.append("merge_payloads")

        # --- boundary: post-main crashes lose not-yet-gathered merge payloads -----
        handle_crashes("pre_merge")
        for p in range(n_ranks):
            if p not in merge_core:
                rank_main_phase(p)  # full recompute from the core_flags checkpoint

        # --- phase 3: merge --------------------------------------------------------
        with tr.span("merge", category="phase"):
            comm.gather(
                "merge_core_groups",
                [merge_core[p][1] for p in range(n_ranks)],
                senders=executor,
            )
            comm.gather(
                "merge_border_attachments",
                [merge_attach[p][0] for p in range(n_ranks)],
                senders=executor,
            )
            guf = EclUnionFind(n, device=dev)
            for p in range(n_ranks):
                firsts, members = merge_core[p]
                if members.size:
                    guf.union(firsts, members)
            attach_targets = np.full(n, -1, dtype=np.int64)
            for p in range(n_ranks):
                borders, targets = merge_attach[p]
                if borders.size:
                    attach_targets[borders] = targets

        # --- assemble the global result ------------------------------------------
        with tr.span("finalize", category="phase"):
            roots = find_roots(guf.parents, np.arange(n, dtype=np.int64), dev.counters)
            guf.release()
            if minpts == 2:
                sizes = np.bincount(roots, minlength=n)
                global_core = sizes[roots] >= 2
                clustered = global_core
                raw = np.where(clustered, roots, -1)
            elif minpts == 1:
                global_core[:] = True
                clustered = np.ones(n, dtype=bool)
                raw = roots
            else:
                attached = attach_targets >= 0
                raw = np.where(global_core, roots, -1)
                raw[attached & ~global_core] = roots[
                    attach_targets[attached & ~global_core]
                ]
                clustered = global_core | (attached & ~global_core)
            labels, n_clusters = relabel_consecutive(raw, clustered)

        info = {
            "algorithm": "distributed-fdbscan",
            "n": n,
            "eps": eps,
            "min_samples": minpts,
            "n_ranks": n_ranks,
            "owned_per_rank": partition.counts().tolist(),
            "ghosts_per_rank": [int(g.shape[0]) for g in halo.ghosts],
            "alive_ranks": sorted(alive),
            "dead_ranks": sorted(set(range(n_ranks)) - alive),
            "executor_of_partition": list(executor),
            "checkpoints": checkpoints,
            "recoveries": recoveries,
            "retries": dict(retries),
            "comm_messages": comm.stats.messages,
            "comm_bytes": comm.stats.bytes_sent,
            "comm_retransmits": comm.stats.retransmits,
            "comm_by_phase": {k: dict(v) for k, v in comm.stats.by_phase.items()},
            "comm": comm.stats.as_dict(),
            "sim_wait_seconds": clock.slept_seconds,
            "faults": plan.summary() if plan is not None else {"seed": None, "total": 0, "by_kind": {}},
            "fault_log": plan.log_as_dicts() if plan is not None else [],
            "t_total": time.perf_counter() - t0,
        }
        return DBSCANResult(
            labels=labels, is_core=global_core, n_clusters=n_clusters, info=info
        )
    finally:
        for tree in built:
            release_bvh(tree, dev)
        dev.tracer = prev_dev_tracer
        tr.end(root)
