"""The five workloads: seeded inputs, timed runs, correctness, metrics.

Every workload calls the library through its public API with default
options: only the algorithm and the data parameters are set.  Inputs
depend on the seed alone.  The point sets are samples drawn from a fixed
dataset stand-in, as the paper samples its real datasets, so a new seed
changes which points are drawn and in what order, while density regime
and cluster layout stay put: run-to-run spread then reflects the program,
not a re-rolled dataset.

``run(name, seed, seconds, trace, quick)`` returns an :class:`Outcome`
holding the end-to-end metrics (``trace=False``) or the per-layer metrics
of a traced run (``trace=True``).  See README.md for every definition.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import gate
import host
import layers
from catalog import BATCH_PARTITION, COUNTERS, END_TO_END, PER_LAYER, SERVICE_PARTITION
from repro import DBSCANIndex, Device, dbscan, hdbscan
from repro.datasets import load_dataset
from repro.obs.export import validate_chrome_trace, write_chrome_trace
from repro.obs.slo import DEFAULT_SLOS
from repro.service import ClusteringService
from repro.service.traffic import DEFAULT_MIX, generate_points

#: Each sample is drawn from a fixed pool this many times its size.
POOL_FACTOR = 4
#: Seed of the fixed pools (the stand-in for a real dataset on disk).
POOL_SEED = 1
#: Cold builds timed for ``setup_s`` (its median).
SETUP_BUILDS = 9
#: A traced run alternates untraced and traced rounds up to this many
#: traced ones, which bounds the span count and the trace file.
MAX_TRACED_ROUNDS = 4
#: Point count of every batch workload in ``--quick`` mode.
QUICK_N = 1200
#: A batch run calibrates this many times in a row, every
#: ``CALIBRATE_EVERY`` seconds, as it runs its rounds back to back.
CALIBRATION_BURST = 4
CALIBRATE_EVERY = 1.5


@dataclass(frozen=True)
class Batch:
    """A parameter sweep a user runs over one point set."""

    dataset: str
    n: int
    call: str  # "fdbscan", "fdbscan-densebox" or "hdbscan"
    cells: tuple


WORKLOADS = {
    "fdbscan-ngsim2d": Batch(
        "ngsim", 8192, "fdbscan",
        tuple({"eps": eps, "min_samples": 5} for eps in (0.005, 0.01, 0.02)),
    ),
    "fdbscan-hacc3d": Batch(
        "hacc", 16384, "fdbscan",
        tuple({"eps": 0.042, "min_samples": m} for m in (5, 10, 50)),
    ),
    "densebox-portotaxi2d": Batch(
        "portotaxi", 8192, "fdbscan-densebox",
        tuple({"eps": 0.01, "min_samples": m} for m in (10, 50, 200)),
    ),
    "hdbscan-ngsim2d": Batch(
        "ngsim", 4000, "hdbscan", ({"min_cluster_size": 5, "min_samples": 5},),
    ),
    "service-mixed": None,  # see run_service
}


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    #: one line per correctness violation, naming the workload's cell.
    problems: list = field(default_factory=list)
    #: service only: requests sent, by ``op/status/mode``.
    statuses: dict = field(default_factory=dict)


def run(name: str, seed: int, seconds: float, trace: bool, quick: bool = False,
        trace_path: str | None = None) -> Outcome:
    """Run one workload and return its outcome, times in reference seconds
    (see :mod:`host`).

    With ``trace`` the wrappers are installed and the recorder is switched
    on for traced rounds (or requests) only; without it the recorder is
    never installed or switched on, and the library runs as a user's call
    would.
    """
    rec = layers.Recorder()
    cal = host.Calibration()
    spec = WORKLOADS[name]
    if spec is None:
        with rec.installed(layers.SERVICE_WRAPS if trace else ()):
            outcome = run_service(seed, seconds, rec, cal, trace, quick)
    else:
        with rec.installed(layers.BATCH_WRAPS if trace else ()):
            outcome = run_batch(spec, seed, seconds, rec, cal, trace, quick)
    units = PER_LAYER if trace else END_TO_END
    for metric, unit in units.items():
        if unit in ("s", "ms"):
            outcome.metrics[metric] *= cal.factor
    if trace:
        outcome.metrics["host.slowdown"] = 1.0 / cal.factor
    if trace and trace_path is not None:
        validate_chrome_trace(write_chrome_trace(trace_path, rec.tracer))
    return outcome


# -- inputs -------------------------------------------------------------------


def _draw(pool: np.ndarray, n: int, rng) -> np.ndarray:
    """``n`` rows of ``pool`` without replacement, in seeded order.

    The rows holding each coordinate's minimum and maximum are always
    drawn, so every sample has the pool's bounding box.  The grid that
    DenseBox lays over the data and the BVH's Morton codes are anchored to
    that box; letting it move with the sample changes which points share a
    cell, and with it a DenseBox fit's memory by a third from seed to seed.
    """
    keep = np.unique(np.concatenate([pool.argmin(axis=0), pool.argmax(axis=0)]))
    rest = np.setdiff1d(np.arange(pool.shape[0]), keep)
    rows = np.concatenate([keep, rng.choice(rest, n - keep.size, replace=False)])
    return np.ascontiguousarray(pool[rng.permutation(rows)])


def sample_points(dataset: str, n: int, seed: int) -> np.ndarray:
    """``n`` points of the named dataset stand-in, drawn from its fixed pool."""
    pool = load_dataset(dataset, POOL_FACTOR * n, seed=POOL_SEED)
    return _draw(pool, n, np.random.default_rng([seed, 0xE2E]))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _zeros() -> dict:
    return {name: 0.0 for name in PER_LAYER}


# -- batch workloads ------------------------------------------------------------


def _fit(spec: Batch, X, cell, index=None, device=None):
    if spec.call == "hdbscan":
        return hdbscan(X, index=index, device=device, **cell)
    return dbscan(X, algorithm=spec.call, index=index, device=device, **cell)


def _cold_index(X, device=None) -> DBSCANIndex:
    """The set-up a user pays once per point set."""
    index = DBSCANIndex(X)
    index.points_tree(device)
    index.morton_schedule(device)
    index.tree_statistics(device)
    return index


@dataclass
class _Round:
    seconds: float
    fit_seconds: list
    failures: int
    traced: bool
    #: per cell: the result (``None`` if the call raised) and its device;
    #: emptied after the checks unless the round was traced.
    results: list
    devices: list


def _sweep(spec: Batch, X, index, rec, trace: bool, traced: bool) -> _Round:
    """One pass over the grid on one fresh index."""
    rec.active = traced
    fit_seconds, results, devices = [], [], []
    t0 = time.perf_counter()
    with rec.span("round"):
        for i, cell in enumerate(spec.cells):
            # Untraced rounds of a traced run get a plain device, so that
            # trace.overhead measures the tracer and nothing else.
            device = Device(tracer=rec.tracer if traced else None) if trace else None
            t = time.perf_counter()
            try:
                with rec.span("fit", layer="core.host_s", cell=i):
                    result = _fit(spec, X, cell, index=index, device=device)
            except Exception:  # a failed call is counted and the sweep goes on
                traceback.print_exc(file=sys.stderr)
                result = None
            fit_seconds.append(time.perf_counter() - t)
            results.append(result)
            devices.append(device)
    seconds = time.perf_counter() - t0
    rec.active = False
    failures = sum(result is None for result in results)
    return _Round(seconds, fit_seconds, failures, traced, results, devices)


def run_batch(spec: Batch, seed: int, seconds: float, rec, cal, trace: bool,
              quick: bool) -> Outcome:
    X = sample_points(spec.dataset, QUICK_N if quick else spec.n, seed)
    _fit(spec, X, spec.cells[0])  # warm-up: imports, allocators, caches
    cal.sample(CALIBRATION_BURST)

    setup = []
    for _ in range(3 if quick else SETUP_BUILDS):
        rec.active = trace
        device = Device(tracer=rec.tracer) if trace else None
        t = time.perf_counter()
        with rec.span("setup"):
            _cold_index(X, device)
        setup.append(time.perf_counter() - t)
    rec.active = False

    rounds: list[_Round] = []
    first: dict = {}  # cell -> result of the first round that produced one
    problems: list[str] = []
    last_calibration = time.perf_counter()
    t_end = last_calibration + seconds
    while len(rounds) < (2 if trace else 1) or time.perf_counter() < t_end:
        traced = trace and len(rounds) % 2 == 1
        rnd = _sweep(spec, X, _cold_index(X), rec, trace, traced)
        # Outside the timed region: each round must repeat the first's labels.
        for i, result in enumerate(rnd.results):
            if result is None:
                continue
            if i not in first:
                first[i] = result
            elif not np.array_equal(result.labels, first[i].labels):
                problems.append(f"cell {spec.cells[i]}: round {len(rounds)} labels differ from round 0")
        if not traced:
            rnd.results, rnd.devices = [], []
        rounds.append(rnd)
        if trace and sum(r.traced for r in rounds) >= MAX_TRACED_ROUNDS:
            break
        if time.perf_counter() - last_calibration >= CALIBRATE_EVERY:
            cal.sample(CALIBRATION_BURST)
            last_calibration = time.perf_counter()
    cal.sample(CALIBRATION_BURST)
    peak_rss = _peak_rss_mb()  # before the references allocate anything

    n_pairs, gate_problems = _check_batch(spec, X, first)
    problems += gate_problems
    fit_seconds = [s for r in rounds for s in r.fit_seconds]
    attempted = len(fit_seconds)
    failed = sum(r.failures for r in rounds)
    if trace:
        metrics = _batch_layers(spec, X, rec, rounds, n_pairs)
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "sweep_s": statistics.median(r.seconds for r in rounds),
            "fit_s_p50": statistics.median(fit_seconds),
            "req_ms_p50": 1e3 * statistics.median(fit_seconds),
            "req_ms_p75": 1e3 * _percentile(fit_seconds, 75),
            "req_ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss,
        }
    return Outcome(not problems, attempted, failed, metrics, problems)


def _check_batch(spec: Batch, X, first: dict) -> tuple[list, list]:
    """Gate every cell's output; returns per-cell within-eps pair counts."""
    problems = []
    n_pairs = [0] * len(spec.cells)
    ref = None
    oracle = None
    for i, cell in enumerate(spec.cells):
        result = first.get(i)
        if result is None:
            problems.append(f"cell {cell}: raised in every round, so nothing could be checked")
            continue
        if spec.call == "hdbscan":
            if oracle is None:
                oracle = hdbscan(X, mst_algorithm="prim", **cell).labels
            problem = gate.check_relabelling(result.labels, oracle)
        else:
            if ref is None or ref.eps != cell["eps"]:
                ref = gate.FlatReference(X, cell["eps"])
            problem = gate.check_flat(ref, cell["min_samples"], result.labels, result.is_core)
            n_pairs[i] = ref.n_pairs
        if problem:
            problems.append(f"cell {cell}: {problem}")
    return n_pairs, problems


def _evals(profile: dict, *kernels) -> int:
    return sum(profile.get(k, {}).get("counters", {}).get("distance_evals", 0) for k in kernels)


def _batch_layers(spec: Batch, X, rec, rounds, n_pairs) -> dict:
    """Per-layer metrics: seconds and counts per traced round (their mean,
    so that the partition layers add up to ``trace.wall_s``)."""
    out = _zeros()
    spans = rec.spans()
    builds = layers.exclusive_by_root(
        spans, "setup",
        lambda s: "build" if s["category"] == "kernel" and s["name"] == "bvh_build" else None,
    )
    out["bvh.build_s"] = statistics.median(b.get("build", 0.0) for b in builds.values())

    per_round = list(layers.exclusive_by_root(spans, "round", layers.batch_layer).values())
    for name in BATCH_PARTITION:
        out[name] = statistics.fmean(r.get(name, 0.0) for r in per_round)

    traced = [r for r in rounds if r.traced]
    out["trace.wall_s"] = statistics.fmean(sum(r.fit_seconds) for r in traced)
    main_evals = knn_evals = nn_evals = 0
    dense = []
    for rnd in traced:
        for result, device in zip(rnd.results, rnd.devices):
            counters = device.counters.snapshot()
            for name, keys in COUNTERS.items():
                out[name] += sum(counters.get(k, 0) for k in keys) / len(traced)
            out["bvh.frontier_peak"] = max(out["bvh.frontier_peak"], counters["frontier_peak"])
            out["device.peak_mb"] = max(out["device.peak_mb"], device.memory.peak_bytes / 2**20)
            profile = device.profile()
            main_evals += _evals(profile, "fdbscan_main", "densebox_main")
            knn_evals += _evals(profile, "knn_expand", "knn_gather")
            nn_evals += _evals(profile, "boruvka_nn")
            for key, name in (("t_core", "hierarchy.core_s"), ("t_mst", "hierarchy.mst_s"),
                              ("t_extract", "hierarchy.extract_s")):
                out[name] += result.info.get(key, 0.0) / len(traced)
            if "dense_fraction" in result.info:
                dense.append(result.info["dense_fraction"])

    n = X.shape[0]
    if main_evals:
        out["bvh.hit_ratio"] = sum(n_pairs) * len(traced) / main_evals
    if knn_evals:
        out["bvh.knn_useful_ratio"] = n * spec.cells[0]["min_samples"] * len(traced) / knn_evals
    if nn_evals:
        out["hierarchy.mst_useful_ratio"] = (n - 1) * len(traced) / nn_evals
    if dense:
        out["grid.dense_fraction"] = statistics.fmean(dense)
    plain = statistics.median(r.seconds for r in rounds if not r.traced)
    out["trace.overhead"] = statistics.median(r.seconds for r in traced) / plain - 1.0
    return out


# -- the service workload -------------------------------------------------------

#: Open-loop arrival rate, requests per second.
RATE = 10.0
#: Requests per block of the schedule; ``DEFAULT_MIX`` splits 20 exactly.
BLOCK = 20
INDEX_POINTS = 1000
QUICK_INDEX_POINTS = 300
INDEX_NAMES = ("idx0", "idx1")
#: Requests sent unpaced to a throwaway service before anything is timed.
WARMUP_REQUESTS = 20
#: Idle seconds before a due request that leave room for a calibration,
#: and the least time between two of them.
IDLE_GAP = 0.05
IDLE_CALIBRATE_EVERY = 0.25
#: Latency limit of ``req_ok_frac``: the repository's default latency SLO.
SLO_SECONDS = min(s.target_seconds for s in DEFAULT_SLOS if s.kind == "latency")


@dataclass
class _Request:
    arrival: float  # seconds after the load starts: the due time
    op: str
    index: str
    body: dict
    raw: str


@dataclass
class ServiceInputs:
    creates: list  # (index name, points)
    requests: list  # _Request, in arrival order

    def create_payloads(self) -> list:
        return [
            json.dumps({"op": "create_index", "id": f"setup-{name}", "index": name,
                        "points": points.tolist()})
            for name, points in self.creates
        ]


def _schedule(seconds: float, rng) -> tuple[np.ndarray, list]:
    """Due times and ops of an open-loop load at :data:`RATE` for ``seconds``.

    Built in blocks of :data:`BLOCK` requests.  A block holds the ops of
    ``DEFAULT_MIX`` in exact proportion and one exponential gap from each
    of its :data:`BLOCK` equal-probability strata, both in ``rng``'s
    order: gaps are exponential and the mix is the default one, as in a
    Poisson stream, while every block carries the same offered load, so
    the draw cannot bunch the expensive requests together.
    """
    ops, weights = zip(*DEFAULT_MIX)
    counts = np.rint(np.asarray(weights) / sum(weights) * BLOCK).astype(int)
    block_ops = np.repeat(np.asarray(ops), counts)
    arrivals, seq, t = [], [], 0.0
    while True:
        u = (rng.permutation(BLOCK) + rng.random(BLOCK)) / BLOCK
        for gap, op in zip(-np.log1p(-u) / RATE, rng.permutation(block_ops)):
            t += gap
            if t >= seconds:
                return np.asarray(arrivals), seq
            arrivals.append(t)
            seq.append(str(op))


def service_inputs(seed: int, seconds: float, index_points: int) -> ServiceInputs:
    """Index contents and the whole request schedule, built before the clock
    starts.  Request parameters follow ``repro.service.traffic.run_traffic``.

    The schedule (due times, ops, target index, traversal, insert sizes) is
    one fixed draw, replayed by every run like a recorded trace; the seed
    draws the data: both indexes' points, inserted points, deleted ids.
    Seeding the schedule too made each run admit, degrade and shed a
    different mix of requests, which moved latency quantiles by a tenth
    or more between seeds.
    """
    rng = np.random.default_rng([seed, 0x5E7])
    shape = np.random.default_rng([POOL_SEED, 0x5E7])
    creates = []
    for i, name in enumerate(INDEX_NAMES):
        pool = np.asarray(
            generate_points(np.random.default_rng([POOL_SEED, i]), POOL_FACTOR * index_points)
        )
        creates.append((name, _draw(pool, index_points, rng)))
    arrivals, ops = _schedule(seconds, shape)
    # Deletes take initial ids no earlier delete took: inserts get fresh
    # ids, so every delete names live points whether or not earlier
    # requests were shed.
    deletable = {name: list(rng.permutation(index_points)) for name in INDEX_NAMES}
    requests = []
    for i, (arrival, op) in enumerate(zip(arrivals, ops)):
        name = INDEX_NAMES[int(shape.integers(len(INDEX_NAMES)))]
        body: dict = {"op": op, "id": f"t{i}", "index": name}
        if op == "cluster":
            body.update(eps=0.08, min_samples=5)
            if shape.random() < 0.3:
                body["traversal"] = "dual" if shape.random() < 0.5 else "auto"
        elif op == "count":
            body.update(eps=0.08, min_samples=5)
        elif op == "knn":
            body["k"] = 5
        elif op == "insert":
            body["points"] = generate_points(rng, int(shape.integers(1, 6)))
        elif op == "delete":
            body["ids"] = [int(deletable[name].pop()), int(deletable[name].pop())]
        else:
            body = {"op": op, "id": f"t{i}"}
        requests.append(_Request(float(arrival), op, name, body, json.dumps(body)))
    return ServiceInputs(creates, requests)


def _new_service(create_payloads) -> tuple[ClusteringService, list]:
    svc = ClusteringService()
    return svc, [svc.handle(raw) for raw in create_payloads]


def _wait_until(due: float) -> None:
    """Spin until ``due``.  Sleeping would let the core idle between
    requests, and on a shared host the first work after an idle spell ran
    up to half again slower, by an amount that changed from run to run."""
    while time.perf_counter() < due:
        pass


@dataclass
class _Row:
    request: _Request
    response: dict
    sent: float  # seconds after the load starts
    done: float
    traced: bool

    @property
    def busy(self) -> float:
        return self.done - self.sent

    @property
    def latency(self) -> float:
        return self.done - self.request.arrival

    @property
    def status(self) -> str:
        return self.response["status"]


def run_service(seed: int, seconds: float, rec, cal, trace: bool, quick: bool) -> Outcome:
    inputs = service_inputs(seed, seconds, QUICK_INDEX_POINTS if quick else INDEX_POINTS)
    creates = inputs.create_payloads()
    warm, _ = _new_service(creates)
    for req in inputs.requests[:WARMUP_REQUESTS]:
        json.dumps(warm.handle(req.raw, arrival=req.arrival))
    del warm

    problems = []
    setup = []
    for _ in range(3 if quick else SETUP_BUILDS):
        t = time.perf_counter()
        svc, responses = _new_service(creates)
        setup.append(time.perf_counter() - t)
        problems += [f"create_index answered {r['status']}" for r in responses if r["status"] != "ok"]

    cal.sample(CALIBRATION_BURST)
    before = svc.device.counters.snapshot()
    rows = []
    t0 = last_calibration = time.perf_counter() + 0.01
    for i, req in enumerate(inputs.requests):
        # Calibrate in idle gaps, one short task at a time, never so close
        # to a due time that the request would wait for it.
        now = time.perf_counter()
        if t0 + req.arrival - now > IDLE_GAP and now - last_calibration >= IDLE_CALIBRATE_EVERY:
            cal.sample()
            last_calibration = time.perf_counter()
        _wait_until(t0 + req.arrival)
        traced = trace and i % 2 == 1
        rec.active = traced
        svc.device.tracer = rec.tracer if traced else None
        sent = time.perf_counter()
        with rec.span("request", op=req.op):
            with rec.span("handle", layer="service.other_ms"):
                response = svc.handle(req.raw, arrival=req.arrival)
            with rec.span("serialize", layer="service.serialize_ms"):
                json.dumps(response)
        done = time.perf_counter()
        rec.active = False
        svc.device.tracer = None
        rows.append(_Row(req, response, sent - t0, done - t0, traced))
    peak_rss = _peak_rss_mb()
    cal.sample(CALIBRATION_BURST)

    problems += _check_service(inputs.creates, rows)
    sent = len(rows)
    failed = sum(row.status in ("error", "rejected") for row in rows)
    if trace:
        metrics = _service_layers(svc, before, rec, rows)
    else:
        answered = [row for row in rows if row.status in ("ok", "degraded")]
        latency = [row.latency for row in answered]
        fits = [row.busy for row in answered if row.request.op == "cluster"]
        metrics = {
            "setup_s": statistics.median(setup),
            "sweep_s": 100 * sum(row.busy for row in rows) / sent,
            "fit_s_p50": statistics.median(fits or [0.0]),
            "req_ms_p50": 1e3 * statistics.median(latency),
            "req_ms_p75": 1e3 * _percentile(latency, 75),
            "req_ok_frac": sum(
                row.status == "ok" and row.latency <= SLO_SECONDS for row in rows
            ) / sent,
            "peak_rss_mb": peak_rss,
        }
    statuses = Counter(
        f"{row.request.op}/{row.status}/{row.response.get('mode')}" for row in rows
    )
    return Outcome(not problems, sent, failed, metrics, problems, dict(statuses))


def _check_service(creates, rows) -> list:
    """Replay the answered mutations on a benchmark-side copy of each
    index and check every query answer against the live points it saw."""
    live = {name: dict(enumerate(points)) for name, points in creates}
    version = dict.fromkeys(live, 0)
    refs: dict = {}
    problems = []
    for row in rows:
        req, response = row.request, row.response
        if row.status not in ("ok", "degraded"):
            continue
        result = response.get("result") or {}
        points = live.get(req.index)
        problem = None
        if req.op == "insert":
            points.update(zip(result["ids"], np.asarray(req.body["points"])))
            version[req.index] += 1
        elif req.op == "delete":
            missing = [i for i in req.body["ids"] if i not in points]
            if missing:
                problem = f"deleted ids {missing} that were not live"
            for i in req.body["ids"]:
                points.pop(i, None)
            version[req.index] += 1
        elif req.op in ("cluster", "count", "knn"):
            ids = sorted(points)
            X = np.array([points[i] for i in ids])
            if req.op == "knn":
                problem = gate.check_knn(X, req.body["k"], result["radii"])
            else:
                key = (req.index, version[req.index], req.body["eps"])
                if key not in refs:
                    refs[key] = gate.FlatReference(X, req.body["eps"])
                ref, minpts = refs[key], req.body["min_samples"]
                if req.op == "count":
                    problem = gate.check_counts(ref, minpts, result["counts"], result["n_core"])
                elif "labels" not in result:  # a degraded, count-only answer
                    problem = gate.check_n_core(ref, minpts, result["n_core"])
                elif result["ids"] != ids:
                    problem = "answered over a different set of live points"
                else:
                    problem = gate.check_flat(ref, minpts, result["labels"], result["is_core"])
        if req.op in ("insert", "delete") and result.get("n_live") != len(points):
            problem = problem or f"n_live is {result.get('n_live')}; {len(points)} points are live"
        if problem:
            problems.append(f"request {req.body['id']} ({req.op} on {req.index}): {problem}")
    return problems


def _service_layers(svc, before: dict, rec, rows) -> dict:
    """Per-layer metrics: mean ms per traced request for the service
    layers; counts per request sent; waiting and outcome shares over all
    requests sent."""
    out = _zeros()
    per_request = list(
        layers.exclusive_by_root(rec.spans(), "request", layers.bench_layer).values()
    )
    for name in SERVICE_PARTITION:
        out[name] = 1e3 * statistics.fmean(r.get(name, 0.0) for r in per_request)
    traced = [row for row in rows if row.traced]
    out["service.busy_ms"] = 1e3 * statistics.fmean(row.busy for row in traced)

    sent = len(rows)
    answered = [row.latency for row in rows if row.status in ("ok", "degraded")]
    out["service.req_ms_p90"] = 1e3 * _percentile(answered, 90)
    wait = [row.sent - row.request.arrival for row in rows]
    out["service.wait_ms_p50"] = 1e3 * statistics.median(wait)
    out["service.wait_ms_p90"] = 1e3 * _percentile(wait, 90)
    out["service.shed_frac"] = sum(row.status == "shed" for row in rows) / sent
    out["service.degraded_frac"] = sum(row.status == "degraded" for row in rows) / sent
    out["service.cached_frac"] = sum(row.response.get("mode") == "cached" for row in rows) / sent

    counters = svc.device.counters.diff(before)
    for name, keys in COUNTERS.items():
        out[name] = sum(counters.get(k, 0) for k in keys) / sent
    out["bvh.frontier_peak"] = counters["frontier_peak"]
    out["device.peak_mb"] = svc.device.memory.peak_bytes / 2**20

    def p50(rows_):
        return statistics.median(row.latency for row in rows_ if row.status in ("ok", "degraded"))

    out["trace.overhead"] = p50(traced) / p50([row for row in rows if not row.traced]) - 1.0
    return out
