"""Command-line interface: ``python -m repro``.

Four subcommands:

``cluster``
    Cluster a point file (``.npy``/``.csv``/``.txt``/``.bin``) or a named
    synthetic dataset, print the run summary (and optionally the work
    counters), and write labels to a file.

``bench``
    Run one figure-style sweep from the command line without pytest —
    handy for quick regressions on one machine.

``metrics``
    Run one clustering and print its metrics — device work counters,
    per-kernel seconds, comm/fault totals — as Prometheus text
    exposition (or CSV), fed from the same accounting objects the
    benchmarks report.

``serve``
    Run the resilient clustering service (``repro.service``): a
    newline-JSON request loop on stdin (or HTTP with ``--http PORT``),
    with per-request deadlines, admission control, circuit breakers and
    a crash-safe mutation journal.  ``--traffic N`` runs the seeded
    synthetic traffic generator instead and prints the latency report.

``bench`` and ``metrics`` exit non-zero when any cell finishes with
status ``error``/``oom``/``timeout``, unless ``--allow-failures`` is
passed — CI cannot silently pass on broken cells.

Every subcommand accepts ``--trace-out TRACE.json`` (with
``--trace-format chrome|csv``) to record the run as one trace tree —
device kernels, comm transfers, distributed phases and benchmark cells
on a shared timeline — loadable in Perfetto / ``chrome://tracing``.

Examples
--------
::

    python -m repro cluster --dataset hacc --n 50000 --eps 0.042 --minpts 2
    python -m repro cluster points.csv --eps 0.01 --minpts 50 \
        --algorithm fdbscan-densebox --labels-out labels.npy --counters
    python -m repro bench --dataset portotaxi --n 8192 --eps 0.01 \
        --minpts-sweep 10,20,50 --algorithms fdbscan,densebox
    python -m repro bench --dataset ngsim --n 4096 --eps 0.02 \
        --faults 0.1 --ranks 4 --algorithms fdbscan,distributed \
        --trace-out trace.json
    python -m repro metrics --dataset ngsim --n 2048 --eps 0.02 --minpts 5
    python -m repro serve --journal service.jsonl
    python -m repro serve --traffic 200 --faults 0.1 --save report.json
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.bench.harness import run_sweep
from repro.bench.report import (
    format_fault_summary,
    format_kernel_profile,
    format_records,
    format_series,
    merge_kernel_profiles,
)
from repro.core.api import dbscan
from repro.datasets.io import load_points, subsample
from repro.datasets.registry import DATASETS, load_dataset
from repro.device.device import Device, KernelFaultError
from repro.device.memory import DeviceMemoryError
from repro.faults import DeadlineExceededError, FaultPlan, FaultSpec, RetryPolicy
from repro.metrics.stats import clustering_summary, hierarchy_summary
from repro.obs import (
    MetricsRegistry,
    Tracer,
    format_cost_model,
    record_comm_stats,
    record_fault_summary,
    record_kernel_counters,
    record_kernel_profile,
    record_run_records,
    record_trace_health,
    write_trace,
)


def _fault_machinery(args) -> tuple[FaultPlan | None, RetryPolicy | None]:
    """Build the (fault plan, retry policy) pair from CLI flags."""
    plan = None
    if args.faults:
        plan = FaultPlan(seed=args.fault_seed, spec=FaultSpec.parse(args.faults))
    policy = None
    if args.retries is not None:
        if args.retries < 0:
            raise SystemExit(f"--retries must be >= 0; got {args.retries}")
        policy = RetryPolicy(max_attempts=args.retries + 1)
    return plan, policy


def _tracer_for(args) -> Tracer | None:
    """A :class:`Tracer` when ``--trace-out`` asks for one, else None."""
    return Tracer() if getattr(args, "trace_out", None) else None


def _write_trace(args, tracer: Tracer | None) -> dict | None:
    """Export the tracer to ``--trace-out`` and describe what was written."""
    if tracer is None:
        return None
    write_trace(args.trace_out, tracer, fmt=args.trace_format)
    meta = {
        "path": args.trace_out,
        "format": args.trace_format,
        "trace_id": tracer.trace_id,
        "spans": len(tracer.spans),
        "dropped_spans": tracer.dropped,
    }
    print(
        f"trace written to {args.trace_out} "
        f"({args.trace_format}, {meta['spans']} spans"
        + (f", {meta['dropped_spans']} dropped" if meta["dropped_spans"] else "")
        + ")"
    )
    return meta


def _load_input(args) -> np.ndarray:
    if args.dataset:
        return load_dataset(args.dataset, args.n, seed=args.seed)
    if not args.input:
        raise SystemExit("either an input file or --dataset is required")
    X = load_points(args.input, dim=args.dim)
    if args.n and args.n < X.shape[0]:
        X = subsample(X, args.n, seed=args.seed)
    return X


def _cluster_run(args, device: Device, tracer: Tracer | None):
    """Run the cluster/metrics subcommands' single clustering."""
    X = _load_input(args)
    plan, policy = _fault_machinery(args)
    if args.eps is None and (args.ranks or args.algorithm.lower() != "hdbscan"):
        raise SystemExit(
            "--eps is required (only --algorithm hdbscan runs without it)"
        )
    if args.ranks:
        from repro.distributed import distributed_dbscan

        result = distributed_dbscan(
            X, args.eps, args.minpts, n_ranks=args.ranks, device=device,
            fault_plan=plan, retry_policy=policy, tracer=tracer,
        )
    elif plan is not None:
        raise SystemExit("--faults requires --ranks (faults are injected into "
                         "the distributed driver); use bench --faults for cells")
    elif args.algorithm.lower() == "hdbscan":
        from repro.hierarchy import hdbscan

        if tracer is not None:
            device.tracer = tracer
        result = hdbscan(
            X,
            min_cluster_size=getattr(args, "min_cluster_size", None) or max(2, args.minpts),
            min_samples=args.minpts,
            device=device,
            mst_algorithm=getattr(args, "mst", "boruvka"),
        )
    else:
        if tracer is not None:
            device.tracer = tracer
        result = dbscan(X, args.eps, args.minpts, algorithm=args.algorithm, device=device)
    return result


def _cmd_cluster(args) -> int:
    device = Device(capacity_bytes=args.memory_cap)
    tracer = _tracer_for(args)
    result = _cluster_run(args, device, tracer)
    print(f"algorithm : {result.info.get('algorithm', args.algorithm)}")
    if result.info.get("algorithm") == "hdbscan":
        summary = hierarchy_summary(result)
        summary["mst_algorithm"] = result.info["mst_algorithm"]
    else:
        summary = clustering_summary(result)
    for key, value in summary.items():
        print(f"{key:>18} : {value}")
    if args.ranks:
        print(f"{'alive_ranks':>18} : {result.info['alive_ranks']}")
        print(format_fault_summary(result.info))
    if "dense_fraction" in result.info:
        print(f"{'dense_fraction':>18} : {result.info['dense_fraction']:.1%}")
    if args.counters:
        print("-- device counters --")
        for key, value in sorted(device.counters.snapshot().items()):
            if isinstance(value, int) and value:
                print(f"{key:>18} : {value:,}")
        print(f"{'peak_bytes':>18} : {device.memory.peak_bytes:,}")
    if args.profile:
        print(format_kernel_profile(device.profile(), title="-- kernel profile --"))
    if args.cost_model:
        print(format_cost_model(device.profile()))
    if args.labels_out:
        np.save(args.labels_out, result.labels)
        print(f"labels written to {args.labels_out}")
    _write_trace(args, tracer)
    return 0


def _cmd_metrics(args) -> int:
    """Run one clustering and print its metrics exposition."""
    device = Device(capacity_bytes=args.memory_cap)
    tracer = _tracer_for(args)
    failure = None
    result = None
    try:
        result = _cluster_run(args, device, tracer)
    except (KernelFaultError, DeviceMemoryError, DeadlineExceededError) as exc:
        # Still expose the partial counters — a broken run's metrics are
        # exactly what the investigation needs — but don't exit clean.
        failure = f"{type(exc).__name__}: {exc}"
    registry = MetricsRegistry()
    record_kernel_counters(registry, device.counters.snapshot())
    record_kernel_profile(registry, device.profile())
    record_trace_health(registry, tracer=tracer, devices=(device,))
    if args.ranks and result is not None:
        record_comm_stats(registry, result.info.get("comm", {}))
        if result.info.get("faults"):
            record_fault_summary(registry, result.info["faults"])
    output = registry.to_csv() if args.format == "csv" else registry.to_prometheus()
    print(output, end="" if output.endswith("\n") else "\n")
    _write_trace(args, tracer)
    if failure is not None:
        print(f"run failed: {failure}", file=sys.stderr)
        if not args.allow_failures:
            return 1
        print("continuing despite failure (--allow-failures)", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    if args.eps is None and not args.eps_sweep:
        raise SystemExit("bench requires --eps (or --eps-sweep)")
    X = _load_input(args)
    algorithms = args.algorithms.split(",")
    if args.minpts_sweep:
        values = [int(v) for v in args.minpts_sweep.split(",")]
        cells = [{"eps": args.eps, "min_samples": v} for v in values]
        x_key = "min_samples"
    elif args.eps_sweep:
        values = [float(v) for v in args.eps_sweep.split(",")]
        cells = [{"eps": v, "min_samples": args.minpts} for v in values]
        x_key = "eps"
    else:
        cells = [{"eps": args.eps, "min_samples": args.minpts}]
        x_key = "min_samples"
    plan, policy = _fault_machinery(args)
    tracer = _tracer_for(args)
    records = run_sweep(
        algorithms,
        cells,
        lambda cell: X,
        dataset=args.dataset or args.input,
        time_budget=args.time_budget,
        time_budget_mode=args.time_budget_mode,
        capacity_bytes=args.memory_cap,
        reuse_index=not args.no_reuse_index,
        retry_policy=policy,
        fault_plan=plan,
        tracer=tracer,
        cell_timeout=args.cell_timeout,
        n_ranks=args.ranks or 4,
    )
    print(format_series(records, x_key=x_key, title="seconds"))
    print()
    print(format_records(records))
    print()
    print(format_kernel_profile(records, title="-- kernel profile (all cells) --"))
    dropped = sum(r.trace_dropped for r in records)
    if dropped:
        affected = sum(1 for r in records if r.trace_dropped)
        print(
            f"warning: {dropped} kernel launches evicted from the bounded span "
            f"ring across {affected} cell(s) — profiles/traces are incomplete; "
            f"raise the device's span-ring capacity for full traces"
        )
    if args.cost_model:
        print()
        print(format_cost_model(merge_kernel_profiles(records)))
    trace_meta = _write_trace(args, tracer)
    if args.save:
        from repro.bench.history import save_records

        # the argv main() actually parsed — replayable by bench.smoke even
        # when main() is invoked programmatically (sys.argv would lie then)
        meta = {"argv": getattr(args, "argv", sys.argv[1:])}
        if trace_meta is not None:
            meta["trace"] = trace_meta
        save_records(args.save, records, meta=meta)
        print(f"records written to {args.save}")
    if args.compare:
        from repro.bench.history import compare_records, load_records

        baseline, _ = load_records(args.compare)
        report = compare_records(baseline, records)
        print("-- comparison vs", args.compare, "--")
        for kind in (
            "regressions",
            "improvements",
            "rate_regressions",
            "rate_improvements",
            "status_changes",
            "result_changes",
        ):
            for entry in report[kind]:
                print(f"  {kind[:-1]}: {entry}")
        alarm_kinds = (
            "regressions", "rate_regressions", "status_changes", "result_changes"
        )
        if not any(report[k] for k in alarm_kinds):
            print("  no regressions")
    failed = [r for r in records if r.status in ("error", "oom", "timeout")]
    if failed:
        for rec in failed:
            print(
                f"failed cell: {rec.algorithm} n={rec.n} eps={rec.eps:g} "
                f"minpts={rec.min_samples} [{rec.status}] {rec.detail}",
                file=sys.stderr,
            )
        if not args.allow_failures:
            return 1
        print("continuing despite failed cells (--allow-failures)", file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    from repro.service import ClusteringService, ServiceConfig
    from repro.service.traffic import run_traffic, save_traffic_report

    plan = None
    if args.faults:
        plan = FaultPlan(seed=args.fault_seed, spec=FaultSpec.parse(args.faults))
    config = ServiceConfig(default_deadline_s=args.deadline)

    if args.traffic:
        report = run_traffic(
            n_requests=args.traffic,
            seed=args.seed,
            plan=plan,
            journal_path=args.journal,
            config=config,
            event_log_path=args.event_log,
        )
        lat = report["latency_ms"]
        print(f"{'requests sent':>16} : {report['requests_sent']}")
        for status, count in sorted(report["by_status"].items()):
            print(f"{status:>16} : {count}")
        print(
            f"{'latency ms':>16} : p50={lat['p50']:.2f} p95={lat['p95']:.2f} "
            f"p99={lat['p99']:.2f} max={lat['max']:.2f}"
        )
        if report["shed_reasons"]:
            print(f"{'shed':>16} : {report['shed_reasons']}")
        if report["degraded_modes"]:
            print(f"{'degraded':>16} : {report['degraded_modes']}")
        if report["faults_applied"]:
            print(f"{'faults applied':>16} : {report['faults_applied']}")
        for restart in report["restarts"]:
            equal = "bit-equal" if restart["bit_equal"] else "MISMATCH"
            print(
                f"{'crash-restart':>16} : at request {restart['at_request']}, "
                f"{restart['replayed_entries']} entries replayed, "
                f"fingerprints {equal}"
            )
        print(f"{'metrics=ledger':>16} : {report['metrics_ledger']['ok']}")
        from repro.obs.slo import format_slo_report

        print(format_slo_report(report["slo"], title="-- slo --"))
        events = report["events"]
        print(
            f"{'events':>16} : {events['appended']} appended, "
            f"{events['retained']} retained, {events['dropped']} dropped"
            + (f" -> {events['path']}" if events.get("path") else "")
        )
        if args.save:
            save_traffic_report(report, args.save)
            print(f"report written to {args.save}")
        if any(not r["bit_equal"] for r in report["restarts"]):
            return 1
        return 0

    event_log = None
    if args.event_log:
        from repro.service.events import EventLog

        event_log = EventLog(path=args.event_log)
    service = ClusteringService(
        journal_path=args.journal, config=config, fault_plan=plan,
        event_log=event_log,
    )
    if service.replayed_entries:
        print(
            f"replayed {service.replayed_entries} journal entries "
            f"({len(service.indexes)} indexes)",
            file=sys.stderr,
        )
    if args.http:
        from repro.service.http import serve_http

        print(f"serving HTTP on 127.0.0.1:{args.http} (Ctrl-C to stop)", file=sys.stderr)
        serve_http(service, port=args.http)
        return 0
    served = service.serve_lines(sys.stdin, sys.stdout)
    print(f"served {served} requests", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tree-based DBSCAN (FDBSCAN / FDBSCAN-DenseBox) and baselines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", nargs="?", help="point file (.npy/.csv/.txt/.bin)")
        p.add_argument(
            "--dataset",
            choices=sorted(DATASETS),
            help="generate a named synthetic dataset instead of reading a file",
        )
        p.add_argument("--n", type=int, default=10_000, help="points to generate/sample")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--dim", type=int, help="row width for raw .bin inputs")
        p.add_argument(
            "--eps", type=float, default=None,
            help="neighbourhood radius (required except for "
            "--algorithm hdbscan, which has no eps)",
        )
        p.add_argument(
            "--memory-cap", type=int, help="device memory cap in bytes (OOM simulation)"
        )
        p.add_argument(
            "--faults",
            help="fault-injection spec: a probability ('0.1') or key=value "
            "pairs ('drop=0.1,corrupt=0.05,crash=0.2,device=0.3,attempts=2')",
        )
        p.add_argument(
            "--fault-seed", type=int, default=0,
            help="seed for the deterministic fault plan (default 0)",
        )
        p.add_argument(
            "--retries", type=int, default=None,
            help="retry transient failures up to this many times "
            "(default: driver policy for --ranks runs, no retries for bench cells)",
        )
        p.add_argument(
            "--trace-out",
            help="record the run as one trace tree and write it to this file "
            "(Chrome trace-event JSON loads in Perfetto / chrome://tracing)",
        )
        p.add_argument(
            "--trace-format", choices=("chrome", "csv"), default="chrome",
            help="trace file format for --trace-out (default: chrome)",
        )

    def cost_model_flag(p):
        p.add_argument(
            "--cost-model", action="store_true",
            help="print the per-kernel cost model (wall seconds joined with "
            "machine-independent work counters and their rates)",
        )

    def hierarchy_flags(p):
        p.add_argument(
            "--min-cluster-size", type=int, default=None,
            help="smallest condensed cluster for --algorithm hdbscan "
            "(default: max(2, minpts)); --eps is ignored by hdbscan",
        )
        p.add_argument(
            "--mst", choices=("boruvka", "prim"), default="boruvka",
            help="mutual-reachability MST engine for --algorithm hdbscan: "
            "'boruvka' streams through the BVH, 'prim' is the O(n²) "
            "reference (identical dendrogram heights)",
        )

    cluster = sub.add_parser("cluster", help="cluster a point set")
    common(cluster)
    cluster.add_argument("--minpts", type=int, required=True)
    cluster.add_argument("--algorithm", default="auto")
    hierarchy_flags(cluster)
    cluster.add_argument(
        "--ranks", type=int,
        help="run the distributed driver with this many simulated ranks",
    )
    cluster.add_argument("--labels-out", help="write labels to this .npy file")
    cluster.add_argument(
        "--counters", action="store_true", help="print device work counters"
    )
    cluster.add_argument(
        "--profile", action="store_true", help="print the per-kernel time breakdown"
    )
    cost_model_flag(cluster)
    cluster.set_defaults(func=_cmd_cluster)

    metrics = sub.add_parser(
        "metrics",
        help="run one clustering and print its metrics exposition",
    )
    common(metrics)
    metrics.add_argument("--minpts", type=int, required=True)
    metrics.add_argument("--algorithm", default="auto")
    hierarchy_flags(metrics)
    metrics.add_argument(
        "--ranks", type=int,
        help="run the distributed driver with this many simulated ranks",
    )
    metrics.add_argument(
        "--format", choices=("prometheus", "csv"), default="prometheus",
        help="exposition format (default: prometheus text)",
    )
    metrics.add_argument(
        "--allow-failures", action="store_true",
        help="exit 0 even when the run fails (the partial metrics still print)",
    )
    metrics.set_defaults(func=_cmd_metrics)

    bench = sub.add_parser("bench", help="run a parameter sweep")
    common(bench)
    bench.add_argument("--minpts", type=int, default=5)
    bench.add_argument("--minpts-sweep", help="comma-separated minpts values")
    bench.add_argument("--eps-sweep", help="comma-separated eps values")
    bench.add_argument(
        "--algorithms", default="fdbscan,fdbscan-densebox",
        help="comma-separated names (registry algorithms plus 'distributed' "
        "for the simulated multi-rank driver)",
    )
    bench.add_argument(
        "--ranks", type=int,
        help="simulated rank count for 'distributed' cells (default 4)",
    )
    bench.add_argument("--time-budget", type=float, help="per-cell seconds budget")
    bench.add_argument(
        "--time-budget-mode", choices=("wall", "cold"), default="wall",
        help="compare the budget against actual wall seconds, or against "
        "cold-equivalent seconds (wall + replayed index-build seconds)",
    )
    cost_model_flag(bench)
    bench.add_argument(
        "--no-reuse-index",
        action="store_true",
        help="rebuild the spatial index cold in every cell (default: build once "
        "per point set and replay its cost)",
    )
    bench.add_argument(
        "--save",
        nargs="?",
        const="BENCH_sweep.json",
        help="write the records to this JSON file (default: BENCH_sweep.json)",
    )
    bench.add_argument(
        "--compare", help="diff against a JSON file written by --save"
    )
    bench.add_argument(
        "--cell-timeout", type=float, default=None,
        help="per-cell wall-second watchdog: a pathological cell is stopped "
        "mid-run and recorded as status='timeout' with partial counters",
    )
    bench.add_argument(
        "--allow-failures", action="store_true",
        help="exit 0 even when cells finish with status error/oom/timeout "
        "(default: such cells fail the command so CI can't silently pass)",
    )
    bench.set_defaults(func=_cmd_bench)

    serve = sub.add_parser(
        "serve", help="run the resilient clustering service (repro.service)"
    )
    serve.add_argument(
        "--journal",
        help="mutation journal path: mutations are fsynced here before being "
        "acknowledged, and a restarted service replays it to the exact "
        "pre-crash index fingerprints",
    )
    serve.add_argument(
        "--http", type=int, metavar="PORT",
        help="serve HTTP on this port instead of reading stdin "
        "(POST / for requests, GET /metrics for Prometheus text)",
    )
    serve.add_argument(
        "--deadline", type=float, default=None,
        help="default per-request deadline in seconds (requests may carry "
        "their own 'deadline_s'); exceeded deadlines answer "
        "error/deadline_exceeded",
    )
    serve.add_argument(
        "--traffic", type=int, metavar="N",
        help="run N seeded synthetic requests through a fresh service and "
        "print the latency-percentile report instead of serving stdin",
    )
    serve.add_argument("--seed", type=int, default=0, help="traffic seed")
    serve.add_argument(
        "--faults",
        help="fault-injection spec for the service/traffic: a probability or "
        "key=value pairs ('device=0.1,malformed=0.05,storm=0.05,"
        "invalidate=0.05,restart=0.02,attempts=2')",
    )
    serve.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the deterministic fault plan (default 0)",
    )
    serve.add_argument(
        "--save", help="write the traffic report JSON to this file (--traffic)"
    )
    serve.add_argument(
        "--event-log", metavar="PATH",
        help="write-through the bounded per-request event ring to this JSONL "
        "file (one structured record per request, with trace exemplars)",
    )
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    args.argv = list(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
