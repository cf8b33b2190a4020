"""Benchmark record persistence and regression comparison.

The figure benchmarks print their series, but performance work needs
*history*: save a run's records to JSON, reload them later, and diff two
runs to catch regressions (the optimisation-workflow advice: track
performance across commits, never trust memory of what a number was).

Records round-trip losslessly through :func:`save_records` /
:func:`load_records`; :func:`compare_records` matches cells by their
identity (algorithm, dataset, n, eps, minpts) and
reports per-cell speedups with a regression threshold.

Besides wall seconds, the comparison tracks **per-point counter rates**
(:meth:`~repro.bench.harness.RunRecord.counter_rates` —
``distance_evals / n`` and friends).  Wall time is noisy across machines
and loads; the rates are deterministic work measures, so a rate
regression is an *algorithmic* alarm — the code started doing more work
per point — even when the wall clock happens to look fine.
"""

from __future__ import annotations

import json
import math

from repro.bench.harness import RunRecord

#: Fields that identify a cell across runs.
_KEY_FIELDS = ("algorithm", "dataset", "n", "eps", "min_samples")


def _key(record: RunRecord) -> tuple:
    return tuple(getattr(record, f) for f in _KEY_FIELDS)


def save_records(path: str, records: list[RunRecord], meta: dict | None = None) -> None:
    """Write records (plus optional run metadata) as JSON."""
    payload = {
        "meta": meta or {},
        "records": [
            {
                "algorithm": r.algorithm,
                "dataset": r.dataset,
                "n": r.n,
                "eps": r.eps,
                "min_samples": r.min_samples,
                "seconds": None if math.isnan(r.seconds) else r.seconds,
                "status": r.status,
                "n_clusters": r.n_clusters,
                "n_noise": r.n_noise,
                "dense_fraction": None
                if math.isnan(r.dense_fraction)
                else r.dense_fraction,
                "peak_bytes": r.peak_bytes,
                "counters": {k: int(v) for k, v in r.counters.items()},
                "kernels": {
                    name: {
                        "launches": int(row["launches"]),
                        "replayed": int(row["replayed"]),
                        "seconds": float(row["seconds"]),
                        "self_seconds": float(row.get("self_seconds", 0.0)),
                        "replayed_seconds": float(row.get("replayed_seconds", 0.0)),
                        "threads": int(row["threads"]),
                        "steps": int(row["steps"]),
                        "counters": {
                            k: int(v) for k, v in row.get("counters", {}).items()
                        },
                    }
                    for name, row in r.kernels.items()
                },
                "reused_index": bool(r.reused_index),
                "attempts": int(r.attempts),
                "faults": int(r.faults),
                "detail": r.detail,
                "replayed_build_seconds": float(r.replayed_build_seconds),
                "trace_dropped": int(r.trace_dropped),
                # Derived from counters/n; saved so humans diffing the
                # JSON see the tracked rates without recomputing them.
                "counter_rates": {
                    k: float(v) for k, v in r.counter_rates().items()
                },
            }
            for r in records
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def load_records(path: str) -> tuple[list[RunRecord], dict]:
    """Read records saved by :func:`save_records`; returns
    ``(records, meta)``."""
    with open(path) as fh:
        payload = json.load(fh)
    records = []
    for row in payload["records"]:
        records.append(
            RunRecord(
                algorithm=row["algorithm"],
                dataset=row["dataset"],
                n=int(row["n"]),
                eps=float(row["eps"]),
                min_samples=int(row["min_samples"]),
                seconds=float("nan") if row["seconds"] is None else row["seconds"],
                status=row["status"],
                n_clusters=int(row["n_clusters"]),
                n_noise=int(row["n_noise"]),
                dense_fraction=float("nan")
                if row["dense_fraction"] is None
                else row["dense_fraction"],
                peak_bytes=int(row["peak_bytes"]),
                counters=dict(row["counters"]),
                kernels={k: dict(v) for k, v in row.get("kernels", {}).items()},
                reused_index=bool(row.get("reused_index", False)),
                attempts=int(row.get("attempts", 1)),
                faults=int(row.get("faults", 0)),
                detail=row.get("detail", ""),
                replayed_build_seconds=float(row.get("replayed_build_seconds", 0.0)),
                trace_dropped=int(row.get("trace_dropped", 0)),
            )
        )
    return records, payload.get("meta", {})


def compare_records(
    baseline: list[RunRecord],
    current: list[RunRecord],
    regression_threshold: float = 1.25,
    rate_threshold: float | None = None,
) -> dict:
    """Diff two runs cell by cell.

    Returns a dict with:

    - ``regressions``: cells slower than ``regression_threshold`` x the
      baseline;
    - ``improvements``: cells faster than ``1 / threshold`` x baseline;
    - ``rate_regressions`` / ``rate_improvements``: cells whose tracked
      per-point counter rates (:meth:`RunRecord.counter_rates`) moved past
      ``rate_threshold`` (defaults to ``regression_threshold``) — the
      machine-independent work alarms;
    - ``status_changes``: cells whose status flipped (e.g. ok -> oom);
    - ``result_changes``: cells whose clustering output changed — these
      are *correctness* alarms, not performance ones;
    - ``unmatched``: cells present in only one run.
    """
    if rate_threshold is None:
        rate_threshold = regression_threshold
    base = {_key(r): r for r in baseline}
    cur = {_key(r): r for r in current}
    report = {
        "regressions": [],
        "improvements": [],
        "rate_regressions": [],
        "rate_improvements": [],
        "status_changes": [],
        "result_changes": [],
        "unmatched": sorted(
            str(k) for k in (set(base) ^ set(cur))
        ),
    }
    for key in sorted(set(base) & set(cur), key=str):
        old, new = base[key], cur[key]
        if old.status != new.status:
            report["status_changes"].append(
                {"cell": str(key), "before": old.status, "after": new.status}
            )
            continue
        if old.status != "ok":
            continue
        if (old.n_clusters, old.n_noise) != (new.n_clusters, new.n_noise):
            report["result_changes"].append(
                {
                    "cell": str(key),
                    "before": (old.n_clusters, old.n_noise),
                    "after": (new.n_clusters, new.n_noise),
                }
            )
        if old.seconds > 0:
            ratio = new.seconds / old.seconds
            entry = {"cell": str(key), "ratio": ratio, "before": old.seconds, "after": new.seconds}
            if ratio > regression_threshold:
                report["regressions"].append(entry)
            elif ratio < 1.0 / regression_threshold:
                report["improvements"].append(entry)
        old_rates = old.counter_rates()
        new_rates = new.counter_rates()
        for name in sorted(set(old_rates) & set(new_rates)):
            if old_rates[name] <= 0:
                continue
            ratio = new_rates[name] / old_rates[name]
            entry = {
                "cell": str(key),
                "counter": name,
                "ratio": ratio,
                "before": old_rates[name],
                "after": new_rates[name],
            }
            if ratio > rate_threshold:
                report["rate_regressions"].append(entry)
            elif ratio < 1.0 / rate_threshold:
                report["rate_improvements"].append(entry)
    return report
