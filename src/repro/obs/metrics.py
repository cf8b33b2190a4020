"""Metrics registry: counters, gauges, histograms + text expositions.

The trace (:mod:`repro.obs.span`) answers *when* things happened; the
metrics registry answers *how much* — the totals a scrape endpoint or a
spreadsheet wants.  Three instrument kinds, mirroring the Prometheus
data model:

- :class:`Counter` — monotonically accumulated totals (distance
  evaluations, messages, bytes, injected faults);
- :class:`Gauge` — point-in-time values and high-watermarks (frontier
  peak, peak device bytes, cache hit ratio);
- :class:`Histogram` — distributions over **fixed buckets** (kernel
  wall seconds), so two runs' histograms are always mergeable.

Every instrument supports labels (``phase="ghosts"``); exposition is
Prometheus text format (:meth:`MetricsRegistry.to_prometheus`) or flat
CSV (:meth:`MetricsRegistry.to_csv`).

The ``record_*`` bridges populate a registry from the accounting objects
the stack already produces — :class:`~repro.device.counters.KernelCounters`
snapshots, :class:`~repro.distributed.comm.CommStats` dicts, fault-plan
summaries and benchmark :class:`~repro.bench.harness.RunRecord` lists —
with the invariant that **every exported total equals the source value**
(asserted by the test suite): the registry is a view, never a second
source of truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Fixed wall-seconds buckets for kernel/span duration histograms.
#: Chosen to straddle the simulated device's typical launch times
#: (tens of microseconds to seconds); fixed so histograms merge.
DEFAULT_SECONDS_BUCKETS = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0
)

#: Metric-name prefix for everything this package exports.
PREFIX = "repro"


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_text(key: tuple) -> str:
    if not key:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in key) + "}"


def _fmt_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


@dataclass
class Counter:
    """A monotonically increasing total (per label set)."""

    name: str
    help: str = ""
    values: dict = field(default_factory=dict)

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        key = _label_key(labels)
        self.values[key] = self.values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self.values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every label set."""
        return sum(self.values.values())

    def exposition(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} counter"]
        for key in sorted(self.values):
            lines.append(f"{self.name}{_label_text(key)} {_fmt_value(self.values[key])}")
        return lines

    def rows(self) -> list[tuple]:
        return [
            (self.name, "counter", dict(key), value)
            for key, value in sorted(self.values.items())
        ]


@dataclass
class Gauge:
    """A point-in-time value (per label set); supports high-watermarks."""

    name: str
    help: str = ""
    values: dict = field(default_factory=dict)

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self.values[_label_key(labels)] = float(value)

    def observe_max(self, value: float, **labels) -> None:
        key = _label_key(labels)
        self.values[key] = max(self.values.get(key, float("-inf")), float(value))

    def value(self, **labels) -> float:
        return self.values.get(_label_key(labels), 0.0)

    def exposition(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} gauge"]
        for key in sorted(self.values):
            lines.append(f"{self.name}{_label_text(key)} {_fmt_value(self.values[key])}")
        return lines

    def rows(self) -> list[tuple]:
        return [
            (self.name, "gauge", dict(key), value)
            for key, value in sorted(self.values.items())
        ]


@dataclass
class Histogram:
    """Fixed-bucket distribution (per label set).

    Buckets are upper bounds, cumulative in exposition (Prometheus
    semantics: ``le="0.1"`` counts every observation ``<= 0.1``, and the
    implicit ``+Inf`` bucket equals the observation count).
    """

    name: str
    help: str = ""
    buckets: tuple = DEFAULT_SECONDS_BUCKETS
    series: dict = field(default_factory=dict)  # label key -> [counts, sum, n]

    kind = "histogram"

    def __post_init__(self):
        self.buckets = tuple(sorted(float(b) for b in self.buckets))
        if not self.buckets:
            raise ValueError(f"histogram {self.name} needs at least one bucket")

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        counts, total, n = self.series.setdefault(
            key, [[0] * (len(self.buckets) + 1), 0.0, 0]
        )
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1  # the +Inf bucket
        entry = self.series[key]
        entry[1] = total + float(value)
        entry[2] = n + 1

    def count(self, **labels) -> int:
        entry = self.series.get(_label_key(labels))
        return entry[2] if entry else 0

    def sum(self, **labels) -> float:
        entry = self.series.get(_label_key(labels))
        return entry[1] if entry else 0.0

    # -- estimation ------------------------------------------------------------

    def _counts_for(self, labels: dict | None) -> tuple[list, int]:
        """Per-bucket counts (plus the +Inf bucket) and the observation
        total — one label set when ``labels`` is given, every label set
        merged when ``labels`` is None (fixed buckets make the merge a
        plain elementwise sum)."""
        merged = [0] * (len(self.buckets) + 1)
        n = 0
        if labels is None:
            series = self.series.values()
        else:
            entry = self.series.get(_label_key(labels))
            series = [entry] if entry is not None else []
        for counts, _total, count in series:
            for i, c in enumerate(counts):
                merged[i] += c
            n += count
        return merged, n

    def quantile(self, q: float, labels: dict | None = None) -> float:
        """Estimated ``q``-quantile with linear interpolation in-bucket.

        ``labels=None`` merges every label set (the overall
        distribution); pass a dict for one series.  The estimate
        interpolates linearly between a bucket's lower and upper bound —
        the Prometheus ``histogram_quantile`` convention — with the
        first bucket's lower bound at 0 (durations are nonnegative).
        Observations in the ``+Inf`` bucket clamp to the highest finite
        bound (there is no upper edge to interpolate toward).  Returns
        0.0 for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile q must be in [0, 1]; got {q}")
        counts, n = self._counts_for(labels)
        if n == 0:
            return 0.0
        rank = q * n
        cumulative = 0.0
        lower = 0.0
        for bound, c in zip(self.buckets, counts):
            if cumulative + c >= rank and c > 0:
                frac = (rank - cumulative) / c
                return lower + (bound - lower) * min(max(frac, 0.0), 1.0)
            cumulative += c
            lower = bound
        return float(self.buckets[-1])

    def count_le(self, value: float, labels: dict | None = None) -> float:
        """Estimated observations ``<= value`` (linear within the bucket
        containing ``value``; ``+Inf``-bucket observations never count —
        the conservative choice for latency objectives).  ``labels=None``
        merges every label set."""
        counts, _n = self._counts_for(labels)
        total = 0.0
        lower = 0.0
        for bound, c in zip(self.buckets, counts):
            if value >= bound:
                total += c
            elif value > lower:
                total += c * (value - lower) / (bound - lower)
                break
            else:
                break
            lower = bound
        return total

    def exposition(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} histogram"]
        for key in sorted(self.series):
            counts, total, n = self.series[key]
            cumulative = 0
            for bound, c in zip((*self.buckets, math.inf), counts):
                cumulative += c
                labels = dict(key)
                labels["le"] = _fmt_value(bound)
                lines.append(
                    f"{self.name}_bucket{_label_text(_label_key(labels))} {cumulative}"
                )
            lines.append(f"{self.name}_sum{_label_text(key)} {_fmt_value(total)}")
            lines.append(f"{self.name}_count{_label_text(key)} {n}")
        return lines

    def rows(self) -> list[tuple]:
        out = []
        for key in sorted(self.series):
            _counts, total, n = self.series[key]
            out.append((f"{self.name}_sum", "histogram", dict(key), total))
            out.append((f"{self.name}_count", "histogram", dict(key), float(n)))
        return out


class MetricsRegistry:
    """A named collection of instruments with text expositions."""

    def __init__(self):
        self._metrics: dict[str, object] = {}

    def _get(self, cls, name: str, help: str, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name=name, help=help, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: tuple = DEFAULT_SECONDS_BUCKETS
    ) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    def get(self, name: str):
        """The registered instrument named ``name`` (KeyError if absent)."""
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        return sorted(self._metrics)

    # -- expositions -----------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (one block per metric)."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            lines.extend(self._metrics[name].exposition())
        return "\n".join(lines) + ("\n" if lines else "")

    def to_csv(self) -> str:
        """Flat ``metric,kind,labels,value`` CSV for spreadsheets."""
        lines = ["metric,kind,labels,value"]
        for name in sorted(self._metrics):
            for metric_name, kind, labels, value in self._metrics[name].rows():
                label_text = ";".join(f"{k}={v}" for k, v in sorted(labels.items()))
                lines.append(f"{metric_name},{kind},{label_text},{_fmt_value(value)}")
        return "\n".join(lines) + "\n"


# -- bridges from the stack's accounting objects -------------------------------

#: KernelCounters fields that are high-watermarks, not totals — exported
#: as gauges (merging two runs' peaks takes a max, never a sum).
_WATERMARK_COUNTERS = {"frontier_peak"}


def record_kernel_counters(registry: MetricsRegistry, counters: dict, **labels) -> None:
    """Export a :meth:`KernelCounters.snapshot` dict.

    Each counter becomes ``repro_<name>_total`` (watermarks become the
    gauge ``repro_<name>``); exported values equal the snapshot exactly.
    """
    for name, value in counters.items():
        if name in _WATERMARK_COUNTERS:
            registry.gauge(
                f"{PREFIX}_{name}", f"high-watermark device counter {name}"
            ).observe_max(value, **labels)
        else:
            registry.counter(
                f"{PREFIX}_{name}_total", f"device work counter {name}"
            ).inc(value, **labels)


def record_kernel_profile(registry: MetricsRegistry, profile: dict, **labels) -> None:
    """Export a :meth:`Device.profile` dict: per-kernel launch counts,
    inclusive/self seconds and a fixed-bucket launch-duration histogram
    (approximated from per-kernel means when only aggregates exist)."""
    launches = registry.counter(
        f"{PREFIX}_kernel_launches_by_name_total", "kernel launches per kernel name"
    )
    seconds = registry.counter(
        f"{PREFIX}_kernel_seconds_total", "inclusive kernel wall seconds per kernel name"
    )
    self_seconds = registry.counter(
        f"{PREFIX}_kernel_self_seconds_total",
        "exclusive (self) kernel wall seconds per kernel name",
    )
    for name, row in profile.items():
        launches.inc(row["launches"], kernel=name, **labels)
        seconds.inc(row["seconds"], kernel=name, **labels)
        self_seconds.inc(row.get("self_seconds", row["seconds"]), kernel=name, **labels)


def record_launch_seconds(registry: MetricsRegistry, launches, **labels) -> None:
    """Observe each :class:`KernelLaunch`'s wall seconds into the
    ``repro_kernel_seconds`` fixed-bucket histogram."""
    hist = registry.histogram(
        f"{PREFIX}_kernel_seconds", "kernel launch wall-seconds distribution"
    )
    for launch in launches:
        hist.observe(launch.seconds, kernel=launch.name, **labels)


def record_comm_stats(registry: MetricsRegistry, stats: dict, **labels) -> None:
    """Export a :meth:`CommStats.as_dict` snapshot.

    Per-phase messages/bytes/retransmits are labelled by ``phase`` (their
    label-summed totals equal ``messages`` / ``bytes_sent`` /
    ``retransmits`` by CommStats' own bookkeeping); the fault tallies
    become scalar counters; the simulated wait becomes a gauge.
    """
    messages = registry.counter(f"{PREFIX}_comm_messages_total", "messages transmitted")
    nbytes = registry.counter(f"{PREFIX}_comm_bytes_total", "payload bytes transmitted")
    retx = registry.counter(f"{PREFIX}_comm_retransmits_total", "retransmitted messages")
    for phase, entry in stats.get("by_phase", {}).items():
        messages.inc(entry["messages"], phase=phase, **labels)
        nbytes.inc(entry["bytes"], phase=phase, **labels)
        retx.inc(entry["retransmits"], phase=phase, **labels)
    for key in ("drops", "timeouts", "corruptions_detected", "duplicates_dropped", "reorders"):
        registry.counter(
            f"{PREFIX}_comm_{key}_total", f"communicator fault tally: {key}"
        ).inc(stats.get(key, 0), **labels)
    registry.gauge(
        f"{PREFIX}_comm_sim_wait_seconds", "simulated backoff wait seconds"
    ).set(stats.get("sim_wait_seconds", 0.0), **labels)


def record_fault_summary(registry: MetricsRegistry, summary: dict, **labels) -> None:
    """Export a :meth:`FaultPlan.summary` dict as per-kind fault counters."""
    faults = registry.counter(f"{PREFIX}_faults_injected_total", "injected faults by kind")
    for kind, count in summary.get("by_kind", {}).items():
        faults.inc(count, kind=kind, **labels)


def record_run_records(registry: MetricsRegistry, records, **labels) -> None:
    """Export a benchmark record list: per-status cell counts, retry
    totals, index-cache reuse counters and the derived hit ratio."""
    cells = registry.counter(f"{PREFIX}_bench_cells_total", "benchmark cells by status")
    retries = registry.counter(f"{PREFIX}_bench_retries_total", "benchmark cell retries")
    reused = registry.counter(
        f"{PREFIX}_index_reuse_total", "cells that replayed a cached index build"
    )
    built = registry.counter(
        f"{PREFIX}_index_build_total", "cells that built their index live"
    )
    peak = registry.gauge(f"{PREFIX}_peak_device_bytes", "peak device bytes over all cells")
    n_reused = n_built = 0
    for rec in records:
        cells.inc(1, status=rec.status, algorithm=rec.algorithm, **labels)
        retries.inc(max(rec.attempts - 1, 0), algorithm=rec.algorithm, **labels)
        peak.observe_max(rec.peak_bytes, **labels)
        if rec.status != "ok":
            continue
        if rec.reused_index:
            n_reused += 1
            reused.inc(1, **labels)
        else:
            n_built += 1
            built.inc(1, **labels)
    if n_reused + n_built:
        registry.gauge(
            f"{PREFIX}_index_cache_hit_ratio",
            "fraction of ok cells that reused a cached index build",
        ).set(n_reused / (n_reused + n_built), **labels)


def record_trace_health(
    registry: MetricsRegistry, tracer=None, devices=(), **labels
) -> None:
    """Export trace-ring health: silently dropped spans become gauges.

    ``repro_trace_spans_dropped`` (and ``..._total`` span counts) come
    from the :class:`~repro.obs.span.Tracer`'s bounded ring;
    ``repro_device_trace_dropped`` is each device's evicted-launch count
    (labelled by device name).  Dropped spans truncate the traces and
    kernel profiles, so the drops must be visible on the same scrape
    surface as everything else.
    """
    if tracer is not None:
        registry.gauge(
            f"{PREFIX}_trace_spans_dropped",
            "spans evicted from the tracer's bounded ring",
        ).set(getattr(tracer, "dropped", 0), **labels)
        registry.gauge(
            f"{PREFIX}_trace_spans_total", "spans recorded by the tracer"
        ).set(getattr(tracer, "spans_total", 0), **labels)
    for device in devices:
        registry.gauge(
            f"{PREFIX}_device_trace_dropped",
            "kernel launches evicted from the device's bounded trace ring",
        ).set(device.trace_dropped, device=device.name, **labels)


def record_counter_rates(registry: MetricsRegistry, records, **labels) -> None:
    """Export each ``ok`` cell's per-point counter rates as gauges.

    One ``repro_bench_counter_rate`` series per
    :meth:`~repro.bench.harness.RunRecord.counter_rates` entry, labelled
    by counter name and cell identity — the size-normalised work numbers
    the regression comparison tracks across commits (wall seconds are
    machine-dependent; ``distance_evals / n`` is not).
    """
    gauge = registry.gauge(
        f"{PREFIX}_bench_counter_rate",
        "per-point work-counter rate (counter value / n) per benchmark cell",
    )
    for rec in records:
        if rec.status != "ok":
            continue
        for name, value in rec.counter_rates().items():
            gauge.set(
                value,
                counter=name,
                algorithm=rec.algorithm,
                dataset=rec.dataset,
                n=rec.n,
                eps=rec.eps,
                minpts=rec.min_samples,
                **labels,
            )
