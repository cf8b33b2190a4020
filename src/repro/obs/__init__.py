"""repro.obs — unified tracing + metrics for the whole stack.

Dependency-free observability layer (see ``docs/observability.md``):

- :mod:`repro.obs.span`      — OpenTelemetry-flavoured span model: one
  :class:`Tracer` collects device kernels, comm transfers, distributed
  phases and benchmark cells into a single trace tree;
- :mod:`repro.obs.metrics`   — counters / gauges / fixed-bucket
  histograms with Prometheus-text and CSV expositions, fed from the
  stack's existing accounting objects;
- :mod:`repro.obs.export`    — Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``) and flat-CSV exporters plus the schema validator
  CI runs on emitted traces;
- :mod:`repro.obs.costmodel` — the per-kernel report joining wall
  seconds with machine-independent work counters and their rates;
- :mod:`repro.obs.slo`       — latency/availability objectives with
  error-budget arithmetic (burn rate, budget remaining) over the
  metrics registry's histograms and counters.
"""

from repro.obs.costmodel import cost_model_rows, format_cost_model
from repro.obs.slo import (
    DEFAULT_SLOS,
    SLO,
    evaluate_slos,
    format_slo_report,
    record_slo_gauges,
)
from repro.obs.export import (
    chrome_trace,
    spans_csv,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
    write_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    record_comm_stats,
    record_counter_rates,
    record_fault_summary,
    record_kernel_counters,
    record_kernel_profile,
    record_launch_seconds,
    record_run_records,
    record_trace_health,
)
from repro.obs.span import NULL_TRACER, Span, Tracer

__all__ = [
    "Counter",
    "DEFAULT_SLOS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "SLO",
    "Span",
    "Tracer",
    "chrome_trace",
    "cost_model_rows",
    "evaluate_slos",
    "format_cost_model",
    "format_slo_report",
    "record_slo_gauges",
    "record_comm_stats",
    "record_fault_summary",
    "record_kernel_counters",
    "record_kernel_profile",
    "record_counter_rates",
    "record_launch_seconds",
    "record_run_records",
    "record_trace_health",
    "spans_csv",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "write_chrome_trace",
    "write_trace",
]
