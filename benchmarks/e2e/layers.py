"""Benchmark-side tracing: spans around public calls into each layer.

The library is not modified.  :class:`Recorder` replaces a handful of
public functions and methods with wrappers that open a
:class:`repro.obs.Tracer` span around the original call while the
recorder is active, and restores the originals on exit.  Kernel spans
come from the library itself, through ``Device.tracer``.

A layer's time is *exclusive*: a span's duration minus the time covered
by the nearest nested spans that belong to another layer.  Spans with no
layer of their own (kernels, while serving requests) are transparent: their
time stays with the nearest enclosing layer.  Replayed kernel spans carry
a recorded build's duration but take no wall time, so they are skipped.
The span around each fit or request belongs to a residual layer
(``core.host_s``, ``service.other_ms``): what no other layer claims.  So
every second inside a fit or request lands in exactly one layer, and the
layers add up to the traced time.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager, nullcontext

from repro.core.framework import PairResolver
from repro.obs import Tracer
from repro.service import service as service_module
from repro.service.admission import AdmissionController
from repro.service.state import ServiceIndex
from repro.unionfind.ecl import EclUnionFind

#: Category of the spans this module records (kernel spans keep theirs).
CATEGORY = "bench"

#: Batch layers named after the kernels whose self time they collect.
KERNEL_LAYERS = {
    "bvh_count": "bvh.count_s",
    "fdbscan_main": "core.main_s",
    "densebox_main": "core.main_s",
    "densebox_preprocess": "core.densebox_pre_s",
    "grid_bin": "grid.bin_s",
    "dense_threshold": "grid.bin_s",
    "knn_gather_chunk": "bvh.knn_traverse_s",
    "knn_expand": "bvh.knn_traverse_s",
    "knn_count_exact": "bvh.knn_traverse_s",
    "knn_gather": "bvh.knn_host_s",
    "boruvka_nn": "hierarchy.boruvka_nn_s",
}
#: Every other live kernel inside a fit (uf_finalize, boruvka_mst, the
#: DenseBox mixed-tree bvh_build, ...).
OTHER_KERNELS = "device.other_s"

#: (owner, attribute, layer) of every wrapped public call.
BATCH_WRAPS = (
    (PairResolver, "add", "core.resolver_s"),
    (PairResolver, "flush", "core.resolver_s"),
    (PairResolver, "finalize", "core.resolver_s"),
    (EclUnionFind, "union", "unionfind.union_s"),
)
SERVICE_WRAPS = (
    (service_module, "parse_request", "service.parse_ms"),
    (AdmissionController, "offer", "service.admission_ms"),
    (ServiceIndex, "ensure_ready", "service.ready_ms"),
    (ServiceIndex, "insert", "service.mutate_ms"),
    (ServiceIndex, "delete", "service.mutate_ms"),
    (ServiceIndex, "cluster", "service.kernel_ms"),
    (ServiceIndex, "count", "service.kernel_ms"),
    (ServiceIndex, "knn", "service.kernel_ms"),
)


class Recorder:
    """Owns one tracer and the wrappers that feed it.

    Wrappers record only while :attr:`active` is true, so a traced run can
    interleave traced and untraced rounds and measure tracing's cost.
    """

    def __init__(self):
        # Unbounded in practice: a dropped span would silently inflate its
        # parent's exclusive time, so :meth:`spans` refuses to run on drops.
        self.tracer = Tracer(service="benchmarks.e2e", maxlen=1 << 24)
        self.active = False

    @contextmanager
    def installed(self, wraps):
        restore = []
        try:
            for owner, attr, layer in wraps:
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(original, f"{owner.__name__}.{attr}", layer))
                restore.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def _wrap(self, original, name, layer):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            with self.tracer.span(name, category=CATEGORY, attributes={"layer": layer}):
                return original(*args, **kwargs)

        return wrapper

    def span(self, name: str, layer: str | None = None, **attributes):
        """A benchmark span while active; a no-op otherwise."""
        if not self.active:
            return nullcontext()
        if layer is not None:
            attributes["layer"] = layer
        return self.tracer.span(name, category=CATEGORY, attributes=attributes)

    def spans(self) -> list[dict]:
        if self.tracer.dropped:
            raise RuntimeError(f"tracer dropped {self.tracer.dropped} spans")
        return self.tracer.snapshot()


def bench_layer(span: dict) -> str | None:
    """Layer of a span recorded by this module; kernels are transparent
    (the service view: kernel time belongs to the request's layer)."""
    return span["attributes"].get("layer") if span["category"] == CATEGORY else None


def batch_layer(span: dict) -> str | None:
    """Layer of a span in a batch fit: wrapped calls by their own layer,
    live kernels by name, any other kernel into the catch-all."""
    if span["category"] == "kernel":
        return KERNEL_LAYERS.get(span["name"], OTHER_KERNELS)
    return bench_layer(span)


def exclusive_by_root(spans: list[dict], root_name: str, layer_of) -> dict[str, dict]:
    """Exclusive seconds per layer under each span named ``root_name``.

    Returns ``{root span id: {layer: seconds}}``.  Within one root the
    values add up to the total duration of its layered children.
    """
    children = defaultdict(list)
    for span in spans:
        if span["category"] != "kernel.replayed":
            children[span["parent_id"]].append(span)

    def nearest_layered(span_id):
        stack = list(children.get(span_id, ()))
        while stack:
            child = stack.pop()
            if layer_of(child) is not None:
                yield child
            else:
                stack.extend(children.get(child["span_id"], ()))

    out: dict[str, dict] = {}
    for root in spans:
        if root["name"] != root_name:
            continue
        totals: dict[str, float] = defaultdict(float)
        stack = list(nearest_layered(root["span_id"]))
        while stack:
            span = stack.pop()
            inner = list(nearest_layered(span["span_id"]))
            totals[layer_of(span)] += span["seconds"] - sum(c["seconds"] for c in inner)
            stack.extend(inner)
        out[root["span_id"]] = dict(totals)
    return out
