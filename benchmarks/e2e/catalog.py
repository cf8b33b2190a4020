"""Metric names and units, shared by the runner and ``compare.py``.

Kept free of library imports so that ``compare.py`` runs anywhere.
``BENCHMARK.json`` declares the same names and units; the self-test
checks that the two agree.
"""

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "fit_s_p50": "s",
    "req_ms_p50": "ms",
    "req_ms_p75": "ms",
    "req_ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

#: Batch layers that partition a traced fit: they add up to
#: ``trace.wall_s``, with ``core.host_s`` the unattributed residual.
BATCH_PARTITION = (
    "bvh.count_s",
    "core.main_s",
    "core.densebox_pre_s",
    "grid.bin_s",
    "core.resolver_s",
    "unionfind.union_s",
    "bvh.knn_traverse_s",
    "bvh.knn_host_s",
    "hierarchy.boruvka_nn_s",
    "device.other_s",
    "core.host_s",
)

#: Service layers that partition a traced request: they add up to
#: ``service.busy_ms``, with ``service.other_ms`` the residual.
SERVICE_PARTITION = (
    "service.parse_ms",
    "service.admission_ms",
    "service.ready_ms",
    "service.mutate_ms",
    "service.kernel_ms",
    "service.serialize_ms",
    "service.other_ms",
)

#: Device counters (name -> the library counters summed into it).
COUNTERS = {
    "bvh.distance_evals": ("distance_evals",),
    "bvh.nodes_visited": ("nodes_visited",),
    "bvh.box_tests": ("box_tests", "group_box_tests"),
    "unionfind.union_ops": ("union_ops",),
    "unionfind.find_steps": ("find_steps",),
    "device.kernel_launches": ("kernel_launches",),
    "device.scatter_adds": ("scatter_adds",),
    "hierarchy.boruvka_rounds": ("boruvka_rounds",),
}

PER_LAYER = {
    "bvh.build_s": "s",
    **{name: "s" for name in BATCH_PARTITION},
    "trace.wall_s": "s",
    "hierarchy.core_s": "s",
    "hierarchy.mst_s": "s",
    "hierarchy.extract_s": "s",
    **{name: "count" for name in COUNTERS},
    "bvh.frontier_peak": "count",
    "bvh.hit_ratio": "ratio",
    "bvh.knn_useful_ratio": "ratio",
    "hierarchy.mst_useful_ratio": "ratio",
    "device.peak_mb": "MB",
    "grid.dense_fraction": "ratio",
    **{name: "ms" for name in SERVICE_PARTITION},
    "service.busy_ms": "ms",
    "service.req_ms_p90": "ms",
    "service.wait_ms_p50": "ms",
    "service.wait_ms_p90": "ms",
    "service.shed_frac": "ratio",
    "service.degraded_frac": "ratio",
    "service.cached_frac": "ratio",
    "trace.overhead": "ratio",
    "host.slowdown": "ratio",
}
