"""repro — tree-based DBSCAN for low-dimensional data on (simulated) GPUs.

A from-scratch Python reproduction of *"Fast tree-based algorithms for
DBSCAN on GPUs"* (Prokopenko, Lebrun-Grandié, Arndt — ICPP 2023):
the batched two-phase DBSCAN framework, the FDBSCAN and FDBSCAN-DenseBox
algorithms, every substrate they depend on (linear BVH, Morton codes,
ECL-style union-find, dense-cell grid, a data-parallel device model), the
evaluation's baselines (G-DBSCAN, CUDA-DClust, disjoint-set DBSCAN,
textbook DBSCAN) and a benchmark harness regenerating every figure of the
paper's Section 5.

Quickstart
----------
>>> import numpy as np
>>> from repro import dbscan
>>> rng = np.random.default_rng(7)
>>> X = np.vstack([rng.normal(0, .05, (100, 2)), rng.normal(1, .05, (100, 2))])
>>> result = dbscan(X, eps=0.2, min_samples=5)
>>> result.n_clusters
2

Package map
-----------
- :mod:`repro.core`       — the paper's framework + FDBSCAN / FDBSCAN-DenseBox
- :mod:`repro.bvh`        — linear BVH (Karras construction, batched traversal)
- :mod:`repro.grid`       — regular grid + dense-cell decomposition
- :mod:`repro.unionfind`  — ECL-style synchronisation-free union-find
- :mod:`repro.device`     — data-parallel device model (counters, atomics, memory)
- :mod:`repro.baselines`  — G-DBSCAN, CUDA-DClust, DSDBSCAN, grid DBSCAN, textbook DBSCAN
- :mod:`repro.hierarchy`  — HDBSCAN over the same substrates (paper future work)
- :mod:`repro.distributed`— multi-rank DBSCAN (paper future work)
- :mod:`repro.datasets`   — synthetic stand-ins for the evaluation datasets
- :mod:`repro.metrics`    — clustering equivalence / statistics
- :mod:`repro.bench`      — figure-regeneration harness
- :mod:`repro.obs`        — unified tracing + metrics (spans, Chrome/CSV
  exporters, Prometheus-style registry, cost-model reports)
"""

from repro.core import (
    DBSCANIndex,
    DBSCANResult,
    choose_algorithm,
    dbscan,
    dbscan_minpts_sweep,
    dbscan_star,
    dense_fraction_estimate,
    fdbscan,
    fdbscan_densebox,
    periodic_dbscan,
)
from repro.device import Device
from repro.estimators import DBSCAN
from repro.hierarchy import hdbscan

__version__ = "1.0.0"

__all__ = [
    "DBSCAN",
    "DBSCANIndex",
    "DBSCANResult",
    "Device",
    "__version__",
    "choose_algorithm",
    "dbscan",
    "dbscan_minpts_sweep",
    "dbscan_star",
    "dense_fraction_estimate",
    "fdbscan",
    "fdbscan_densebox",
    "hdbscan",
    "periodic_dbscan",
]
