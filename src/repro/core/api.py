"""Public clustering API.

:func:`dbscan` is the one-call entry point (the sklearn-style estimator
over it is :class:`repro.estimators.DBSCAN`).  Algorithm names accepted everywhere
(benchmarks address the baselines through the same registry):

===================  ====================================================
name                 implementation
===================  ====================================================
``"fdbscan"``        :func:`repro.core.fdbscan.fdbscan` (Section 4.1)
``"fdbscan-densebox"`` / ``"densebox"``
                     :func:`repro.core.densebox.fdbscan_densebox` (4.2)
``"auto"``           heuristic choice between the two (the paper's
                     future-work item, Section 6) — see
                     :func:`choose_algorithm`
``"gdbscan"``        :func:`repro.baselines.gdbscan.gdbscan`
``"cuda-dclust"``    :func:`repro.baselines.cuda_dclust.cuda_dclust`
``"dsdbscan"``       :func:`repro.baselines.dsdbscan.dsdbscan`
``"grid"``           :func:`repro.baselines.grid_dbscan.grid_dbscan`
                     (the cell-binary-search design Section 4.2 rejects)
``"sequential"``     :func:`repro.baselines.sequential_dbscan.sequential_dbscan`
``"brute"``          :func:`repro.baselines.brute.brute_dbscan`
===================  ====================================================
"""

from __future__ import annotations

import numpy as np

from repro.core.densebox import fdbscan_densebox
from repro.core.fdbscan import fdbscan
from repro.core.index import DBSCANIndex
from repro.core.labels import DBSCANResult
from repro.core.validation import validate_params, validate_points
from repro.device.device import Device
from repro.grid.grid import GridOverflowError, build_grid, compact_cells

#: Dense-cell point fraction at or above which the auto heuristic picks
#: FDBSCAN-DenseBox.  Both algorithms credit subtrees inside a query's
#: ball whole when they count core points, so DenseBox now costs about
#: what FDBSCAN does when few points are dense and wins once cells absorb
#: a share of them.  Timed on 92 cells (ngsim, portotaxi, hacc, road3d at
#: n=16384, hacc at n=60000; minpts 2-1000, dense fraction 0-1), min of 3
#: interleaved runs on a 2-CPU host: DenseBox is faster on 71 cells, from
#: fraction 0.04 up to 1 (up to 7.5x on ngsim).  Every cut in
#: [0.01, 0.1] gives the smallest misses: worst 1.41x (portotaxi eps 0.01
#: minpts 1000 at fraction 0.48, where FDBSCAN wins), geometric mean
#: 1.019x; 0.85 gives 1.94x and 1.093x.
AUTO_DENSE_FRACTION_THRESHOLD = 0.05


def dense_fraction_estimate(X: np.ndarray, eps: float, min_samples: int) -> float:
    """Fraction of points falling in dense grid cells.

    The quantity driving the FDBSCAN vs DenseBox trade-off; computed with
    one sort over cell ids (no tree, no primitives), so it is cheap enough
    to run ahead of clustering.
    """
    X = validate_points(X)
    eps, minpts = validate_params(eps, min_samples)
    grid = build_grid(X, eps)
    coords = grid.cell_coords(X)
    cell_of_point, _n_cells, _order, _starts, counts = compact_cells(grid, coords)
    return float((counts[cell_of_point] >= minpts).mean())


def choose_algorithm(X: np.ndarray, eps: float, min_samples: int) -> str:
    """The Section-6 switching heuristic: DenseBox when dense cells will
    absorb a share of the points, FDBSCAN otherwise.  FDBSCAN also when
    ``eps`` is too small for the data's extent to build DenseBox's grid
    (:class:`~repro.grid.grid.GridOverflowError`): it needs no grid."""
    try:
        frac = dense_fraction_estimate(X, eps, min_samples)
    except GridOverflowError:
        return "fdbscan"
    return "fdbscan-densebox" if frac >= AUTO_DENSE_FRACTION_THRESHOLD else "fdbscan"


def _baseline(name: str):
    # Imported lazily so `repro.core` does not hard-depend on scipy's
    # spatial module at import time.
    from repro import baselines

    return {
        "gdbscan": baselines.gdbscan,
        "cuda-dclust": baselines.cuda_dclust,
        "dsdbscan": baselines.dsdbscan,
        "grid": baselines.grid_dbscan,
        "sequential": baselines.sequential_dbscan,
        "brute": baselines.brute_dbscan,
    }[name]


def dbscan(
    X: np.ndarray,
    eps: float,
    min_samples: int,
    algorithm: str = "auto",
    device: Device | None = None,
    index: DBSCANIndex | None = None,
    **kwargs,
) -> DBSCANResult:
    """Cluster ``X`` with DBSCAN.

    Parameters
    ----------
    X:
        ``(n, d)`` points.  The tree-based algorithms require
        ``1 <= d <= 3`` (the paper's low-dimensional scope); baselines
        accept any ``d``.
    eps:
        Neighbourhood radius; neighbours satisfy ``dist(x, y) <= eps``.
    min_samples:
        Density threshold ``minpts`` (a point counts itself).
    algorithm:
        One of the registry names above (default ``"auto"``).
    device:
        Optional :class:`~repro.device.Device` for work counters, kernel
        timings and memory capping.
    index:
        Optional prebuilt :class:`~repro.core.index.DBSCANIndex` over
        ``X`` — only the tree-based algorithms (``"auto"``, ``"fdbscan"``,
        ``"fdbscan-densebox"``) accept one; passing it to a baseline
        raises.  The index each tree run used (built on the fly if none
        was given) is returned in ``result.info["index"]`` for reuse
        across parameter sweeps.
    kwargs:
        Forwarded to the implementation (e.g. ``use_mask`` / ``early_exit``
        for the tree algorithms).

    Returns
    -------
    :class:`~repro.core.labels.DBSCANResult`

    Examples
    --------
    >>> import numpy as np
    >>> from repro import dbscan
    >>> rng = np.random.default_rng(0)
    >>> X = np.vstack([rng.normal(0, .1, (50, 2)), rng.normal(5, .1, (50, 2))])
    >>> res = dbscan(X, eps=0.5, min_samples=5)
    >>> res.n_clusters
    2
    """
    name = algorithm.lower()
    if name == "auto":
        name = choose_algorithm(X, eps, min_samples)
    if name == "fdbscan":
        return fdbscan(X, eps, min_samples, device=device, index=index, **kwargs)
    if name in ("fdbscan-densebox", "densebox"):
        return fdbscan_densebox(X, eps, min_samples, device=device, index=index, **kwargs)
    try:
        impl = _baseline(name)
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of: auto, fdbscan, "
            "fdbscan-densebox, gdbscan, cuda-dclust, dsdbscan, grid, sequential, brute"
        ) from None
    if index is not None:
        raise ValueError(
            f"algorithm {algorithm!r} does not use a spatial index; "
            "index= is only valid for the tree-based algorithms"
        )
    return impl(X, eps, min_samples, device=device, **kwargs)
