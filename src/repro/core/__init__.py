"""The paper's contribution: the GPU DBSCAN framework and both algorithms.

- :mod:`repro.core.framework` — the two-phase parallel disjoint-set
  framework (Section 3.2, Algorithm 3);
- :mod:`repro.core.fdbscan` — FDBSCAN (Section 4.1);
- :mod:`repro.core.densebox` — FDBSCAN-DenseBox (Section 4.2);
- :mod:`repro.core.api` — the public :func:`dbscan` entry point and
  the auto-switch heuristic (Section 6 future work);
- :mod:`repro.core.dbscan_star` — the DBSCAN* variant (Section 6);
- :mod:`repro.core.multi_minpts` — amortised multi-minpts sweeps (Section 3.2);
- :mod:`repro.core.periodic` — periodic-boundary DBSCAN (cosmology boxes);
- :mod:`repro.core.index` — the reusable spatial index for parameter sweeps;
- :mod:`repro.core.labels` — label conventions and finalisation.
"""

from repro.core.api import choose_algorithm, dbscan, dense_fraction_estimate
from repro.core.dbscan_star import dbscan_star
from repro.core.densebox import fdbscan_densebox
from repro.core.fdbscan import fdbscan
from repro.core.index import DBSCANIndex
from repro.core.multi_minpts import dbscan_minpts_sweep
from repro.core.periodic import periodic_dbscan
from repro.core.labels import DBSCANResult

__all__ = [
    "DBSCANIndex",
    "DBSCANResult",
    "choose_algorithm",
    "dbscan",
    "dbscan_minpts_sweep",
    "dbscan_star",
    "dense_fraction_estimate",
    "fdbscan",
    "fdbscan_densebox",
    "periodic_dbscan",
]
