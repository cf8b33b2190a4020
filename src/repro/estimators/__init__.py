"""sklearn-compatible estimator facade.

``repro.estimators.DBSCAN`` and ``repro.estimators.HDBSCAN`` are drop-in
replacements for their :mod:`sklearn.cluster` counterparts — same
constructor discipline (store-only ``__init__``, validation deferred to
``fit`` with sklearn's error wording), same ``get_params``/``set_params``
protocol, same fitted attributes — backed by the repository's BVH
engines.  Engine-specific knobs (``algorithm=``, ``mst_algorithm=``,
``device=``) pass straight through to the underlying drivers.  See ``docs/estimators.md``.
"""

from repro.estimators.base import BaseEstimator, Interval, StrOptions
from repro.estimators.dbscan import DBSCAN
from repro.estimators.hdbscan import HDBSCAN

__all__ = ["BaseEstimator", "DBSCAN", "HDBSCAN", "Interval", "StrOptions"]
