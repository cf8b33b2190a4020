"""Drop-in ``DBSCAN`` estimator over the repository's engines."""

from __future__ import annotations

from numbers import Integral, Real

import numpy as np

from repro.core.api import dbscan as _dbscan_fn
from repro.device.device import Device
from repro.estimators.base import BaseEstimator, Interval, StrOptions


class DBSCAN(BaseEstimator):
    """Density-Based Spatial Clustering of Applications with Noise.

    A drop-in replacement for :class:`sklearn.cluster.DBSCAN` running on
    this repository's tree-based engines: same constructor discipline
    (store-only ``__init__``, fit-time validation), same fitted
    attributes (``labels_``, ``core_sample_indices_``, ``components_``),
    same error wording for bad parameters.

    Parameters
    ----------
    eps:
        Neighbourhood radius (``dist <= eps``); a float in (0, inf).
    min_samples:
        Density threshold; the point itself counts.
    metric:
        Only ``"euclidean"`` (the paper's scope).
    algorithm:
        Engine registry name (see :func:`repro.core.api.dbscan`);
        ``"auto"`` applies the Section-6 switching heuristic.
    device:
        Optional :class:`~repro.device.Device` for counters/tracing.

    Attributes
    ----------
    labels_ : ``(n,)`` int64, ``-1`` for noise.
    core_sample_indices_ : indices of core points.
    components_ : ``(n_core, d)`` copies of the core points.
    n_clusters_, n_features_in_ : ints.
    result_ : the underlying :class:`~repro.core.labels.DBSCANResult`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.estimators import DBSCAN
    >>> X = np.array([[0., 0.], [0., .1], [.1, 0.], [5., 5.]])
    >>> DBSCAN(eps=0.3, min_samples=3).fit_predict(X)
    array([ 0,  0,  0, -1])
    """

    _parameter_constraints = {
        "eps": [Interval(Real, 0.0, None, closed="neither")],
        "min_samples": [Interval(Integral, 1, None, closed="left")],
        "metric": [StrOptions({"euclidean"})],
        "algorithm": [
            StrOptions(
                {
                    "auto", "fdbscan", "fdbscan-densebox", "densebox",
                    "gdbscan", "cuda-dclust", "dsdbscan", "grid", "sequential", "brute",
                }
            )
        ],
        "device": [Device, None],
    }

    def __init__(
        self,
        eps: float = 0.5,
        min_samples: int = 5,
        metric: str = "euclidean",
        algorithm: str = "auto",
        device: Device | None = None,
    ):
        self.eps = eps
        self.min_samples = min_samples
        self.metric = metric
        self.algorithm = algorithm
        self.device = device

    def fit(self, X: np.ndarray, y=None, sample_weight=None) -> "DBSCAN":
        """Cluster ``X`` (optionally weighted) and store the fitted
        attributes.  ``y`` is ignored (sklearn API compatibility)."""
        self._validate_params()
        kwargs: dict = {}
        if sample_weight is not None:
            kwargs["sample_weight"] = sample_weight
        result = _dbscan_fn(
            X,
            self.eps,
            self.min_samples,
            algorithm=self.algorithm,
            device=self.device,
            **kwargs,
        )
        X = np.asarray(X, dtype=np.float64)
        self.result_ = result
        self.labels_ = result.labels
        self.core_sample_indices_ = np.flatnonzero(result.is_core)
        self.components_ = X[result.is_core].copy()
        self.n_clusters_ = result.n_clusters
        self.n_features_in_ = int(X.shape[1]) if X.ndim == 2 else 1
        return self

    def fit_predict(self, X: np.ndarray, y=None, sample_weight=None) -> np.ndarray:
        """Cluster ``X`` and return the labels."""
        return self.fit(X, y=y, sample_weight=sample_weight).labels_
