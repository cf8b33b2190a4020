"""Drop-in ``HDBSCAN`` estimator over the hierarchy pipeline."""

from __future__ import annotations

from numbers import Integral

import numpy as np

from repro.device.device import Device
from repro.estimators.base import BaseEstimator, Interval, StrOptions
from repro.hierarchy.hdbscan import hdbscan as _hdbscan_fn


class HDBSCAN(BaseEstimator):
    """Hierarchical DBSCAN, sklearn-compatible.

    A drop-in replacement for :class:`sklearn.cluster.HDBSCAN` driving
    :func:`repro.hierarchy.hdbscan`: BVH core distances → BVH-Borůvka
    mutual-reachability MST → condensed tree → excess-of-mass selection.

    Parameters
    ----------
    min_cluster_size:
        Smallest condensed cluster (>= 2).
    min_samples:
        Core-distance neighbour count (defaults to ``min_cluster_size``);
        the point itself counts.
    allow_single_cluster:
        Permit selecting the root cluster.
    metric:
        Only ``"euclidean"`` (the paper's scope).
    mst_algorithm:
        ``"boruvka"`` (BVH-accelerated, default) or ``"prim"`` (O(n²)
        reference); identical dendrogram heights up to tie-permutation.
    device:
        Optional :class:`~repro.device.Device` for counters/tracing.

    Attributes
    ----------
    labels_ : ``(n,)`` int64, ``-1`` for noise.
    probabilities_ : ``(n,)`` float64 in [0, 1]; 0 for noise.
    n_clusters_, n_features_in_ : ints.
    result_ : the underlying :class:`~repro.hierarchy.hdbscan.HDBSCANResult`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.estimators import HDBSCAN
    >>> rng = np.random.default_rng(0)
    >>> X = np.vstack([rng.normal(0, .1, (40, 2)), rng.normal(5, .1, (40, 2))])
    >>> HDBSCAN(min_cluster_size=10).fit(X).n_clusters_
    2
    """

    _parameter_constraints = {
        "min_cluster_size": [Interval(Integral, 2, None, closed="left")],
        "min_samples": [Interval(Integral, 1, None, closed="left"), None],
        "allow_single_cluster": [bool],
        "metric": [StrOptions({"euclidean"})],
        "mst_algorithm": [StrOptions({"boruvka", "prim"})],
        "device": [Device, None],
    }

    def __init__(
        self,
        min_cluster_size: int = 5,
        min_samples: int | None = None,
        allow_single_cluster: bool = False,
        metric: str = "euclidean",
        mst_algorithm: str = "boruvka",
        device: Device | None = None,
    ):
        self.min_cluster_size = min_cluster_size
        self.min_samples = min_samples
        self.allow_single_cluster = allow_single_cluster
        self.metric = metric
        self.mst_algorithm = mst_algorithm
        self.device = device

    def fit(self, X: np.ndarray, y=None) -> "HDBSCAN":
        """Cluster ``X`` and store ``labels_`` / ``probabilities_``.
        ``y`` is ignored (sklearn API compatibility)."""
        self._validate_params()
        result = _hdbscan_fn(
            X,
            min_cluster_size=self.min_cluster_size,
            min_samples=self.min_samples,
            allow_single_cluster=self.allow_single_cluster,
            device=self.device,
            mst_algorithm=self.mst_algorithm,
        )
        X = np.asarray(X, dtype=np.float64)
        self.result_ = result
        self.labels_ = result.labels
        self.probabilities_ = result.probabilities
        self.n_clusters_ = result.n_clusters
        self.n_features_in_ = int(X.shape[1]) if X.ndim == 2 else 1
        return self

    def fit_predict(self, X: np.ndarray, y=None) -> np.ndarray:
        """Cluster ``X`` and return the labels."""
        return self.fit(X, y=y).labels_
