"""Input validation shared by every clustering entry point.

All algorithms in this package — the paper's and the baselines — accept
the same ``(X, eps, min_samples)`` triple and enforce the same contract,
so differential tests compare algorithms on identical admissible inputs
and every entry point fails identically on inadmissible ones.
"""

from __future__ import annotations

import math

import numpy as np

#: Dimensions supported by the tree-based algorithms (the paper targets
#: "low-dimensional (e.g., spatial) data"; Morton codes cap this at 3).
MAX_TREE_DIM = 3


def validate_points(X: np.ndarray, max_dim: int | None = MAX_TREE_DIM) -> np.ndarray:
    """Validate and canonicalise a point set.

    Returns a C-contiguous float64 ``(n, d)`` array.  Rejects empty sets,
    wrong ranks, non-finite coordinates, point sets whose squared
    bounding-box diagonal ``sum((hi - lo)**2)`` overflows float64 (every
    algorithm compares squared distances, which would then read ``inf``)
    and (when ``max_dim`` is given) dimensions beyond the tree algorithms'
    supported range.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be a 2-D (n, d) array; got shape {X.shape}")
    n, d = X.shape
    if n == 0:
        raise ValueError("X must contain at least one point")
    if d == 0:
        raise ValueError("X must have at least one feature dimension")
    if max_dim is not None and d > max_dim:
        raise ValueError(
            f"tree-based algorithms support d <= {max_dim} (low-dimensional data); got d={d}"
        )
    # Flat extremes: nan/inf propagate into them, and they bound the
    # bounding box (per-axis reductions cost ~15x more on (n, d <= 3) data).
    lo, hi = float(X.min()), float(X.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("X contains non-finite coordinates (nan or inf)")
    span = hi - lo
    if not math.isfinite(d * span * span):  # bounds sum((hi_j - lo_j)**2)
        with np.errstate(over="ignore"):
            extent = X.max(axis=0) - X.min(axis=0)
            diag2 = float(np.sum(extent * extent))
        if not math.isfinite(diag2):
            raise ValueError(
                "X's bounding box is too large: squared distances overflow "
                "float64 (sum((hi - lo)**2) is not finite); rescale the "
                "coordinates"
            )
    return X


def validate_params(eps: float, min_samples: int) -> tuple[float, int]:
    """Validate DBSCAN parameters; returns the canonical ``(eps, minpts)``."""
    eps = float(eps)
    if not np.isfinite(eps) or eps <= 0:
        raise ValueError(f"eps must be a positive finite float; got {eps}")
    if min_samples != int(min_samples):
        raise ValueError(f"min_samples must be an integer; got {min_samples}")
    min_samples = int(min_samples)
    if min_samples < 1:
        raise ValueError(f"min_samples must be >= 1; got {min_samples}")
    return eps, min_samples


def validate_weights(sample_weight, n: int) -> np.ndarray:
    """Validate per-point sample weights (the weighted-density extension).

    Weights must be positive and finite — a zero/negative weight has no
    DBSCAN meaning (drop the point instead).  Returns float64 ``(n,)``.
    """
    w = np.ascontiguousarray(sample_weight, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError(f"sample_weight must be ({n},); got shape {w.shape}")
    if not np.isfinite(w).all() or np.any(w <= 0):
        raise ValueError("sample_weight entries must be positive and finite")
    return w
