"""Quantitative clustering-agreement scores.

The equivalence checker answers "are these the *same* DBSCAN output?";
the scores here answer "how close are two labelings?" — useful when
comparing against ground truth on synthetic data, or measuring how much
border-point reassignment actually moves the result.  Implemented from
the standard pair-counting definitions (Hubert & Arabie 1985 for the
adjusted Rand index), in pure vectorised numpy.

Noise handling: DBSCAN labels contain ``-1`` entries that are *not* a
cluster.  All scores treat each noise point as its own singleton cluster
(the conventional choice for density-based comparisons), so two runs that
agree on noise agree on those points.
"""

from __future__ import annotations

import numpy as np


def _as_dense_labels(labels: np.ndarray) -> np.ndarray:
    """Map labels to 0..k-1 with every noise point its own singleton."""
    labels = np.asarray(labels, dtype=np.int64)
    out = labels.copy()
    noise = labels == -1
    n_clusters = labels.max() + 1 if labels.size and labels.max() >= 0 else 0
    out[noise] = n_clusters + np.arange(int(noise.sum()))
    return out


def contingency_table(labels_a: np.ndarray, labels_b: np.ndarray) -> np.ndarray:
    """Dense contingency matrix of two labelings (noise as singletons)."""
    a = _as_dense_labels(labels_a)
    b = _as_dense_labels(labels_b)
    if a.shape != b.shape:
        raise ValueError(f"labelings differ in length: {a.shape} vs {b.shape}")
    ka = int(a.max()) + 1 if a.size else 0
    kb = int(b.max()) + 1 if b.size else 0
    table = np.zeros((ka, kb), dtype=np.int64)
    np.add.at(table, (a, b), 1)
    return table


def _comb2(x: np.ndarray) -> np.ndarray:
    return x * (x - 1) // 2


def _pair_counts(labels_a: np.ndarray, labels_b: np.ndarray) -> tuple[int, int, int, int]:
    """``(n, together_both, together_a, together_b)`` point-pair counts.

    Summed over the non-zero contingency cells and the marginals only: with
    noise as singletons the dense table is ``(ka, kb)``, quadratic in the
    noise count, while at most ``n`` cells are non-zero.
    """
    a = _as_dense_labels(labels_a)
    b = _as_dense_labels(labels_b)
    if a.shape != b.shape:
        raise ValueError(f"labelings differ in length: {a.shape} vs {b.shape}")
    kb = int(b.max()) + 1 if b.size else 0
    _, cells = np.unique(a * kb + b, return_counts=True)
    return (
        int(a.size),
        int(_comb2(cells).sum()),
        int(_comb2(np.bincount(a)).sum()),
        int(_comb2(np.bincount(b)).sum()),
    )


def pair_confusion(labels_a: np.ndarray, labels_b: np.ndarray) -> dict:
    """Pair-counting confusion: how point pairs are grouped by each side.

    Returns ``{"both": .., "only_a": .., "only_b": .., "neither": ..}`` —
    pairs co-clustered by both / only one / neither labeling.
    """
    n, together_both, together_a, together_b = _pair_counts(labels_a, labels_b)
    total = n * (n - 1) // 2
    return {
        "both": together_both,
        "only_a": together_a - together_both,
        "only_b": together_b - together_both,
        "neither": total - together_a - together_b + together_both,
    }


def rand_index(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    """Plain Rand index: fraction of point pairs both labelings agree on."""
    pc = pair_confusion(labels_a, labels_b)
    total = sum(pc.values())
    if total == 0:
        return 1.0
    return (pc["both"] + pc["neither"]) / total


def adjusted_rand_index(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    """Adjusted Rand index (Hubert & Arabie): 1 for identical partitions,
    ~0 for independent ones, negative for worse-than-chance."""
    n, together_both, together_a, together_b = _pair_counts(labels_a, labels_b)
    if n < 2:
        return 1.0
    sum_comb = float(together_both)
    sum_a = float(together_a)
    sum_b = float(together_b)
    total = float(n * (n - 1) // 2)
    expected = sum_a * sum_b / total
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return (sum_comb - expected) / (max_index - expected)


def pair_precision_recall(labels_pred: np.ndarray, labels_true: np.ndarray) -> tuple[float, float]:
    """Pairwise precision/recall of a predicted labeling vs a reference.

    Precision: of the pairs the prediction co-clusters, how many the
    reference co-clusters; recall: the converse.
    """
    pc = pair_confusion(labels_pred, labels_true)
    pred_pairs = pc["both"] + pc["only_a"]
    true_pairs = pc["both"] + pc["only_b"]
    precision = pc["both"] / pred_pairs if pred_pairs else 1.0
    recall = pc["both"] / true_pairs if true_pairs else 1.0
    return precision, recall
