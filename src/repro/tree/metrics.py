"""Split-quality metrics: Gini impurity and label variance (paper §2.3).

Implements Eq. (4)-(6) exactly as written: the plaintext reference the
secure gain step (:mod:`repro.core.gain`) is tested against.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gini_impurity",
    "label_variance",
    "gini_gain",
    "variance_gain",
    "accuracy",
    "mean_squared_error",
]


def gini_impurity(class_counts: np.ndarray) -> float:
    """IG(D) = 1 - Σ_k p_k²  (Eq. 4), from per-class sample counts."""
    counts = np.asarray(class_counts, dtype=np.float64)
    total = counts.sum()
    if total == 0:
        return 0.0
    fractions = counts / total
    return float(1.0 - np.sum(fractions**2))


def label_variance(labels: np.ndarray) -> float:
    """IV(D) = E(Y²) - E(Y)²  (Eq. 6)."""
    y = np.asarray(labels, dtype=np.float64)
    if y.size == 0:
        return 0.0
    return float(np.mean(y**2) - np.mean(y) ** 2)


def gini_gain(left_counts: np.ndarray, right_counts: np.ndarray) -> float:
    """Impurity gain of a split (Eq. 5).

    gain = w_l Σ_k p_{l,k}² + w_r Σ_k p_{r,k}² - Σ_k p_k², computed from the
    per-class counts of the two children.
    """
    left = np.asarray(left_counts, dtype=np.float64)
    right = np.asarray(right_counts, dtype=np.float64)
    n_l, n_r = left.sum(), right.sum()
    n = n_l + n_r
    if n == 0:
        return 0.0
    parent = left + right
    parent_term = float(np.sum((parent / n) ** 2))
    left_term = float(np.sum((left / n_l) ** 2)) if n_l > 0 else 0.0
    right_term = float(np.sum((right / n_r) ** 2)) if n_r > 0 else 0.0
    return (n_l / n) * left_term + (n_r / n) * right_term - parent_term


def variance_gain(
    left_stats: tuple[float, float, float], right_stats: tuple[float, float, float]
) -> float:
    """Variance gain of a split from (count, Σy, Σy²) triples (Eq. 6).

    gain = IV(D) - (w_l IV(D_l) + w_r IV(D_r)).
    """
    n_l, s1_l, s2_l = left_stats
    n_r, s1_r, s2_r = right_stats
    n = n_l + n_r
    if n == 0:
        return 0.0

    def impurity(count: float, s1: float, s2: float) -> float:
        if count == 0:
            return 0.0
        return s2 / count - (s1 / count) ** 2

    parent = impurity(n, s1_l + s1_r, s2_l + s2_r)
    weighted = (n_l / n) * impurity(n_l, s1_l, s2_l) + (n_r / n) * impurity(
        n_r, s1_r, s2_r
    )
    return parent - weighted


def accuracy(predicted: np.ndarray, actual: np.ndarray) -> float:
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.shape != actual.shape:
        raise ValueError("shape mismatch between predictions and labels")
    if predicted.size == 0:
        raise ValueError("empty prediction array")
    return float(np.mean(predicted == actual))


def mean_squared_error(predicted: np.ndarray, actual: np.ndarray) -> float:
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.shape != actual.shape:
        raise ValueError("shape mismatch between predictions and labels")
    if predicted.size == 0:
        raise ValueError("empty prediction array")
    return float(np.mean((predicted - actual) ** 2))
