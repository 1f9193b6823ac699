"""Synthetic dataset generators (paper §8.1 "Datasets").

The paper generates its efficiency-evaluation datasets with sklearn's
``make_classification``; sklearn is not available offline, so this module
implements equivalent generators from scratch:

* :func:`make_classification` — Gaussian class clusters on informative
  dimensions plus noise dimensions, with controllable separation; for
  the paper's default setting the number of classes is 4.
* :func:`make_regression` — a random linear model with nonlinear bumps and
  Gaussian noise.

Both return float64 arrays; labels are int64 class ids or float64 targets.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_classification", "make_regression"]


def make_classification(
    n_samples: int,
    n_features: int,
    n_classes: int = 4,
    n_informative: int | None = None,
    class_sep: float = 1.5,
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-cluster classification data.

    Each class draws its informative coordinates from an isotropic Gaussian
    around a class centroid sampled on a hypercube of half-width
    ``class_sep``; remaining features are pure noise.  A random rotation of
    the informative block spreads signal across those columns so no single
    feature is trivially decisive.
    """
    if n_samples < n_classes:
        raise ValueError("need at least one sample per class")
    if n_features < 1:
        raise ValueError("need at least one feature")
    rng = np.random.default_rng(seed)
    if n_informative is None:
        n_informative = max(2, n_features // 2)
    n_informative = min(n_informative, n_features)

    centroids = rng.uniform(-class_sep, class_sep, size=(n_classes, n_informative))
    # Balanced labels with the remainder distributed round-robin.
    labels = np.arange(n_samples) % n_classes
    rng.shuffle(labels)

    informative = centroids[labels] + rng.normal(size=(n_samples, n_informative))
    rotation = np.linalg.qr(rng.normal(size=(n_informative, n_informative)))[0]
    informative = informative @ rotation

    noise = rng.normal(size=(n_samples, n_features - n_informative))
    features = np.hstack([informative, noise])
    # Shuffle columns so informative features are not clustered up front.
    order = rng.permutation(n_features)
    return features[:, order], labels.astype(np.int64)


def make_regression(
    n_samples: int,
    n_features: int,
    n_informative: int | None = None,
    noise: float = 0.1,
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Regression data: linear signal + a nonlinear bump, noise features.

    Targets are scaled to roughly [-1, 1], which matches the fixed-point
    normalisation the secure protocols apply to regression labels.
    """
    if n_features < 1:
        raise ValueError("need at least one feature")
    rng = np.random.default_rng(seed)
    if n_informative is None:
        n_informative = max(2, n_features // 2)
    n_informative = min(n_informative, n_features)

    features = rng.normal(size=(n_samples, n_features))
    weights = rng.uniform(-1, 1, size=n_informative)
    signal = features[:, :n_informative] @ weights
    # A mild nonlinearity keeps trees strictly better than a linear fit.
    signal = signal + 0.5 * np.sin(2 * features[:, 0])
    targets = signal + rng.normal(scale=noise, size=n_samples)
    scale = np.max(np.abs(targets)) or 1.0
    targets = targets / scale

    order = rng.permutation(n_features)
    return features[:, order], targets.astype(np.float64)
