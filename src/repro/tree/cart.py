"""Plaintext CART training (paper §2.3, Algorithm 1).

This is the non-private baseline NP-DT of the evaluation (§8.1) and the
ground truth for the protocol-equivalence tests: given the same candidate
splits and pruning parameters, Pivot's secure training must grow the same
tree (``tests/core/test_levels.py`` checks it on generated data).

Enumeration order and tie-breaking are deliberately pinned down: features
are scanned in column order, split values in ascending order, and a split
replaces the incumbent only on a strictly larger gain — the same "first
maximum wins" rule the secure argmax implements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tree import metrics
from repro.tree.model import DecisionTreeModel, TreeNode
from repro.tree.splits import candidate_splits_matrix

__all__ = ["TreeParams", "DecisionTree"]


@dataclass(frozen=True)
class TreeParams:
    """Hyper-parameters shared by plaintext and secure trainers (§8.1).

    ``max_depth`` is the paper's h, ``max_splits`` its b.  With
    ``remove_used_feature`` the trainer follows Algorithm 1 literally and
    drops the chosen feature from the child feature sets (ID3 style);
    the default keeps features reusable, as CART implementations
    (and the paper's sklearn baselines) do.
    """

    max_depth: int = 4
    max_splits: int = 8
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    min_gain: float = 0.0
    remove_used_feature: bool = False

    def validate(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.max_splits < 1:
            raise ValueError("max_splits must be >= 1")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


class DecisionTree:
    """Centralized CART for classification (Gini) and regression (variance)."""

    def __init__(self, task: str = "classification", params: TreeParams | None = None):
        if task not in ("classification", "regression"):
            raise ValueError(f"unknown task {task!r}")
        self.task = task
        self.params = params or TreeParams()
        self.params.validate()
        self.model: DecisionTreeModel | None = None

    # ------------------------------------------------------------------

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        split_candidates: list[list[float]] | None = None,
        n_classes: int | None = None,
    ) -> DecisionTreeModel:
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if len(labels) != features.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        if features.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")

        if self.task == "classification":
            labels = labels.astype(np.int64)
            if n_classes is None:
                n_classes = int(labels.max()) + 1 if labels.size else 2
            n_classes = max(n_classes, 2)
        else:
            labels = labels.astype(np.float64)
            n_classes = 0

        if split_candidates is None:
            split_candidates = candidate_splits_matrix(features, self.params.max_splits)
        if len(split_candidates) != features.shape[1]:
            raise ValueError("split_candidates length must match feature count")

        available = frozenset(range(features.shape[1]))
        mask = np.ones(features.shape[0], dtype=bool)
        root = self._build(features, labels, mask, available, 0, n_classes, split_candidates)
        self.model = DecisionTreeModel(root, self.task, n_classes)
        return self.model

    def predict(self, rows: np.ndarray) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("fit() must be called before predict()")
        return self.model.predict(rows)

    # ------------------------------------------------------------------

    def _leaf(self, labels: np.ndarray, mask: np.ndarray, depth: int, n_classes: int) -> TreeNode:
        node_labels = labels[mask]
        if self.task == "classification":
            counts = np.bincount(node_labels, minlength=n_classes)
            prediction: float | int = int(np.argmax(counts))  # first max wins
        else:
            prediction = float(node_labels.mean()) if node_labels.size else 0.0
        return TreeNode(
            is_leaf=True,
            depth=depth,
            n_samples=float(mask.sum()),
            prediction=prediction,
        )

    def _is_pure(self, labels: np.ndarray, mask: np.ndarray) -> bool:
        node_labels = labels[mask]
        if self.task == "classification":
            return node_labels.size > 0 and np.all(node_labels == node_labels[0])
        return node_labels.size > 0 and np.all(node_labels == node_labels[0])

    def _build(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        mask: np.ndarray,
        available: frozenset[int],
        depth: int,
        n_classes: int,
        split_candidates: list[list[float]],
    ) -> TreeNode:
        n_here = int(mask.sum())
        prune = (
            depth >= self.params.max_depth
            or n_here < self.params.min_samples_split
            or not available
            or self._is_pure(labels, mask)
        )
        if prune:
            return self._leaf(labels, mask, depth, n_classes)

        best = self._best_split(features, labels, mask, available, n_classes, split_candidates)
        if best is None:
            return self._leaf(labels, mask, depth, n_classes)
        feature, threshold, _gain = best

        goes_left = mask & (features[:, feature] <= threshold)
        goes_right = mask & ~(features[:, feature] <= threshold)
        child_features = (
            available - {feature} if self.params.remove_used_feature else available
        )
        node = TreeNode(
            is_leaf=False,
            depth=depth,
            n_samples=float(n_here),
            feature=feature,
            threshold=threshold,
        )
        node.left = self._build(
            features, labels, goes_left, child_features, depth + 1, n_classes, split_candidates
        )
        node.right = self._build(
            features, labels, goes_right, child_features, depth + 1, n_classes, split_candidates
        )
        return node

    def _best_split(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        mask: np.ndarray,
        available: frozenset[int],
        n_classes: int,
        split_candidates: list[list[float]],
    ) -> tuple[int, float, float] | None:
        best: tuple[int, float, float] | None = None
        best_gain = -np.inf
        node_labels = labels[mask]
        for feature in sorted(available):
            column = features[mask, feature]
            for threshold in split_candidates[feature]:
                left = column <= threshold
                n_l = int(left.sum())
                n_r = node_labels.size - n_l
                if n_l < self.params.min_samples_leaf or n_r < self.params.min_samples_leaf:
                    continue
                if self.task == "classification":
                    left_counts = np.bincount(node_labels[left], minlength=n_classes)
                    right_counts = np.bincount(node_labels[~left], minlength=n_classes)
                    gain = metrics.gini_gain(left_counts, right_counts)
                else:
                    y_l, y_r = node_labels[left], node_labels[~left]
                    gain = metrics.variance_gain(
                        (n_l, float(y_l.sum()), float((y_l**2).sum())),
                        (n_r, float(y_r.sum()), float((y_r**2).sum())),
                    )
                if gain > best_gain:
                    best_gain = gain
                    best = (feature, threshold, gain)
        if best is None or best_gain <= self.params.min_gain:
            return None
        return best
