"""NPD-DT: non-private distributed decision tree (paper §8.1).

The paper's lower-bound baseline: "the super client broadcasts plaintext
labels to all clients, each client computes split statistics and exchanges
them in plaintext with others to decide the best split."  No cryptography
at all — it prices the cost of distribution alone, and its gap to Pivot is
"the overhead of protecting the data privacy".

Every message is a real payload on a :class:`~repro.network.bus.MessageBus`
with a key-less codec, so Fig. 4g/4h and Fig. 5 report its measured bytes
next to the secure protocols': the labels, each client's statistics and
the chosen split's partition travel as ``bytes`` blobs of the arrays (8
bytes per label or statistic, 1 per sample of a partition), and a branch
bit as one byte, each behind the codec's 5-byte blob header.
"""

# pivotlint: disable-file=PL001 -- NPD-DT is the paper's deliberately non-private distributed baseline (Table 3 comparison): it trains on plaintext cross-party columns by definition. It shares no code with the protected protocol and exists to quantify what Pivot's protection buys; SPDZ-DT, by contrast, operates on secret shares and scans clean.

from __future__ import annotations

import numpy as np

from repro.data.partition import VerticalPartition
from repro.network.bus import MessageBus
from repro.network.wire import WireCodec
from repro.tree import metrics
from repro.tree.cart import TreeParams
from repro.tree.model import DecisionTreeModel, TreeNode
from repro.tree.splits import candidate_splits

__all__ = ["NpdDecisionTree", "npd_predict"]


class NpdDecisionTree:
    """Plaintext distributed CART over a vertical partition."""

    def __init__(self, partition: VerticalPartition, params: TreeParams | None = None):
        self.partition = partition
        self.params = params or TreeParams()
        self.params.validate()
        self.task = partition.task
        self.bus = MessageBus(partition.n_clients, codec=WireCodec(None))
        self.n_classes = 0
        self.model: DecisionTreeModel | None = None
        self._splits_per_client = [
            [
                candidate_splits(features[:, j], self.params.max_splits)
                for j in range(features.shape[1])
            ]
            for features in partition.local_features
        ]

    def fit(self) -> DecisionTreeModel:
        labels = self.partition.labels
        if self.task == "classification":
            labels = np.asarray(labels, dtype=np.int64)
            self.n_classes = max(2, int(labels.max()) + 1)
        else:
            labels = np.asarray(labels, dtype=np.float64)
        # The super client broadcasts the plaintext labels (the privacy
        # give-away that defines this baseline).
        with self.bus.flow(1):
            self.bus.broadcast_payload(
                self.partition.super_client, labels.tobytes(), tag="plaintext-labels"
            )
        mask = np.ones(self.partition.n_samples, dtype=bool)
        root = self._build(labels, mask, depth=0)
        self.model = DecisionTreeModel(root, self.task, self.n_classes)
        return self.model

    # ------------------------------------------------------------------

    def _leaf(self, labels: np.ndarray, mask: np.ndarray, depth: int) -> TreeNode:
        node_labels = labels[mask]
        if self.task == "classification":
            counts = np.bincount(node_labels, minlength=self.n_classes)
            prediction: float | int = int(np.argmax(counts))
        else:
            prediction = float(node_labels.mean()) if node_labels.size else 0.0
        return TreeNode(
            is_leaf=True, depth=depth, n_samples=float(mask.sum()), prediction=prediction
        )

    def _build(self, labels: np.ndarray, mask: np.ndarray, depth: int) -> TreeNode:
        n_here = int(mask.sum())
        node_labels = labels[mask]
        pure = node_labels.size > 0 and bool(np.all(node_labels == node_labels[0]))
        if (
            depth >= self.params.max_depth
            or n_here < self.params.min_samples_split
            or pure
        ):
            return self._leaf(labels, mask, depth)

        best = None
        best_gain = -np.inf
        with self.bus.flow(1):
            for client_idx, features in enumerate(self.partition.local_features):
                # Each client evaluates her local splits and broadcasts the
                # statistics in plaintext.
                local_best, local_gain, stats = self._client_best_split(
                    client_idx, features, labels, mask
                )
                self.bus.broadcast_payload(
                    client_idx,
                    np.asarray(stats, dtype=np.float64).tobytes(),
                    tag="plaintext-stats",
                )
                if local_best is not None and local_gain > best_gain:
                    best_gain = local_gain
                    best = (client_idx,) + local_best
        if best is None or best_gain <= self.params.min_gain:
            return self._leaf(labels, mask, depth)

        owner, feature, threshold = best
        column = self.partition.local_features[owner][:, feature]
        goes_left = mask & (column <= threshold)
        goes_right = mask & ~(column <= threshold)
        # The owner broadcasts the chosen partition.
        with self.bus.flow(1):
            self.bus.broadcast_payload(owner, goes_left.tobytes(), tag="partition")
        node = TreeNode(
            is_leaf=False,
            depth=depth,
            n_samples=float(n_here),
            owner=owner,
            feature=feature,
            global_feature=self.partition.global_feature_of(owner, feature),
            threshold=threshold,
        )
        node.left = self._build(labels, goes_left, depth + 1)
        node.right = self._build(labels, goes_right, depth + 1)
        return node

    def _client_best_split(
        self,
        client_idx: int,
        features: np.ndarray,
        labels: np.ndarray,
        mask: np.ndarray,
    ) -> tuple[tuple[int, float] | None, float, list[float]]:
        best: tuple[int, float] | None = None
        best_gain = -np.inf
        stats: list[float] = []
        node_labels = labels[mask]
        for feature in range(features.shape[1]):
            column = features[mask, feature]
            for threshold in self._splits_per_client[client_idx][feature]:
                left = column <= threshold
                n_l = int(left.sum())
                n_r = node_labels.size - n_l
                if n_l < self.params.min_samples_leaf or n_r < self.params.min_samples_leaf:
                    continue
                if self.task == "classification":
                    left_counts = np.bincount(node_labels[left], minlength=self.n_classes)
                    right_counts = np.bincount(node_labels[~left], minlength=self.n_classes)
                    gain = metrics.gini_gain(left_counts, right_counts)
                    stats += [n_l, n_r, *left_counts, *right_counts]
                else:
                    y_l, y_r = node_labels[left], node_labels[~left]
                    left_stats = (n_l, float(y_l.sum()), float((y_l**2).sum()))
                    right_stats = (n_r, float(y_r.sum()), float((y_r**2).sum()))
                    gain = metrics.variance_gain(left_stats, right_stats)
                    stats += [*left_stats, *right_stats]
                if gain > best_gain:
                    best_gain = gain
                    best = (feature, threshold)
        return best, best_gain, stats


def npd_predict(
    model: DecisionTreeModel, partition: VerticalPartition, row: np.ndarray, bus: MessageBus
) -> float | int:
    """The naive coordinated prediction the paper describes in §4.3.

    The super client walks the tree; at each internal node the feature
    owner compares in plaintext and reports which branch to take — leaking
    the prediction path (the leakage Pivot's Algorithm 4 removes).
    """
    node = model.root
    super_client = partition.super_client
    while not node.is_leaf:
        cols = partition.columns_per_client[node.owner]
        bit = bytes([bool(row[cols[node.feature]] <= node.threshold)])
        with bus.flow(1):
            if node.owner != super_client:
                bus.send_payload(node.owner, super_client, bit, tag="branch-bit")
                bit = bus.receive(super_client, tag="branch-bit")
        node = node.left if bit[0] else node.right
    return node.prediction
