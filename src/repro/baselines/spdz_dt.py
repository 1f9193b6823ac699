"""SPDZ-DT: decision-tree training entirely inside MPC (paper §8.1).

The paper's efficiency baseline: "we implement a secret sharing based
decision tree algorithm using the SPDZ library (namely, SPDZ-DT)".  Every
feature value and every label is secret-shared up front (O(nd) shared
values), and *everything* — split-partition indicators, statistics, gains,
best split — is computed with secure operations:

* for every candidate split, the left-partition indicator of every sample
  is a secure comparison ⟨x⟩ <= threshold  (O(n) comparisons per split,
  against Pivot's O(1) local homomorphic dot product),
* per-split statistics are secure inner products of those indicator shares
  with the shared label one-hots / labels,
* gains and the secure maximum proceed exactly as in Pivot's MPC step.

This is why SPDZ-DT scales so much worse in m and n (Fig. 5): the
comparison sub-protocol is communication-heavy and every one of the
O(n·d·b) of them crosses the network.

The tree structure, chosen splits and leaf labels are revealed exactly as
in Pivot's basic protocol, so the output model is identical given identical
inputs — which the tests assert.
"""

from __future__ import annotations

import numpy as np

from repro.core.gain import NodeStats, SplitStats, secure_split_gains
from repro.data.partition import VerticalPartition
from repro.mpc import comparison
from repro.mpc.advanced import FixedPointOps
from repro.mpc.engine import MPCEngine
from repro.mpc.sharing import SharedValue
from repro.tree.cart import TreeParams
from repro.tree.model import DecisionTreeModel, TreeNode
from repro.tree.splits import candidate_splits

__all__ = ["SpdzDecisionTree"]


class SpdzDecisionTree:
    """Fully-MPC CART over a vertical partition."""

    def __init__(
        self,
        partition: VerticalPartition,
        params: TreeParams | None = None,
        gain_mode: str = "paper",
        mpc_k: int = 40,
        frac_bits: int = 16,
        seed: int | None = None,
    ):
        self.partition = partition
        self.params = params or TreeParams()
        self.params.validate()
        self.gain_mode = gain_mode
        self.task = partition.task
        self.engine = MPCEngine(partition.n_clients, seed=seed)
        self.fx = FixedPointOps(self.engine, k=mpc_k, f=frac_bits)
        self.model: DecisionTreeModel | None = None
        self.n_classes = 0
        # (owner, local feature, threshold) in the shared enumeration order.
        self._splits: list[tuple[int, int, float]] = []
        self._indicator_shares: list[list[SharedValue]] = []
        self._label_shares: list[list[SharedValue]] = []
        self._label_scale = 1.0

    # ------------------------------------------------------------------

    def fit(self) -> DecisionTreeModel:
        self._share_inputs()
        n = self.partition.n_samples
        alpha = [self.engine.share_public(1 << self.fx.f) for _ in range(n)]
        root = self._build(alpha, depth=0)
        self.model = DecisionTreeModel(
            root, self.task, self.n_classes if self.task == "classification" else 0
        )
        return self.model

    # ------------------------------------------------------------------

    def _share_inputs(self) -> None:
        """Secret-share all features (as split indicators) and labels.

        Sharing the comparison *results* per candidate split — one secure
        comparison per (sample, split) — matches how an MPC tree pipeline
        evaluates thresholds on shared features; the comparisons are the
        dominant cost the paper's baseline pays.
        """
        fx, engine = self.fx, self.engine
        self._splits = []
        self._indicator_shares = []
        for client_idx, features in enumerate(self.partition.local_features):
            for j in range(features.shape[1]):
                thresholds = candidate_splits(features[:, j], self.params.max_splits)
                # The owner shares her column once (one value per sample)...
                column = [
                    engine.input_private(fx.encode(float(v)), owner=client_idx)
                    for v in features[:, j]
                ]
                for threshold in thresholds:
                    self._splits.append((client_idx, j, float(threshold)))
                    shared_threshold = fx.share(float(threshold))
                    # ... and the indicator of every sample is a secure
                    # comparison on shares.
                    bits = [
                        comparison.le(engine, x, shared_threshold, fx.k)
                        for x in column
                    ]
                    self._indicator_shares.append(bits)

        labels = self.partition.labels
        if self.task == "classification":
            labels = np.asarray(labels, dtype=np.int64)
            self.n_classes = max(2, int(labels.max()) + 1)
            self._label_shares = [
                [
                    self.engine.input_private(
                        (1 << fx.f) if int(y) == k else 0,
                        owner=self.partition.super_client,
                    )
                    for y in labels
                ]
                for k in range(self.n_classes)
            ]
        else:
            labels = np.asarray(labels, dtype=np.float64)
            self._label_scale = float(np.max(np.abs(labels))) or 1.0
            normalized = labels / self._label_scale
            self._label_shares = [
                [
                    self.engine.input_private(
                        fx.encode(float(y)), owner=self.partition.super_client
                    )
                    for y in normalized
                ],
                [
                    self.engine.input_private(
                        fx.encode(float(y) ** 2), owner=self.partition.super_client
                    )
                    for y in normalized
                ],
            ]

    # ------------------------------------------------------------------

    def _node_stats(self, alpha: list[SharedValue]) -> NodeStats:
        engine = self.engine
        n = engine.sum_values(alpha)
        totals = [
            self._masked_sum(alpha, labels) for labels in self._label_shares
        ]
        return NodeStats(n, totals)

    def _masked_sum(
        self, alpha: list[SharedValue], values: list[SharedValue]
    ) -> SharedValue:
        """Σ_t α_t · v_t with fixed-point rescaling (secure inner product)."""
        raw = self.engine.inner_product(alpha, values)
        return comparison.trunc_pr(self.engine, raw, 2 * self.fx.k, self.fx.f)

    def _build(self, alpha: list[SharedValue], depth: int) -> TreeNode:
        fx, engine = self.fx, self.engine
        node_stats = self._node_stats(alpha)

        if depth >= self.params.max_depth:
            return self._make_leaf(node_stats, depth)
        too_small = engine.open(
            fx.lt(node_stats.n, fx.share(self.params.min_samples_split))
        )
        if too_small:
            return self._make_leaf(node_stats, depth)
        if self.task == "classification":
            _, g_max, _ = fx.argmax(node_stats.totals)
            if engine.open(fx.eqz(node_stats.n - g_max)):
                return self._make_leaf(node_stats, depth)

        splits = []
        for bits in self._indicator_shares:
            scaled = [b * (1 << fx.f) for b in bits]
            n_left = self._masked_sum(alpha, scaled)
            n_right = node_stats.n - n_left
            left, right = [], []
            for labels, total in zip(self._label_shares, node_stats.totals):
                masked = [
                    comparison.trunc_pr(engine, p, 2 * fx.k, fx.f)
                    for p in engine.mul_many(list(zip(alpha, scaled)))
                ]
                g_left = self._masked_sum(masked, labels)
                left.append(g_left)
                right.append(total - g_left)
            splits.append(SplitStats(n_left, n_right, left, right))

        gains, leaf_threshold = secure_split_gains(
            fx, self.task, node_stats, splits, self.gain_mode, self.params.min_gain
        )
        from repro.core.trainer import SECURE_ARGMAX_SLACK, SECURE_GAIN_EPS

        best_index, best_gain, _ = fx.argmax(gains, slack=SECURE_ARGMAX_SLACK)
        no_gain = engine.open(
            engine.add_public(
                -fx.gt(best_gain, leaf_threshold + fx.share(SECURE_GAIN_EPS)), 1
            )
        )
        if no_gain:
            return self._make_leaf(node_stats, depth)

        flat = int(engine.open(best_index))
        owner, feature, threshold = self._splits[flat]
        bits = self._indicator_shares[flat]
        scaled = [b * (1 << fx.f) for b in bits]
        alpha_left = [
            comparison.trunc_pr(engine, p, 2 * fx.k, fx.f)
            for p in engine.mul_many(list(zip(alpha, scaled)))
        ]
        alpha_right = [a - l for a, l in zip(alpha, alpha_left)]

        node = TreeNode(
            is_leaf=False,
            depth=depth,
            owner=owner,
            feature=feature,
            global_feature=self.partition.global_feature_of(owner, feature),
            threshold=threshold,
        )
        node.left = self._build(alpha_left, depth + 1)
        node.right = self._build(alpha_right, depth + 1)
        return node

    def _make_leaf(self, node_stats: NodeStats, depth: int) -> TreeNode:
        fx, engine = self.fx, self.engine
        if self.task == "classification":
            index, _, _ = fx.argmax(node_stats.totals)
            prediction: float | int = int(engine.open(index))
        else:
            mean = fx.div(node_stats.totals[0], node_stats.n)
            prediction = fx.open(mean) * self._label_scale
        return TreeNode(is_leaf=True, depth=depth, prediction=prediction)
