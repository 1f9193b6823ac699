"""Shared fixtures for the protocol tests.

Sizes are deliberately tiny (tens of samples, b = 2, h = 2): every fixture
run executes real Paillier + MPC protocols, and the protocol logic is
identical at every scale.  Equivalence fixtures return both the secure
context and the matching plaintext split grid.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PivotConfig
from repro.data import make_classification, make_regression, vertical_partition
from repro.federation import Federation
from repro.tree import TreeParams

TEST_KEYSIZE = 256


def make_context(
    X,
    y,
    task,
    m=3,
    keysize=TEST_KEYSIZE,
    protocol="basic",
    seed=7,
    params=None,
    **config_kwargs,
):
    params = params or TreeParams(max_depth=2, max_splits=2)
    vp = vertical_partition(X, y, m, task=task)
    cfg = PivotConfig(
        keysize=keysize,
        tree=params,
        seed=seed,
        protocol=protocol,
        **config_kwargs,
    )
    return Federation.from_partition(vp, cfg)


def global_split_grid(context) -> list[list[float]]:
    """The secure trainer's candidate-split grid, in global column order."""
    vp = context.partition
    total = sum(len(c) for c in vp.columns_per_client)
    grid: list[list[float]] = [[] for _ in range(total)]
    for ci, cols in enumerate(vp.columns_per_client):
        for local, global_col in enumerate(cols):
            grid[global_col] = context.clients[ci].split_values[local]
    return grid


def global_signature(node, vp):
    """Tree fingerprint with client-local features mapped to global ids."""
    if node.is_leaf:
        p = node.prediction
        return ("leaf", p if isinstance(p, (int, type(None))) else round(p, 4))
    feature = (
        vp.global_feature_of(node.owner, node.feature)
        if node.owner >= 0
        else node.feature
    )
    threshold = None if node.threshold is None else round(node.threshold, 8)
    return (
        "node",
        feature,
        threshold,
        global_signature(node.left, vp),
        global_signature(node.right, vp),
    )


def opened_signature(ctx, node, vp):
    """An enhanced tree's global signature, its hidden thresholds and leaf
    labels opened."""
    if node.is_leaf:
        (label,) = ctx.fx.open([node.hidden["label_share"]])
        return ("leaf", round(label))
    (threshold,) = ctx.fx.open([node.hidden["threshold_share"]])
    return (
        "node",
        vp.global_feature_of(node.owner, node.feature),
        threshold,
        opened_signature(ctx, node.left, vp),
        opened_signature(ctx, node.right, vp),
    )


def same_tree(opened, plain) -> bool:
    """Equal signatures, an opened threshold within its 2^-16 encoding of
    the plaintext one."""
    if opened[0] == "leaf" or plain[0] == "leaf":
        return opened == plain
    _, feature, threshold, *children = opened
    _, plain_feature, plain_threshold, *plain_children = plain
    return (
        feature == plain_feature
        and abs(threshold - plain_threshold) <= 2.0**-15
        and all(same_tree(a, b) for a, b in zip(children, plain_children))
    )


def converted_per_depth(model) -> dict[int, int]:
    """The nodes whose statistics each level converts, by depth, for a
    tree whose every internal node passed the pruning checks and whose
    leaves all stopped there: the root at depth 0, then one child per
    split with an internal child — where both children are open the
    right one's rows are its parent's minus the left's."""
    converted = {0: 1}
    for node in model.internal_nodes():
        if not (node.left.is_leaf and node.right.is_leaf):
            converted[node.depth + 1] = converted.get(node.depth + 1, 0) + 1
    return converted


def spy_on_bus(monkeypatch, bus) -> list[tuple[int, int | None, str, object]]:
    """Every (sender, receiver, tag, payload) the bus carries, in order;
    a broadcast has receiver ``None``."""
    seen: list[tuple[int, int | None, str, object]] = []
    real_send, real_broadcast = bus.send_payload, bus.broadcast_payload

    def send_payload(sender, receiver, payload, tag=""):
        seen.append((sender, receiver, tag, payload))
        return real_send(sender, receiver, payload, tag=tag)

    def broadcast_payload(sender, payload, tag=""):
        seen.append((sender, None, tag, payload))
        return real_broadcast(sender, payload, tag=tag)

    monkeypatch.setattr(bus, "send_payload", send_payload)
    monkeypatch.setattr(bus, "broadcast_payload", broadcast_payload)
    return seen


def plaintext_logistic_proba(
    X, y, columns, rows, learning_rate=0.5, n_epochs=3, batch_size=16
) -> np.ndarray:
    """The plaintext oracle of :class:`repro.core.LogisticTrainer`: the
    same mini-batch gradient descent from zero weights, over the columns
    in the federation's party order, with the secure exponential's clamp
    of the score; returns σ(x·θ) for ``rows``."""
    from repro.mpc.advanced import EXP_CLAMP

    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-np.clip(z, -EXP_CLAMP, EXP_CLAMP)))

    features = np.asarray(X, dtype=np.float64)[:, columns]
    theta = np.zeros(features.shape[1])
    for _ in range(n_epochs):
        for start in range(0, len(y), batch_size):
            batch = slice(start, min(start + batch_size, len(y)))
            loss = sigmoid(features[batch] @ theta) - np.asarray(y)[batch]
            theta -= learning_rate / len(loss) * features[batch].T @ loss
    return sigmoid(np.asarray(rows, dtype=np.float64)[:, columns] @ theta)


def party_columns(context) -> list[int]:
    """Global column ids in the federation's party order."""
    return [c for cols in context.partition.columns_per_client for c in cols]


@pytest.fixture(scope="session")
def small_classification():
    return make_classification(40, 4, n_classes=2, seed=1)


@pytest.fixture(scope="session")
def small_multiclass():
    return make_classification(40, 4, n_classes=3, seed=21)


@pytest.fixture(scope="session")
def small_regression():
    return make_regression(36, 4, noise=0.05, seed=2)
