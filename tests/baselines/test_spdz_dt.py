"""SPDZ-DT baseline (§8.1): correctness and cost shape."""

import pytest

from repro.baselines import SpdzDecisionTree
from repro.data import make_classification, make_regression, vertical_partition
from repro.tree import DecisionTree, TreeParams
from repro.tree.splits import candidate_splits

PARAMS = TreeParams(max_depth=2, max_splits=2)


def reference_grid(partition, max_splits):
    total = sum(len(c) for c in partition.columns_per_client)
    grid = [[] for _ in range(total)]
    for ci, cols in enumerate(partition.columns_per_client):
        for local, global_col in enumerate(cols):
            grid[global_col] = candidate_splits(
                partition.local_features[ci][:, local], max_splits
            )
    return grid


def signature(node, partition):
    if node.is_leaf:
        p = node.prediction
        return ("leaf", p if isinstance(p, int) else round(p, 3))
    feature = (
        partition.global_feature_of(node.owner, node.feature)
        if node.owner >= 0
        else node.feature
    )
    return (
        "node",
        feature,
        round(node.threshold, 8),
        signature(node.left, partition),
        signature(node.right, partition),
    )


def test_classification_matches_plaintext():
    X, y = make_classification(24, 4, n_classes=2, seed=1)
    vp = vertical_partition(X, y, 3, task="classification")
    secure = SpdzDecisionTree(vp, PARAMS, seed=5).fit()
    plain = DecisionTree("classification", PARAMS).fit(
        X, y, split_candidates=reference_grid(vp, 2)
    )
    assert signature(secure.root, vp) == signature(plain.root, vp)


def test_regression_matches_plaintext():
    X, y = make_regression(24, 4, seed=2)
    vp = vertical_partition(X, y, 3, task="regression")
    secure = SpdzDecisionTree(vp, PARAMS, seed=6).fit()
    plain = DecisionTree("regression", PARAMS).fit(
        X, y, split_candidates=reference_grid(vp, 2)
    )
    secure_splits = [
        (vp.global_feature_of(n.owner, n.feature), round(n.threshold, 8))
        for n in secure.internal_nodes()
    ]
    plain_splits = [
        (n.feature, round(n.threshold, 8)) for n in plain.internal_nodes()
    ]
    assert secure_splits == plain_splits
    for s, p in zip(secure.leaves(), plain.leaves()):
        assert s.prediction == pytest.approx(p.prediction, abs=1e-3)


def test_comparison_count_scales_with_n():
    """The O(n) secure comparisons per split are SPDZ-DT's defining cost."""
    from repro.analysis import opcount

    PARAMS1 = TreeParams(max_depth=1, max_splits=1)
    counts = []
    for n in (12, 24):
        X, y = make_classification(n, 2, n_classes=2, seed=3)
        vp = vertical_partition(X, y, 2, task="classification")
        tree = SpdzDecisionTree(vp, PARAMS1, seed=7)
        with opcount.counting() as ops:
            tree.fit()
        counts.append(ops["cc"])
    assert counts[1] > 1.5 * counts[0]


def test_secure_comparisons_far_exceed_pivot():
    """Fig. 5's driver: SPDZ-DT runs O(n) secure comparisons per split,
    Pivot a constant number per node — the comparison counts must differ
    by a wide margin on identical inputs."""
    from repro.analysis import opcount
    from repro.core import TreeTrainer
    from tests.core.conftest import make_context

    X, y = make_classification(20, 4, n_classes=2, seed=4)
    vp = vertical_partition(X, y, 3, task="classification")
    spdz = SpdzDecisionTree(vp, PARAMS, seed=8)
    with opcount.counting() as spdz_ops:
        spdz.fit()
    ctx = make_context(X, y, "classification", params=PARAMS, seed=8)
    with opcount.counting() as pivot_ops:
        TreeTrainer(ctx).fit()
    assert spdz_ops["cc"] > 3 * pivot_ops["cc"]
