"""The §5.1 privacy leakages and their §5.2 mitigation."""

import numpy as np
import pytest

from repro.core import (
    TreeTrainer,
    feature_inference_attack,
    label_inference_attack,
)
from repro.tree import TreeParams

from tests.core.conftest import make_context


@pytest.fixture(scope="module")
def released_models():
    from repro.data import make_classification

    X, y = make_classification(60, 6, n_classes=2, seed=4)
    params = TreeParams(max_depth=3, max_splits=4)
    basic_ctx = make_context(X, y, "classification", params=params, seed=5)
    basic = TreeTrainer(basic_ctx).fit()
    enhanced_ctx = make_context(
        X, y, "classification", protocol="enhanced", params=params, seed=5,
    )
    enhanced = TreeTrainer(enhanced_ctx).fit()
    return X, y, basic_ctx, basic, enhanced_ctx, enhanced


def test_label_attack_succeeds_on_basic_model(released_models):
    """Example 1: colluders along a path read off honest labels."""
    _, _, ctx, basic, _, _ = released_models
    result = label_inference_attack(basic, ctx.partition, colluding={1, 2})
    assert result.n_targets > 0, "attack should infer at least some labels"
    assert result.accuracy > 0.6  # leaf majority labels are mostly right


def test_label_attack_rejects_super_client_collusion(released_models):
    _, _, ctx, basic, _, _ = released_models
    with pytest.raises(ValueError):
        label_inference_attack(basic, ctx.partition, colluding={0, 1})


def test_label_attack_defeated_by_enhanced_model(released_models):
    """§5.2: hidden thresholds/labels leave the adversary with nothing."""
    _, _, _, _, ctx, enhanced = released_models
    result = label_inference_attack(enhanced, ctx.partition, colluding={1, 2})
    assert result.n_targets == 0
    assert result.coverage == 0.0


def test_feature_attack_on_crafted_tree():
    """Example 2 exactly: root owned by a colluder, target node below with
    two pure leaves; the super client's labels reveal the threshold side."""
    from repro.tree.model import DecisionTreeModel, TreeNode
    from repro.data import vertical_partition

    rng = np.random.default_rng(3)
    n = 40
    # Client layout: u0 (super, 1 col), u1 (1 col), u2 (target, 1 col).
    x0 = rng.normal(size=n)
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    labels = (x2 <= 0.0).astype(np.int64)  # labels mirror the target column
    X = np.column_stack([x0, x1, x2])
    vp = vertical_partition(X, labels, 3, task="classification")

    target_node = TreeNode(
        is_leaf=False, depth=1, owner=2, feature=0, global_feature=2,
        threshold=0.0,
        left=TreeNode(is_leaf=True, depth=2, prediction=1),
        right=TreeNode(is_leaf=True, depth=2, prediction=0),
    )
    root = TreeNode(
        is_leaf=False, depth=0, owner=1, feature=0, global_feature=1,
        threshold=10.0,  # everything goes left, to the target node
        left=target_node,
        right=TreeNode(is_leaf=True, depth=1, prediction=0),
    )
    model = DecisionTreeModel(root, "classification", 2)

    result = feature_inference_attack(
        model, vp, colluding={0, 1}, target_client=2
    )
    assert result.n_targets == n  # every sample classified
    assert result.accuracy == 1.0  # and every inference correct


def test_feature_attack_requires_super_client(released_models):
    _, _, ctx, basic, _, _ = released_models
    with pytest.raises(ValueError):
        feature_inference_attack(basic, ctx.partition, colluding={1}, target_client=2)
    with pytest.raises(ValueError):
        feature_inference_attack(
            basic, ctx.partition, colluding={0, 2}, target_client=2
        )


def test_feature_attack_defeated_by_enhanced_model(released_models):
    _, _, _, _, ctx, enhanced = released_models
    result = feature_inference_attack(
        enhanced, ctx.partition, colluding={0, 1}, target_client=2
    )
    assert result.n_targets == 0


def test_attack_result_properties():
    from repro.core.leakage import AttackResult

    r = AttackResult(n_targets=10, n_correct=8, n_population=40)
    assert r.coverage == pytest.approx(0.25)
    assert r.accuracy == pytest.approx(0.8)
    empty = AttackResult(0, 0, 0)
    assert empty.coverage == 0.0
    assert empty.accuracy == 0.0
