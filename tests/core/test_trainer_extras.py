"""Additional trainer behaviours: non-default super client, Algorithm-1
feature removal, four clients, imbalanced masks."""

import numpy as np
import pytest

from repro.core import PivotConfig, PivotContext, TreeTrainer, run_predict_batch
from repro.data import make_classification, vertical_partition
from repro.tree import DecisionTree, TreeParams

from tests.core.conftest import global_signature, global_split_grid


def test_super_client_need_not_be_client_zero():
    X, y = make_classification(30, 4, n_classes=2, seed=30)
    vp = vertical_partition(X, y, 3, task="classification", super_client=2)
    params = TreeParams(max_depth=2, max_splits=2)
    ctx = PivotContext(vp, PivotConfig(keysize=256, tree=params, seed=1))
    model = TreeTrainer(ctx).fit()
    plain = DecisionTree("classification", params).fit(
        X, y, split_candidates=global_split_grid(ctx)
    )
    assert global_signature(model.root, vp) == global_signature(plain.root, vp)


@pytest.mark.parametrize("seed", range(1, 9))
def test_exact_ties_resolve_to_the_earliest_candidate(seed):
    """The dataset above, whatever the dealer stream: in the root's left
    child two candidates (on features 1 and 3) have identical statistics,
    so their shared gains differ only by truncation noise; plaintext CART
    keeps the earlier one and so must the secure argmax (its slack)."""
    X, y = make_classification(30, 4, n_classes=2, seed=30)
    vp = vertical_partition(X, y, 3, task="classification", super_client=2)
    params = TreeParams(max_depth=2, max_splits=2)
    ctx = PivotContext(vp, PivotConfig(keysize=256, tree=params, seed=seed))
    grid = global_split_grid(ctx)
    plain = DecisionTree("classification", params).fit(X, y, split_candidates=grid)

    root = plain.root
    child = X[:, root.feature] <= root.threshold

    def left_counts(feature, threshold):
        return list(np.bincount(y[child][X[child, feature] <= threshold], minlength=2))

    chosen = left_counts(root.left.feature, root.left.threshold)
    tied = [f for f in range(4) for t in grid[f] if left_counts(f, t) == chosen]
    assert tied == [1, 3] and root.left.feature == 1, "the premise: an exact tie"

    model = TreeTrainer(ctx).fit()
    assert global_signature(model.root, vp) == global_signature(plain.root, vp)


def test_four_clients():
    X, y = make_classification(30, 4, n_classes=2, seed=31)
    vp = vertical_partition(X, y, 4, task="classification")
    params = TreeParams(max_depth=2, max_splits=2)
    ctx = PivotContext(vp, PivotConfig(keysize=256, tree=params, seed=2))
    model = TreeTrainer(ctx).fit()
    plain = DecisionTree("classification", params).fit(
        X, y, split_candidates=global_split_grid(ctx)
    )
    assert global_signature(model.root, vp) == global_signature(plain.root, vp)


def test_remove_used_feature_matches_plaintext():
    """Algorithm 1 literal mode: the chosen feature leaves the child sets."""
    X, y = make_classification(40, 4, n_classes=2, seed=32)
    vp = vertical_partition(X, y, 2, task="classification")
    params = TreeParams(max_depth=3, max_splits=2, remove_used_feature=True)
    ctx = PivotContext(vp, PivotConfig(keysize=256, tree=params, seed=3))
    model = TreeTrainer(ctx).fit()
    for path in model.leaf_paths():
        used = [(node.owner, node.feature) for node, _ in path]
        assert len(used) == len(set(used)), "a path reused a removed feature"
    plain = DecisionTree("classification", params).fit(
        X, y, split_candidates=global_split_grid(ctx)
    )
    assert global_signature(model.root, vp) == global_signature(plain.root, vp)


def test_shuffled_column_assignment():
    """Vertical partitions with shuffled columns map features correctly."""
    X, y = make_classification(30, 6, n_classes=2, seed=33)
    vp = vertical_partition(
        X, y, 3, task="classification", shuffle_columns=True, seed=9
    )
    params = TreeParams(max_depth=2, max_splits=2)
    ctx = PivotContext(vp, PivotConfig(keysize=256, tree=params, seed=4))
    model = TreeTrainer(ctx).fit()
    # Local prediction through global_feature equals the secure protocol.
    secure = run_predict_batch(model, ctx, X[:8])
    local = model.predict(X[:8])
    assert list(secure) == list(local)


def test_single_feature_per_client():
    X, y = make_classification(24, 3, n_classes=2, seed=34)
    vp = vertical_partition(X, y, 3, task="classification")
    assert all(len(c) == 1 for c in vp.columns_per_client)
    ctx = PivotContext(
        vp, PivotConfig(keysize=256, tree=TreeParams(max_depth=2, max_splits=2), seed=5)
    )
    model = TreeTrainer(ctx).fit()
    assert model.n_internal >= 1


def test_tiny_mask_becomes_leaf():
    X, y = make_classification(30, 4, n_classes=2, seed=35)
    vp = vertical_partition(X, y, 3, task="classification")
    ctx = PivotContext(
        vp,
        PivotConfig(
            keysize=256,
            tree=TreeParams(max_depth=2, max_splits=2, min_samples_split=2),
            seed=6,
        ),
    )
    mask = np.zeros(30, dtype=bool)
    mask[0] = True  # a single sample: below min_samples_split
    model = TreeTrainer(ctx).fit(initial_mask=mask)
    assert model.root.is_leaf
    assert model.root.prediction == y[0]


def test_revealed_log_grows_monotonically():
    X, y = make_classification(24, 4, n_classes=2, seed=36)
    vp = vertical_partition(X, y, 3, task="classification")
    ctx = PivotContext(
        vp, PivotConfig(keysize=256, tree=TreeParams(max_depth=1, max_splits=2), seed=7)
    )
    TreeTrainer(ctx).fit()
    first = len(ctx.revealed)
    TreeTrainer(ctx).fit()
    assert len(ctx.revealed) > first  # contexts accumulate across runs
