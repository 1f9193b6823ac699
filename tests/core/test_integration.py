"""Cross-module integration: the full protocol stack against each other.

The strongest reproduction check: on identical inputs and split grids,
four independently implemented trainers — plaintext CART, Pivot-Basic,
Pivot-Enhanced (modulo hidden values) and SPDZ-DT — must produce the same
tree, and all prediction paths must agree.
"""

import numpy as np
import pytest

from repro.baselines import NpdDecisionTree, SpdzDecisionTree
from repro.core import TreeTrainer, run_predict_batch
from repro.tree import DecisionTree, TreeParams

from tests.core.conftest import global_signature, global_split_grid, make_context

PARAMS = TreeParams(max_depth=2, max_splits=2)


@pytest.fixture(scope="module")
def everything():
    from repro.data import make_classification

    X, y = make_classification(30, 4, n_classes=2, seed=17)
    basic_ctx = make_context(X, y, "classification", params=PARAMS, seed=6)
    basic = TreeTrainer(basic_ctx).fit()
    enhanced_ctx = make_context(
        X, y, "classification", keysize=512, protocol="enhanced",
        params=PARAMS, seed=6,
    )
    enhanced = TreeTrainer(enhanced_ctx).fit()
    spdz = SpdzDecisionTree(basic_ctx.partition, PARAMS, seed=6).fit()
    npd = NpdDecisionTree(basic_ctx.partition, PARAMS).fit()
    plain = DecisionTree("classification", PARAMS).fit(
        X, y, split_candidates=global_split_grid(basic_ctx)
    )
    return X, y, basic_ctx, basic, enhanced_ctx, enhanced, spdz, npd, plain


def test_all_plaintext_releasing_trainers_agree(everything):
    X, y, ctx, basic, _, _, spdz, npd, plain = everything
    vp = ctx.partition
    reference = global_signature(plain.root, vp)
    assert global_signature(basic.root, vp) == reference
    assert global_signature(spdz.root, vp) == reference
    assert global_signature(npd.root, vp) == reference


def test_enhanced_hides_but_matches_skeleton(everything):
    _, _, ctx, basic, ectx, enhanced, _, _, _ = everything
    basic_skeleton = [(n.owner, n.feature) for n in basic.internal_nodes()]
    enhanced_skeleton = [(n.owner, n.feature) for n in enhanced.internal_nodes()]
    assert basic_skeleton == enhanced_skeleton
    for enhanced_node, basic_node in zip(
        enhanced.internal_nodes(), basic.internal_nodes()
    ):
        (decoded,) = ectx.fx.open([enhanced_node.hidden["threshold_share"]])
        assert decoded == pytest.approx(basic_node.threshold, abs=1e-3)


def test_all_prediction_paths_agree(everything):
    X, _, ctx, basic, ectx, enhanced, _, _, plain = everything
    rows = X[:6]
    centralized = list(plain.predict(rows))
    secure_basic = list(run_predict_batch(basic, ctx, rows))
    secure_enhanced = list(run_predict_batch(enhanced, ectx, rows, "enhanced"))
    assert secure_basic == centralized
    assert secure_enhanced == centralized


def test_regression_stack_agrees():
    from repro.data import make_regression

    X, y = make_regression(24, 4, seed=18)
    ctx = make_context(X, y, "regression", params=PARAMS, seed=7)
    basic = TreeTrainer(ctx).fit()
    spdz = SpdzDecisionTree(ctx.partition, PARAMS, seed=7).fit()
    plain = DecisionTree("regression", PARAMS).fit(
        X, y, split_candidates=global_split_grid(ctx)
    )
    rows = X[:5]
    assert np.allclose(run_predict_batch(basic, ctx, rows), plain.predict(rows), atol=2e-3)
    assert np.allclose(spdz.predict(rows), plain.predict(rows), atol=2e-3)


def test_protocol_stack_reuses_one_split_grid(everything):
    """All trainers consume the same candidate thresholds (§3.1's b)."""
    X, _, ctx, _, ectx, _, _, _, _ = everything
    for c_basic, c_enh in zip(ctx.clients, ectx.clients):
        assert c_basic.split_values == c_enh.split_values
