"""NPD-DT baseline (§8.1): plaintext-equivalent output, honest accounting."""

import pytest

from repro.baselines import NpdDecisionTree, npd_predict
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


@pytest.fixture(scope="module")
def trained():
    X, y = make_classification(40, 4, n_classes=2, seed=1)
    vp = vertical_partition(X, y, 3, task="classification")
    npd = NpdDecisionTree(vp, PARAMS)
    model = npd.fit()
    return X, y, vp, npd, model


def test_matches_centralized_cart(trained):
    X, y, vp, _, model = trained
    plain = DecisionTree("classification", PARAMS).fit(
        X, y, split_candidates=reference_grid(vp, 2)
    )
    assert [
        (vp.global_feature_of(n.owner, n.feature), round(n.threshold, 8))
        for n in model.internal_nodes()
    ] == [(n.feature, round(n.threshold, 8)) for n in plain.internal_nodes()]
    assert [l.prediction for l in model.leaves()] == [
        l.prediction for l in plain.leaves()
    ]


def test_labels_are_broadcast_in_plaintext(trained):
    """The privacy give-away: labels travel the wire unencrypted."""
    _, _, _, npd, _ = trained
    assert npd.bus.by_tag["plaintext-labels"] > 0


def test_regression_baseline():
    X, y = make_regression(30, 4, seed=2)
    vp = vertical_partition(X, y, 3, task="regression")
    model = NpdDecisionTree(vp, PARAMS).fit()
    plain = DecisionTree("regression", PARAMS).fit(
        X, y, split_candidates=reference_grid(vp, 2)
    )
    for s, p in zip(model.leaves(), plain.leaves()):
        assert s.prediction == pytest.approx(p.prediction, abs=1e-9)


def test_prediction_walks_the_path(trained):
    X, _, vp, npd, model = trained
    for row in X[:5]:
        assert npd_predict(model, vp, row, npd.bus) == model.predict_row(row)


def test_prediction_leaks_path_bits(trained):
    """§4.3: the naive coordinated prediction reveals the path."""
    X, _, vp, npd, model = trained
    before = npd.bus.by_tag.get("branch-bit", 0)
    npd_predict(model, vp, X[0], npd.bus)
    assert npd.bus.by_tag["branch-bit"] >= before  # bits flow when owner != super


def test_communication_is_orders_below_pivot(trained):
    """Fig. 5: NPD-DT is essentially free next to any secure protocol —
    about an order of magnitude fewer bytes than Pivot (8.8x here).  Both
    byte counts are pinned: Pivot's split statistics, with Algorithm 2's
    masks riding in them, every party's masked groups reaching every
    other party and each partial decryption the super client alone, and
    the root's entry and label totals in level 0's; one child's mask
    vector per split, none for leaves at the depth limit.  The NPD-DT fit is a fresh one: the
    fixture's bus also carries the other tests' predictions."""
    from repro.core import TreeTrainer
    from tests.core.conftest import make_context

    X, y, vp, _, _ = trained
    npd = NpdDecisionTree(vp, PARAMS)
    npd.fit()
    ctx = make_context(X, y, "classification", params=PARAMS, seed=9)
    TreeTrainer(ctx).fit()
    assert (ctx.bus.bytes, npd.bus.bytes) == (25_594, 2_896)
