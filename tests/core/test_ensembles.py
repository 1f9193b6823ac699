"""Pivot-RF and Pivot-GBDT (§7)."""

import numpy as np
import pytest

from repro.core import GBDTTrainer, ForestTrainer
from repro.tree import TreeParams

from tests.core.conftest import make_context

PARAMS = TreeParams(max_depth=2, max_splits=2)


@pytest.fixture(scope="module")
def rf_setup():
    from repro.data import make_classification

    X, y = make_classification(40, 4, n_classes=3, seed=5)
    ctx = make_context(X, y, "classification", params=PARAMS, seed=1)
    rf = ForestTrainer(ctx, n_trees=3, seed=2).fit()
    return X, y, ctx, rf


def test_rf_trains_independent_trees(rf_setup):
    _, _, _, rf = rf_setup
    assert len(rf.models) == 3
    signatures = {m.structure_signature() for m in rf.models}
    assert len(signatures) >= 2  # different bags, different trees


def test_rf_trees_are_plaintext(rf_setup):
    _, _, _, rf = rf_setup
    for model in rf.models:
        for node in model.internal_nodes():
            assert node.threshold is not None
        for leaf in model.leaves():
            assert leaf.prediction is not None


def test_rf_prediction_is_majority_vote(rf_setup):
    X, _, ctx, rf = rf_setup
    secure = rf.predict(X[:6])
    per_tree = np.stack([m.predict(X[:6]) for m in rf.models])
    for col in range(6):
        votes = np.bincount(per_tree[:, col].astype(int), minlength=rf.n_classes)
        assert secure[col] == int(np.argmax(votes))


def test_rf_regression_mean():
    from repro.data import make_regression

    X, y = make_regression(30, 4, seed=6)
    ctx = make_context(X, y, "regression", params=PARAMS, seed=3)
    rf = ForestTrainer(ctx, n_trees=2, seed=4).fit()
    secure = rf.predict(X[:4])
    per_tree = np.stack([m.predict(X[:4]) for m in rf.models])
    assert np.allclose(secure, per_tree.mean(axis=0), atol=1e-3)


def test_rf_validation(rf_setup):
    _, _, ctx, _ = rf_setup
    with pytest.raises(ValueError):
        ForestTrainer(ctx, n_trees=0)
    with pytest.raises(RuntimeError):
        ForestTrainer(ctx, n_trees=1).predict(np.zeros((1, 4)))


# -- GBDT ---------------------------------------------------------------------


def test_gbdt_regression_reduces_training_error():
    from repro.data import make_regression
    from repro.tree.metrics import mean_squared_error

    X, y = make_regression(30, 4, noise=0.05, seed=8)
    ctx1 = make_context(X, y, "regression", params=PARAMS, seed=5)
    one_round = GBDTTrainer(ctx1, n_rounds=1, learning_rate=0.8).fit()
    ctx3 = make_context(X, y, "regression", params=PARAMS, seed=5)
    three_rounds = GBDTTrainer(ctx3, n_rounds=3, learning_rate=0.8).fit()
    mse_1 = mean_squared_error(one_round.predict(X), y)
    mse_3 = mean_squared_error(three_rounds.predict(X), y)
    assert mse_3 < mse_1


def test_gbdt_regression_close_to_plaintext_gbdt():
    from repro.data import make_regression
    from repro.tree import GBDTRegressor
    from repro.tree.metrics import mean_squared_error

    X, y = make_regression(30, 4, noise=0.05, seed=9)
    ctx = make_context(X, y, "regression", params=PARAMS, seed=6)
    secure = GBDTTrainer(ctx, n_rounds=2, learning_rate=0.5).fit()
    mse_secure = mean_squared_error(secure.predict(X), y)
    plain = GBDTRegressor(n_rounds=2, learning_rate=0.5, params=PARAMS).fit(X, y)
    mse_plain = mean_squared_error(plain.predict(X), y)
    # Same boosting structure, same order of magnitude (fixed-point + grid
    # differences allow slack).
    assert mse_secure < 3 * mse_plain + 0.05


def test_gbdt_residual_labels_stay_encrypted():
    """No residual value may appear in the revealed transcript (§7.2)."""
    from repro.data import make_regression

    X, y = make_regression(24, 4, seed=10)
    ctx = make_context(X, y, "regression", params=PARAMS, seed=7)
    GBDTTrainer(ctx, n_rounds=2, learning_rate=0.5).fit()
    allowed = ("prune-", "best-split", "leaf-label")
    for tag, _ in ctx.revealed:
        assert tag.startswith(allowed), f"unexpected reveal {tag!r}"


def test_gbdt_classification_one_vs_rest():
    from repro.data import make_classification
    from repro.tree.metrics import accuracy

    X, y = make_classification(24, 4, n_classes=2, seed=11)
    ctx = make_context(X, y, "classification", params=PARAMS, seed=8)
    model = GBDTTrainer(ctx, n_rounds=2, learning_rate=0.5).fit()
    assert len(model.class_models) == 2  # rounds
    assert len(model.class_models[0]) == 2  # one regression tree per class
    acc = accuracy(model.predict(X[:12]), y[:12])
    assert acc >= 0.5


def test_gbdt_validation():
    from repro.data import make_regression

    X, y = make_regression(20, 4, seed=12)
    ctx = make_context(X, y, "regression", params=PARAMS)
    with pytest.raises(ValueError):
        GBDTTrainer(ctx, n_rounds=0)
    with pytest.raises(ValueError):
        GBDTTrainer(ctx, learning_rate=0.0)
    with pytest.raises(RuntimeError):
        GBDTTrainer(ctx, n_rounds=1).predict(np.zeros((1, 4)))


@pytest.mark.parametrize("kind", ["forest", "gbdt"])
def test_basic_ensembles_convert_from_the_party_holding_the_leaf_sums(monkeypatch, kind):
    """Algorithm 4's round-robin leaves the forest's votes and the GBDT's
    class-score sums with u_1, party 0: whichever party is the super
    client, party 0 broadcasts the predict call's ``mpc-convert`` batch, and
    the predictions are those of the run whose super client is party 0."""
    from repro.core import PivotConfig
    from repro.data import make_classification, vertical_partition
    from repro.federation import Federation
    from repro.network.wire import PartialDecryptionVector

    from tests.core.conftest import TEST_KEYSIZE, spy_on_bus

    X, y = make_classification(24, 4, n_classes=2, seed=11)
    predictions = {}
    for super_client in (0, 2):
        vp = vertical_partition(X, y, 3, task="classification", super_client=super_client)
        ctx = Federation.from_partition(
            vp, PivotConfig(keysize=TEST_KEYSIZE, tree=PARAMS, seed=8)
        )
        if kind == "forest":
            trainer = ForestTrainer(ctx, n_trees=2, seed=2).fit()
        else:
            trainer = GBDTTrainer(ctx, n_rounds=1, learning_rate=0.5).fit()
        spy = spy_on_bus(monkeypatch, ctx.bus)
        predictions[super_client] = trainer.predict(X[:6])
        batches = {
            sender
            for sender, receiver, tag, payload in spy
            if tag == "mpc-convert"
            and receiver is None
            and not isinstance(payload, PartialDecryptionVector)
        }
        assert batches == {0}
    assert np.array_equal(predictions[0], predictions[2])
