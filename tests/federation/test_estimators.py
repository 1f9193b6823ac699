"""All estimators train and predict through Federation, both protocols."""

import numpy as np
import pytest

from repro.core import DPConfig, PivotConfig
from repro.federation import (
    Federation,
    PivotClassifier,
    PivotForestClassifier,
    PivotGBDTClassifier,
    PivotGBDTRegressor,
    PivotLogisticClassifier,
    PivotRegressor,
)
from repro.tree import TreeParams

from tests.federation.conftest import make_federation, split_parties

SHALLOW = TreeParams(max_depth=1, max_splits=2)


@pytest.fixture(scope="module")
def feds(tiny_classification):
    """One basic and one enhanced classification federation, shared by the
    estimator tests (key generation is the expensive part)."""
    X, y = tiny_classification
    basic = make_federation(X, y, seed=3)
    enhanced = make_federation(X, y, protocol="enhanced", seed=3)
    yield {"basic": basic, "enhanced": enhanced}
    basic.close()
    enhanced.close()


@pytest.fixture(scope="module")
def feds_regression(tiny_regression):
    X, y = tiny_regression
    basic = make_federation(X, y, task="regression", seed=4)
    enhanced = make_federation(
        X, y, task="regression", protocol="enhanced", seed=4
    )
    yield {"basic": basic, "enhanced": enhanced}
    basic.close()
    enhanced.close()


# -- the five estimators, both protocols --------------------------------------


@pytest.mark.parametrize("protocol", ["basic", "enhanced"])
def test_classifier_both_protocols(feds, tiny_classification, protocol):
    X, y = tiny_classification
    fed = feds[protocol]
    clf = PivotClassifier(protocol=protocol).fit(fed)
    preds = clf.predict(fed.slices(X[:8]))
    assert preds.shape == (8,)
    assert set(preds) <= set(int(v) for v in y)
    assert 0.0 <= clf.score(X[:8], y[:8]) <= 1.0
    fed.assert_drained()


@pytest.mark.parametrize("protocol", ["basic", "enhanced"])
def test_regressor_both_protocols(feds_regression, tiny_regression, protocol):
    X, y = tiny_regression
    fed = feds_regression[protocol]
    reg = PivotRegressor(protocol=protocol).fit(fed)
    preds = reg.predict(X[:6])
    assert preds.dtype == np.float64
    assert np.all(np.abs(preds) <= np.abs(y).max() * 1.5 + 1.0)
    fed.assert_drained()


@pytest.mark.parametrize("protocol", ["basic", "enhanced"])
def test_forest_both_protocols(feds, tiny_classification, protocol):
    X, y = tiny_classification
    fed = feds[protocol]
    rf = PivotForestClassifier(
        n_trees=2, protocol=protocol, sample_seed=9
    ).fit(fed)
    preds = rf.predict(X[:5])
    assert set(preds) <= set(int(v) for v in y)
    assert len(rf.models_) == 2
    fed.assert_drained()


@pytest.mark.parametrize("protocol", ["basic", "enhanced"])
def test_gbdt_classifier_both_protocols(tiny_classification, protocol):
    X, y = tiny_classification
    X, y = X[:14], y[:14]
    with make_federation(X, y, protocol=protocol, params=SHALLOW, seed=6) as fed:
        gb = PivotGBDTClassifier(
            n_rounds=2, learning_rate=0.5, protocol=protocol
        ).fit(fed)
        preds = gb.predict(X[:5])
        assert set(preds) <= set(int(v) for v in y)
        fed.assert_drained()


@pytest.mark.parametrize("protocol", ["basic", "enhanced"])
def test_gbdt_regressor_both_protocols(tiny_regression, protocol):
    X, y = tiny_regression
    X, y = X[:14], y[:14]
    with make_federation(
        X, y, task="regression", protocol=protocol, params=SHALLOW, seed=8
    ) as fed:
        gb = PivotGBDTRegressor(
            n_rounds=2, learning_rate=0.5, protocol=protocol
        ).fit(fed)
        preds = gb.predict(X[:5])
        # Boosting over normalized labels stays in label range.
        assert np.all(np.abs(preds) <= np.abs(y).max() * 1.5 + 1.0)
        fed.assert_drained()


@pytest.mark.parametrize("protocol", ["basic", "enhanced"])
def test_logistic_both_protocols(feds, tiny_classification, protocol):
    """Logistic has no released model; both protocol values run (and are
    the same computation, documented in the estimator docstring)."""
    X, y = tiny_classification
    fed = feds[protocol]
    lr = PivotLogisticClassifier(
        n_epochs=1, batch_size=8, protocol=protocol
    ).fit(fed)
    probs = lr.predict_proba(X[:6])
    assert np.all((probs >= 0) & (probs <= 1))
    assert set(lr.predict(X[:6])) <= {0, 1}
    fed.assert_drained()


# -- input forms, fit targets -------------------------------------------------


def test_predict_accepts_party_slices_and_global_matrix(feds, tiny_classification):
    X, y = tiny_classification
    fed = feds["basic"]
    clf = PivotClassifier().fit(fed)
    via_global = clf.predict(X[:6])
    via_slices = clf.predict(fed.slices(X[:6]))
    assert list(via_global) == list(via_slices)


def test_fit_from_bare_party_list(tiny_classification):
    X, y = tiny_classification
    clf = PivotClassifier(keysize=256, tree=SHALLOW, seed=5)
    with clf:
        clf.fit(split_parties(X, y))
        assert clf._owns_federation
        assert clf.federation_.strict_locality  # default for owned federations
        assert clf.score(X[:8], y[:8]) >= 0.0


def test_multiclass_forest(tiny_multiclass):
    X, y = tiny_multiclass
    with make_federation(X, y, seed=10) as fed:
        rf = PivotForestClassifier(n_trees=2, sample_seed=2).fit(fed)
        assert rf.n_classes_ == 3
        assert set(rf.predict(X[:4])) <= {0, 1, 2}


# -- the uniform dp= / malicious= hooks ---------------------------------------


def test_dp_hook(tiny_classification):
    X, y = tiny_classification
    with make_federation(X, y, seed=15) as fed:
        clf = PivotClassifier(dp=DPConfig(epsilon=5.0)).fit(fed)
        assert clf.model_ is not None
        fed.assert_drained()


def test_malicious_hook_trains_and_matches_semi_honest(tiny_classification):
    X, y = tiny_classification
    X, y = X[:14], y[:14]
    parties = lambda: split_parties(X, y)
    honest = PivotClassifier(keysize=256, tree=SHALLOW, seed=2)
    audited = PivotClassifier(malicious=True, keysize=256, tree=SHALLOW, seed=2)
    with honest, audited:
        honest.fit(parties())
        audited.fit(parties())
        assert (
            honest.model_.structure_signature()
            == audited.model_.structure_signature()
        )


def test_malicious_requires_basic_protocol():
    with pytest.raises(ValueError, match="basic"):
        PivotClassifier(protocol="enhanced", malicious=True)


def test_malicious_requires_authenticated_setup(feds):
    clf = PivotClassifier(malicious=True)
    with pytest.raises(ValueError, match="authenticated"):
        clf.fit(feds["basic"])  # federation was not built with MACs


def test_logistic_rejects_tree_only_hooks():
    with pytest.raises(NotImplementedError):
        PivotLogisticClassifier(malicious=True)
    with pytest.raises(ValueError, match="tree-specific"):
        PivotLogisticClassifier(dp=DPConfig(1.0))


def test_gbdt_rejects_malicious():
    with pytest.raises(NotImplementedError):
        PivotGBDTClassifier(malicious=True)


# -- inherit-vs-override semantics --------------------------------------------


def test_estimator_inherits_federation_protocol_and_dp(tiny_classification):
    """Unspecified protocol/dp inherit the federation's configuration —
    defaults must never silently downgrade an enhanced/DP federation."""
    X, y = tiny_classification
    with make_federation(X, y, protocol="enhanced", seed=18) as fed:
        clf = PivotClassifier().fit(fed)  # no protocol argument
        assert clf.protocol_ == "enhanced"
        assert clf.model_.root.threshold is None  # hidden model: enhanced ran
    dp = DPConfig(epsilon=5.0)
    with make_federation(X, y, seed=18, dp=dp) as fed:
        clf = PivotClassifier().fit(fed)
        assert clf.dp_ is dp
        # An explicit dp=None overrides the federation's DP setting.
        clf2 = PivotClassifier(dp=None).fit(fed)
        assert clf2.dp_ is None


def test_setup_params_rejected_on_prepared_federation(feds):
    for est in (
        PivotClassifier(keysize=512),
        PivotClassifier(tree=SHALLOW),
        PivotClassifier(seed=1),
        PivotClassifier(config=PivotConfig()),
    ):
        with pytest.raises(ValueError, match="prepared"):
            est.fit(feds["basic"])


# -- validation ---------------------------------------------------------------


def test_task_mismatch_rejected(feds):
    with pytest.raises(ValueError, match="regression"):
        PivotRegressor().fit(feds["basic"])


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        PivotClassifier(protocol="quantum")


def test_fit_rejects_non_federation_input():
    with pytest.raises(TypeError):
        PivotClassifier().fit("not a federation")


def test_predict_before_fit_rejected():
    with pytest.raises(RuntimeError):
        PivotClassifier().predict(np.zeros((1, 4)))


def test_ragged_party_blocks_rejected(feds, tiny_classification):
    """Per-party blocks disagreeing on sample count must raise, not
    silently truncate (tree and logistic paths share the validation)."""
    X, y = tiny_classification
    fed = feds["basic"]
    clf = PivotClassifier().fit(fed)
    lr = PivotLogisticClassifier(n_epochs=1, batch_size=8).fit(fed)
    ragged = [X[:5, :2], X[:8, 2:]]
    with pytest.raises(ValueError, match="sample count"):
        clf.predict(ragged)
    with pytest.raises(ValueError, match="sample count"):
        lr.predict(ragged)


def test_federation_validation(tiny_classification):
    from repro.federation import Party

    X, y = tiny_classification
    with pytest.raises(ValueError, match="at least 2"):
        Federation([Party(X, labels=y)])
    with pytest.raises(ValueError, match="exactly one"):
        Federation([Party(X[:, :2]), Party(X[:, 2:])])
    with pytest.raises(ValueError, match="exactly one"):
        Federation([Party(X[:, :2], labels=y), Party(X[:, 2:], labels=y)])
    with pytest.raises(ValueError, match="sample count"):
        Federation([Party(X[:10, :2], labels=y[:10]), Party(X[:, 2:])])


def test_enhanced_override_runs_at_the_federations_keysize(tiny_classification):
    """The enhanced protocol needs no wider key than basic: a basic
    256-bit federation runs it on the estimator's switch alone, and
    predicts what its own basic fit predicts."""
    X, y = tiny_classification
    with make_federation(X, y, keysize=256, seed=1) as fed:
        basic = PivotClassifier().fit(fed)
        enhanced = PivotClassifier(protocol="enhanced").fit(fed)
        assert enhanced.protocol_ == "enhanced"
        assert enhanced.model_.root.threshold is None
        blocks = [X[:6, :2], X[:6, 2:]]
        assert list(enhanced.predict(blocks)) == list(basic.predict(blocks))
