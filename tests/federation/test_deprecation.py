"""The flat-API shims: warn, forward, and change nothing.

The acceptance bar: old-style ``PivotDecisionTree(ctx).fit()`` +
``predict_batch(...)`` must emit ``DeprecationWarning`` and produce
bit-identical models/predictions vs the new facade on a fixed seed — with
identical Ce/Cd op counts and identical measured bus bytes.
"""

import numpy as np
import pytest

from repro.analysis import opcount
from repro.core import (
    PivotConfig,
    PivotContext,
    PivotDecisionTree,
    PivotGBDT,
    PivotLogisticRegression,
    PivotRandomForest,
    predict_basic,
    predict_batch,
    predict_enhanced,
)
from repro.data import vertical_partition
from repro.federation import Federation, PivotClassifier
from repro.tree import TreeParams

from tests.federation.conftest import split_parties

PARAMS = TreeParams(max_depth=2, max_splits=2)


def _config(protocol="basic", keysize=256):
    return PivotConfig(keysize=keysize, tree=PARAMS, seed=3, protocol=protocol)


@pytest.fixture(scope="module")
def data(tiny_classification):
    return tiny_classification


# -- every shim warns ---------------------------------------------------------


def test_every_legacy_entry_point_warns(data, tiny_regression):
    X, y = data
    vp = vertical_partition(X, y, 2, task="classification")
    with PivotContext(vp, _config()) as ctx:
        with pytest.warns(DeprecationWarning, match="PivotDecisionTree"):
            model = PivotDecisionTree(ctx).fit()
        with pytest.warns(DeprecationWarning, match="predict_batch"):
            predict_batch(model, ctx, X[:2])
        with pytest.warns(DeprecationWarning, match="predict_basic"):
            predict_basic(model, ctx, X[0])
        with pytest.warns(DeprecationWarning, match="PivotRandomForest"):
            PivotRandomForest(ctx, n_trees=1)
        with pytest.warns(DeprecationWarning, match="PivotGBDT"):
            PivotGBDT(ctx, n_rounds=1)
        with pytest.warns(DeprecationWarning, match="PivotLogisticRegression"):
            PivotLogisticRegression(ctx)

    Xr, yr = tiny_regression
    vpr = vertical_partition(Xr, yr, 2, task="regression")
    with PivotContext(
        vpr, _config(protocol="enhanced")
    ) as ctx_enh:
        with pytest.warns(DeprecationWarning):
            enh_model = PivotDecisionTree(ctx_enh).fit()
        with pytest.warns(DeprecationWarning, match="predict_enhanced"):
            predict_enhanced(enh_model, ctx_enh, Xr[0])


# -- bit-identical + cost-identical vs the facade -----------------------------


@pytest.mark.parametrize("protocol", ["basic", "enhanced"])
def test_legacy_and_facade_are_identical(data, protocol):
    """Same data, same seed: identical tree, identical predictions,
    identical Ce/Cd op counts, identical measured bus bytes."""
    X, y = data
    rows = X[:6]

    # Legacy path: context + deprecated entry points.
    vp = vertical_partition(X, y, 2, task="classification")
    with PivotContext(vp, _config(protocol)) as ctx:
        with opcount.counting() as legacy_ops:
            with pytest.warns(DeprecationWarning):
                legacy_model = PivotDecisionTree(ctx).fit()
            with pytest.warns(DeprecationWarning):
                legacy_preds = predict_batch(legacy_model, ctx, rows, protocol)
        legacy_cost = ctx.cost_snapshot()

    # Facade path: Federation + estimator, same config values.
    parties = split_parties(X, y)
    with Federation(
        parties, config=_config(protocol)
    ) as fed:
        clf = PivotClassifier(protocol=protocol)
        with opcount.counting() as facade_ops:
            clf.fit(fed)
            facade_preds = clf.predict(rows)
        facade_cost = fed.cost_snapshot()

    assert (
        legacy_model.structure_signature()
        == clf.model_.structure_signature()
    )
    assert list(legacy_preds) == list(facade_preds)
    # Ce/Cd (and Cs/Cc) op counts identical.
    assert dict(legacy_ops) == dict(facade_ops)
    # Measured wire bytes identical, per tag and in total.
    assert (
        legacy_cost["bus"]["bytes_measured"]
        == facade_cost["bus"]["bytes_measured"]
    )
    assert legacy_cost["bus"]["by_tag"] == facade_cost["bus"]["by_tag"]
    assert (
        legacy_cost["conversions"]["threshold_decryptions"]
        == facade_cost["conversions"]["threshold_decryptions"]
    )


def test_legacy_names_still_importable_from_package_root():
    import repro

    for name in (
        "PivotDecisionTree",
        "PivotRandomForest",
        "PivotGBDT",
        "PivotLogisticRegression",
        "predict_basic",
        "predict_batch",
        "predict_enhanced",
    ):
        assert hasattr(repro, name)
