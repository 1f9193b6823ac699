"""End-to-end reconciliation: measured bytes == formula bytes on real runs.

The tentpole guarantee: every byte the Pivot core protocols account comes
from a serialized payload (``bytes_measured``), and the codec's arithmetic
size formulas (``bytes_estimated``) agree exactly.  Training and
prediction runs of both protocols are the integration surface — if any
call site regresses to a hand-maintained estimate, or the wire format and
its size formula drift apart, these tests fail.
"""

import numpy as np
import pytest

from repro.core import TreeTrainer, run_predict_batch

from tests.core.conftest import make_context


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(14, 3))
    y = (X[:, 0] + 0.3 * X[:, 1] > 0).astype(int)
    return X, y


def _assert_reconciled(bus):
    snap = bus.snapshot()
    assert snap["bytes_measured"] > 0
    # measured == corrected-formula bytes, and nothing on this bus came
    # from the legacy estimate API.
    assert snap["bytes_measured"] == snap["bytes_estimated"]
    assert snap["bytes"] == snap["bytes_measured"]
    # Every byte is attributed to a protocol phase.
    assert sum(snap["by_tag"].values()) == snap["bytes"]
    return snap


def test_basic_training_and_prediction_reconcile(data):
    X, y = data
    ctx = make_context(X, y, "classification")
    model = TreeTrainer(ctx).fit()
    run_predict_batch(model, ctx, X[:3])
    snap = _assert_reconciled(ctx.bus)
    expected_tags = {
        "mask-vector", "label-vectors", "split-stats",
        "mpc-convert", "threshold-decrypt", "prediction-vector",
    }
    assert expected_tags <= set(snap["by_tag"])


def test_enhanced_training_and_prediction_reconcile(data):
    X, y = data
    ctx = make_context(X, y, "classification", protocol="enhanced", keysize=512)
    model = TreeTrainer(ctx).fit()
    run_predict_batch(model, ctx, X[:2], protocol="enhanced")
    snap = _assert_reconciled(ctx.bus)
    # Eq. 10's per-sample conversions dominate the enhanced protocol (§6).
    assert "eq10" in snap["by_tag"]


def test_regression_training_reconciles():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(12, 3))
    y = X[:, 0] * 40.0 + rng.normal(scale=0.1, size=12)
    ctx = make_context(X, y, "regression")
    model = TreeTrainer(ctx).fit()
    run_predict_batch(model, ctx, X[:2])
    _assert_reconciled(ctx.bus)
