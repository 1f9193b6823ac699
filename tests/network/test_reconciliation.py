"""End-to-end reconciliation: measured bytes == formula bytes on real runs.

Every byte the bus accounts comes from a serialized payload
(``bytes_measured``), and the codec's arithmetic size formulas
(``bytes_estimated``) agree exactly.  Training and prediction runs of both
protocols, a malicious-model fit and the NP-DT baseline are the
integration surface — if the wire format and its size formula drift
apart, these tests fail.
"""

import numpy as np
import pytest

from repro.baselines import NpdDecisionTree
from repro.core import MaliciousTreeTrainer, TreeTrainer, run_predict_batch
from repro.data import vertical_partition
from repro.tree import TreeParams

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
        "mask-vector", "split-stats", "threshold-decrypt", "prediction-vector",
    }
    assert expected_tags <= set(snap["by_tag"])
    # The label vectors ride with the mask vectors, and a tree level's
    # decryption rides its split-stats exchange.
    assert not {"label-vectors", "mpc-convert"} & set(snap["by_tag"])


def test_enhanced_training_and_prediction_reconcile(data):
    X, y = data
    ctx = make_context(X, y, "classification", protocol="enhanced", keysize=512)
    model = TreeTrainer(ctx).fit()
    run_predict_batch(model, ctx, X[:2], protocol="enhanced")
    snap = _assert_reconciled(ctx.bus)
    # Eq. 10's per-sample conversions dominate the enhanced protocol (§6);
    # its label vectors are published per node, in the level's split-stats
    # request.
    assert {"eq10", "split-stats"} <= set(snap["by_tag"])
    assert "label-vectors" not in snap["by_tag"]


def test_regression_training_reconciles():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(12, 3))
    y = X[:, 0] * 40.0 + rng.normal(scale=0.1, size=12)
    ctx = make_context(X, y, "regression")
    model = TreeTrainer(ctx).fit()
    run_predict_batch(model, ctx, X[:2])
    _assert_reconciled(ctx.bus)


def test_malicious_training_reconciles(data):
    """The malicious model charges only what it sends: its conversions."""
    X, y = data
    ctx = make_context(
        X, y, "classification", params=TreeParams(max_depth=2, max_splits=2),
        authenticated_mpc=True,
    )
    MaliciousTreeTrainer(ctx).fit()
    _assert_reconciled(ctx.bus)


def test_a_malicious_fit_sends_no_proof_traffic(data):
    """Commitments and proofs are checked centrally and never sent, so the
    bus carries the fit's conversions and nothing else."""
    X, y = data
    ctx = make_context(
        X, y, "classification", params=TreeParams(max_depth=2, max_splits=2),
        authenticated_mpc=True,
    )
    MaliciousTreeTrainer(ctx).fit()
    assert set(ctx.bus.by_tag) == {"mpc-convert"}
    assert ctx.conversions.threshold_decryptions > 0


def test_npd_dt_training_reconciles(data):
    X, y = data
    npd = NpdDecisionTree(vertical_partition(X, y, 3, task="classification"))
    npd.fit()
    _assert_reconciled(npd.bus)
