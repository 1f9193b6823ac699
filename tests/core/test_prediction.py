"""Distributed prediction, Algorithm 4 (§4.3)."""

import numpy as np
import pytest

from repro.core import TreeTrainer, run_predict_batch
from repro.core.prediction import (
    encrypted_leaf_sums,
    global_rows_to_party_slices,
    predict_basic_encrypted_batch,
)
from repro.tree import TreeParams

from tests.core.conftest import make_context


@pytest.fixture(scope="module")
def trained(small_classification):
    X, y = small_classification
    ctx = make_context(X, y, "classification")
    model = TreeTrainer(ctx).fit()
    return X, y, ctx, model


def test_matches_centralized_prediction(trained):
    X, _, ctx, model = trained
    secure = run_predict_batch(model, ctx, X[:10])
    plain = model.predict(X[:10])  # centralized walk over the same tree
    assert list(secure) == list(plain)


def test_single_sample(trained):
    X, _, ctx, model = trained
    assert run_predict_batch(model, ctx, X[0])[0] == model.predict_row(X[0])


def test_encrypted_prediction_decrypts_to_plain(trained):
    X, _, ctx, model = trained
    (encrypted,) = predict_basic_encrypted_batch(
        model, ctx, global_rows_to_party_slices(ctx, X[3])
    )
    (value,) = ctx.joint_decrypt_batch([encrypted], tag="test")
    assert int(round(value)) == model.predict_row(X[3])


def _eta(ctx, model, row):
    """[η] over *every* leaf for one row, as u_1 holds it after the
    round-robin: the primitive with unit coefficient vectors."""
    leaves = list(range(model.n_internal + 1))
    units = [[int(i == j) for j in leaves] for i in leaves]
    (eta,) = encrypted_leaf_sums(
        model, ctx, global_rows_to_party_slices(ctx, row), leaves, units
    )
    return eta


def test_eta_has_single_survivor(trained):
    """After all clients' updates exactly one [1] survives in [η]."""
    X, _, ctx, model = trained
    eta = _eta(ctx, model, X[0])
    opened = [
        ctx.threshold.joint_decrypt(e.ciphertext) for e in eta
    ]
    assert sorted(opened) == [0] * (len(eta) - 1) + [1]


def test_prediction_vector_size_is_leaf_count(trained, monkeypatch):
    """Asked for every leaf, each hop carries t + 1 ciphertexts per row;
    a single tree's prediction only the leaves that can change the answer."""
    X, _, ctx, model = trained
    sent = []
    real_send = ctx.bus.send_payload

    def send_payload(sender, receiver, payload, tag=""):
        if tag == "prediction-vector":
            sent.append(len(payload))
        return real_send(sender, receiver, payload, tag=tag)

    monkeypatch.setattr(ctx.bus, "send_payload", send_payload)
    leaves = model.n_internal + 1
    assert len(_eta(ctx, model, X[0])) == leaves
    assert sent == [leaves] * (ctx.n_clients - 1)
    del sent[:]
    labels = model.leaf_label_vector()
    travelling = leaves - max(labels.count(z) for z in set(labels))
    assert 0 < travelling <= leaves // 2
    run_predict_batch(model, ctx, X[:5])
    assert sent == [5 * travelling] * (ctx.n_clients - 1)


def test_regression_prediction(small_regression):
    X, y = small_regression
    ctx = make_context(X, y, "regression")
    model = TreeTrainer(ctx).fit()
    secure = run_predict_batch(model, ctx, X[:6])
    plain = model.predict(X[:6])
    assert np.allclose(secure, plain, atol=1e-3)


def test_tree_naming_no_party_is_refused(trained):
    """A centralized tree's nodes have owner -1: nobody to ask, and not an
    index into the per-party blocks."""
    from copy import deepcopy

    X, _, ctx, model = trained
    stray = deepcopy(model)
    stray.root.owner = -1
    with pytest.raises(ValueError, match="not one of the 3 parties"):
        run_predict_batch(stray, ctx, X[:1])
    ctx.bus.assert_drained()


def test_unknown_protocol_rejected(trained):
    X, _, ctx, model = trained
    with pytest.raises(ValueError):
        run_predict_batch(model, ctx, X[:1], protocol="quantum")


def test_predict_batch_single_decryption_fanout(trained):
    """Basic n-row prediction is ONE round-robin and ONE threshold-decryption
    flow over the outputs slot-packed at label width: m - 1 + 2 rounds per
    call and Cd = ceil(rows / slots) instead of one per row, same
    predictions, same per-row revealed log."""
    from repro.analysis import opcount

    X, _, ctx, model = trained
    m = ctx.n_clients
    labels = model.leaf_label_vector()
    assert set(labels) == {0, 1}
    travelling = len(labels) - max(labels.count(z) for z in (0, 1))
    # Binary labels are 1 bit wide: a slot is the bit and its sign offset.
    slots = (ctx.threshold.public_key.n.bit_length() - 1) // 2
    rows = np.tile(X, (4, 1))[: slots + 2]  # spills into a second ciphertext
    n = len(rows)
    packed = -(-n // slots)
    assert packed == 2
    rounds_before, decs_before = ctx.bus.rounds, ctx.conversions.threshold_decryptions
    revealed_before = len(ctx.revealed)
    with opcount.counting() as batch_ops:
        batched = run_predict_batch(model, ctx, rows)
    batch_rounds = ctx.bus.rounds - rounds_before
    batch_revealed = ctx.revealed[revealed_before:]
    assert ctx.conversions.threshold_decryptions - decs_before == packed
    rounds_before, revealed_before = ctx.bus.rounds, len(ctx.revealed)
    with opcount.counting() as serial_ops:
        serial = [run_predict_batch(model, ctx, row)[0] for row in rows]
    serial_rounds = ctx.bus.rounds - rounds_before
    assert list(batched) == serial == list(model.predict(rows))
    assert batch_revealed == ctx.revealed[revealed_before:]
    assert batch_ops["cd"] == packed and serial_ops["cd"] == n
    # Per row and travelling leaf: u_m's encryption, one re-mask per middle
    # party, one term of u_1's dot product.  Per row: adding z₀.  Packing
    # is a shift and an add per row under each ciphertext's top slot plus
    # one offset add and one re-mask per packed ciphertext — which a batch
    # of one pays per row, so the tallies coincide.
    assert batch_ops["ce"] == (
        m * n * travelling + n + 2 * (n - packed) + 2 * packed
    )
    assert serial_ops["ce"] == batch_ops["ce"]
    # m - 1 hops and the decryption flow's two rounds, per call.
    assert batch_rounds == m + 1
    assert serial_rounds == n * (m + 1)


def test_enhanced_regression_non_unit_scale():
    """Leaf predictions must come back in label units when the provider's
    normalisation scale is far from 1 (regression labels are trained on
    y / max|y|)."""
    rng = np.random.default_rng(2)
    X = rng.normal(size=(16, 3))
    y = (X[:, 0] * 2.0 + rng.normal(scale=0.05, size=16)) * 300.0
    params = TreeParams(max_depth=1, max_splits=2)
    ctx = make_context(
        X, y, "regression", keysize=512, protocol="enhanced", params=params
    )
    trainer = TreeTrainer(ctx)
    model = trainer.fit()
    assert trainer.provider.label_scale > 100.0
    basic_ctx = make_context(X, y, "regression", params=params)
    basic_model = TreeTrainer(basic_ctx).fit()
    for row in X[:4]:
        (secure,) = run_predict_batch(model, ctx, row, "enhanced")
        plain = basic_model.predict_row(row)
        assert secure == pytest.approx(plain, abs=5e-2 * max(1.0, abs(plain)))


def test_enhanced_mixed_leaf_scales_rejected():
    """The shared inner product sums over leaves, so mixed per-leaf scales
    cannot be applied after the fact — refuse instead of using scales[0]."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(14, 3))
    y = X[:, 0] * 10.0
    params = TreeParams(max_depth=1, max_splits=2)
    ctx = make_context(
        X, y, "regression", keysize=512, protocol="enhanced", params=params
    )
    model = TreeTrainer(ctx).fit()
    leaves = model.leaves()
    assert len(leaves) >= 2, "need a split for a meaningful mixed-scale model"
    leaves[0].hidden["label_scale"] = leaves[-1].hidden["label_scale"] * 2.0
    with pytest.raises(ValueError, match="mixed per-leaf label scales"):
        run_predict_batch(model, ctx, X[0], "enhanced")


def test_prediction_communication_scales_with_clients(small_classification):
    """Fig. 4g's driver: basic prediction cost grows with m (round-robin)."""
    X, y = small_classification
    params = TreeParams(max_depth=2, max_splits=2)
    costs = []
    for m in (2, 4):
        ctx = make_context(X, y, "classification", m=m, params=params)
        model = TreeTrainer(ctx).fit()
        ctx.bus.reset()
        run_predict_batch(model, ctx, X[0])
        costs.append(ctx.bus.bytes)
    assert costs[1] > costs[0]
