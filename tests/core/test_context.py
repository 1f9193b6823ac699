"""PivotContext / PivotConfig / label providers."""

from dataclasses import fields

import numpy as np
import pytest

from repro.core import PivotConfig, PivotContext
from repro.core.config import DPConfig
from repro.core.labels import EncryptedLabelProvider, PlaintextLabelProvider
from repro.data import make_classification, vertical_partition
from repro.tree import TreeParams

from tests.core.conftest import make_context


def test_config_validation():
    with pytest.raises(ValueError):
        PivotConfig(gain_mode="fastest")
    with pytest.raises(ValueError):
        PivotConfig(protocol="hybrid")
    with pytest.raises(ValueError):
        PivotConfig(keysize=64)
    with pytest.raises(ValueError):
        PivotConfig(tree=TreeParams(max_depth=0))


def test_config_fields_are_these_twelve():
    """Every field is a configuration the tests must cover: a new knob
    has to show up as a diff here."""
    assert {f.name for f in fields(PivotConfig)} == {
        "keysize", "frac_bits", "mpc_k", "kappa", "tree", "gain_mode",
        "protocol", "dp", "authenticated_mpc", "seed", "keygen",
        "strict_locality",
    }


def test_context_setup(small_classification):
    X, y = small_classification
    ctx = make_context(X, y, "classification")
    assert ctx.n_clients == 3
    assert ctx.n_samples == len(y)
    assert ctx.super_client == 0
    assert len(ctx.clients) == 3
    assert ctx.ciphertext_bytes == 2 * (256 // 8)


def test_clients_have_candidate_splits(small_classification):
    X, y = small_classification
    ctx = make_context(X, y, "classification")
    for client in ctx.clients:
        assert client.n_features >= 1
        for j in range(client.n_features):
            assert 0 < client.n_splits(j) <= ctx.config.tree.max_splits


def test_indicator_vectors(small_classification):
    X, y = small_classification
    ctx = make_context(X, y, "classification")
    client = ctx.clients[1]
    v = client.indicator(0, 0)
    threshold = client.split_values[0][0]
    with client.local():  # raw column read = the client's own computation
        column = client.features[:, 0]
    assert np.array_equal(v, (column <= threshold).astype(int))
    matrix = client.indicator_matrix(0)
    assert matrix.shape == (ctx.n_samples, client.n_splits(0))


def test_split_identifiers_enumeration(small_classification):
    X, y = small_classification
    ctx = make_context(X, y, "classification")
    available = [list(range(c.n_features)) for c in ctx.clients]
    ids = ctx.split_identifiers(available)
    # Sorted by (client, feature, split) — the shared tie-break order.
    assert ids == sorted(ids)
    total = sum(
        c.n_splits(j) for c in ctx.clients for j in range(c.n_features)
    )
    assert len(ids) == total
    # Restricting availability restricts the enumeration.
    restricted = ctx.split_identifiers([[0], [], []])
    assert all(ci == 0 and j == 0 for ci, j, _ in restricted)


def test_open_bit_rejects_non_bits(small_classification):
    X, y = small_classification
    ctx = make_context(X, y, "classification")
    with pytest.raises(ValueError):
        ctx.open_bit(ctx.engine.share_public(7), tag="x")


def test_joint_decrypt_logs_reveal(small_classification):
    X, y = small_classification
    ctx = make_context(X, y, "classification")
    value = ctx.encoder.encrypt(3.5)
    assert ctx.joint_decrypt(value, tag="test-value") == pytest.approx(3.5)
    assert ("test-value", 3.5) in ctx.revealed


# -- label providers -----------------------------------------------------------


def test_plaintext_provider_classification(small_classification):
    X, y = small_classification
    ctx = make_context(X, y, "classification")
    provider = PlaintextLabelProvider(ctx, y, "classification")
    assert provider.n_classes == 2
    # One 0/1 indicator row per class but the last, whose statistics are
    # the count minus the others' and whose vector is never built.
    assert provider.n_vectors == 1
    assert np.array_equal(provider.betas[0], (y == 0).astype(int))


def test_plaintext_provider_regression_normalizes():
    rng = np.random.default_rng(0)
    y = rng.normal(scale=100.0, size=20)
    X = rng.normal(size=(20, 4))
    ctx = make_context(X, y, "regression")
    provider = PlaintextLabelProvider(ctx, y, "regression")
    assert provider.label_scale == pytest.approx(float(np.max(np.abs(y))))
    assert np.max(np.abs(provider.betas[0])) <= 1.0
    assert np.allclose(provider.betas[1], provider.betas[0] ** 2)


def test_plaintext_provider_gammas_decrypt_to_masked_labels(small_classification):
    X, y = small_classification
    ctx = make_context(X, y, "classification")
    provider = PlaintextLabelProvider(ctx, y, "classification")
    mask = np.zeros(len(y), dtype=np.int64)
    mask[:5] = 1
    alpha = ctx.encrypt_indicator(mask)
    gammas = provider.gammas(alpha, None)
    gamma0 = [ctx.threshold.joint_decrypt(g.ciphertext) for g in gammas[0]]
    expected = (mask * (y == 0)).astype(int)
    assert gamma0 == list(expected)


def test_encrypted_provider_passthrough(small_classification):
    X, y = small_classification
    ctx = make_context(X, y, "regression")
    g1 = [ctx.encoder.encrypt(0.5)]
    g2 = [ctx.encoder.encrypt(0.25)]
    provider = EncryptedLabelProvider(ctx, g1, g2)
    assert provider.gammas(None, None) == [g1, g2]  # root
    node_state = [[ctx.encoder.encrypt(1.0)], [ctx.encoder.encrypt(1.0)]]
    assert provider.gammas(None, node_state) == node_state
    assert provider.rides_with_alpha


def test_dp_config_validation():
    from repro.core.dp import DPMechanisms
    from repro.mpc import FixedPointOps, MPCEngine

    with pytest.raises(ValueError):
        DPMechanisms(
            FixedPointOps(MPCEngine(2, seed=0)), DPConfig(epsilon=-1.0)
        )
