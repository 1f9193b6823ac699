"""Vertical logistic regression (§7.3)."""

import numpy as np
import pytest

from repro.core import LogisticTrainer

from tests.core.conftest import make_context, party_columns, plaintext_logistic_proba

#: Largest gap between a secure probability and the plaintext oracle's: the
#: weights are rounded to 2^-16 at every epoch and σ is a fixed-point
#: exp and division (3e-5 measured on these fixtures).
ORACLE_TOLERANCE = 1e-3


@pytest.fixture(scope="module")
def separable():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(24, 4))
    y = (X[:, 0] > 0).astype(np.int64)
    return X, y


def test_learns_separable_data(separable):
    X, y = separable
    ctx = make_context(X, y, "classification", m=2, seed=1)
    lr = LogisticTrainer(ctx, learning_rate=0.5, n_epochs=4, batch_size=8)
    lr.fit()
    assert (lr.predict(X) == y).mean() >= 0.9
    oracle = plaintext_logistic_proba(
        X, y, party_columns(ctx), X, learning_rate=0.5, n_epochs=4, batch_size=8
    )
    assert np.abs(lr.predict_proba(X) - oracle).max() < ORACLE_TOLERANCE


def test_probabilities_in_range(separable):
    X, y = separable
    ctx = make_context(X, y, "classification", m=2, seed=2)
    lr = LogisticTrainer(ctx, n_epochs=2, batch_size=8).fit()
    probs = lr.predict_proba(X[:8])
    assert np.all(probs >= 0.0) and np.all(probs <= 1.0)
    oracle = plaintext_logistic_proba(
        X, y, party_columns(ctx), X[:8], n_epochs=2, batch_size=8
    )
    assert np.abs(probs - oracle).max() < ORACLE_TOLERANCE


@pytest.mark.parametrize("m, epochs, batch_size", [(2, 1, 16), (3, 2, 5)])
def test_probabilities_match_the_plaintext_oracle(separable, m, epochs, batch_size):
    """σ(x·θ) itself, not only its side of ½: the scores reach the secure
    sigmoid at their own scale (a sum labelled F bits too shallow once
    made every probability σ(±6))."""
    X, y = separable
    ctx = make_context(X, y, "classification", m=m, seed=6)
    lr = LogisticTrainer(ctx, n_epochs=epochs, batch_size=batch_size).fit()
    probs = lr.predict_proba(X)
    oracle = plaintext_logistic_proba(
        X, y, party_columns(ctx), X, n_epochs=epochs, batch_size=batch_size
    )
    assert np.abs(probs - oracle).max() < ORACLE_TOLERANCE
    assert 0.05 < probs.min() and probs.max() < 0.95  # none saturated


def test_weights_never_plaintext(separable):
    """Weights exist only as ciphertexts during and after training."""
    from repro.crypto.encoding import EncryptedNumber

    X, y = separable
    ctx = make_context(X, y, "classification", m=2, seed=3)
    lr = LogisticTrainer(ctx, n_epochs=1, batch_size=8).fit()
    for block in lr.weights:
        for w in block:
            assert isinstance(w, EncryptedNumber)


def test_transcript_contains_only_predictions(separable):
    X, y = separable
    ctx = make_context(X, y, "classification", m=2, seed=4)
    lr = LogisticTrainer(ctx, n_epochs=1, batch_size=8).fit()
    lr.predict(X[:2])
    for tag, _ in ctx.revealed:
        assert tag == "lr-prediction"


def test_validation(separable):
    X, y = separable
    ctx = make_context(X, y, "classification", m=2, seed=5)
    with pytest.raises(ValueError):
        LogisticTrainer(ctx, learning_rate=0.0)
    with pytest.raises(RuntimeError):
        LogisticTrainer(ctx).predict(X)
    from repro.data import make_regression

    Xr, yr = make_regression(20, 4, seed=6)
    ctx_r = make_context(Xr, yr, "regression", m=2)
    with pytest.raises(ValueError):
        LogisticTrainer(ctx_r)


def test_multiclass_rejected():
    from repro.data import make_classification

    X, y = make_classification(20, 4, n_classes=3, seed=7)
    ctx = make_context(X, y, "classification", m=2)
    with pytest.raises(ValueError):
        LogisticTrainer(ctx).fit()
