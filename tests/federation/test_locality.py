"""The enforced party boundary: LocalView / as_party semantics and the
end-to-end guarantee that training succeeds under strict locality while
cross-party raw reads raise."""

import numpy as np
import pytest

from repro.core import PivotConfig, TreeTrainer
from repro.data import vertical_partition
from repro.federation import (
    Federation,
    LocalityError,
    LocalView,
    as_party,
    current_party,
)

from tests.federation.conftest import PARAMS, make_federation


# -- primitives ---------------------------------------------------------------


def test_scope_stack_nests():
    assert current_party() is None
    with as_party(1):
        assert current_party() == 1
        with as_party(2):
            assert current_party() == 2  # innermost wins
        assert current_party() == 1
    assert current_party() is None


def test_scope_rejects_negative_index():
    with pytest.raises(ValueError):
        with as_party(-1):
            pass


def test_local_view_strict_blocks_unscoped_and_cross_party_reads():
    view = LocalView(np.arange(6).reshape(2, 3), owner=1)
    # Metadata stays public.
    assert view.shape == (2, 3)
    assert len(view) == 2
    with pytest.raises(LocalityError, match="outside any party scope"):
        view[0, 0]
    with pytest.raises(LocalityError, match="at party 0"):
        with as_party(0):
            view.read()
    with pytest.raises(LocalityError):
        np.asarray(view)  # __array__ is guarded too
    with as_party(1):
        assert view[1, 0] == 3
        assert view.read().shape == (2, 3)


def test_local_view_array_protocol_copies_by_default():
    """np.array/np.asarray on a view must not alias the backing store —
    a caller-side mutation would corrupt the party's training columns."""
    backing = np.arange(6, dtype=np.float64).reshape(2, 3)
    view = LocalView(backing, owner=0)
    with as_party(0):
        copied = np.array(view)
        copied[0, 0] = 999.0
        assert backing[0, 0] == 0.0
        # An explicit no-copy request aliases (the read() contract)...
        aliased = np.asarray(view, copy=False)
        assert aliased is backing
        # ...but cannot be combined with a dtype conversion.
        with pytest.raises(ValueError, match="copy=False"):
            view.__array__(dtype=np.int64, copy=False)


def test_explicit_config_still_enforces(tiny_classification):
    """Every federation guards raw reads, however it was built: a party
    list with a custom PivotConfig, and a partition through
    ``from_partition``.  An unscoped read of another party's features or
    of the labels raises."""
    from tests.federation.conftest import split_parties

    X, y = tiny_classification
    config = PivotConfig(keysize=256, tree=PARAMS, seed=7)
    vp = vertical_partition(X, y, 2, task="classification")
    for fed in (
        Federation(split_parties(X, y), config=config),
        Federation.from_partition(vp, config),
    ):
        with fed:
            with pytest.raises(LocalityError):
                fed.parties[1].features[0]
            with pytest.raises(LocalityError):
                fed.clients[1].features.read()
            with pytest.raises(LocalityError):
                fed.labels[0]
            with pytest.raises(LocalityError):
                np.asarray(fed.labels)


# -- the federation guarantee -------------------------------------------------


@pytest.fixture(scope="module")
def strict_fed(tiny_classification):
    X, y = tiny_classification
    fed = make_federation(X, y, seed=3)
    yield fed
    fed.close()


def test_party_cannot_read_another_partys_columns(strict_fed):
    """The acceptance property: a non-super-client party's columns are
    unreadable from anywhere but her own scope."""
    fed = strict_fed
    other = fed.parties[1]
    with pytest.raises(LocalityError):
        other.features[0]
    with pytest.raises(LocalityError):
        with fed.parties[0].local():  # the super client is not exempt
            other.features.read()
    with other.local():
        assert other.features.read().shape[1] == other.n_features


def test_labels_are_super_client_only(strict_fed):
    fed = strict_fed
    ctx = fed
    with pytest.raises(LocalityError):
        ctx.labels[0]
    with pytest.raises(LocalityError):
        with as_party(1):
            ctx.labels.read()
    with as_party(fed.super_client):
        assert len(ctx.labels.read()) == ctx.n_samples
    # The sanctioned path reads as the super client.
    assert len(ctx.read_labels()) == ctx.n_samples


def test_training_succeeds_under_strict_locality(strict_fed, tiny_classification):
    """Every core path is properly scoped: full training + prediction run
    with enforcement on, and the result matches the same partition
    federated through ``from_partition`` and the plaintext walk."""
    X, y = tiny_classification
    fed = strict_fed
    model = TreeTrainer(fed).fit()
    from repro.core import run_predict_batch

    preds = list(run_predict_batch(model, fed, X[:8]))
    assert preds == list(model.predict(X[:8]))

    vp = vertical_partition(X, y, 2, task="classification")
    config = PivotConfig(keysize=256, tree=PARAMS, seed=3)
    with Federation.from_partition(vp, config) as other:
        other_model = TreeTrainer(other).fit()
        assert model.structure_signature() == other_model.structure_signature()
        assert preds == list(run_predict_batch(other_model, other, X[:8]))


def test_enhanced_training_succeeds_under_strict_locality(tiny_classification):
    X, y = tiny_classification
    with make_federation(X, y, protocol="enhanced", seed=5) as fed:
        model = TreeTrainer(fed).fit()
        from repro.core import run_predict_batch

        (pred,) = run_predict_batch(model, fed, X[0], "enhanced")
        assert pred in set(int(v) for v in y)
        fed.assert_drained()


def test_party_binding(strict_fed):
    fed = strict_fed
    for i, party in enumerate(fed.parties):
        assert party.index == i
        assert party.columns == fed.partition.columns_per_client[i]
        assert party.key_share is fed.threshold.shares[i]
        assert party.endpoint.index == i
    assert fed.parties[fed.super_client].is_super
    assert sum(p.holds_labels for p in fed.parties) == 1
