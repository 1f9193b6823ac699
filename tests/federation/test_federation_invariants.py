"""Every Federation constructor enforces the same invariants.

``from_partition`` used to bypass ``__init__`` via ``cls.__new__``, so a
1-party or label-less partition could build a "federation" violating the
exactly-one-super-client invariant.  Both constructors now run one shared
validation/assembly path.
"""

import pytest

from repro.core import PivotConfig
from repro.data import make_classification, vertical_partition
from repro.data.partition import VerticalPartition
from repro.federation import Federation, Party
from repro.tree import TreeParams

CONFIG = PivotConfig(keysize=256, tree=TreeParams(max_depth=1, max_splits=2), seed=5)


@pytest.fixture(scope="module")
def data():
    return make_classification(12, 4, n_classes=2, seed=21)


def _partition(X, y, **overrides):
    base = vertical_partition(X, y, 2, task="classification")
    fields = {
        "columns_per_client": base.columns_per_client,
        "local_features": base.local_features,
        "labels": base.labels,
        "super_client": base.super_client,
        "task": base.task,
    }
    fields.update(overrides)
    return VerticalPartition(**fields)


def test_from_partition_still_builds_valid_federations(data):
    X, y = data
    fed = Federation.from_partition(_partition(X, y), config=CONFIG)
    try:
        assert fed.n_parties == 2
        assert fed.super_client == 0
        assert all(p.is_bound for p in fed.parties)
    finally:
        fed.close()


def test_from_partition_rejects_single_party(data):
    X, y = data
    lonely = _partition(
        X,
        y,
        columns_per_client=((0, 1, 2, 3),),
        local_features=(X,),
    )
    with pytest.raises(ValueError, match="at least 2 parties"):
        Federation.from_partition(lonely, config=CONFIG)


def test_from_partition_rejects_labelless_partition(data):
    X, y = data
    unlabeled = _partition(X, y, labels=None)
    with pytest.raises(ValueError, match="exactly one party"):
        Federation.from_partition(unlabeled, config=CONFIG)


def test_from_partition_rejects_ragged_sample_counts(data):
    X, y = data
    base = vertical_partition(X, y, 2, task="classification")
    ragged = _partition(
        X,
        y,
        local_features=(base.local_features[0], base.local_features[1][:-2]),
    )
    with pytest.raises(ValueError, match="sample count"):
        Federation.from_partition(ragged, config=CONFIG)


def test_party_list_constructor_rejects_two_super_clients(data):
    X, y = data
    parties = [Party(X[:, :2], labels=y), Party(X[:, 2:], labels=y)]
    with pytest.raises(ValueError, match="exactly one party"):
        Federation(parties, config=CONFIG)


def test_endpoint_pending_goes_through_bus_api(data):
    X, y = data
    parties = [Party(X[:, :2], labels=y), Party(X[:, 2:])]
    fed = Federation(parties, config=CONFIG)
    try:
        a, b = (p.endpoint for p in fed.parties)
        assert a.pending() == b.pending() == 0
        with fed.bus.flow(0):
            a.send(1, fed.threshold.public_key.encrypt(1), tag="stats")
            assert b.pending() == 1
            assert a.pending() == 0
            b.receive(tag="stats")
            assert b.pending() == 0
        fed.assert_drained()
    finally:
        fed.close()
