"""Decryption sovereignty: threshold decryption really is threshold.

The full threshold structure (paper §2.1) admits no plaintext unless all
m clients participate.  These tests pin the reproduction to that claim in
its strongest deployment form:

* a :class:`DeployedFederation` never holds a dealer key or a remote
  party's ``d_share`` (distributed keygen; her share lives in her spawned
  process), and over a fit/predict window trains/predicts bit-identically
  to the dealer-keyed in-memory federation — every plaintext was
  reconstructed from the m share vectors the decrypt flow moved;
* the wire carries *real* share vectors (no placeholder zeros), and an
  in-memory federation never reads the dealer's key either;
* a missing or duplicated share vector raises;
* killing one party's process makes decryption fail loudly, within the
  transport's bounds — there is no key in this process to fall back on.
"""

import time

import pytest

from repro.analysis import opcount
from repro.core import PivotConfig
from repro.crypto.threshold import (
    combine_partial_vectors,
    generate_threshold_keypair,
)
from repro.data import make_classification, vertical_partition
from repro.federation import Federation, Party, PivotClassifier
from repro.federation.deployment import DeployedFederation
from repro.network.flows import record_threshold_decrypt
from repro.network.wire import PartialDecryptionVector
from repro.tree import TreeParams

CONFIG = PivotConfig(
    keysize=256, tree=TreeParams(max_depth=2, max_splits=2), seed=3
)


@pytest.fixture(scope="module")
def data():
    return make_classification(24, 4, n_classes=2, seed=11)


def _parties(X, y):
    return [Party(X[:, :2], labels=y), Party(X[:, 2:])]


def _fit(fed, rows):
    """fit + predict; bytes and rounds are this run's, not the federation's
    lifetime totals."""
    before = fed.cost_snapshot()
    clf = PivotClassifier(protocol="basic")
    with opcount.counting() as ops:
        clf.fit(fed)
        predictions = clf.predict(rows)
    fed.assert_drained()
    cost = fed.cost_snapshot()
    return {
        "signature": clf.model_.structure_signature(),
        "predictions": list(predictions),
        "ops": dict(ops),
        "bytes_measured": (
            cost["bus"]["bytes_measured"] - before["bus"]["bytes_measured"]
        ),
        "rounds": cost["bus"]["rounds"] - before["bus"]["rounds"],
        "conversions": {
            key: n - before["conversions"][key]
            for key, n in cost["conversions"].items()
        },
    }


def _run(federation, rows):
    with federation as fed:
        return _fit(fed, rows)


@pytest.fixture(scope="module")
def deployed(data):
    X, y = data
    with DeployedFederation(_parties(X, y), config=CONFIG) as fed:
        yield fed


# -- no key material but her own ---------------------------------------------


def test_deployed_training_is_bit_identical_without_dealer_key(data, deployed):
    """The acceptance bar: fit/predict over a deployment whose process
    holds no dealer key and no remote ``d_share`` matches the dealer-keyed
    in-memory run on model signature, predictions, measured bytes,
    rounds, and Ce/Cd (plus Cs/Cc) op counts."""
    X, y = data
    tp = deployed.threshold
    assert tp._private_key is None
    assert tp.shares[0] is not None
    assert tp.shares[1] is None
    assert deployed.parties[1].key_share is None
    # Decrypting without the party's process is impossible in this one.
    ct = tp.public_key.encrypt(7)
    with pytest.raises(RuntimeError, match="owners' processes"):
        tp.joint_decrypt(ct)
    baseline = _run(Federation(_parties(X, y), config=CONFIG), X[:6])
    assert _fit(deployed, X[:6]) == baseline


# -- real shares on the wire -------------------------------------------------


def test_combine_flow_carries_real_share_vectors(data):
    """The flow's vectors are the actual c^{d_i} values: non-zero, and
    sufficient on their own to reconstruct the plaintext."""
    X, y = data
    partition = vertical_partition(X, y, 2)
    with Federation.from_partition(partition, CONFIG) as ctx:
        ct = ctx.threshold.public_key.encrypt(41)
        vectors = record_threshold_decrypt(ctx.bus, [ct], tag="threshold-decrypt")
        ctx.bus.assert_drained()
    assert [v.party_index for v in vectors] == [0, 1]
    assert all(value != 0 for v in vectors for value in v.values)
    assert combine_partial_vectors(
        ctx.threshold.public_key, vectors, 2
    ) == [41]


def test_deployed_decryption_reconstructs_from_worker_shares(deployed):
    """An orchestrator-side joint decryption: the only way the plaintext
    can appear is via the spawned party's share vector."""
    value = deployed.encoder.encrypt(6.25)
    assert deployed.joint_decrypt_batch([value], tag="test") == [pytest.approx(6.25)]
    deployed.assert_drained()


def test_nothing_reads_the_dealer_key(data):
    """An in-memory federation whose bundle loses the dealer's private key
    straight after keygen fits and predicts bit-identically to an untouched
    one: every plaintext comes from the m share vectors."""
    X, y = data
    untouched = _run(Federation(_parties(X, y), config=CONFIG), X[:6])
    keyless = Federation(_parties(X, y), config=CONFIG)
    keyless.threshold._private_key = None
    assert _run(keyless, X[:6]) == untouched


# -- missing / duplicated shares ---------------------------------------------


def test_missing_share_vector_raises():
    tp = generate_threshold_keypair(3, 256)
    ct = tp.encrypt(5)
    vectors = [
        PartialDecryptionVector(
            i, (tp.shares[i].partial_decrypt(ct).value,)
        )
        for i in range(3)
    ]
    assert combine_partial_vectors(tp.public_key, vectors, 3) == [5]
    with pytest.raises(ValueError, match="all 3 share vectors"):
        combine_partial_vectors(tp.public_key, vectors[:2], 3)


def test_duplicated_share_vector_raises():
    tp = generate_threshold_keypair(3, 256)
    ct = tp.encrypt(5)
    vectors = [
        PartialDecryptionVector(
            i, (tp.shares[i].partial_decrypt(ct).value,)
        )
        for i in (0, 1, 1)
    ]
    with pytest.raises(ValueError, match="needs all 3 shares"):
        combine_partial_vectors(tp.public_key, vectors, 3)


def test_ragged_share_vectors_raise():
    tp = generate_threshold_keypair(2, 256)
    vectors = [
        PartialDecryptionVector(0, (1, 2)),
        PartialDecryptionVector(1, (1,)),
    ]
    with pytest.raises(ValueError, match="batch length"):
        combine_partial_vectors(tp.public_key, vectors, 2)


# -- a dead party kills decryption, loudly -----------------------------------


def test_dead_worker_fails_decryption_not_silent_fallback(data):
    X, y = data
    with DeployedFederation(_parties(X, y), config=CONFIG) as fed:
        # Boot got the deployment's generous bounds; the loud failure under
        # test concerns the post-kill barrier, so tighten this transport's
        # bounds now (SocketTransport reads them per call).
        transport = fed.bus.transport
        transport.timeout = 3.0
        transport.connect_timeout = 5.0
        process = fed.processes[1]
        process.kill()
        process.join(5.0)
        value = fed.encoder.encrypt(1.5)
        start = time.monotonic()
        with pytest.raises((LookupError, OSError)):
            fed.joint_decrypt_batch([value], tag="test")
        assert time.monotonic() - start < 30.0
        # No plaintext was produced by any hidden dealer path.
        assert all(tag != "test" for tag, _ in fed.revealed)
        fed.bus.reset(drain=True)
