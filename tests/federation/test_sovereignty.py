"""Decryption sovereignty: threshold decryption really is threshold.

The full threshold structure (paper §2.1) admits no plaintext unless all
m clients participate.  These tests pin the reproduction to that claim in
its strongest deployment form:

* a :class:`DeployedFederation` scrubs the dealer's withheld private key
  and the remote parties' ``d_share`` values after provisioning, and
  still trains/predicts bit-identically — every plaintext was
  reconstructed from the m share vectors the decrypt flow moved;
* the wire carries *real* share vectors (no placeholder zeros), and an
  in-memory federation never reads the dealer's key either;
* a missing or duplicated share vector raises;
* killing one worker makes decryption fail loudly (``RemoteOpError``) —
  there is no dealer key left to fall back on.
"""

import numpy as np
import pytest

from repro.analysis import opcount
from repro.core import PivotConfig
from repro.crypto.threshold import (
    combine_partial_vectors,
    generate_threshold_keypair,
)
from repro.data import make_classification, vertical_partition
from repro.federation import Federation, Party, PivotClassifier
from repro.federation.deployment import DeployedFederation, RemoteOpError
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


def _run(federation, rows):
    with federation as fed:
        clf = PivotClassifier(protocol="basic")
        with opcount.counting() as ops:
            clf.fit(fed)
            predictions = clf.predict(rows)
        fed.assert_drained()
        bus = fed.cost_snapshot()["bus"]
        return {
            "signature": clf.model_.structure_signature(),
            "predictions": list(predictions),
            "ops": dict(ops),
            "bytes_measured": bus["bytes_measured"],
            "rounds": bus["rounds"],
            "conversions": fed.cost_snapshot()["conversions"],
        }


# -- the scrub ---------------------------------------------------------------


def test_deployment_scrubs_dealer_key_material(data):
    X, y = data
    with DeployedFederation(_parties(X, y), config=CONFIG) as fed:
        tp = fed.threshold
        assert tp._private_key is None
        assert tp.scrubbed
        # Only the super client's own share remains in the orchestrator.
        assert tp.shares[0] is not None
        assert tp.shares[1] is None
        # The orchestrator-side Party handles gave up their copies too.
        assert fed.parties[1].key_share is None
        # Decrypting without the workers is impossible in this process.
        ct = tp.public_key.encrypt(7)
        with pytest.raises(RuntimeError, match="scrubbed"):
            tp.joint_decrypt(ct)
        with pytest.raises(RuntimeError, match="scrubbed"):
            tp.joint_decrypt_batch([ct])


def test_deployed_training_is_bit_identical_without_dealer_key(data):
    """The acceptance bar: fit/predict over a scrubbed deployment matches
    the in-memory run on model signature, predictions, measured bytes,
    rounds, and Ce/Cd (plus Cs/Cc) op counts."""
    X, y = data
    baseline = _run(Federation(_parties(X, y), config=CONFIG), X[:6])
    deployed = _run(DeployedFederation(_parties(X, y), config=CONFIG), X[:6])
    assert deployed == baseline


# -- real shares on the wire -------------------------------------------------


def test_combine_flow_carries_real_share_vectors(data):
    """The flow's vectors are the actual c^{d_i} values: non-zero, and
    sufficient on their own to reconstruct the plaintext."""
    X, y = data
    partition = vertical_partition(X, y, 2)
    with Federation.from_partition(partition, CONFIG) as ctx:
        ct = ctx.threshold.public_key.encrypt(41)
        vectors = record_threshold_decrypt(
            ctx.bus, [ct], tag="threshold-decrypt", runtimes=ctx.runtimes
        )
        ctx.bus.assert_drained()
    assert [v.party_index for v in vectors] == [0, 1]
    assert all(value != 0 for v in vectors for value in v.values)
    assert combine_partial_vectors(
        ctx.threshold.public_key, vectors, 2
    ) == [41]


def test_deployed_decryption_reconstructs_from_worker_shares(data):
    """An orchestrator-side joint decryption after the scrub: the only way
    the plaintext can appear is via the worker's share vector."""
    X, y = data
    with DeployedFederation(_parties(X, y), config=CONFIG) as fed:
        ctx = fed
        value = ctx.encoder.encrypt(6.25)
        assert ctx.joint_decrypt(value, tag="test") == pytest.approx(6.25)
        fed.assert_drained()


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


# -- a dead worker kills decryption, loudly ----------------------------------


def test_dead_worker_fails_decryption_not_silent_fallback(data):
    X, y = data
    with DeployedFederation(_parties(X, y), config=CONFIG) as fed:
        ctx = fed
        worker = fed.workers[1]
        worker._proc.terminate()
        worker._proc.join(5.0)
        value = ctx.encoder.encrypt(1.5)
        with pytest.raises(RemoteOpError):
            ctx.joint_decrypt(value, tag="test")
        # No plaintext was produced by any hidden dealer path.
        assert all(tag != "test" for tag, _ in ctx.revealed)
        ctx.bus.reset(drain=True)
