"""Drain-based delivery: payload sends are consumed, decoded, and leave
every inbox empty at the end of training."""

import pytest

from repro.core import PivotConfig, TreeTrainer, run_predict_batch
from repro.crypto.threshold import generate_threshold_keypair
from repro.data import vertical_partition
from repro.federation import Federation
from repro.federation.party import PartyEndpoint, PartyRuntime
from repro.network.bus import MessageBus
from repro.network.flows import record_threshold_decrypt
from repro.network.wire import PartialDecryptionVector, WireCodec

from tests.federation.conftest import PARAMS, make_federation


@pytest.fixture(scope="module")
def payload_bus():
    threshold = generate_threshold_keypair(3, 256)
    codec = WireCodec(threshold.public_key, share_modulus=2**127 - 1)
    return threshold, codec


def fresh_bus(codec) -> MessageBus:
    return MessageBus(3, codec=codec)


def party_runtimes(bus, threshold) -> list[PartyRuntime]:
    """One runtime per party, hosted on ``bus`` (party 0 the super client)."""
    runtimes = [
        PartyRuntime(PartyEndpoint(bus, share.party_index), key_share=share)
        for share in threshold.shares
    ]
    bus.host(runtimes, super_client=0)
    return runtimes


# -- receive() ----------------------------------------------------------------


def test_receive_decodes_payload_roundtrip(payload_bus):
    threshold, codec = payload_bus
    bus = fresh_bus(codec)
    ct = threshold.public_key.encrypt(41)
    with bus.flow(0):
        bus.send_payload(0, 2, [ct, ct], tag="stats")
        received = bus.receive(2, tag="stats")
    assert [c.raw for c in received] == [ct.raw, ct.raw]
    assert bus.consumed == 1
    bus.assert_drained()


def test_receive_empty_inbox_raises(payload_bus):
    _, codec = payload_bus
    bus = fresh_bus(codec)
    with pytest.raises(LookupError):
        bus.receive(1)


def test_receive_tag_mismatch_raises_and_keeps_message(payload_bus):
    threshold, codec = payload_bus
    bus = fresh_bus(codec)
    with bus.flow(0):
        bus.send_payload(0, 1, threshold.public_key.encrypt(1), tag="alpha")
        with pytest.raises(ValueError, match="alpha"):
            bus.receive(1, tag="beta")
        # Validation happens before the pop: the rejected message stays
        # queued (visible to assert_drained) instead of being lost.
        assert bus.pending_total() == 1
        assert bus.consumed == 0
        received = bus.receive(1, tag="alpha")
    assert received.raw is not None


def test_round_drains_pending(payload_bus):
    threshold, codec = payload_bus
    bus = fresh_bus(codec)
    with bus.flow(1):
        bus.broadcast_payload(0, threshold.public_key.encrypt(7), tag="mask")
        assert bus.pending_total() == 2
    assert bus.pending_total() == 0
    assert bus.consumed == 2
    bus.assert_drained()


def test_assert_drained_reports_leftovers(payload_bus):
    threshold, codec = payload_bus
    bus = fresh_bus(codec)
    with bus.flow(0):
        bus.send_payload(1, 0, threshold.public_key.encrypt(3), tag="x")
        with pytest.raises(AssertionError, match="inboxes"):
            bus.assert_drained()


# -- the threshold-decryption flow --------------------------------------------


def test_threshold_decrypt_flow_consumes_all_messages(payload_bus):
    threshold, codec = payload_bus
    bus = fresh_bus(codec)
    cts = [threshold.public_key.encrypt(v) for v in (1, 2, 3)]
    party_runtimes(bus, threshold)
    record_threshold_decrypt(bus, cts, tag="threshold-decrypt")
    # (m-1) ciphertext broadcasts + (m-1) partial vectors to the holder,
    # all consumed.
    assert bus.messages == 2 + 2
    assert bus.consumed == bus.messages
    assert bus.rounds == 2
    bus.assert_drained()


def test_threshold_decrypt_flow_validates_batch_shape(payload_bus):
    """A party whose share vector is short fails the flow, and neither the
    ciphertext broadcast nor any share vector stays behind in an inbox."""

    class ShortRuntime(PartyRuntime):
        def decryption_shares(self, batch):
            vector = super().decryption_shares(batch)
            return PartialDecryptionVector(vector.party_index, vector.values[:1])

    threshold, codec = payload_bus
    bus = fresh_bus(codec)
    cts = [threshold.public_key.encrypt(v) for v in (1, 2)]
    runtimes = party_runtimes(bus, threshold)
    runtimes[1] = ShortRuntime(
        PartyEndpoint(bus, 1), key_share=threshold.shares[1]
    )
    bus.host(runtimes, super_client=0)
    with pytest.raises(ValueError, match="malformed partial-share vector"):
        record_threshold_decrypt(bus, cts, tag="threshold-decrypt")
    bus.assert_drained()
    assert bus.rounds == 0


# -- end-to-end invariants ----------------------------------------------------


@pytest.mark.parametrize("protocol", ["basic", "enhanced"])
def test_training_drains_inboxes(tiny_classification, protocol):
    X, y = tiny_classification
    with make_federation(X, y, protocol=protocol, seed=21) as fed:
        model = TreeTrainer(fed).fit()
        run_predict_batch(model, fed, X[:3], protocol)
        fed.assert_drained()
        snapshot = fed.bus.snapshot()
        assert snapshot["pending"] == 0
        # Semi-honest training uses payload sends exclusively, and every
        # payload message is consumed by its receiver.
        assert snapshot["consumed"] == snapshot["messages"]


def test_legacy_context_training_drains_too(tiny_classification):
    """The invariant holds for a federation built from a partition and
    driven by the trainer directly — drain-based delivery lives in the
    bus, not in the estimators."""
    X, y = tiny_classification
    vp = vertical_partition(X, y, 2, task="classification")
    with Federation.from_partition(
        vp, PivotConfig(keysize=256, tree=PARAMS, seed=2)
    ) as ctx:
        TreeTrainer(ctx).fit()
        ctx.bus.assert_drained()
