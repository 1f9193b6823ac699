"""Drain-based delivery: payload sends are consumed, decoded, and leave
every inbox empty at the end of training."""

import numpy as np
import pytest

from repro.core import PivotConfig, PivotContext, TreeTrainer, run_predict_batch
from repro.crypto.threshold import generate_threshold_keypair
from repro.data import vertical_partition
from repro.federation.party import PartyEndpoint, PartyRuntime
from repro.network.bus import MessageBus
from repro.network.flows import record_threshold_decrypt
from repro.network.wire import WireCodec

from tests.federation.conftest import PARAMS, make_federation


@pytest.fixture(scope="module")
def payload_bus():
    threshold = generate_threshold_keypair(3, 256)
    codec = WireCodec(threshold.public_key, share_modulus=2**127 - 1)
    return threshold, codec


def fresh_bus(codec) -> MessageBus:
    return MessageBus(3, codec=codec)


def party_runtimes(bus, threshold) -> list[PartyRuntime]:
    return [
        PartyRuntime(PartyEndpoint(bus, share.party_index), key_share=share)
        for share in threshold.shares
    ]


# -- receive() ----------------------------------------------------------------


def test_receive_decodes_payload_roundtrip(payload_bus):
    threshold, codec = payload_bus
    bus = fresh_bus(codec)
    ct = threshold.public_key.encrypt(41)
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
    bus.broadcast_payload(0, threshold.public_key.encrypt(7), tag="mask")
    assert bus.pending_total() == 2
    bus.round()
    assert bus.pending_total() == 0
    assert bus.consumed == 2
    bus.assert_drained()


def test_assert_drained_reports_leftovers(payload_bus):
    threshold, codec = payload_bus
    bus = fresh_bus(codec)
    bus.send_payload(1, 0, threshold.public_key.encrypt(3), tag="x")
    with pytest.raises(AssertionError, match="inboxes"):
        bus.assert_drained()


# -- the threshold-decryption flow --------------------------------------------


def test_threshold_decrypt_flow_consumes_all_messages(payload_bus):
    threshold, codec = payload_bus
    bus = fresh_bus(codec)
    cts = [threshold.public_key.encrypt(v) for v in (1, 2, 3)]
    record_threshold_decrypt(
        bus, cts, tag="threshold-decrypt", runtimes=party_runtimes(bus, threshold)
    )
    # (m-1) ciphertext broadcasts + m*(m-1) partial vectors, all consumed.
    assert bus.messages == 2 + 3 * 2
    assert bus.consumed == bus.messages
    assert bus.rounds == 2
    bus.assert_drained()


def test_threshold_decrypt_flow_validates_batch_shape(payload_bus):
    """A party whose compute hook returns a short vector fails the flow,
    and the ciphertext broadcast does not stay behind in peer inboxes."""
    threshold, codec = payload_bus
    bus = fresh_bus(codec)
    cts = [threshold.public_key.encrypt(v) for v in (1, 2)]
    runtimes = party_runtimes(bus, threshold)
    runtimes[1] = PartyRuntime(
        PartyEndpoint(bus, 1), compute_shares=lambda ciphertexts: [1]
    )
    with pytest.raises(ValueError, match="1 shares for 2 ciphertexts"):
        record_threshold_decrypt(bus, cts, tag="t", runtimes=runtimes)
    bus.assert_drained()
    assert bus.rounds == 0


# -- end-to-end invariants ----------------------------------------------------


@pytest.mark.parametrize("protocol", ["basic", "enhanced"])
def test_training_drains_inboxes(tiny_classification, protocol):
    X, y = tiny_classification
    with make_federation(X, y, protocol=protocol, seed=21) as fed:
        model = TreeTrainer(fed.context).fit()
        run_predict_batch(model, fed.context, X[:3], protocol)
        fed.assert_drained()
        snapshot = fed.context.bus.snapshot()
        assert snapshot["pending"] == 0
        # Semi-honest training uses payload sends exclusively, and every
        # payload message is consumed by its receiver.
        assert snapshot["consumed"] == snapshot["messages"]


def test_legacy_context_training_drains_too(tiny_classification):
    """The invariant holds for the flat API as well — drain-based delivery
    lives in the bus, not in the facade."""
    X, y = tiny_classification
    vp = vertical_partition(X, y, 2, task="classification")
    with PivotContext(
        vp, PivotConfig(keysize=256, tree=PARAMS, seed=2)
    ) as ctx:
        TreeTrainer(ctx).fit()
        ctx.bus.assert_drained()
