import pytest

from repro.network import MessageBus, NetworkModel, WireCodec
from repro.network.transport import InMemoryTransport
from repro.network.wire import Request


@pytest.fixture()
def payload_bus(threshold3):
    """A 3-party bus with a codec and an unbounded transport."""
    codec = WireCodec(threshold3.public_key, share_modulus=2**127 - 1)
    return MessageBus(
        3, codec=codec, transport=InMemoryTransport(3, capacity=None)
    )


def test_send_accounting():
    bus = MessageBus(3)
    bus.send(0, 1, 100, tag="stats")
    bus.send(1, 2, 50, tag="stats")
    assert bus.messages == 2
    assert bus.bytes == 150
    assert bus.by_tag["stats"] == 150


def test_broadcast_counts_fanout():
    bus = MessageBus(4)
    bus.broadcast(0, 10, tag="label-vectors")
    assert bus.messages == 3
    assert bus.bytes == 30


def test_round_counting_and_model():
    model = NetworkModel(latency_seconds=1e-3, bandwidth_bytes_per_second=1e6)
    bus = MessageBus(2, model)
    bus.broadcast(0, 1000)
    bus.round(5)
    assert bus.rounds == 5
    assert bus.simulated_time() == pytest.approx(5e-3 + 1e-3)


def test_validation():
    bus = MessageBus(2)
    with pytest.raises(ValueError):
        bus.send(0, 0, 1)
    with pytest.raises(ValueError):
        bus.send(0, 5, 1)
    with pytest.raises(ValueError):
        bus.round(-1)
    with pytest.raises(ValueError):
        MessageBus(0)


def test_reset_and_snapshot():
    bus = MessageBus(2)
    bus.broadcast(0, 10)
    bus.round()
    snap = bus.snapshot()
    assert snap["bytes"] == 10 and snap["rounds"] == 1
    assert snap["transport"]["kind"] == "InMemoryTransport"
    bus.reset()
    assert bus.snapshot()["bytes"] == 0
    assert bus.by_tag == {}


def test_reset_refuses_with_pending_messages(payload_bus, threshold3):
    """The seed's reset zeroed messages/consumed but left the transport
    inboxes populated — every later consumed/pending figure was wrong."""
    payload_bus.send_payload(0, 1, threshold3.encrypt(5), tag="stats")
    with pytest.raises(RuntimeError, match="still\\s+pending"):
        payload_bus.reset()
    # The refusal changed nothing.
    assert payload_bus.messages == 1
    assert payload_bus.pending_total() == 1
    # Consuming the message (or asking reset to drain) makes it legal.
    payload_bus.receive(1, tag="stats")
    payload_bus.reset()
    assert payload_bus.messages == 0
    assert payload_bus.pending_total() == 0


def test_reset_drain_true_consumes_then_zeroes(payload_bus, threshold3):
    payload_bus.broadcast_payload(0, threshold3.encrypt(5), tag="stats")
    payload_bus.reset(drain=True)
    assert payload_bus.pending_total() == 0
    assert payload_bus.messages == 0
    assert payload_bus.consumed == 0
    payload_bus.assert_drained()


def test_drain_preserves_control_frames(payload_bus, threshold3):
    """A barrier consumes protocol mail only: a ctl-* frame queued behind
    it (the control plane is unaccounted end to end) must survive the
    drain, in order, for the serve loop the sender is blocked on."""
    payload_bus.send_payload(0, 1, threshold3.encrypt(1), tag="stats")
    payload_bus.send_control(2, 1, Request("ctl-snapshot", []), tag="ctl-snapshot")
    payload_bus.send_payload(2, 1, threshold3.encrypt(2), tag="stats")
    assert payload_bus.drain() == 2  # the two protocol frames, not the ctl
    assert payload_bus.pending(1) == 1
    sender, tag, payload = payload_bus.receive_control(1)
    assert (sender, tag) == (2, "ctl-snapshot")
    assert payload.op == "ctl-snapshot"
    assert payload_bus.consumed == 2
    payload_bus.assert_drained()


# -- payload API ---------------------------------------------------------------


def test_send_payload_measures_and_delivers(payload_bus, threshold3):
    ct = threshold3.encrypt(42)
    size = payload_bus.send_payload(0, 1, ct, tag="stats")
    assert size == len(payload_bus.codec.serialize(ct))
    assert payload_bus.messages == 1
    assert payload_bus.bytes == size
    assert payload_bus.bytes_measured == size
    assert payload_bus.bytes_estimated == size
    assert payload_bus.by_tag["stats"] == size
    # The message exists as bytes in the receiver's inbox and round-trips.
    envelope = payload_bus.transport.poll(1)
    assert envelope.sender == 0 and envelope.tag == "stats"
    assert payload_bus.codec.deserialize(envelope.data).raw == ct.raw
    assert payload_bus.transport.poll(2) is None


def test_broadcast_payload_fans_out_once(payload_bus, threshold3):
    """The fan-out multiplies the volume exactly once (the seed's to_shares
    accounting applied (m-1) both at the call site and inside broadcast)."""
    ct = threshold3.encrypt(7)
    size = payload_bus.broadcast_payload(1, ct, tag="mask-vector")
    assert payload_bus.messages == 2  # m - 1 receivers
    assert payload_bus.bytes == 2 * size
    assert payload_bus.bytes_measured == 2 * size
    assert payload_bus.by_tag["mask-vector"] == 2 * size
    assert payload_bus.transport.pending(0) == 1
    assert payload_bus.transport.pending(2) == 1
    assert payload_bus.transport.pending(1) == 0  # sender keeps nothing


def test_payload_snapshot_and_by_tag(payload_bus, threshold3):
    payload_bus.send_payload(0, 1, threshold3.encrypt(1), tag="a")
    payload_bus.broadcast_payload(0, threshold3.encrypt(2), tag="b")
    snap = payload_bus.snapshot()
    assert snap["bytes_measured"] == snap["bytes_estimated"] == snap["bytes"]
    assert set(snap["by_tag"]) == {"a", "b"}
    assert sum(snap["by_tag"].values()) == snap["bytes"]
    assert snap["transport"]["delivered"] == 3
    assert snap["transport"]["dropped"] == 0
    payload_bus.reset(drain=True)
    assert payload_bus.snapshot()["bytes_measured"] == 0


def test_bus_pending_is_the_endpoint_api(payload_bus, threshold3):
    """PartyEndpoint.pending goes through bus.pending, not bus.transport —
    a remote transport must get to flush in-flight frames first."""
    payload_bus.send_payload(0, 2, threshold3.encrypt(3), tag="stats")
    assert payload_bus.pending(2) == 1
    assert payload_bus.pending(1) == 0
    with pytest.raises(ValueError):
        payload_bus.pending(9)


def test_payload_requires_codec():
    bus = MessageBus(2)  # codec-less: legacy estimate API only
    with pytest.raises(ValueError):
        bus.send_payload(0, 1, b"raw")


def test_payload_validation(payload_bus):
    with pytest.raises(ValueError):
        payload_bus.send_payload(0, 0, b"self-send")
    with pytest.raises(ValueError):
        payload_bus.send_payload(0, 9, b"bad receiver")


def test_four_receives_one_pop(payload_bus, threshold3):
    """receive / receive_any / receive_tagged / receive_control share one
    await-validate-decode-consume path; only what they return and whether
    they count differs."""
    for _ in range(3):
        payload_bus.send_payload(1, 0, Request("op", 7), tag="stats")
    payload_bus.send_control(2, 0, Request("ctl-info", []), tag="ctl-info")
    with pytest.raises(ValueError, match="expected a 'other' message"):
        payload_bus.receive(0, tag="other")  # rejected before the pop
    assert payload_bus.pending(0) == 4
    assert payload_bus.receive(0, tag="stats") == Request("op", 7)
    assert payload_bus.receive_any(0, tag="stats") == (1, Request("op", 7))
    assert payload_bus.receive_tagged(0) == (1, "stats", Request("op", 7))
    assert payload_bus.consumed == 3
    assert payload_bus.receive_control(0) == (2, "ctl-info", Request("ctl-info", []))
    assert payload_bus.consumed == 3  # control plane is not counted
    with pytest.raises(LookupError, match="party 0 expected a 'stats' message"):
        payload_bus.receive(0, tag="stats")


def test_local_parties_is_the_transports_fact(payload_bus):
    assert payload_bus.local_parties is payload_bus.transport.hosted
    assert payload_bus.local_parties == (0, 1, 2)
