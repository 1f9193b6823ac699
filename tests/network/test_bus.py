import pytest

from repro.crypto.threshold import PartialDecryption
from repro.network import MessageBus, WireCodec
from repro.network.transport import InMemoryTransport, SocketTransport
from repro.network.wire import Request, WireFormatError


@pytest.fixture()
def payload_bus(threshold3):
    """A 3-party bus with a codec and an unbounded transport."""
    codec = WireCodec(threshold3.public_key, share_modulus=2**127 - 1)
    return MessageBus(
        3, codec=codec, transport=InMemoryTransport(3, capacity=None)
    )


@pytest.fixture(params=["inmemory", "asyncio"])
def either_bus(request, threshold3):
    """``payload_bus`` over either transport; a socket receive that finds
    nothing gives up after 0.2 s."""
    codec = WireCodec(threshold3.public_key, share_modulus=2**127 - 1)
    if request.param == "inmemory":
        transport = InMemoryTransport(3, capacity=None)
    else:
        transport = SocketTransport(3, timeout=0.2)
    bus = MessageBus(3, codec=codec, transport=transport)
    yield bus
    bus.close()


def test_round_counting():
    bus = MessageBus(2, codec=WireCodec(None))
    with bus.flow(5):
        bus.broadcast_payload(0, b"x" * 1000)
    assert bus.rounds == 5
    assert bus.bytes == bus.bytes_estimated == 1005


def test_validation():
    bus = MessageBus(2, codec=WireCodec(None))
    with pytest.raises(ValueError):
        bus.round(-1)
    with pytest.raises(ValueError):
        MessageBus(0, codec=WireCodec(None))


def test_reset_and_snapshot():
    bus = MessageBus(2, codec=WireCodec(None))
    with bus.flow(1):
        bus.broadcast_payload(0, b"12345")
    snap = bus.snapshot()
    assert snap["bytes"] == snap["bytes_measured"] == 10 and snap["rounds"] == 1
    assert snap["transport"]["kind"] == "InMemoryTransport"
    bus.reset()
    assert bus.snapshot()["bytes"] == 0
    assert bus.by_tag == {}


def test_reset_refuses_with_pending_messages(payload_bus, threshold3):
    """The seed's reset zeroed messages/consumed but left the transport
    inboxes populated — every later consumed/pending figure was wrong."""
    with payload_bus.flow(0):
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
    with payload_bus.flow(0):
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
    with payload_bus.flow(0):
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
    with payload_bus.flow(0):
        size = payload_bus.send_payload(0, 1, ct, tag="stats")
        # The message exists as bytes in the receiver's inbox and round-trips.
        envelope = payload_bus.transport.poll(1)
    assert envelope.sender == 0 and envelope.tag == "stats"
    assert payload_bus.codec.deserialize(envelope.data).raw == ct.raw
    assert payload_bus.transport.poll(2) is None
    assert size == len(payload_bus.codec.serialize(ct))
    assert payload_bus.messages == 1
    assert payload_bus.bytes == size
    assert payload_bus.bytes_estimated == size
    assert payload_bus.by_tag["stats"] == size


def test_broadcast_payload_fans_out_once(payload_bus, threshold3):
    """The fan-out multiplies the volume exactly once (the seed's to_shares
    accounting applied (m-1) both at the call site and inside broadcast)."""
    ct = threshold3.encrypt(7)
    with payload_bus.flow(0):
        size = payload_bus.broadcast_payload(1, ct, tag="mask-vector")
        assert payload_bus.transport.pending(0) == 1
        assert payload_bus.transport.pending(2) == 1
        assert payload_bus.transport.pending(1) == 0  # sender keeps nothing
    assert payload_bus.messages == 2  # m - 1 receivers
    assert payload_bus.bytes == 2 * size
    assert payload_bus.by_tag["mask-vector"] == 2 * size


def test_payload_snapshot_and_by_tag(payload_bus, threshold3):
    with payload_bus.flow(0):
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
    with payload_bus.flow(0):
        payload_bus.send_payload(0, 2, threshold3.encrypt(3), tag="stats")
        assert payload_bus.pending(2) == 1
        assert payload_bus.pending(1) == 0
    with pytest.raises(ValueError):
        payload_bus.pending(9)


def test_payload_requires_codec():
    """A payload's serialized size is the only byte the bus charges, so
    there is no bus without a codec; a key-less one takes WireCodec(None)."""
    with pytest.raises(TypeError):
        MessageBus(2)


def test_a_keyless_bus_refuses_a_ciphertext_before_charging_it(threshold3):
    bus = MessageBus(3, codec=WireCodec(None))
    with bus.flow(1):
        size = bus.send_payload(0, 2, Request("op", [7, [1, 2], b"ab"]), tag="x")
        assert bus.receive(2, tag="x") == Request("op", [7, [1, 2], b"ab"])
        with pytest.raises(WireFormatError, match="not bound"):
            bus.send_payload(0, 1, threshold3.encrypt(3), tag="x")
        # A type with no row in the codec's layout table travels on no bus.
        with pytest.raises(WireFormatError, match="unsupported payload type dict"):
            bus.send_payload(0, 1, {"stats": 3}, tag="x")
        with pytest.raises(WireFormatError, match="unsupported payload type dict"):
            bus.broadcast_payload(0, {"stats": 3}, tag="x")
        assert bus.pending_total() == 0
    assert (bus.messages, bus.bytes, dict(bus.by_tag)) == (1, size, {"x": size})


@pytest.mark.parametrize("send", ["send", "broadcast"])
@pytest.mark.parametrize(
    "payload",
    [{"stats": 3}, "round 3", True, PartialDecryption(1, 5), [7, {"stats": 3}]],
    ids=["dict", "str", "bool", "single-partial-decryption", "nested-dict"],
)
def test_a_payload_with_no_layout_row_is_refused_before_any_byte_is_charged(
    payload_bus, payload, send
):
    """A payload, or an item nested in one, of a type with no row in the
    codec's layout table raises inside its flow: no frame is queued and no
    byte or message is charged.  A single decryption share's row was
    retired for the vector's."""
    with payload_bus.flow(1):
        with pytest.raises(WireFormatError):
            if send == "send":
                payload_bus.send_payload(0, 1, payload, tag="x")
            else:
                payload_bus.broadcast_payload(0, payload, tag="x")
        assert payload_bus.pending_total() == 0
    assert (payload_bus.messages, payload_bus.bytes) == (0, 0)
    assert dict(payload_bus.by_tag) == {}


def test_the_bus_counts_and_prices_nothing():
    """Pricing rounds and bytes is ``analysis.costmodel.NetworkModel``'s."""
    with pytest.raises(TypeError):
        MessageBus(2, codec=WireCodec(None), model=object())
    bus = MessageBus(2, codec=WireCodec(None))
    for gone in ("send", "broadcast", "simulated_time", "model"):
        assert not hasattr(bus, gone)
    with bus.flow(1):
        bus.broadcast_payload(0, b"x")
    assert "simulated_seconds" not in bus.snapshot()


def test_payload_validation(payload_bus):
    with payload_bus.flow(0):
        with pytest.raises(ValueError):
            payload_bus.send_payload(0, 0, b"self-send")
        with pytest.raises(ValueError):
            payload_bus.send_payload(0, 9, b"bad receiver")


def test_four_receives_one_pop(payload_bus, threshold3):
    """receive / receive_any / receive_tagged / receive_control share one
    await-validate-decode-consume path; only what they return and whether
    they count differs."""
    with payload_bus.flow(0):
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


# -- the flow scope ------------------------------------------------------------


def test_an_accounted_send_outside_a_flow_raises(payload_bus, threshold3):
    """A send needs an open flow or a running handler; a refused send puts
    nothing on the books."""
    ct = threshold3.encrypt(1)
    refused = [
        lambda: payload_bus.send_payload(0, 1, ct, tag="stats"),
        lambda: payload_bus.broadcast_payload(0, ct, tag="stats"),
    ]
    for send in refused:
        with pytest.raises(RuntimeError, match="needs an open flow"):
            send()
    assert payload_bus.messages == payload_bus.pending_total() == 0
    with payload_bus.handling():
        payload_bus.send_payload(0, 1, ct, tag="stats")  # a handler's reply
    with payload_bus.flow(1):
        payload_bus.send_payload(0, 1, ct, tag="stats")
    assert payload_bus.messages == 2 and payload_bus.rounds == 1
    payload_bus.assert_drained()


@pytest.mark.parametrize("send", ["send", "broadcast"])
@pytest.mark.parametrize("ended", ["closed", "failed"])
def test_a_send_after_its_flow_ended_raises(payload_bus, threshold3, ended, send):
    """The flow's exit closes the scope whether it charged its rounds or
    raised: a send after it, say on a path that returned early from the
    block, is refused and puts nothing on the books."""
    ct = threshold3.encrypt(1)
    try:
        with payload_bus.flow(1):
            payload_bus.send_payload(0, 1, ct, tag="stats")
            if ended == "failed":
                raise KeyError("mid-flow")
    except KeyError:
        pass
    books = (payload_bus.messages, payload_bus.bytes, payload_bus.rounds)
    with pytest.raises(RuntimeError, match="needs an open flow"):
        if send == "send":
            payload_bus.send_payload(0, 1, ct, tag="stats")
        else:
            payload_bus.broadcast_payload(0, ct, tag="stats")
    assert (payload_bus.messages, payload_bus.bytes, payload_bus.rounds) == books
    assert payload_bus.pending_total() == 0
    payload_bus.assert_drained()


def test_a_nested_flow_raises(payload_bus, threshold3):
    with payload_bus.flow(1):
        payload_bus.send_payload(0, 1, threshold3.encrypt(1), tag="stats")
        with pytest.raises(RuntimeError, match="already open"):
            with payload_bus.flow(1):
                pass
    assert payload_bus.rounds == 1
    payload_bus.assert_drained()


def test_a_failing_flow_drains_and_charges_no_round(payload_bus, threshold3):
    with pytest.raises(KeyError):
        with payload_bus.flow(2):
            payload_bus.broadcast_payload(0, threshold3.encrypt(1), tag="stats")
            raise KeyError("mid-flow")
    assert payload_bus.rounds == 0 and payload_bus.consumed == 2
    payload_bus.assert_drained()
    with payload_bus.flow(1):  # the scope closed on the way out
        pass
    assert payload_bus.rounds == 1


def test_a_receive_before_its_send_raises_and_strands_nothing(either_bus, threshold3):
    """A flow that waits on a frame it has not sent yet: the stall raises,
    at once in memory and at the timeout over sockets, and the scope
    drains what was already sent."""
    ct = threshold3.encrypt(1)
    with pytest.raises(LookupError, match="expected a 'stats' message"):
        with either_bus.flow(1):
            either_bus.broadcast_payload(0, ct, tag="batch")
            either_bus.receive(0, tag="stats")
            either_bus.send_payload(1, 0, ct, tag="stats")
    assert either_bus.rounds == 0 and either_bus.consumed == 2
    either_bus.assert_drained()


@pytest.mark.parametrize("receive", ["receive", "receive_any"])
def test_a_receive_under_another_tag_raises_and_strands_nothing(
    either_bus, threshold3, receive
):
    """Producer and consumer disagree on a tag: the receive raises before
    it reads the frame, and the scope drains it."""
    with pytest.raises(ValueError, match="pending one is tagged 'histogrm'"):
        with either_bus.flow(1):
            either_bus.send_payload(1, 0, threshold3.encrypt(1), tag="histogrm")
            getattr(either_bus, receive)(0, tag="histogram")
    assert either_bus.rounds == 0 and either_bus.consumed == 1
    either_bus.assert_drained()


def test_a_flow_that_charges_no_round_strands_nothing(payload_bus, threshold3):
    """The scope's exit serves and drains at any count: ``flow(0)`` too."""
    with payload_bus.flow(0):
        payload_bus.broadcast_payload(0, threshold3.encrypt(1), tag="stats")
        assert payload_bus.pending_total() == 2
    assert payload_bus.pending_total() == 0
    assert payload_bus.rounds == 0 and payload_bus.consumed == 2
    payload_bus.assert_drained()
