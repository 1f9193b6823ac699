"""Transport routing: inboxes, FIFO order, bounded refusal, framing."""

import pytest

from repro.network.transport import (
    Envelope,
    FrameError,
    InMemoryTransport,
    SocketTransport,
    Transport,
    TransportOverflowError,
    decode_frame,
    encode_frame,
    make_transport,
)


def _env(sender, receiver, data=b"x", tag="t"):
    return Envelope(sender=sender, receiver=receiver, tag=tag, data=data)


def test_deliver_and_poll_fifo():
    transport = InMemoryTransport(3)
    transport.deliver(_env(0, 1, b"first"))
    transport.deliver(_env(2, 1, b"second"))
    assert transport.pending(1) == 2
    assert transport.pending(0) == 0
    first = transport.poll(1)
    assert (first.sender, first.data) == (0, b"first")
    assert transport.poll(1).data == b"second"
    assert transport.poll(1) is None
    assert transport.delivered == 2


def test_party_validation():
    transport = InMemoryTransport(2)
    with pytest.raises(ValueError):
        transport.deliver(_env(0, 5))
    with pytest.raises(ValueError):
        transport.poll(-1)
    with pytest.raises(ValueError):
        InMemoryTransport(0)
    with pytest.raises(ValueError):
        InMemoryTransport(2, capacity=0)


def test_bounded_inbox_refuses_instead_of_dropping():
    """The seed evicted the oldest queued message once an inbox was full —
    the run then continued with every later receive mis-sequenced.  A full
    inbox must refuse delivery loudly."""
    transport = InMemoryTransport(2, capacity=2)
    transport.deliver(_env(0, 1, bytes([0])))
    transport.deliver(_env(0, 1, bytes([1])))
    for attempt in (2, 3):
        with pytest.raises(TransportOverflowError, match="full"):
            transport.deliver(_env(0, 1, bytes([attempt])))
    # Nothing was lost: the queued messages survive in order, and the
    # refusals are counted for cost snapshots.
    assert transport.pending(1) == 2
    assert transport.dropped == 2
    assert transport.delivered == 2
    assert transport.poll(1).data == bytes([0])
    assert transport.poll(1).data == bytes([1])
    snap = transport.snapshot()
    assert snap["delivered"] == 2 and snap["dropped"] == 2


def test_clear():
    transport = InMemoryTransport(2)
    transport.deliver(_env(0, 1))
    transport.clear()
    assert transport.pending(1) == 0


def test_interface_is_abstract():
    base = Transport()
    with pytest.raises(NotImplementedError):
        base.deliver(_env(0, 1))
    with pytest.raises(NotImplementedError):
        base.poll(0)
    with pytest.raises(NotImplementedError):
        base.pending(0)


def test_wait_pending_default_is_instantaneous():
    transport = InMemoryTransport(2)
    assert not transport.wait_pending(1)
    transport.deliver(_env(0, 1))
    assert transport.wait_pending(1)
    assert not transport.wait_pending(1, count=2)
    transport.flush()  # no-op for the synchronous transport


def test_frame_roundtrip():
    envelope = _env(3, 9, data=b"\x00\x01\xff" * 7, tag="threshold-decrypt")
    frame = encode_frame(envelope)
    # u32 length prefix covers exactly the rest of the frame.
    assert int.from_bytes(frame[:4], "big") == len(frame) - 4
    assert decode_frame(frame[4:]) == envelope


def test_frame_rejects_truncation():
    frame = encode_frame(_env(0, 1, b"payload"))
    with pytest.raises(ValueError):
        decode_frame(frame[4:9])
    # One typed error for every way a body can fail to be a frame.
    for body in (b"abc", frame[4:14], frame[4:14] + b"\xff"):
        with pytest.raises(FrameError):
            decode_frame(body)


def test_every_transport_says_whom_it_hosts():
    assert InMemoryTransport(3).hosted == (0, 1, 2)
    with pytest.raises(ValueError, match="not hosted here"):
        InMemoryTransport(3).poll(3)


def test_make_transport_resolution():
    assert isinstance(make_transport(None, 2), InMemoryTransport)
    assert isinstance(make_transport("inmemory", 3), InMemoryTransport)
    existing = InMemoryTransport(2)
    assert make_transport(existing, 2) is existing
    with pytest.raises(ValueError, match="2 parties"):
        make_transport(existing, 3)
    with pytest.raises(ValueError, match="unknown transport"):
        make_transport("carrier-pigeon", 2)
    socket_transport = make_transport("asyncio", 2)
    try:
        assert isinstance(socket_transport, SocketTransport)
    finally:
        socket_transport.close()
