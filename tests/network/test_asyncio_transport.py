"""SocketTransport: the same inbox semantics over real local sockets.

Routing, per-receiver FIFO, the await-delivery seam (wait_pending/flush),
bounded-capacity refusal, frame validation, lifecycle — plus the bus-level
behaviours the socket transport needs (receive awaits delivery; drain
flushes in-flight frames first).

One class serves two deployment shapes, so the shape-independent cases run
over both: one transport hosting all m parties (``transport="asyncio"``)
and m transports in this process hosting one party each from a shared
address book (what the standalone runtime spreads over m OS processes).
The mesh-only behaviours — dial retry, EOF watch and re-dial, the
self-addressed frame, what ``flush`` does and does not wait for — are
pinned here too, without subprocesses.
"""

import gc
import logging
import socket
import struct
import threading
import time
from contextlib import contextmanager

import pytest

from repro.federation.runtime import free_addresses
from repro.network.bus import MessageBus
from repro.network.transport import (
    Envelope,
    FrameError,
    SocketTransport,
    TransportOverflowError,
    encode_frame,
)
from repro.network.wire import WireCodec


class Net:
    """Transports that between them host parties 0..m-1, in one process."""

    def __init__(self, transports):
        self.transports = transports

    def at(self, party):
        """The transport hosting ``party``'s inbox."""
        return next(t for t in self.transports if party in t.hosted)

    def deliver(self, envelope):
        """Send from wherever the sender lives, as a deployment would."""
        self.at(envelope.sender).deliver(envelope)

    def close(self):
        for transport in self.transports:
            transport.close()


def _one_for_all(m, **options):
    return [SocketTransport(m, **options)]


def _one_each(m, **options):
    book = free_addresses(m)
    return [
        SocketTransport(m, hosted=(i,), addresses=book, **options)
        for i in range(m)
    ]


@contextmanager
def _nets(build):
    nets = []

    def make(m=3, **options):
        nets.append(Net(build(m, **options)))
        return nets[-1]

    try:
        yield make
    finally:
        for net in nets:
            net.close()


@pytest.fixture
def shape():
    """Build a Net of one transport hosting everyone."""
    with _nets(_one_for_all) as make:
        yield make


@pytest.fixture
def mesh():
    """Build a Net of one transport per party."""
    with _nets(_one_each) as make:
        yield make


def _env(sender, receiver, data=b"x", tag="t"):
    return Envelope(sender=sender, receiver=receiver, tag=tag, data=data)


def _until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.01)


# -- either shape -------------------------------------------------------------


def test_listens_on_per_party_ports(shape):
    net = shape()
    ports = [net.at(party).addresses[party][1] for party in range(3)]
    assert len(set(ports)) == 3
    assert all(port > 0 for port in ports)


def test_roundtrip_over_sockets(shape):
    net = shape()
    net.deliver(_env(0, 2, b"alpha", tag="stats"))
    receiver = net.at(2)
    assert receiver.wait_pending(2, timeout=5.0)
    envelope = receiver.poll(2)
    assert envelope == _env(0, 2, b"alpha", tag="stats")
    assert receiver.poll(2) is None
    assert receiver.delivered == 1


def test_peek_does_not_consume(shape):
    net = shape()
    net.deliver(_env(0, 1, b"only"))
    receiver = net.at(1)
    receiver.wait_pending(1, timeout=5.0)
    assert receiver.peek(1).data == b"only"
    assert receiver.pending(1) == 1
    assert receiver.poll(1).data == b"only"


def test_wait_pending_count_and_timeout(shape):
    net = shape()
    net.deliver(_env(0, 1))
    receiver = net.at(1)
    assert receiver.wait_pending(1, count=1, timeout=5.0)
    assert not receiver.wait_pending(1, count=2, timeout=0.05)


def test_bounded_capacity_surfaces_overflow(shape):
    net = shape(2, capacity=1)
    receiver = net.at(1)
    net.deliver(_env(0, 1, b"fits"))
    assert receiver.wait_pending(1, timeout=5.0)
    net.deliver(_env(0, 1, b"overflows"))
    # The refusal happens on the receiving side of the socket; it must
    # fail the run at the next synchronisation point, not vanish.
    with pytest.raises(TransportOverflowError):
        receiver.wait_pending(1, count=2, timeout=5.0)
    with pytest.raises(TransportOverflowError):
        receiver.flush()
    assert receiver.dropped == 1
    with pytest.raises(TransportOverflowError):
        receiver.deliver(_env(1, 0, b"after-failure"))


def test_close_is_idempotent(shape):
    net = shape(2)
    net.deliver(_env(0, 1))
    net.close()
    net.close()
    with pytest.raises(RuntimeError):
        net.deliver(_env(0, 1))


def test_party_validation(shape):
    net = shape()
    with pytest.raises(ValueError):
        net.deliver(_env(0, 7))
    with pytest.raises(ValueError):
        net.at(0).deliver(_env(7, 0))
    with pytest.raises(ValueError):
        net.at(0).poll(5)


EITHER_SHAPE = [
    test_listens_on_per_party_ports,
    test_roundtrip_over_sockets,
    test_peek_does_not_consume,
    test_wait_pending_count_and_timeout,
    test_bounded_capacity_surfaces_overflow,
    test_close_is_idempotent,
    test_party_validation,
]


@pytest.mark.parametrize("case", EITHER_SHAPE, ids=lambda case: case.__name__)
def test_same_over_one_transport_per_party(case, mesh):
    case(mesh)


@pytest.mark.parametrize("build", [_one_for_all, _one_each])
def test_close_reaps_reader_and_watcher_tasks(build, caplog):
    transports = build(2)
    transports[0].deliver(_env(0, 1))
    assert transports[-1].wait_pending(1, timeout=5.0)
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        for transport in transports:
            transport.close()
        gc.collect()
    # Nothing was abandoned to the collector with the loop already gone.
    assert "Task was destroyed" not in caplog.text
    assert not any(t._thread.is_alive() for t in transports)


# -- one transport hosting everyone -------------------------------------------


def test_per_receiver_fifo_across_senders(shape):
    transport = shape().at(0)
    for i in range(8):
        transport.deliver(_env(i % 3, 1, bytes([i])))
    transport.flush()
    assert transport.pending(1) == 8
    received = [transport.poll(1).data[0] for _ in range(8)]
    assert received == list(range(8))


def test_flush_means_arrived(shape):
    transport = shape().at(0)
    for _ in range(20):
        transport.deliver(_env(0, 1))
    transport.flush()
    # After a flush every frame handed to deliver is physically queued.
    assert transport.pending(1) == 20


# -- one transport per party --------------------------------------------------


def test_mesh_hosts_one_inbox_each(mesh):
    net = mesh()
    assert [t.hosted for t in net.transports] == [(0,), (1,), (2,)]
    with pytest.raises(ValueError, match="not hosted here"):
        net.at(0).poll(1)
    with pytest.raises(ValueError, match="no port"):
        SocketTransport(2, hosted=(0,))


def test_deliver_waits_for_a_peer_who_is_not_up_yet():
    book = free_addresses(2)
    early = SocketTransport(2, hosted=(0,), addresses=book, connect_timeout=10.0)
    late = None
    try:
        sending = threading.Thread(
            target=early.deliver, args=(_env(0, 1, b"knock"),)
        )
        sending.start()
        time.sleep(0.3)  # several refused dials
        assert sending.is_alive()
        late = SocketTransport(2, hosted=(1,), addresses=book)
        sending.join(10.0)
        assert not sending.is_alive()
        assert late.wait_pending(1, timeout=5.0)
        assert late.poll(1).data == b"knock"
    finally:
        early.close()
        if late is not None:
            late.close()


def test_dial_gives_up_at_the_connect_timeout():
    book = free_addresses(2)
    lonely = SocketTransport(2, hosted=(0,), addresses=book, connect_timeout=0.3)
    try:
        with pytest.raises(TimeoutError, match="could not reach party 1"):
            lonely.deliver(_env(0, 1))
        lonely.flush()  # the failed send is not left in flight
    finally:
        lonely.close()


def test_peer_rebuilt_on_the_same_address_receives_the_next_frame(mesh):
    net = mesh(2)
    sender, first = net.at(0), net.at(1)
    sender.deliver(_env(0, 1, b"before"))
    assert first.wait_pending(1, timeout=5.0)
    first.close()
    # The sender's EOF watch drops the dead connection on its own.
    _until(lambda: 1 not in sender._writers)
    reborn = SocketTransport(2, hosted=(1,), addresses=sender.addresses)
    net.transports.append(reborn)
    sender.deliver(_env(0, 1, b"after"))
    assert reborn.wait_pending(1, timeout=5.0)
    assert reborn.poll(1).data == b"after"


def test_per_sender_fifo_across_the_mesh(mesh):
    net = mesh()
    for i in range(10):
        for sender in (0, 2):
            net.deliver(_env(sender, 1, bytes([i])))
    receiver = net.at(1)
    assert receiver.wait_pending(1, count=20, timeout=5.0)
    arrived = [receiver.poll(1) for _ in range(20)]
    for sender in (0, 2):
        from_her = [e.data[0] for e in arrived if e.sender == sender]
        assert from_her == list(range(10))


def test_frame_to_herself_crosses_her_socket_and_is_flushed(mesh):
    transport = mesh().at(0)
    for i in range(20):
        # The orchestrator's prediction round-robin speaks for other
        # senders toward her own party; the frame still takes the socket.
        transport.deliver(_env(i % 3, 0, bytes([i])))
    transport.flush()
    assert transport.pending(0) == 20
    assert [transport.poll(0).data[0] for _ in range(20)] == list(range(20))


def test_remote_arrivals_do_not_satisfy_flush(mesh):
    net = mesh(2)
    local = net.at(0)
    for _ in range(8):
        net.deliver(_env(1, 0, b"remote"))
    assert local.wait_pending(0, count=8, timeout=5.0)
    # Eight arrivals she did not send are on the books.  Were they counted
    # toward flush, it would now return with these frames still in flight.
    for _ in range(8):
        local.deliver(_env(0, 0, bytes(256 * 1024)))
    local.flush()
    assert local.pending(0) == 16
    # Frames for a non-hosted receiver are flushed once written.
    local.deliver(_env(0, 1))
    local.flush(timeout=0.0)


# -- bytes that are not a frame this port may accept --------------------------


def _raw_frame(body):
    return struct.pack("!I", len(body)) + body


BAD_FRAMES = {
    "three-byte-body": (_raw_frame(b"abc"), "truncated frame"),
    "truncated-tag": (
        _raw_frame(struct.pack("!IIH", 0, 1, 9) + b"ab"),
        "truncated frame tag",
    ),
    "tag-not-utf8": (
        _raw_frame(struct.pack("!IIH", 0, 1, 2) + b"\xff\xfe" + b"x"),
        "not utf-8",
    ),
    "another-partys-frame": (
        encode_frame(_env(0, 0)),
        "to party 0 arrived on party 1's port",
    ),
    "unknown-sender": (encode_frame(_env(77, 1)), "from party 77"),
}


@pytest.mark.parametrize("defect", BAD_FRAMES)
def test_malformed_frame_fails_the_run(shape, defect):
    raw, message = BAD_FRAMES[defect]
    transport = shape(2).at(1)
    with socket.create_connection(transport.addresses[1]) as intruder:
        intruder.sendall(encode_frame(_env(0, 1, b"fine")) + raw)
        # Stored as the transport's failure, raised at every seam.
        with pytest.raises(FrameError, match=message):
            transport.wait_pending(1, count=2, timeout=5.0)
        # The connection that sent it is closed.
        intruder.settimeout(5.0)
        assert intruder.recv(1) == b""
    for seam in (
        lambda: transport.deliver(_env(0, 1)),
        lambda: transport.poll(1),
        lambda: transport.peek(1),
        transport.flush,
    ):
        with pytest.raises(FrameError, match=message):
            seam()
    assert transport.delivered == 1  # the well-formed frame before it


# -- bus over sockets ---------------------------------------------------------


@pytest.fixture
def socket_bus(threshold3):
    codec = WireCodec(threshold3.public_key, share_modulus=2**127 - 1)
    bus = MessageBus(3, codec=codec, transport=SocketTransport(3))
    yield bus, threshold3
    bus.close()


def test_bus_receive_awaits_socket_delivery(socket_bus):
    bus, threshold = socket_bus
    ct = threshold.public_key.encrypt(41)
    bus.send_payload(0, 2, [ct, ct], tag="stats")
    # The frame may still be in flight when receive is called; the
    # await-delivery seam blocks until it arrives instead of raising.
    received = bus.receive(2, tag="stats")
    assert [c.raw for c in received] == [ct.raw, ct.raw]
    bus.assert_drained()


def test_bus_round_drains_in_flight_frames(socket_bus):
    bus, threshold = socket_bus
    for receiver in (1, 2):
        bus.send_payload(0, receiver, threshold.public_key.encrypt(7), tag="m")
    bus.round()
    assert bus.pending_total() == 0
    assert bus.consumed == 2
    bus.assert_drained()


def test_bus_snapshot_reports_socket_transport(socket_bus):
    bus, threshold = socket_bus
    bus.broadcast_payload(0, threshold.public_key.encrypt(1), tag="b")
    bus.drain()
    snap = bus.snapshot()
    assert snap["transport"]["kind"] == "SocketTransport"
    assert snap["transport"]["delivered"] == 2
    assert snap["transport"]["dropped"] == 0


def test_bus_reads_who_is_local_off_the_transport(mesh):
    transport = mesh().at(1)
    bus = MessageBus(3, codec=WireCodec(None), transport=transport)
    assert bus.local_parties == transport.hosted == (1,)
    with pytest.raises(AttributeError):
        bus.local_parties = (0, 1, 2)
    with pytest.raises(TypeError):
        MessageBus(3, transport=transport, local_parties=(0, 1, 2))


def test_bus_says_who_waited_for_what_and_how_long(shape):
    transport = shape(2, timeout=0.05).at(0)
    bus = MessageBus(2, codec=WireCodec(None), transport=transport)
    with pytest.raises(LookupError) as refused:
        bus.receive(1, tag="split-stats")
    message = str(refused.value)
    assert "party 1" in message
    assert "'split-stats'" in message
    assert "0.05s" in message
    with pytest.raises(LookupError, match="party 0 expected a message"):
        bus.receive_tagged(0)
