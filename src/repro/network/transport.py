"""Pluggable message transport between the m clients.

The :class:`~repro.network.bus.MessageBus` serializes every protocol
payload through its :class:`~repro.network.wire.WireCodec` and hands the
resulting bytes to a :class:`Transport`, which routes them to per-receiver
inboxes.  The interface is deliberately minimal — ``deliver`` / ``poll`` /
``peek`` / ``pending`` — plus an explicit **await-delivery seam**
(``wait_pending`` / ``flush``) so the same protocol code runs over a
transport whose delivery is not instantaneous, and one fact about the
deployment: ``hosted``, the parties whose inboxes live in this process.
The bus reads who is local from there and nowhere else.

There are two implementations:

* :class:`InMemoryTransport` is the synchronous single-process one; it
  hosts everyone.  Delivery is drain-based: the bus's receivers consume
  their inboxes (``MessageBus.receive`` decodes explicitly; every
  synchronisation round drains the rest), so the default transport is
  unbounded and inboxes stay empty between protocol phases.  A bounded
  ``capacity`` remains available for deployments that want an explicit
  backpressure bound — a full inbox **refuses** the message with
  :class:`TransportOverflowError` instead of evicting the oldest one
  (which would let a run continue with protocol flows mis-sequenced).

* :class:`SocketTransport` moves the same :class:`Envelope` bytes over
  real TCP sockets: one listening socket per *hosted* party on an asyncio
  event loop (run on a background thread), one lazily dialed connection
  per receiver.  Hosting all m parties on ephemeral localhost ports is the
  single-process ``transport="asyncio"``; hosting one party out of a
  shared address book is one node of the multi-process mesh
  (:mod:`repro.federation.runtime`).  Because arrival is asynchronous,
  callers synchronise through the seam: ``wait_pending`` blocks until a
  receiver has mail, ``flush`` until every frame sent to a hosted receiver
  has physically arrived.  Bytes that do not parse as a frame, or a frame
  on the wrong party's port, fail the run (:class:`FrameError`).

Byte accounting is done by the bus at delivery time, so the transport
never affects the measured totals; ``snapshot()`` exposes the transport's
own ``delivered`` / ``dropped`` counters so a lossy or refusing transport
is visible in every cost snapshot.
"""

from __future__ import annotations

import asyncio
import struct
import threading
from collections import deque
from collections.abc import Coroutine, Iterable, Sequence
from dataclasses import dataclass
from functools import partial
from typing import Any

__all__ = [
    "Envelope",
    "Transport",
    "TransportOverflowError",
    "FrameError",
    "InMemoryTransport",
    "SocketTransport",
    "encode_frame",
    "decode_frame",
    "make_transport",
]


def make_transport(spec: "Transport | str | None", n_parties: int) -> "Transport":
    """Resolve a transport spec: None/name/instance → :class:`Transport`.

    ``None`` and ``"inmemory"`` build the synchronous default;
    ``"asyncio"`` builds a :class:`SocketTransport` hosting all the
    parties on local sockets; an existing :class:`Transport` instance
    passes through (its party count must match).
    """
    if spec is None or spec == "inmemory":
        return InMemoryTransport(n_parties)
    if spec == "asyncio":
        return SocketTransport(n_parties)
    if isinstance(spec, Transport):
        if spec.n_parties != n_parties:
            raise ValueError(
                f"transport is wired for {spec.n_parties} parties, "
                f"need {n_parties}"
            )
        return spec
    raise ValueError(
        f"unknown transport {spec!r}: expected 'inmemory', 'asyncio', or a "
        f"Transport instance"
    )


class TransportOverflowError(RuntimeError):
    """A bounded inbox refused a message (delivery would have lost data)."""


class FrameError(ValueError):
    """Bytes off a socket that are not a frame this port may accept."""


@dataclass(frozen=True)
class Envelope:
    """One routed message: addressing, phase tag, and the wire bytes."""

    sender: int
    receiver: int
    tag: str
    data: bytes

    def __len__(self) -> int:
        return len(self.data)


# -- socket framing ----------------------------------------------------------

#: Frame body header: sender (u32), receiver (u32), tag length (u16).
_HEADER = struct.Struct("!IIH")
#: Length prefix (u32) covering the whole frame body.
_LENGTH = struct.Struct("!I")
#: An address book: one ``(host, port)`` per party, in party order.
_Book = list[tuple[str, int]]


def encode_frame(envelope: Envelope) -> bytes:
    """Length-prefixed socket framing of one :class:`Envelope`.

    Layout: ``u32 body_length | u32 sender | u32 receiver | u16 tag_length
    | tag (utf-8) | wire bytes``.  The payload bytes are exactly the
    codec's serialization — the frame adds addressing, not encoding.
    """
    tag = envelope.tag.encode("utf-8")
    body = (
        _HEADER.pack(envelope.sender, envelope.receiver, len(tag))
        + tag
        + envelope.data
    )
    return _LENGTH.pack(len(body)) + body


def decode_frame(body: bytes) -> Envelope:
    """Rebuild an :class:`Envelope` from a frame body (prefix stripped).

    Raises :class:`FrameError` — and nothing else — on a body that is not
    one: the bytes come off a socket anyone can write to.
    """
    if len(body) < _HEADER.size:
        raise FrameError(f"truncated frame of {len(body)} bytes")
    sender, receiver, tag_length = _HEADER.unpack_from(body)
    offset = _HEADER.size
    if len(body) < offset + tag_length:
        raise FrameError("truncated frame tag")
    try:
        tag = body[offset : offset + tag_length].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FrameError(f"frame tag is not utf-8: {exc}") from exc
    data = bytes(body[offset + tag_length :])
    return Envelope(sender=sender, receiver=receiver, tag=tag, data=data)


class Transport:
    """Interface every transport implements (sync or socket-backed), and
    the inbox bookkeeping the implementations here share."""

    n_parties: int
    #: The parties whose inboxes live in this transport (sorted).  Only
    #: they can be polled here; the bus and the flows loop over these.
    hosted: tuple[int, ...]
    #: Seconds ``wait_pending`` / ``flush`` block by default; zero for a
    #: transport that delivers instantaneously.
    timeout: float = 0.0

    def _open_inboxes(
        self, n_parties: int, hosted: Iterable[int] | None, capacity: int | None
    ) -> None:
        """Validate the shape; one empty FIFO inbox per hosted party."""
        if n_parties < 1:
            raise ValueError("transport needs at least one party")
        if capacity is not None and capacity < 1:
            raise ValueError("inbox capacity must be positive (or None)")
        self.n_parties = n_parties
        self.hosted = tuple(sorted(range(n_parties) if hosted is None else hosted))
        for party in self.hosted:
            self._check_party(party)
        self.capacity = capacity
        self._inboxes: dict[int, deque[Envelope]] = {p: deque() for p in self.hosted}
        self.delivered = 0  # total messages ever routed
        self.dropped = 0  # messages refused by a bounded inbox

    def _check_party(self, index: int) -> None:
        if not 0 <= index < self.n_parties:
            raise ValueError(f"party index {index} out of range")

    def _inbox(self, receiver: int) -> deque[Envelope]:
        try:
            return self._inboxes[receiver]
        except KeyError:
            raise ValueError(
                f"party {receiver}'s inbox is not hosted here (hosted: {self.hosted})"
            ) from None

    def _admit(self, envelope: Envelope) -> None:
        """Queue an envelope for its receiver — or refuse it, loudly, if her
        bounded inbox is full: evicting the oldest message instead (the
        seed did) silently mis-sequences every later receive."""
        inbox = self._inbox(envelope.receiver)
        if self.capacity is not None and len(inbox) >= self.capacity:
            self.dropped += 1
            raise TransportOverflowError(
                f"inbox of party {envelope.receiver} is full "
                f"(capacity={self.capacity}); delivering would lose a "
                f"protocol message"
            )
        inbox.append(envelope)
        self.delivered += 1

    def deliver(self, envelope: Envelope) -> None:
        """Route one serialized message to its receiver's inbox.

        Raises :class:`TransportOverflowError` instead of dropping when a
        bounded inbox is full — silent loss would let the run continue
        with protocol flows mis-sequenced.
        """
        raise NotImplementedError

    def poll(self, receiver: int) -> Envelope | None:
        """Pop the oldest pending message for ``receiver`` (None if idle)."""
        raise NotImplementedError

    def peek(self, receiver: int) -> Envelope | None:
        """The oldest pending message without consuming it (None if idle).

        Lets a receiver validate (tag, shape) *before* the pop, so a
        rejected message stays queued instead of being lost.
        """
        raise NotImplementedError

    def pending(self, receiver: int) -> int:
        """Number of undelivered messages waiting for ``receiver``."""
        raise NotImplementedError

    def requeue(self, envelope: Envelope) -> None:
        """Put an already-admitted envelope back onto its receiver's inbox.

        The control-plane preservation hook: a drain that pops a frame it
        must not consume (:meth:`MessageBus.drain` keeps ``ctl-*``
        administration out of the protocol books) hands it back here.  No
        delivery counters move — the frame was counted when it first
        arrived — and no capacity check runs: the frame was admitted once
        and refusing it now would lose it.
        """
        raise NotImplementedError

    # -- await-delivery seam ------------------------------------------------

    def wait_pending(
        self, receiver: int, count: int = 1, timeout: float | None = None
    ) -> bool:
        """Block until ``receiver`` has ``count`` pending messages.

        The synchronous transports deliver instantaneously, so the default
        implementation just reports the current state; the socket
        transport overrides it to actually wait for in-flight frames.
        """
        return self.pending(receiver) >= count

    def flush(self, timeout: float | None = None) -> None:
        """Block until every delivered message has reached its inbox.

        No-op for instantaneous transports.  Drain loops and end-of-run
        invariants call this first so in-flight frames cannot be mistaken
        for an empty inbox.
        """

    def close(self) -> None:
        """Release sockets/threads; idempotent (no-op for in-memory)."""

    def snapshot(self) -> dict[str, object]:
        """Transport-level delivery counters for cost snapshots."""
        return {
            "kind": type(self).__name__,
            "delivered": getattr(self, "delivered", 0),
            "dropped": getattr(self, "dropped", 0),
        }


class InMemoryTransport(Transport):
    """Synchronous in-process transport with per-receiver FIFO inboxes."""

    def __init__(self, n_parties: int, capacity: int | None = None):
        self._open_inboxes(n_parties, None, capacity)

    def deliver(self, envelope: Envelope) -> None:
        self._check_party(envelope.sender)
        self._check_party(envelope.receiver)
        self._admit(envelope)

    def poll(self, receiver: int) -> Envelope | None:
        inbox = self._inbox(receiver)
        return inbox.popleft() if inbox else None

    def peek(self, receiver: int) -> Envelope | None:
        inbox = self._inbox(receiver)
        return inbox[0] if inbox else None

    def pending(self, receiver: int) -> int:
        return len(self._inbox(receiver))

    def requeue(self, envelope: Envelope) -> None:
        self._inbox(envelope.receiver).append(envelope)

    def clear(self) -> None:
        for inbox in self._inboxes.values():
            inbox.clear()


class SocketTransport(Transport):
    """The same inbox semantics over real TCP sockets, for any hosting shape.

    The transport binds one listening socket per *hosted* party and keeps
    one inbox per hosted party; everything is served by a single asyncio
    event loop on a background daemon thread.  ``hosted=None`` hosts all m
    parties on ephemeral localhost ports (``transport="asyncio"``: one
    process, real sockets); ``hosted=(index,)`` with the deployment's
    shared ``addresses`` book is one party of a multi-process full mesh
    (:mod:`repro.federation.runtime`).  Nothing else distinguishes the two:
    the frames are the same :func:`encode_frame` bytes, so a peer cannot
    tell how many parties the other end hosts.

    The behaviour, whatever the shape:

    * **One send path.**  ``deliver`` writes the frame to the receiver's
      listening socket over a lazily dialed, persistent connection —
      loopback (a hosted receiver, the sender herself included) or remote
      alike.  A refused dial is retried until ``connect_timeout`` (peers
      start on their own schedule); the connection is watched for EOF and
      re-dialed once per send, so a peer restarted on the same address
      resumes receiving.  ``deliver`` returns once the frame is written
      and drained.
    * **FIFO.**  All of this transport's frames for one receiver travel
      over one connection, so she sees them in call order (per sending
      transport; arrivals from different peers interleave).
    * **flush** returns once every frame *this transport* sent to a hosted
      receiver is in her inbox.  The accept side recognises its own
      outgoing sockets, so an arrival from a remote peer never counts
      toward it.  Frames to a non-hosted receiver are flushed once
      written: whether a peer processed her mail is unknowable here.
    * **wait_pending** returns ``False`` once the timeout elapses with no
      frame; the bus turns that into a :class:`LookupError`, so a killed
      peer is a loud error at the next barrier, never a hang.  ``timeout``
      and ``connect_timeout`` are read per call.
    * **Failures are stored, then raised.**  A full bounded inbox
      (:class:`TransportOverflowError`), a frame that does not parse, and a
      frame addressed to another party or from a sender outside
      ``range(n_parties)`` (:class:`FrameError`) are detected on the loop
      thread, off the wire; the next ``deliver`` / ``poll`` / ``peek`` /
      ``wait_pending`` / ``flush`` raises them.
    * **close** is idempotent and reaps the reader tasks.
    """

    def __init__(
        self,
        n_parties: int,
        hosted: Sequence[int] | None = None,
        addresses: Sequence[tuple[str, int]] | None = None,
        capacity: int | None = None,
        timeout: float = 30.0,
        connect_timeout: float = 30.0,
    ):
        self._open_inboxes(n_parties, hosted, capacity)
        book = (
            [("127.0.0.1", 0)] * n_parties
            if addresses is None
            else [(str(host), int(port)) for host, port in addresses]
        )
        if len(book) != n_parties:
            raise ValueError(
                f"address book has {len(book)} entries for {n_parties} parties"
            )
        if any(port == 0 and p not in self.hosted for p, (_, port) in enumerate(book)):
            raise ValueError("the address book has no port for a party not hosted here")
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self._cond = threading.Condition()
        self._sent = 0  # frames handed to deliver() for a hosted receiver
        self._arrived = 0  # of those, frames that reached her inbox
        self._failure: Exception | None = None
        self._closed = False
        self._servers: list[asyncio.AbstractServer] = []
        self._writers: dict[int, asyncio.StreamWriter] = {}
        #: Local ends of this transport's connections to its own ports —
        #: how the accept side tells a loopback frame from a peer's.
        self._loopback: set[Any] = set()
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="socket-transport", daemon=True
        )
        self._thread.start()
        try:
            #: The address book, hosted entries carrying the port bound.
            self.addresses: _Book = self._call(self._start_servers(book))
        except BaseException:
            self.close()  # e.g. port taken: do not leak the loop thread
            raise

    # -- event loop side ----------------------------------------------------

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def _call(self, coroutine: Coroutine[Any, Any, Any]) -> Any:
        """Run a coroutine on the transport loop, blocking the caller."""
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        return future.result(self.timeout + self.connect_timeout)

    async def _start_servers(self, book: _Book) -> _Book:
        for party in self.hosted:
            host, port = book[party]
            server = await asyncio.start_server(
                partial(self._read_frames, party), host, port
            )
            self._servers.append(server)
            book[party] = (host, server.sockets[0].getsockname()[1])
        return book

    async def _read_frames(
        self,
        party: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve one connection accepted on ``party``'s port."""
        peer = writer.get_extra_info("peername")
        try:
            while True:
                (length,) = _LENGTH.unpack(await reader.readexactly(_LENGTH.size))
                envelope = decode_frame(await reader.readexactly(length))
                if envelope.receiver != party or envelope.sender >= self.n_parties:
                    raise FrameError(
                        f"a frame from party {envelope.sender} to party "
                        f"{envelope.receiver} arrived on party {party}'s port"
                    )
                # Looked up per frame: the dialing side records its socket
                # before it writes, not before this task is scheduled.
                self._enqueue(envelope, peer in self._loopback)
        except (asyncio.IncompleteReadError, ConnectionError, asyncio.CancelledError):
            pass  # she closed (or died), or shutdown is reaping this task
        except FrameError as exc:
            # Nothing after a bad frame on this connection can be trusted:
            # fail the run at the next synchronisation point.
            self._fail(exc)
        finally:
            writer.close()

    def _fail(self, failure: Exception) -> None:
        with self._cond:
            self._failure = self._failure or failure
            self._cond.notify_all()

    def _enqueue(self, envelope: Envelope, loopback: bool) -> None:
        with self._cond:
            try:
                self._admit(envelope)
            except TransportOverflowError as refusal:
                # The frame is already off the wire; refusing it must still
                # fail the run, at the next synchronisation point.
                self._fail(refusal)
            self._arrived += loopback
            self._cond.notify_all()

    async def _connect(self, peer: int) -> asyncio.StreamWriter:
        """Dial a party's port, retrying refused connections until the
        deadline: a refusal usually means "not up yet", and the run must
        not depend on process start order."""
        host, port = self.addresses[peer]
        deadline = self._loop.time() + self.connect_timeout
        while True:
            try:
                reader, writer = await asyncio.open_connection(host, port)
            except OSError as exc:
                if self._loop.time() >= deadline:
                    raise TimeoutError(
                        f"could not reach party {peer} at {host}:{port} "
                        f"within {self.connect_timeout:.1f}s"
                    ) from exc
                await asyncio.sleep(0.1)
                continue
            if peer in self.hosted:
                self._loopback.add(writer.get_extra_info("sockname"))
            # Connections are one-way: the far end never writes back, so a
            # completed read can only mean EOF (she exited or restarted).
            # Watching for it drops the dead writer *before* the next send
            # would write into a half-closed socket and silently lose the
            # frame — the next deliver re-dials.
            asyncio.ensure_future(self._watch(peer, reader, writer))
            return writer

    async def _watch(
        self,
        peer: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            await reader.read(1)
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        if self._writers.get(peer) is writer:
            del self._writers[peer]
        self._loopback.discard(writer.get_extra_info("sockname"))
        writer.close()

    async def _send(self, envelope: Envelope) -> None:
        peer = envelope.receiver
        frame = encode_frame(envelope)
        writer = self._writers.get(peer)
        if writer is not None:
            try:
                writer.write(frame)
                await writer.drain()
                return
            except (ConnectionError, OSError):
                # She went away since the last send; drop the dead
                # connection and re-dial (she may have restarted).
                writer.close()
                self._writers.pop(peer, None)
        writer = self._writers[peer] = await self._connect(peer)
        writer.write(frame)
        await writer.drain()

    async def _shutdown(self) -> None:
        for server in self._servers:
            server.close()
        # Every connection belongs to a task — its reader, or the watcher of
        # an outgoing socket — that closes it when cancelled.  Reap them all
        # so nothing runs (or logs "task was destroyed") after the loop stops.
        current = asyncio.current_task()
        stale = [t for t in asyncio.all_tasks() if t is not current]
        for task in stale:
            task.cancel()
        await asyncio.gather(*stale, return_exceptions=True)

    # -- Transport interface (caller side) ----------------------------------

    def _check_failure(self) -> None:
        if self._failure is not None:
            raise self._failure

    def deliver(self, envelope: Envelope) -> None:
        self._check_party(envelope.sender)
        self._check_party(envelope.receiver)
        if self._closed:
            raise RuntimeError("transport is closed")
        awaited = envelope.receiver in self.hosted  # flush waits for it
        with self._cond:
            # _failure is written from the daemon loop thread; read it
            # under the same lock that guards the in-flight counter.
            self._check_failure()
            self._sent += awaited
        try:
            self._call(self._send(envelope))
        except Exception:
            with self._cond:
                self._sent -= awaited
                self._cond.notify_all()
            raise

    def poll(self, receiver: int) -> Envelope | None:
        inbox = self._inbox(receiver)
        with self._cond:
            self._check_failure()
            return inbox.popleft() if inbox else None

    def peek(self, receiver: int) -> Envelope | None:
        inbox = self._inbox(receiver)
        with self._cond:
            self._check_failure()
            return inbox[0] if inbox else None

    def pending(self, receiver: int) -> int:
        inbox = self._inbox(receiver)
        with self._cond:
            return len(inbox)

    def requeue(self, envelope: Envelope) -> None:
        inbox = self._inbox(envelope.receiver)
        with self._cond:
            inbox.append(envelope)
            self._cond.notify_all()

    def wait_pending(
        self, receiver: int, count: int = 1, timeout: float | None = None
    ) -> bool:
        inbox = self._inbox(receiver)
        deadline = self.timeout if timeout is None else timeout
        with self._cond:
            satisfied = self._cond.wait_for(
                lambda: self._failure is not None or len(inbox) >= count,
                timeout=deadline,
            )
            self._check_failure()
            return satisfied

    def flush(self, timeout: float | None = None) -> None:
        deadline = self.timeout if timeout is None else timeout
        with self._cond:
            arrived = self._cond.wait_for(
                lambda: self._failure is not None or self._arrived >= self._sent,
                timeout=deadline,
            )
            self._check_failure()
            if not arrived:
                raise TimeoutError(
                    f"{self._sent - self._arrived} frames still in flight "
                    f"after {deadline:.1f}s"
                )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._call(self._shutdown())
        except Exception:
            pass  # tearing down anyway; the loop stop below still runs
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(self.timeout)
        self._loop.close()

    def __del__(self) -> None:
        try:
            if not self._closed and self._loop.is_running():
                self.close()
        except Exception:
            pass
