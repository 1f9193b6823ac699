"""Serialization-backed message bus between the m clients (paper §8.1).

The paper runs each client on its own machine in a LAN and measures wall
time.  Network *bytes* are measured here exactly: every protocol message
is serialized through the :mod:`repro.network.wire` format, routed to the
receivers' inboxes by a pluggable
:class:`~repro.network.transport.Transport`, and accounted at its
**measured** size (``len(serialize(payload))``), the only way the bus
charges a byte; it counts bytes and rounds and prices neither (the LAN
model is :class:`repro.analysis.costmodel.NetworkModel`).  For every send
the bus also records the codec's arithmetic size formula
(``bytes_estimated``); ``snapshot()`` reports both, and the
reconciliation tests assert ``bytes_measured == bytes_estimated``.

**Every flow runs in one scope**, ``with bus.flow(rounds):``
(:meth:`MessageBus.flow`).  Delivery is drain-based: receivers consume
their inboxes (:meth:`MessageBus.receive` pops a party's oldest message
and decodes it through the codec), and the scope's exit is the flow's
synchronisation barrier (:meth:`MessageBus.round`): it charges
``rounds`` and consumes whatever is left, so the end of a flow implies
empty inboxes (:meth:`MessageBus.assert_drained`).  A flow that raises
drains every local inbox instead, charges no round, and re-raises: a
failed flow strands no frame, and so does a scope that charges no round.
An accounted send raises unless a flow is open or a party runtime is
handling a message (:meth:`MessageBus.handling`: her reply belongs to the
flow that requested it), and a flow opened inside an open flow raises.

**The bus serves the party runtimes it hosts.**  A process that hosts a
party's inbox also hosts her :class:`~repro.federation.party.PartyRuntime`
and hands it to the bus (:meth:`MessageBus.host`): every runtime on the
in-memory and ``asyncio`` rows, party 0's alone in a multi-process
deployment's orchestrator.  A hosted party answers a frame the way a
standalone party process does, through ``PartyRuntime.handle``; no flow
schedules her.  Two rules say when:

* *on a wait*: a flow receives for party p and p's inbox is empty after
  a flush.  Each hosted runtime with pending mail handles one message
  (``react()``), lowest index first, and the passes repeat until p has
  mail or no runtime can progress.  Parties already blocked in a receive
  are skipped (a handler waiting for a node, the flow's own party).
  Then the bus waits for the transport, or raises :class:`LookupError`,
  so an in-memory stall fails at once;
* *at a barrier*: every hosted runtime except the super client's handles
  her pending mail, then the rest is drained.  The super client's unread
  mail is Eq. 10's accounting-only traffic to her: it is drained, not
  answered.

A handler that raises fails the flow it serves, whose scope drains.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from repro.network.transport import Envelope, InMemoryTransport, Transport
from repro.network.wire import WireCodec

__all__ = ["CONTROL_TAG_PREFIX", "Flow", "MessageBus"]

#: Wire tags starting with this prefix are control-plane administration
#: (:meth:`MessageBus.send_control` traffic: snapshots, key audits,
#: shutdown).  They live outside the protocol books — unaccounted on send,
#: uncounted on receive — so synchronisation barriers must not consume
#: them either: :meth:`MessageBus.drain` leaves them queued for whichever
#: serve loop the sender is actually addressing.
CONTROL_TAG_PREFIX = "ctl-"


@dataclass
class Flow:
    """One open protocol flow (:meth:`MessageBus.flow`): ``rounds`` is
    what its barrier charges."""

    rounds: int


class MessageBus:
    """Transport-backed byte/round accounting for the Paillier-layer protocol.

    The MPC engine keeps its own counters (it knows its batching
    structure); this bus covers everything else: broadcast of encrypted
    label vectors, encrypted statistics, mask-vector updates, conversion
    masks, partial decryptions, prediction vectors, and so on.  Tags allow
    per-phase breakdowns in benchmarks.

    Every send (:meth:`send_payload` / :meth:`broadcast_payload`)
    serializes the object through ``codec``, routes the bytes through the
    transport and records the measured size; a bus with no Paillier key
    takes a key-less ``WireCodec(None)``.
    """

    def __init__(
        self,
        n_parties: int,
        codec: WireCodec,
        transport: Transport | None = None,
    ):
        if n_parties < 1:
            raise ValueError("bus needs at least one party")
        self.n_parties = n_parties
        self.codec = codec
        # Delivery is drain-based: receivers consume their inboxes — either
        # explicitly (receive) or at the next synchronisation round — so the
        # default transport no longer needs a retention cap.
        self.transport = transport or InMemoryTransport(n_parties)
        self.messages = 0
        self.consumed = 0
        self.bytes = 0
        self.bytes_estimated = 0
        self.rounds = 0
        self.by_tag: dict[str, int] = defaultdict(int)
        #: The party runtimes this process hosts, by index (:meth:`host`).
        self._runtimes: dict[int, Any] = {}
        self._super_client: int | None = None
        #: Parties blocked in a receive right now: serving skips them.
        self._waiting: set[int] = set()
        #: The open flow, if any, and how many handlers are running.
        self._flow: Flow | None = None
        self._handlers = 0

    @property
    def local_parties(self) -> tuple[int, ...]:
        """Parties whose inboxes live on *this* bus: ``transport.hosted``.

        All of them when one process hosts every inbox; exactly one for a
        standalone party runtime, whose transport only binds her own port.
        The bus drains and checks these; flows never loop over them.
        """
        return self.transport.hosted

    def _check_party(self, index: int) -> None:
        if not 0 <= index < self.n_parties:
            raise ValueError(f"party index {index} out of range")

    # -- hosted party runtimes -----------------------------------------------

    def host(self, runtimes: Iterable[Any], super_client: int) -> None:
        """Serve these party runtimes from now on (see the module docstring).

        ``runtimes`` are the :class:`~repro.federation.party.PartyRuntime`
        objects of parties whose inboxes this bus hosts; ``None`` entries
        (parties hosted in another process) are skipped.  The super
        client's runtime answers on a wait but not at a barrier.
        """
        self._check_party(super_client)
        hosted = {r.index: r for r in runtimes if r is not None}
        for index in hosted:
            if index not in self.local_parties:
                raise ValueError(f"party {index}'s inbox is not hosted on this bus")
        self._runtimes = dict(sorted(hosted.items()))
        self._super_client = super_client

    def runtime(self, party: int) -> Any:
        """The hosted runtime of ``party``: a flow acting as her calls it."""
        try:
            return self._runtimes[party]
        except KeyError:
            raise ValueError(f"party {party} has no runtime on this bus") from None

    def _serve(self, party: int | None) -> None:
        """Let the hosted runtimes answer their mail, lowest index first.

        On a wait for ``party``: passes of one message per runtime with
        mail, until ``party`` has mail or no runtime can progress.  At a
        barrier (``None``): passes until no runtime but the super
        client's has mail.  Parties blocked in a receive are skipped.
        """
        progressed = True
        while progressed:
            self.transport.flush()
            if party is not None and self.transport.pending(party):
                return
            progressed = False
            for index, runtime in self._runtimes.items():
                if (
                    index in self._waiting
                    or (party is None and index == self._super_client)
                    or not self.transport.pending(index)
                ):
                    continue
                runtime.react()
                progressed = True

    # -- flows ---------------------------------------------------------------

    @contextmanager
    def flow(self, rounds: int) -> Iterator[Flow]:
        """The scope of one protocol flow (see the module docstring).

        On exit the barrier charges ``rounds`` (the yielded
        :class:`Flow`'s, which a flow whose count is known only at its end
        sets before exit); on an exception every local inbox is drained,
        no round is charged, and the exception propagates.
        """
        if self._flow is not None:
            raise RuntimeError("a flow is already open on this bus")
        self._flow = scope = Flow(rounds)
        try:
            yield scope
            self.round(scope.rounds)
        except BaseException:
            self.drain()
            raise
        finally:
            self._flow = None

    @contextmanager
    def handling(self) -> Iterator[None]:
        """A party runtime handles one message: her replies may be sent."""
        self._handlers += 1
        try:
            yield
        finally:
            self._handlers -= 1

    def _check_accounted(self, sender: int) -> None:
        self._check_party(sender)
        if self._flow is None and not self._handlers:
            raise RuntimeError(
                "an accounted send needs an open flow (MessageBus.flow) or a "
                "running handler"
            )

    # -- payload API (measured sizes) ----------------------------------------

    def send_payload(
        self, sender: int, receiver: int, payload: object, tag: str = ""
    ) -> int:
        """Serialize ``payload``, route it to ``receiver``, record its size.

        Returns the measured byte size of the serialized message.
        """
        self._check_accounted(sender)
        self._check_party(receiver)
        if sender == receiver:
            raise ValueError("a party does not message itself")
        data = self.codec.serialize(payload)
        self.transport.deliver(Envelope(sender, receiver, tag, data))
        self.messages += 1
        self.bytes += len(data)
        self.bytes_estimated += self.codec.estimate(payload)
        if tag:
            self.by_tag[tag] += len(data)
        return len(data)

    def broadcast_payload(self, sender: int, payload: object, tag: str = "") -> int:
        """One party sends the same serialized payload to every other party.

        The payload is serialized once and the bytes are delivered to all
        m−1 receivers; the fan-out multiplies the accounted volume exactly
        once (the seed's double-count applied it both here and at the call
        site).  Returns the per-receiver measured size.
        """
        self._check_accounted(sender)
        data = self.codec.serialize(payload)
        count = self.n_parties - 1
        for receiver in range(self.n_parties):
            if receiver != sender:
                self.transport.deliver(Envelope(sender, receiver, tag, data))
        self.messages += count
        self.bytes += len(data) * count
        self.bytes_estimated += self.codec.estimate(payload) * count
        if tag:
            self.by_tag[tag] += len(data) * count
        return len(data)

    # -- control plane (unaccounted) -----------------------------------------

    def send_control(
        self, sender: int, receiver: int, payload: object, tag: str
    ) -> None:
        """Ship a control-plane message without touching the protocol books.

        The multi-process rows need out-of-band administration — counter
        snapshots, key-material audits, shutdown — that the single-process
        rows perform with plain method calls.  Those
        messages are orchestration, not protocol: counting them would make
        the measured byte/message totals differ across deployment rows for
        identical protocol runs, which the parity suite pins.  They still
        travel through the transport (same sockets, same codec) so the
        standalone shape stays one-connection-per-peer.
        """
        self._check_party(sender)
        self._check_party(receiver)
        data = self.codec.serialize(payload)
        self.transport.deliver(Envelope(sender, receiver, tag, data))

    def receive_control(self, party: int) -> tuple[int, str, Any]:
        """Pop ``party``'s oldest message without counting it as consumed.

        Counterpart of :meth:`send_control`; also used by a runtime's serve
        loop when the popped message turns out to be control-plane.
        """
        envelope, payload = self._pop(party, counted=False)
        return envelope.sender, envelope.tag, payload

    # -- drain-based receiving ----------------------------------------------

    def _pop(
        self, party: int, tag: str | None = None, counted: bool = True
    ) -> tuple[Envelope, Any]:
        """Await, validate, decode, *then* consume ``party``'s oldest message.

        Validation comes before the pop so a rejected message stays queued
        (and visible to :meth:`assert_drained`) instead of being lost.
        """
        if (
            self._runtimes
            and party not in self._waiting
            and not self.transport.pending(party)
        ):
            self._waiting.add(party)
            try:
                self._serve(party)
            finally:
                self._waiting.discard(party)
        self.transport.wait_pending(party, 1)
        envelope = self.transport.peek(party)
        if envelope is None:
            expected = "a message" if tag is None else f"a {tag!r} message"
            raise LookupError(
                f"party {party} expected {expected} but her inbox was still "
                f"empty after the transport's {self.transport.timeout:g}s "
                f"timeout"
            )
        if tag is not None and envelope.tag != tag:
            raise ValueError(
                f"party {party} expected a {tag!r} message but the oldest "
                f"pending one is tagged {envelope.tag!r}"
            )
        payload = self.codec.deserialize(envelope.data)
        self.transport.poll(party)
        self.consumed += counted
        return envelope, payload

    def receive(self, party: int, tag: str | None = None) -> Any:
        """Pop ``party``'s oldest pending message and decode it.

        The receiving half of the payload API: the wire bytes routed by
        :meth:`send_payload` / :meth:`broadcast_payload` are deserialized
        back into protocol objects through the same
        :class:`~repro.network.wire.WireCodec`, so a payload send is real
        data flow, not just accounting.  With ``tag`` the oldest message
        must carry that tag (protocol flows are strictly ordered per
        receiver; a mismatch means a flow forgot to consume its messages).

        Raises :class:`LookupError` when the inbox is empty.  Over a
        socket transport "empty" is decided *after* awaiting delivery
        (``Transport.wait_pending``): a frame still in flight is mail, not
        absence of mail — this is the await-delivery seam that lets the
        same protocol flows run over non-instantaneous transports.
        """
        return self._pop(party, tag)[1]

    def receive_any(self, party: int, tag: str | None = None) -> tuple[int, Any]:
        """Like :meth:`receive`, but also return who sent the message.

        The reactive flows collect replies that may arrive in any
        cross-sender order (per-sender order is still FIFO); keying the
        result by the envelope's sender lets the collector reassemble
        party order without requiring global delivery order.
        """
        envelope, payload = self._pop(party, tag)
        return envelope.sender, payload

    def receive_tagged(self, party: int) -> tuple[int, str, Any]:
        """Pop ``party``'s oldest message, returning ``(sender, tag, payload)``.

        The event-loop receive: a reactive party runtime (and the
        distributed-keygen driver) does not know what arrives next — it
        dispatches on the envelope's tag and the payload's shape.  No tag
        validation is performed; the caller owns the dispatch.
        """
        envelope, payload = self._pop(party)
        return envelope.sender, envelope.tag, payload

    def drain(self, party: int | None = None) -> int:
        """Pop all pending *protocol* messages (one party, or everyone).

        Returns the number of messages consumed.  A flow scope drains on
        exit: its barrier is exactly the point where every party picks up
        her mail, and a failed flow drains instead.  The transport is
        flushed first so frames still in flight on a socket transport are
        drained too, not mistaken for empty inboxes.

        ``ctl-*`` frames are exempt: control-plane administration is
        unaccounted (:meth:`send_control`) and addressed to a serve loop,
        not to the protocol phase ending here — consuming one at a barrier
        would both skew ``consumed`` and silently eat a request the sender
        is still blocked on.  They are put back (order preserved) via
        :meth:`Transport.requeue`.
        """
        self.transport.flush()
        parties = self.local_parties if party is None else (party,)
        count = 0
        for receiver in parties:
            kept: list[Envelope] = []
            while (envelope := self.transport.poll(receiver)) is not None:
                if envelope.tag.startswith(CONTROL_TAG_PREFIX):
                    kept.append(envelope)
                else:
                    count += 1
            for envelope in kept:
                self.transport.requeue(envelope)
        self.consumed += count
        return count

    def pending(self, party: int) -> int:
        """Messages waiting for ``party`` (the endpoint-facing inbox API)."""
        self._check_party(party)
        self.transport.flush()
        return self.transport.pending(party)

    def pending_total(self) -> int:
        self.transport.flush()
        return sum(self.transport.pending(p) for p in self.local_parties)

    def assert_drained(self) -> None:
        """Every local inbox must be empty (end-of-training invariant)."""
        self.transport.flush()
        pending = {
            p: self.transport.pending(p)
            for p in self.local_parties
            if self.transport.pending(p)
        }
        if pending:
            raise AssertionError(
                f"undelivered protocol messages left in inboxes: {pending}"
            )

    def round(self, count: int = 1) -> None:
        """Mark ``count`` synchronisation rounds and deliver pending mail.

        The barrier at a flow scope's exit (:meth:`flow`, its only
        caller): every party has received the messages sent before it.
        Flows that need the decoded payload call :meth:`receive` *before*
        it.  At the barrier every hosted runtime but the super client's
        handles her pending mail, and everything still pending is
        consumed, which keeps inboxes empty at the end of every protocol
        phase (asserted by :meth:`assert_drained`).
        """
        if count < 0:
            raise ValueError("round count must be non-negative")
        if self._runtimes:
            self._serve(None)
        self.drain()
        self.rounds += count

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        return {
            "messages": self.messages,
            "consumed": self.consumed,
            "pending": self.pending_total(),
            "bytes": self.bytes,
            "bytes_measured": self.bytes,
            "bytes_estimated": self.bytes_estimated,
            "rounds": self.rounds,
            "by_tag": dict(self.by_tag),
            "transport": self.transport.snapshot(),
        }

    def reset(self, drain: bool = False) -> None:
        """Zero the counters, keeping them in sync with the transport.

        The seed's reset zeroed ``messages``/``consumed`` while leaving
        the transport inboxes populated, so every later ``consumed`` /
        ``pending`` figure was wrong.  Reset now refuses while messages
        are pending unless ``drain=True`` consumes them first.
        """
        if self.pending_total():
            if not drain:
                raise RuntimeError(
                    "cannot reset the bus with protocol messages still "
                    "pending in transport inboxes: receive/drain them "
                    "first, or pass drain=True to discard them"
                )
            self.drain()
        self.messages = 0
        self.consumed = 0
        self.bytes = 0
        self.bytes_estimated = 0
        self.rounds = 0
        self.by_tag = defaultdict(int)

    def close(self) -> None:
        """Release the transport's sockets/threads (no-op when in-memory)
        and the hosted runtimes, which refer back to this bus."""
        self._runtimes = {}
        self.transport.close()
