"""Serialization-backed message bus between the m clients (paper §8.1).

The paper runs each client on its own machine in a LAN and measures wall
time.  In this reproduction all clients live in one process, so network
*time* cannot be observed — but network *bytes* can be, exactly: every
protocol message is serialized through the :mod:`repro.network.wire`
format, routed to the receivers' inboxes by a pluggable
:class:`~repro.network.transport.Transport`, and accounted at its
**measured** size (``len(serialize(payload))``).

Delivery is **drain-based**: receivers actually consume their inboxes.
:meth:`MessageBus.receive` pops a party's oldest message and decodes it
back into protocol objects through the codec (the threshold-decryption
flow does this for every receiver), and :meth:`MessageBus.round` — the
synchronisation barrier — drains whatever a flow did not decode
explicitly.  End of training therefore implies empty inboxes
(:meth:`MessageBus.assert_drained`), which the federation API and the
network tests check after every run.

Received payloads are *used*, not just discarded: each party's
:class:`~repro.federation.party.PartyRuntime` reacts to the decrypt
flow's ciphertext broadcast by receiving it here, exponentiating with
her own key share, and broadcasting her real
:class:`~repro.network.wire.PartialDecryptionVector` back — the
plaintexts are then reconstructed from the m received vectors and from
nothing else.

This replaces the seed's accounting-only bus, whose hand-maintained
``n_bytes`` formulas had drifted from the protocol (an (m−1) double-count
on Algorithm 2 conversions; threshold decryptions missing their m
partial-decryption shares).  With ``send_payload`` / ``broadcast_payload``
the byte counts are correct by construction: the message must exist as
bytes before it can be counted.  For every payload send the bus also
records the codec's arithmetic size formula (``bytes_estimated``);
``snapshot()`` reports both so benchmarks and the reconciliation test can
assert ``bytes_measured == bytes_estimated`` — any drift between formula
and wire format fails the build.

:class:`NetworkModel` still converts tallies into a modeled LAN time

    time = rounds * latency + bytes / bandwidth,

which together with the operation-cost calibration in
:mod:`repro.analysis` reconstructs the paper's Table-2 cost structure
(DESIGN.md §4.1 documents this substitution).  The legacy ``send`` /
``broadcast(n_bytes)`` estimate API remains for messages without a wire
type yet (the malicious model's ZKP proofs, the plaintext baselines); the
Pivot core protocols use payload sends exclusively.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any

from repro.network.transport import Envelope, InMemoryTransport, Transport
from repro.network.wire import WireCodec

__all__ = ["CONTROL_TAG_PREFIX", "NetworkModel", "MessageBus"]

#: Wire tags starting with this prefix are control-plane administration
#: (:meth:`MessageBus.send_control` traffic: snapshots, key audits,
#: shutdown).  They live outside the protocol books — unaccounted on send,
#: uncounted on receive — so synchronisation barriers must not consume
#: them either: :meth:`MessageBus.drain` leaves them queued for whichever
#: serve loop the sender is actually addressing.
CONTROL_TAG_PREFIX = "ctl-"


@dataclass(frozen=True)
class NetworkModel:
    """A simple LAN cost model (defaults match a 1 GbE cluster)."""

    latency_seconds: float = 0.5e-3
    bandwidth_bytes_per_second: float = 125e6  # 1 Gbit/s

    def time(self, rounds: int, n_bytes: int) -> float:
        return rounds * self.latency_seconds + n_bytes / self.bandwidth_bytes_per_second


class MessageBus:
    """Transport-backed byte/round accounting for the Paillier-layer protocol.

    The MPC engine keeps its own counters (it knows its batching
    structure); this bus covers everything else: broadcast of encrypted
    label vectors, encrypted statistics, mask-vector updates, conversion
    masks, partial decryptions, prediction vectors, and so on.  Tags allow
    per-phase breakdowns in benchmarks.

    A bus built with a :class:`~repro.network.wire.WireCodec` supports the
    payload API (:meth:`send_payload` / :meth:`broadcast_payload`), which
    serializes the object, routes the bytes through the transport and
    records the measured size.  A codec-less bus only supports the legacy
    estimate API.
    """

    def __init__(
        self,
        n_parties: int,
        model: NetworkModel | None = None,
        codec: WireCodec | None = None,
        transport: Transport | None = None,
    ):
        if n_parties < 1:
            raise ValueError("bus needs at least one party")
        self.n_parties = n_parties
        self.model = model or NetworkModel()
        self.codec = codec
        # Delivery is drain-based: receivers consume their inboxes — either
        # explicitly (receive) or at the next synchronisation round — so the
        # default transport no longer needs a retention cap.
        self.transport = transport or InMemoryTransport(n_parties)
        self.messages = 0
        self.consumed = 0
        self.bytes = 0
        self.bytes_measured = 0
        self.bytes_estimated = 0
        self.rounds = 0
        self.by_tag: dict[str, int] = defaultdict(int)

    @property
    def local_parties(self) -> tuple[int, ...]:
        """Parties whose inboxes live on *this* bus: ``transport.hosted``.

        All of them when one process hosts every inbox; exactly one for a
        standalone party runtime, whose transport only binds her own port.
        Flows that loop over receivers must loop over these, not
        ``range(n_parties)``.
        """
        return self.transport.hosted

    def _check_party(self, index: int) -> None:
        if not 0 <= index < self.n_parties:
            raise ValueError(f"party index {index} out of range")

    # -- payload API (measured sizes) ----------------------------------------

    def _serialize(self, payload: object) -> tuple[bytes, int]:
        if self.codec is None:
            raise ValueError(
                "bus was built without a WireCodec; payload sends need one"
            )
        return self.codec.serialize(payload), self.codec.estimate(payload)

    def send_payload(
        self, sender: int, receiver: int, payload: object, tag: str = ""
    ) -> int:
        """Serialize ``payload``, route it to ``receiver``, record its size.

        Returns the measured byte size of the serialized message.
        """
        self._check_party(sender)
        self._check_party(receiver)
        if sender == receiver:
            raise ValueError("a party does not message itself")
        data, estimated = self._serialize(payload)
        self.transport.deliver(Envelope(sender, receiver, tag, data))
        self.messages += 1
        self.bytes += len(data)
        self.bytes_measured += len(data)
        self.bytes_estimated += estimated
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
        self._check_party(sender)
        data, estimated = self._serialize(payload)
        count = self.n_parties - 1
        for receiver in range(self.n_parties):
            if receiver != sender:
                self.transport.deliver(Envelope(sender, receiver, tag, data))
        self.messages += count
        self.bytes += len(data) * count
        self.bytes_measured += len(data) * count
        self.bytes_estimated += estimated * count
        if tag:
            self.by_tag[tag] += len(data) * count
        return len(data)

    # -- control plane (unaccounted) -----------------------------------------

    def send_control(
        self, sender: int, receiver: int, payload: object, tag: str
    ) -> None:
        """Ship a control-plane message without touching the protocol books.

        The standalone runtime topology needs out-of-band administration —
        counter snapshots, key-material audits, shutdown — that the other
        topologies perform over worker pipes or plain method calls.  Those
        messages are orchestration, not protocol: counting them would make
        the measured byte/message totals differ across deployment rows for
        identical protocol runs, which the parity suite pins.  They still
        travel through the transport (same sockets, same codec) so the
        standalone shape stays one-connection-per-peer.
        """
        self._check_party(sender)
        self._check_party(receiver)
        data, _ = self._serialize(payload)
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
        if self.codec is None:
            raise ValueError(
                "bus was built without a WireCodec; cannot decode payloads"
            )
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

    def receive_raw(self, party: int):
        """Pop ``party``'s oldest envelope *undecoded* (or None).

        Used by the deployed topology's runtime bridge: the orchestrator
        ships the raw envelope over the worker pipe and the worker-side
        runtime deserializes it with *her own* codec — the bytes cross
        into the party's authority exactly as they left the wire.
        """
        self._check_party(party)
        self.transport.flush()
        envelope = self.transport.poll(party)
        if envelope is not None:
            self.consumed += 1
        return envelope

    def drain(self, party: int | None = None) -> int:
        """Pop all pending *protocol* messages (one party, or everyone).

        Returns the number of messages consumed.  ``round`` drains
        implicitly: a synchronisation barrier is exactly the point where
        every party picks up her mail.  The transport is flushed first so
        frames still in flight on a socket transport are drained too, not
        mistaken for empty inboxes.

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

    # -- legacy estimate API -------------------------------------------------

    def send(self, sender: int, receiver: int, n_bytes: int, tag: str = "") -> None:
        """Record an estimated send (no wire type yet; prefer send_payload)."""
        self._check_party(sender)
        self._check_party(receiver)
        if sender == receiver:
            raise ValueError("a party does not message itself")
        self.messages += 1
        self.bytes += n_bytes
        if tag:
            self.by_tag[tag] += n_bytes

    def broadcast(self, sender: int, n_bytes: int, tag: str = "") -> None:
        """Record an estimated broadcast of ``n_bytes`` to every other party."""
        self._check_party(sender)
        count = self.n_parties - 1
        self.messages += count
        self.bytes += n_bytes * count
        if tag:
            self.by_tag[tag] += n_bytes * count

    def round(self, count: int = 1) -> None:
        """Mark ``count`` synchronisation rounds and deliver pending mail.

        A round is a barrier: every party has received the messages sent
        before it.  Flows that need the decoded payload call
        :meth:`receive` *before* the round; everything still pending at the
        barrier is consumed here, which keeps inboxes empty at the end of
        every protocol phase (asserted by :meth:`assert_drained`).
        """
        if count < 0:
            raise ValueError("round count must be non-negative")
        self.rounds += count
        if count:
            self.drain()

    # -- reporting -----------------------------------------------------------

    def simulated_time(self, extra_rounds: int = 0, extra_bytes: int = 0) -> float:
        return self.model.time(self.rounds + extra_rounds, self.bytes + extra_bytes)

    def snapshot(self) -> dict[str, object]:
        return {
            "messages": self.messages,
            "consumed": self.consumed,
            "pending": self.pending_total(),
            "bytes": self.bytes,
            "bytes_measured": self.bytes_measured,
            "bytes_estimated": self.bytes_estimated,
            "rounds": self.rounds,
            "simulated_seconds": self.simulated_time(),
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
        self.bytes_measured = 0
        self.bytes_estimated = 0
        self.rounds = 0
        self.by_tag = defaultdict(int)

    def close(self) -> None:
        """Release the transport's sockets/threads (no-op when in-memory)."""
        self.transport.close()
