"""Canonical message flows for recurring protocol patterns.

The seed's accounting bugs came from every call site re-deriving the same
message pattern by hand.  This module defines each recurring flow exactly
once, as real payload sends on the bus, so the byte counts cannot drift
between call sites.

**Threshold decryption** (the paper's TPHE, §2.1): to jointly decrypt a
batch of k ciphertexts,

1. the holder broadcasts the k ciphertexts to the other m−1 clients
   (one round), and
2. every one of the m clients broadcasts her vector of k partial
   decryptions c^{d_i} mod n² so all clients can combine locally
   (one round).

Per batch that moves (m−1) ciphertext-vector messages plus m·(m−1)
partial-vector messages — the m partial-decryption shares the seed's
``joint_decrypt`` omitted entirely.

Partial-decryption *values* are always real: each party's
:class:`~repro.federation.party.PartyRuntime` *reacts* to the broadcast —
she receives the batch from her inbox, computes her c^{d_i} share vector
(locally with her key share, or inside her worker process in a
deployment), and broadcasts it; the flow returns the m vectors so the
caller reconstructs the plaintexts from them — and from nothing else.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.crypto.distkeygen import KEYGEN_TAG_PREFIX
from repro.network.bus import MessageBus
from repro.network.wire import PartialDecryptionVector, Request

__all__ = [
    "broadcast_request",
    "collect_replies",
    "react_runtimes",
    "record_threshold_decrypt",
    "run_distributed_keygen",
]


# ---------------------------------------------------------------------------
# reactive request/response flows
# ---------------------------------------------------------------------------


def react_runtimes(runtimes, exclude=()) -> None:
    """Pump each local runtime through exactly one reaction.

    The in-process half of a request flow: after the requesting party
    broadcasts, every *local* runtime has exactly one pending message (the
    request — per-inbox delivery is FIFO, so earlier-pumped parties' reply
    broadcasts queue behind it) and one :meth:`PartyRuntime.react` handles
    it.  ``None`` entries are parties living in their own standalone
    process — their serve loops react to the same bytes on their own
    clock, so there is nothing to pump here.
    """
    for runtime in runtimes:
        if runtime is None or runtime.index in exclude:
            continue
        runtime.react()


def broadcast_request(
    bus: MessageBus, sender: int, op: str, body, tag: str, runtimes=None
) -> None:
    """Broadcast ``Request(op, body)`` and pump the local responders."""
    # pivotlint: disable=PL005 -- request/collect primitive: the calling flow owns the round barrier after replies land
    bus.broadcast_payload(sender, Request(op, body), tag=tag)
    if runtimes is not None:
        react_runtimes(runtimes, exclude=(sender,))


def collect_replies(bus: MessageBus, receiver: int, senders) -> dict:
    """Receive one reply per expected sender, keyed by actual sender.

    Arrival order is deterministic in-process (pump order) but not over
    sockets — replies are keyed by the envelope's sender, never by
    position.
    """
    replies: dict[int, object] = {}
    expected = set(senders)
    for _ in range(len(expected)):
        sender, payload = bus.receive_any(receiver)
        if sender not in expected:
            raise ValueError(
                f"party {receiver} received a reply from unexpected "
                f"party {sender}"
            )
        if sender in replies:
            raise ValueError(
                f"party {receiver} received two replies from party {sender}"
            )
        replies[sender] = payload
    return replies


# ---------------------------------------------------------------------------
# distributed key generation (§3.4 without the dealer)
# ---------------------------------------------------------------------------


def run_distributed_keygen(bus: MessageBus, machines: dict) -> dict:
    """Drive the m-party Paillier keygen protocol over the bus.

    ``machines`` maps each *local* party index to her
    :class:`~repro.crypto.distkeygen.KeygenParty` state machine.  Every
    ``KeygenMessage`` a machine emits is sent as a real serialized payload
    from that party's endpoint (receiver ``-1`` broadcasts); every received
    frame is fed back into the addressed machine.  A single-process
    deployment passes all m machines and the protocol completes without
    blocking; a standalone party passes only her own machine and blocks on
    her socket inbox whenever she is waiting on remote waves (a stalled
    peer surfaces as the transport's flush timeout, never a silent hang).

    Returns ``{index: KeygenResult}`` for the local machines and applies
    the protocol's round count to this bus (lowest-index local machine's
    tally — all machines agree on it by construction).

    The driver is tag-disciplined: it consumes only ``kg-*`` frames
    (:data:`~repro.crypto.distkeygen.KEYGEN_TAG_PREFIX`).  In a standalone
    deployment the orchestrator finishes keygen first and immediately
    opens the control plane, so her ``ctl-*`` frame can race into a
    party's inbox while that party is still pumping her final wave; a
    tag-agnostic pump would feed it to the done state machine, which
    discards it — and the serve loop would then hang waiting for a request
    that no longer exists.  Foreign frames are instead deferred and
    re-enqueued (original sender and tag intact, still unaccounted) after
    the protocol's closing round, exactly where the serve loop looks.
    """
    if not machines:
        raise ValueError("no local keygen machines to run")
    outbox: deque = deque()
    deferred: list[tuple[int, int, str, Any]] = []

    def flush() -> None:
        while outbox:
            sender, message = outbox.popleft()
            if message.receiver < 0:
                # pivotlint: disable=PL005 -- inner pump of the keygen loop; run_distributed_keygen ends with bus.round(rounds)
                bus.broadcast_payload(sender, message.payload, tag=message.tag)
            else:
                bus.send_payload(
                    sender, message.receiver, message.payload, tag=message.tag
                )

    order = sorted(machines)

    def accept(index: int) -> bool:
        """Pop one frame for ``index``; True iff it fed the state machine.

        Keygen frames drive the protocol; anything else is foreign (the
        control plane racing ahead of the final wave), gets un-counted —
        ``receive_tagged`` books a consumption the protocol never made —
        and is parked in ``deferred`` for re-delivery after the run.
        """
        # pivotlint: disable=PL007 -- bounded by the transport: the pump
        # calls this under a pending() guard, and the blocking branch's
        # socket bus raises its flush/read timeout if a peer stalls (the
        # in-process bus never reaches that branch).
        sender, tag, payload = bus.receive_tagged(index)
        if not tag.startswith(KEYGEN_TAG_PREFIX):
            bus.consumed -= 1
            deferred.append((index, sender, tag, payload))
            return False
        for message in machines[index].receive(sender, tag, payload):
            outbox.append((index, message))
        return True

    for index in order:
        for message in machines[index].start():
            outbox.append((index, message))
    while True:
        flush()
        if all(machines[index].done for index in order):
            break
        progressed = False
        for index in order:
            machine = machines[index]
            while not machine.done and bus.pending(index):
                progressed |= accept(index)
        if progressed or outbox:
            continue
        # Every local machine is waiting on remote input: block on the
        # first unfinished party's inbox (socket transports raise their
        # flush timeout if a peer stalls; in-process runs never get here).
        index = next(i for i in order if not machines[i].done)
        accept(index)
    # Defensive drain: the waves are strictly synchronous, so a finished
    # machine should have an empty inbox — feed any keygen straggler back
    # anyway (done machines consume and emit nothing) so the protocol
    # phase ends with clean inboxes.
    for index in order:
        while bus.pending(index):
            accept(index)
    results = {index: machines[index].result for index in order}
    bus.round(results[order[0]].rounds)
    # Re-deliver what raced in mid-keygen: unaccounted like the original
    # control send, sender and tag intact, so the party's serve loop finds
    # the request exactly where its sender believes it to be.
    for index, sender, tag, payload in deferred:
        bus.send_control(sender, index, payload, tag=tag)
    return results


def record_threshold_decrypt(
    bus: MessageBus,
    ciphertexts: list,
    tag: str,
    runtimes: list,
    holder: int = 0,
) -> list[PartialDecryptionVector]:
    """Run one batched threshold decryption as real payload sends/receives.

    ``ciphertexts`` is the batch being decrypted (``Ciphertext`` or
    ``EncryptedNumber`` payloads, as held by the caller); ``runtimes`` the
    m per-party :class:`~repro.federation.party.PartyRuntime` objects.
    The holder computes her share vector from the batch in hand; every
    other local party computes hers from the ciphertexts she *received*,
    and each broadcasts her vector.  Parties living in their own
    standalone process have no runtime here (``None``) — their serve loops
    react to the same ciphertext broadcast on their own clock and their
    vectors arrive like everyone else's.  Returns the m vectors, ordered
    by party index.

    Marks the flow's two rounds (ciphertext broadcast, share broadcast).
    Every receiver drains and decodes her copy of each message
    (``MessageBus.receive``), so the flow leaves all inboxes empty and any
    wire-format drift surfaces here.

    The flow never assumes same-process synchrony: each ``receive`` awaits
    delivery through the transport's ``wait_pending`` seam, and the final
    ``round`` flushes in-flight frames before draining — over an
    :class:`~repro.network.transport.SocketTransport` the broadcast bytes
    genuinely cross a socket before the receivers decode them.
    """
    count = len(ciphertexts)
    if count == 0:
        return []
    m = bus.n_parties
    local = bus.local_parties
    if holder not in local:
        raise ValueError(
            f"decryption holder {holder} is not a local party of this bus"
        )
    if len(runtimes) != m:
        raise ValueError(f"expected {m} party runtimes, got {len(runtimes)}")
    bus.broadcast_payload(holder, list(ciphertexts), tag=tag)
    shares: dict[int, PartialDecryptionVector] = {}
    try:
        for party in local:
            if runtimes[party] is None:
                continue
            if party == holder:
                received = ciphertexts
            else:
                received = bus.receive(party, tag=tag)
                if len(received) != count:
                    raise ValueError(
                        f"party {party} received {len(received)} "
                        f"ciphertexts, expected {count}"
                    )
            shares[party] = runtimes[party].decryption_shares(received)
        for party, vector in shares.items():
            bus.broadcast_payload(party, vector, tag=tag)
        collected = {holder: shares[holder]}
        # Every local client receives the other m-1 partial-share vectors
        # and checks the batch shape before combining locally; the
        # holder's received set (plus her own vector) is what the caller
        # combines from.  Vectors are keyed by their embedded party index
        # — over sockets the m-1 senders' arrival order is not
        # deterministic.
        for party in local:
            for _ in range(m - 1):
                vector = bus.receive(party, tag=tag)
                if not isinstance(vector, PartialDecryptionVector) or len(
                    vector.values
                ) != count:
                    raise ValueError(
                        f"party {party} received a malformed "
                        f"partial-share vector"
                    )
                if party == holder:
                    collected[vector.party_index] = vector
    except Exception:
        # A mid-flow failure (shape mismatch, malformed vector, a compute
        # hook blowing up) must not strand the frames already broadcast
        # into peer inboxes: restore the drained invariant before
        # propagating, without charging rounds the protocol never
        # completed.
        bus.drain()
        raise
    bus.round(2)
    if sorted(collected) != list(range(m)):
        raise ValueError(
            f"threshold decryption needs all {m} share vectors, got parties "
            f"{sorted(collected)}"
        )
    return [collected[party] for party in range(m)]
