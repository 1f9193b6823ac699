"""Canonical message flows for recurring protocol patterns.

Each recurring flow is defined once, as real payload sends on the bus,
so the byte counts cannot drift between call sites.  A flow acts as one
party and knows nothing of where the others are hosted: it sends, and it
receives for that party.  The other parties answer through their own
``PartyRuntime.handle`` — served by the bus when they are hosted in this
process (:mod:`repro.network.bus`), by their serve loops otherwise.
Every flow runs inside one ``with bus.flow(rounds):`` scope, whose exit
is its barrier and which drains every local inbox if the flow fails.

**Threshold decryption** (the paper's TPHE, §2.1): to jointly decrypt a
batch of k ciphertexts,

1. the holder broadcasts the k ciphertexts to the other m−1 clients
   (one round), and
2. every other client sends the holder alone her vector of k partial
   decryptions c^{d_i} mod n² (one round), as her runtime's answer to
   the broadcast (its tag is one of ``DECRYPT_TAGS``); the holder
   computes her own from the batch in hand.

Per batch that moves (m−1) ciphertext-vector messages plus (m−1)
partial-vector messages.  The holder reconstructs the plaintexts from
the m vectors and from nothing else; she is the only party that learns
them, so nobody else is sent a vector.  A tree level's conversion folds
step 1 into its ``split-stats`` exchange (every party forms the masked
batch herself from the m parties' groups, ``PartyRuntime._join_level``)
and keeps step 2: :func:`collect_partial_vectors` serves both.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.crypto.distkeygen import KEYGEN_TAG_PREFIX
from repro.network.bus import MessageBus
from repro.network.wire import PartialDecryptionVector

__all__ = [
    "collect_partial_vectors",
    "collect_replies",
    "record_threshold_decrypt",
    "run_distributed_keygen",
]


# ---------------------------------------------------------------------------
# reactive request/response flows
# ---------------------------------------------------------------------------


def collect_replies(bus: MessageBus, receiver: int, senders: Any, tag: str) -> dict:
    """Receive one reply per expected sender, keyed by actual sender.

    Every reply carries ``tag``, its request's: one under another tag
    raises ``ValueError`` before it is read, and the flow's scope drains
    it.  Arrival order is deterministic in-process (the bus serves hosted
    runtimes by index) but not over sockets — replies are keyed by the
    envelope's sender, never by position.  Once every reply is in, mail
    still pending for ``receiver`` is read too, so a second reply raises
    ``ValueError`` even from the peer whose first one came last — when
    every peer is hosted in this process, over memory or sockets, since
    :meth:`MessageBus.pending` flushes only this process's sends.  A peer
    in another process can land a late duplicate after that check; the
    flow's barrier then drains it unread.
    """
    replies: dict[int, object] = {}
    expected = set(senders)
    while len(replies) < len(expected) or bus.pending(receiver):
        sender, payload = bus.receive_any(receiver, tag)
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
    order = sorted(machines)

    def accept(index: int) -> bool:
        """Pop one frame for ``index``; True iff it fed the state machine.

        Keygen frames drive the protocol; anything else is foreign (the
        control plane racing ahead of the final wave), gets un-counted —
        ``receive_tagged`` books a consumption the protocol never made —
        and is parked in ``deferred`` for re-delivery after the run.
        """
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
    # The count is the protocol's, known once it ends: set before exit.
    with bus.flow(0) as flow:
        while True:
            while outbox:
                sender, message = outbox.popleft()
                if message.receiver < 0:
                    bus.broadcast_payload(sender, message.payload, tag=message.tag)
                else:
                    bus.send_payload(
                        sender, message.receiver, message.payload, tag=message.tag
                    )
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
        flow.rounds = results[order[0]].rounds
    # Re-deliver what raced in mid-keygen: unaccounted like the original
    # control send, sender and tag intact, so the party's serve loop finds
    # the request exactly where its sender believes it to be.
    for index, sender, tag, payload in deferred:
        bus.send_control(sender, index, payload, tag=tag)
    return results


def collect_partial_vectors(
    bus: MessageBus, holder: int, count: int, tag: str, replies: bool = False
) -> tuple[dict[int, PartialDecryptionVector], dict[int, Any]]:
    """Receive, at ``holder``, the m − 1 other parties' c^{d_i} vectors of
    a ``count``-ciphertext batch under ``tag``, keyed by sender.

    With ``replies``, every other party also sends the holder one reply
    under ``tag`` ahead of her vector (a tree level's ``split-stats``
    exchange), and the replies come back keyed by sender as well.  Frames
    from different senders are not ordered over sockets, so another
    party's vector may arrive before a reply: each frame is placed by its
    type.  A second frame of one kind from one sender, or a vector of the
    wrong length or party, raises ``ValueError``.  Once every expected
    frame is in, mail still pending for ``holder`` is read too, so a late
    second frame raises as well — from peers hosted in this process, as in
    :func:`collect_replies`.
    """
    expected = (bus.n_parties - 1) * (2 if replies else 1)
    vectors: dict[int, PartialDecryptionVector] = {}
    answers: dict[int, Any] = {}
    while len(vectors) + len(answers) < expected or bus.pending(holder):
        sender, payload = bus.receive_any(holder, tag=tag)
        if isinstance(payload, PartialDecryptionVector):
            if sender in vectors:
                raise ValueError(
                    f"party {holder} received two partial-decryption vectors "
                    f"of one {tag!r} batch from party {sender}"
                )
            if payload.party_index != sender or len(payload.values) != count:
                raise ValueError(
                    f"party {holder} received a malformed partial-share "
                    f"vector from party {sender}"
                )
            vectors[sender] = payload
        elif replies and sender not in answers:
            answers[sender] = payload
        else:
            raise ValueError(
                f"party {holder} received an unexpected {tag!r} frame from "
                f"party {sender}"
            )
    return vectors, answers


def record_threshold_decrypt(
    bus: MessageBus,
    ciphertexts: list,
    tag: str,
    holder: int = 0,
) -> list[PartialDecryptionVector]:
    """Run one batched threshold decryption as real payload sends/receives.

    ``ciphertexts`` is the batch as held by ``holder`` (``Ciphertext`` or
    ``EncryptedNumber`` payloads) and ``tag`` one of ``DECRYPT_TAGS``, so
    that every other party's runtime answers the broadcast with her
    c^{d_i} vector, sent to the holder alone.  Three steps:

    1. the holder broadcasts the batch and computes her own vector with
       her hosted runtime;
    2. she collects and checks the m − 1 other vectors
       (:func:`collect_partial_vectors`); while she waits, the bus serves
       the hosted parties;
    3. the scope's barrier charges the flow's two rounds: the batch, then
       the vectors.

    Returns the m vectors, ordered by party index.  A mid-flow failure
    drains every local inbox before it propagates, and charges no round.
    """
    count = len(ciphertexts)
    if count == 0:
        return []
    runtime = bus.runtime(holder)
    # pivotlint: disable=PL011 -- PL011 sees only the acting party's sends (a CHANGES.md FOUND line): the second phase is the peers' vectors to the holder
    with bus.flow(2):
        bus.broadcast_payload(holder, list(ciphertexts), tag=tag)
        own = runtime.decryption_shares(ciphertexts)
        collected, _ = collect_partial_vectors(bus, holder, count, tag)
    collected[holder] = own
    return [collected[party] for party in range(bus.n_parties)]
