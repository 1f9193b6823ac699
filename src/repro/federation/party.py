"""The Party abstraction: one organisation in a vertical federation (§3.1).

A party owns exactly one client's feature columns (behind a
:class:`~repro.federation.locality.LocalView` read guard), her partial
threshold-Paillier secret key, and a :class:`PartyEndpoint` on the message
bus.  The *super client* party additionally owns the label vector.  A
party is constructed with raw local data and *bound* by the
:class:`~repro.federation.federation.Federation` during assembly, which
assigns the index, the global column ids, the key share, and the endpoint.

:class:`PartyRuntime` is the party's *reactive* protocol half: it
answers every frame that reaches her inbox through
:meth:`PartyRuntime.handle` — requests for her split statistics (and the
other parties' groups of a tree level), split application, mask
contributions and logistic batch work, and threshold-decryption batches
(paper §2.1: every one of the m clients must exponentiate with her own
``d_i`` for any plaintext to exist).  A party's
runtime lives in the process that hosts her inbox and holds her key
share, and that process's message bus serves it
(:meth:`~repro.network.bus.MessageBus.host`); in her own process
:class:`~repro.federation.runtime.StandalonePartyRuntime` runs the same
``handle`` in a serve loop.  Either way no flow schedules her: she
answers when a frame arrives.
"""

from __future__ import annotations

import operator
import secrets
from dataclasses import dataclass
from functools import reduce
from typing import Any, NoReturn, Sequence

import numpy as np

from repro.crypto.encoding import EncryptedNumber, fixed_point_dot
from repro.crypto.paillier import Ciphertext
from repro.federation.locality import LocalView, as_party
from repro.mpc.conversion import mask_layout, segment_layout
from repro.network.wire import PartialDecryptionVector, Request, ShareVector

__all__ = [
    "DECRYPT_TAGS",
    "Party",
    "PartyEndpoint",
    "PartyRuntime",
    "PivotClient",
    "RemoteColumns",
    "level_entries",
    "split_root_entry",
]

#: Tags whose ciphertext-batch broadcasts are threshold-decryption requests:
#: a runtime that pops a list of ciphertexts under one of these tags answers
#: its sender with her c^{d_i} share vector.  (Other ciphertext-list traffic
#: — split statistics, prediction vectors — carries its own tags and is
#: consumed without a reply; a tree level's partial decryptions ride its
#: ``split-stats`` exchange.  Eq. 10 also sends the super client ciphertext
#: lists under ``eq10``, for accounting only: the bus drains her mail at a
#: barrier rather than have her answer it.)
DECRYPT_TAGS = frozenset({"threshold-decrypt", "mpc-convert", "eq10"})


def split_root_entry(body: list) -> tuple[list | None, list]:
    """A body of two-item node entries split into the root's entry
    ``[weights, riding gammas]`` that opens level 0's first request (so
    its body is odd), or ``None``, and the rest."""
    if len(body) % 2:
        return body[0], body[1:]
    return None, body


def level_entries(body: list, width: int) -> list[list]:
    """A tree-level request body cut into its nodes' entries: the body is
    the entries concatenated, ``width`` items each."""
    if len(body) % width:
        raise ValueError(
            f"a level body of {len(body)} items is not {width}-item entries"
        )
    return [list(body[start : start + width]) for start in range(0, len(body), width)]


@dataclass
class PivotClient:
    """One client u_i: her local features and candidate splits (§3.1).

    ``features`` is a :class:`~repro.federation.locality.LocalView`: the
    columns are readable only inside this client's party scope.  The
    indicator helpers — the client's own local computations whose
    *outputs* enter the protocol — run inside :meth:`local` themselves.
    ``split_values`` are derived local data too, but the basic protocol
    reveals the chosen threshold at every split, so they stay unguarded
    plaintext.
    """

    index: int
    features: LocalView  # n x d_i, client-local columns (read-guarded)
    split_values: list[list[float]]  # per local feature, <= b thresholds

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def local(self) -> Any:
        """Scope marking a block as this client's own computation."""
        return as_party(self.index)

    def n_splits(self, feature: int) -> int:
        return len(self.split_values[feature])

    def indicator(self, feature: int, split: int) -> np.ndarray:
        """v_l for the split: 1 where sample's value <= threshold (§4.1)."""
        threshold = self.split_values[feature][split]
        with self.local():
            column = self.features.read()[:, feature]
        return (column <= threshold).astype(np.int64)

    def indicator_matrix(self, feature: int) -> np.ndarray:
        """V (n x n'): columns are the v_l vectors of one feature (§5.2)."""
        return np.column_stack(
            [self.indicator(feature, s) for s in range(self.n_splits(feature))]
        )

    def local_block(self) -> np.ndarray:
        """A copy of this client's n × d_i training block, read once inside
        her scope (GBDT's joint prediction over the training rows)."""
        with self.local():
            return np.array(self.features.read(), dtype=np.float64)

    def batch_sums(
        self, rows: list[int], weights: list[EncryptedNumber]
    ) -> list[EncryptedNumber]:
        """Per-sample encrypted partial sums [ξ_i] = x_t,i ⊙ [θ_i] (§7.3).

        The logistic trainer's per-batch local computation: for each
        training row ``t`` the client reads *her own* columns in scope and
        folds them into the encrypted weight block homomorphically.  Only
        the ciphertext outputs leave the client; in the multi-process rows
        the whole computation runs in her own process (``lr-batch-sums``).
        """
        encoder = weights[0].encoder
        with self.local():
            local = self.features.read()
            row_data = [np.asarray(local[t], dtype=np.float64) for t in rows]
        return [fixed_point_dot(encoder, row, weights) for row in row_data]

    def weight_update(
        self,
        rows: list[int],
        weights: list[EncryptedNumber],
        loss_cts: list[EncryptedNumber],
        scale: float,
    ) -> list[EncryptedNumber]:
        """Homomorphic gradient step on this client's weight block (§7.3):
        [θ_ij] -= scale · Σ_t x_tij ⊗ [loss_t], reading x only in scope."""
        encoder = weights[0].encoder
        with self.local():
            local = self.features.read()
            row_data = [np.asarray(local[t], dtype=np.float64) for t in rows]
        updated = []
        for j, weight in enumerate(weights):
            gradient = None
            for row, loss_ct in zip(row_data, loss_cts):
                coefficient = encoder.encode(-scale * float(row[j]))
                term = loss_ct * coefficient
                gradient = term if gradient is None else gradient + term
            updated.append(weight + gradient)
        return updated


class RemoteColumns:
    """Stand-in for a party's columns that live in another process.

    Shape metadata stays readable (feature counts are public); every data
    access raises ``RuntimeError``: this process holds no such array, and
    the party's columns are reachable only through her sanctioned local
    computations in her own standalone runtime process.
    """

    __slots__ = ("owner", "shape")

    def __init__(self, owner: int, shape: tuple[int, int]) -> None:
        self.owner = owner
        self.shape = shape

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def __len__(self) -> int:
        return self.shape[0]

    def _refuse(self) -> NoReturn:
        raise RuntimeError(
            f"party {self.owner}'s raw columns live in her standalone "
            "runtime process; "
            "this process holds no copy to read (only protocol-level "
            "outputs travel back)"
        )

    def read(self) -> np.ndarray:
        self._refuse()

    def __getitem__(self, key: Any) -> Any:
        self._refuse()

    def __array__(self, dtype: Any = None, copy: bool | None = None) -> np.ndarray:
        self._refuse()

    def __repr__(self) -> str:
        return f"RemoteColumns(party {self.owner}, shape={self.shape})"


@dataclass
class PartyEndpoint:
    """A party's handle on the transport: send/receive as herself.

    Thin binding of the shared :class:`~repro.network.bus.MessageBus` to
    one party index — the deployment-shaped API (each party only ever
    addresses messages *from herself* and reads *her own* inbox).
    """

    bus: Any
    index: int

    def send(self, receiver: int, payload: Any, tag: str = "") -> int:
        """Serialize and route ``payload`` to ``receiver``; returns bytes."""
        return self.bus.send_payload(self.index, receiver, payload, tag=tag)

    def broadcast(self, payload: Any, tag: str = "") -> int:
        """Send ``payload`` to every other party; returns per-receiver bytes."""
        return self.bus.broadcast_payload(self.index, payload, tag=tag)

    def receive(self, tag: str | None = None) -> Any:
        """Pop and decode this party's oldest pending message."""
        return self.bus.receive(self.index, tag=tag)

    def pending(self) -> int:
        """Messages waiting in this party's inbox.

        Goes through the bus API (not ``bus.transport`` internals): a
        remote transport must get the chance to flush in-flight frames
        before the count is read.
        """
        return self.bus.pending(self.index)


class PartyRuntime:
    """A party's full reactive event loop: every protocol flow she takes
    part in is a reaction to a message on her own endpoint.

    The super client *requests* — candidate-split statistics (with their
    Algorithm 2 masks), split application, MPC mask contributions,
    logistic batch sums and weight updates, threshold-decryption shares —
    and each party *reacts* with
    her own local computation over her own columns and key material.  The
    orchestrator is not the protocol's scheduler; it is one party (the
    super client) driving her side of request/response flows that the
    other parties answer on their own event loops, and a plaintext only
    exists once every party has answered a decryption with her real
    c^{d_i} share vector, computed with her own ``key_share``.  A runtime
    exists only in the process that hosts the party's inbox, so that
    share is always local.

    The tree flows carry a whole tree level per message, because the
    trainer grows the tree one depth at a time.  A body is its nodes'
    entries concatenated, each of a fixed width (:func:`level_entries`),
    so a level of one node sends exactly a one-node message: a
    ``split-stats`` request names every node of the level whose
    statistics are computed (``key, available``; the trainer derives an
    open right child's from its parent's and its sibling's) after the
    level's layout, the super client's
    masked groups and, where the label vectors do not ride, a ``key,
    gammas`` entry per node; her reply to the super client alone is one
    masked group vector over all of them and her shares of the masks
    (:meth:`split_statistics`), and the same groups go to every other
    non-super party (``level-groups``).  Once she holds all m parties'
    groups of the level she multiplies them into the level's masked
    batch and sends the super client alone her partial decryption of it
    (:meth:`_join_level`).  A ``split-apply`` request lists every node
    of the level she owns the split of (``key, feature, split, ride,
    build``), and her ``node-split`` reply lists them all (``key,
    threshold, alpha_l, gam_l``; :meth:`apply_split`; enhanced Eq. 10
    sends the same list, thresholds empty).  Level 0's request also
    carries the root's entry (:func:`split_root_entry`).

    State: a store of tree-node payloads keyed by heap position (root = 1,
    children of k at 2k / 2k+1), each ``[alpha, gammas-or-None]``.  Only
    nodes whose mask vector someone will read are stored: each
    ``node-split`` entry pops the parent and stores both children — the
    left as received, the right derived locally — unless they are leaves
    at the depth limit (or without a candidate split), which store
    nothing.  A leaf pruned higher up keeps its entry, so the store is
    bounded by the tree's leaf count.  Cross-sender socket ordering is
    absorbed by :meth:`_await_node`: a handler that needs a node not yet
    stored keeps reacting to queued messages until it arrives (in-process
    delivery is FIFO per inbox, so the loop only ever spins over real
    transports; while she waits the bus skips her and serves the others).
    """

    def __init__(
        self,
        endpoint: PartyEndpoint,
        *,
        key_share: Any,
        client: Any = None,
        engine: Any = None,
        field_q: int | None = None,
    ) -> None:
        self.endpoint = endpoint
        self.index = endpoint.index
        self._key_share = key_share
        #: The party's PivotClient (her columns + candidate splits).
        self.client = client
        #: Her BatchCryptoEngine (shared in-process; her own in standalone).
        self.engine = engine
        #: MPC share modulus for mask-contribution reactions.
        self.field_q = field_q
        #: node key -> [alpha, gammas-or-None] (decoded ciphertext vectors).
        self.nodes: dict[int, list] = {}
        #: The tree level in formation: the super client whose
        #: ``split-stats`` request started it (None before it arrives), and
        #: the masked groups received so far, by party.
        self._level_holder: int | None = None
        self._level_groups: dict[int, list] = {}

    # -- threshold-decryption shares ---------------------------------------

    def decryption_shares(self, batch: list) -> PartialDecryptionVector:
        """This party's share vector for a ciphertext batch (real values)."""
        ciphertexts = [
            c.ciphertext if isinstance(c, EncryptedNumber) else c for c in batch
        ]
        values = tuple(
            p.value for p in self._key_share.partial_decrypt_batch(ciphertexts)
        )
        return PartialDecryptionVector(self.index, values)

    # -- event loop --------------------------------------------------------

    def react(self) -> tuple[int, str, object]:
        """Pop this party's oldest pending message and handle it."""
        sender, tag, payload = self.endpoint.bus.receive_tagged(self.index)
        self.handle(sender, tag, payload)
        return sender, tag, payload

    def handle(self, sender: int, tag: str, payload: Any) -> str:
        """Dispatch one received message; returns the reaction kind.

        * a :class:`~repro.network.wire.Request` → the matching ``_op_*``
          handler (unknown ops raise — a protocol error, not data);
        * a ciphertext batch under a decryption tag → this party's
          c^{d_i} share vector, sent to the batch's holder alone: she is
          the one party that combines the vectors and learns the
          plaintexts;
        * anything else → consumed without a reply ("sink"): other
          parties' reply broadcasts, prediction traffic, Eq. 10's
          accounting-only frames to the super client.

        Her replies go out while this runs (``MessageBus.handling``): a
        reply belongs to the flow that requested it, not to a flow of her
        own.
        """
        with self.endpoint.bus.handling():
            if isinstance(payload, Request):
                handler = getattr(
                    self, "_op_" + payload.op.replace("-", "_"), None
                )
                if handler is None:
                    raise ValueError(
                        f"party {self.index}: unknown request op {payload.op!r}"
                    )
                handler(sender, list(payload.body))
                return "request"
            if (
                tag in DECRYPT_TAGS
                and isinstance(payload, (list, tuple))
                and payload
                and isinstance(payload[0], (Ciphertext, EncryptedNumber))
            ):
                vector = self.decryption_shares(list(payload))
                self.endpoint.send(sender, vector, tag=tag)
                return "decrypt"
            return "sink"

    # -- node store --------------------------------------------------------

    def _await_node(self, key: int) -> list:
        """The node's [alpha, gammas]; reacts to queued messages until the
        cross-sender message that creates it has been handled."""
        while key not in self.nodes:
            self.react()
        return self.nodes[key]

    def store_node(self, key: int, alpha: list, gammas: list | None) -> None:
        self.nodes[key] = [list(alpha), gammas if gammas else None]

    def store_root(self, weights: list, gammas: list) -> None:
        """Store the root: [α] is the deterministic encryption of the
        public root weights, which she forms herself — a mask would hide
        nothing every party does not already know."""
        alpha = self.engine.encrypt_vector(
            list(weights), exponent=0, obfuscate=False
        )
        self.store_node(1, alpha, gammas)

    def store_split(self, body: list) -> None:
        """Record a node-split body ``[key, threshold, alpha_l, gam_l]``
        and pop the parent.

        The right child is derived here, by every party from vectors she
        already holds: [α_r] = [α] ⊖ [α_l], and [γ_r] = [γ] ⊖ [γ_l] for
        each riding vector.  Empty vectors mean the children are leaves
        nobody reads a mask vector of: nothing is stored for them.  A node
        whose [γ] was never published (an enhanced right child derived by
        sibling subtraction) stores none for its children either.
        """
        key, _threshold, alpha_left, gam_left = body
        if alpha_left:
            alpha, gammas = self._await_node(key)
            subtract = self.engine.subtract_vectors
            gam_left = [list(g) for g in gam_left]
            self.store_node(2 * key, alpha_left, gam_left)
            self.store_node(
                2 * key + 1,
                subtract(alpha, list(alpha_left)),
                [subtract(g, g_left) for g, g_left in zip(gammas or [], gam_left)],
            )
        self.nodes.pop(key, None)

    # -- local computations (also called directly by the super client) -----

    def split_statistics(
        self, node_keys: list[int], features: list[list[int]], header: list[int],
        head: Sequence[EncryptedNumber] = (),
    ) -> list:
        """Encrypted split statistics (Eq. 7 / 9) for this party's available
        features on every node of a tree level, with her Algorithm 2 masks
        in them (lines 1-3): ``features[i]`` are her features left at
        ``node_keys[i]``; ``head`` (the root's totals, at level 0) leads.

        Value order, node after node and per (feature asc, split asc)
        identifier: ``[n_left, g_left per stored gamma vector]`` — stride
        1 + V, the *left child only*.  The right child and, for
        classification, the last class (whose [γ] is never published) are
        linear in these and in the node's own statistics; the trainer
        derives them on shares (:mod:`repro.core.gain`), so they are never
        computed, sent or decrypted.

        ``header`` is the level's public layout
        (:func:`~repro.mpc.conversion.segment_header`: ``[packed,
        mask_bits, total, first slot of each party]``): the parties'
        segments in party order, every value masked with ``mask_bits``
        bits.  She returns ``[groups, ShareVector]``: her packed mask
        encryption of every group of the level, multiplied in the groups
        her segment touches by her values packed by Horner's rule
        (:meth:`~repro.mpc.conversion.Segment.reply`), and her
        ``(−r mod q)`` per value.  A header her values overrun, a bad
        width or a total whose reply would not fit one frame raises before
        anything is computed, sampled or encrypted.  The fresh mask
        encryption also re-randomises the dot products, a deterministic
        function of ciphertexts every party holds.
        """
        tasks: list[tuple[list[int], list]] = []
        for key, node_features in zip(node_keys, features):
            alpha, gammas = self._await_node(key)
            if gammas is None:
                raise RuntimeError(
                    f"party {self.index}: node {key} has no label vectors "
                    "yet (no gammas entry in the level's request?)"
                )
            for feature in node_features:
                for split in range(self.client.n_splits(feature)):
                    v_left = list(self.client.indicator(feature, split))
                    tasks.extend((v_left, vector) for vector in (alpha, *gammas))
        q = self._field_q()
        segment = segment_layout(
            header, self.index, len(head) + len(tasks), self.endpoint.bus.n_parties,
            self.engine.public_key, q,
        )
        masks = [secrets.randbits(header[1]) for _ in segment.level.slots]
        stats = [*head, *self.engine.batch_dot_products(tasks)]
        groups = segment.reply(
            [stat.ciphertext for stat in stats],
            self.engine.encrypt_ciphertexts(segment.level.pack_plaintexts(masks)),
        )
        return [groups, ShareVector(tuple((-r) % q for r in masks))]

    def apply_split(self, entries: list[list]) -> list[list]:
        """Model update at the split owner (§4.1) for her nodes of a tree
        level: broadcast one ``node-split`` list with each node's revealed
        threshold and left child, and store every node's children locally.

        ``entries`` holds one ``[key, feature, split, ride, build]`` per
        node.  With ``build`` set she masks the node's [α] (and, when the
        label vectors ride with alpha, its [γ]s) by her plaintext left
        indicator, re-randomised from the pool; every party derives the
        right child in :meth:`store_split`, so it never goes on the bus.
        ``build`` is the trainer's public verdict that the children will
        read their mask vectors; without it they are leaves at the depth
        limit (or without a candidate split) and the two lists go empty.

        Returns the node-split entries ``[key, threshold, alpha_l, gam_l]``
        — the owner-is-super path uses them directly.
        """
        bodies = []
        for key, feature, split, ride, build in entries:
            threshold = float(self.client.split_values[feature][split])
            alpha_left: list = []
            gam_left: list = []
            if build:
                alpha, gammas = self._await_node(key)
                v_left = self.client.indicator(feature, split)
                alpha_left = self.engine.mask_vector(alpha, v_left)
                if ride:
                    gam_left = [self.engine.mask_vector(g, v_left) for g in gammas]
            bodies.append([key, threshold, alpha_left, gam_left])
        self.endpoint.broadcast(
            Request("node-split", [item for body in bodies for item in body]),
            tag="mask-vector",
        )
        for body in bodies:
            self.store_split(body)
        return bodies

    # -- request handlers --------------------------------------------------

    def _store_root_entry(self, body: list) -> list:
        """Store the root from a body's root entry, if any; the rest."""
        root, body = split_root_entry(body)
        if root is not None:
            self.store_root(root[0], [list(g) for g in root[1]])
        return body

    def _op_split_stats(self, sender: int, body: list) -> None:
        """A tree level's request from the super client ``sender``:
        ``[header, her masked groups, gammas entries, (root entry), key,
        available, ...]``.  She stores the root and the label vectors,
        answers the super client with her masked groups and shares
        (:meth:`split_statistics`), sends every other non-super party her
        groups, and joins the level's batch."""
        header, groups, gammas, *body = body
        if self._level_holder is not None:
            # The previous level never completed: this request resets it.
            self._level_holder, self._level_groups = None, {}
        entries = level_entries(self._store_root_entry(body), 2)
        for key, node_gammas in level_entries(list(gammas), 2):
            self._await_node(key)[1] = [list(g) for g in node_gammas]
        reply = self.split_statistics(
            [key for key, _ in entries],
            [list(available[self.index]) for _, available in entries],
            list(header),
        )
        self.endpoint.send(sender, reply, tag="split-stats")
        mine = Request("level-groups", reply[0])
        for party in range(self.endpoint.bus.n_parties):
            if party not in (sender, self.index):
                self.endpoint.send(party, mine, tag="split-stats")
        self._level_holder = sender
        self._join_level(sender, list(groups))
        self._op_level_groups(self.index, reply[0])

    def _op_level_groups(self, sender: int, body: list) -> None:
        """A non-super party's masked groups of the level (her own, or
        another's).  Sockets do not order frames across connections, so
        another's may arrive before the super client's request: they wait
        for it."""
        level = self._join_level(sender, body)
        if level is not None:
            holder, batch = level
            vector = self.decryption_shares(batch)
            self.endpoint.send(holder, vector, tag="split-stats")

    def _join_level(self, party: int, groups: list) -> tuple[int, list] | None:
        """Add ``party``'s masked groups to the level in formation.  Once
        the request has arrived and all m parties' groups are in, the
        level is done: returns its super client and its masked batch, the
        product of the m parties' groups (hers carry the public offsets),
        of which this party sends the super client alone her partial
        decryption."""
        if party in self._level_groups:
            raise ValueError(
                f"party {self.index} received two masked group vectors of "
                f"one level from party {party}"
            )
        self._level_groups[party] = groups
        m = self.endpoint.bus.n_parties
        if self._level_holder is None or len(self._level_groups) < m:
            return None
        holder, by_party = self._level_holder, self._level_groups
        self._level_holder, self._level_groups = None, {}
        width = len(by_party[self.index])
        for sender, sent in by_party.items():
            if len(sent) != width:
                raise ValueError(
                    f"party {self.index} received {len(sent)} masked groups "
                    f"of a level of {width} from party {sender}"
                )
        return holder, [
            reduce(operator.add, column)
            for column in zip(*(by_party[p] for p in range(m)))
        ]

    def _op_split_apply(self, sender: int, body: list) -> None:
        self.apply_split(level_entries(body, 5))

    def _op_node_split(self, sender: int, body: list) -> None:
        for entry in level_entries(body, 4):
            self.store_split(entry)

    def _op_convert_masks(
        self, sender: int, body: list, packed: bool = False
    ) -> None:
        """Algorithm 2 lines 1-3, this party's side: sample one mask per
        value, pack them by the layout both sides derive from the widths
        (:func:`repro.mpc.conversion.mask_layout`), encrypt with her
        engine, and reply with the mask ciphertexts and her (-r mod q)
        share vector to the requesting client.

        This op is for values nobody declared a bound for: the layout
        gives each a whole ciphertext, so one mask ciphertext per value.
        The widths come off the wire: the layout rejects a non-positive
        or over-capacity one before ``randbits`` sizes anything from it.
        """
        q = self._field_q()
        layout = mask_layout(
            body, self.endpoint.bus.n_parties, self.engine.public_key, packed
        )
        masks = [secrets.randbits(bits) for bits in body]
        mask_cts = self.engine.encrypt_ciphertexts(layout.pack_plaintexts(masks))
        negated = ShareVector(tuple((-r) % q for r in masks))
        self.endpoint.send(sender, [mask_cts, negated], tag="mpc-convert")

    def _op_convert_masks_packed(self, sender: int, body: list) -> None:
        """``convert-masks`` for values of declared bound: the masks share
        slots, one mask ciphertext per *packed* ciphertext."""
        self._op_convert_masks(sender, body, packed=True)

    def _field_q(self) -> int:
        if self.field_q is None:
            raise RuntimeError(
                f"party {self.index}: runtime has no MPC field modulus"
            )
        return self.field_q

    def _op_lr_batch_sums(self, sender: int, body: list) -> None:
        rows, weights = body
        partials = self.client.batch_sums(list(rows), list(weights))
        self.endpoint.send(sender, partials, tag="lr-partial-sum")

    def _op_lr_update(self, sender: int, body: list) -> None:
        rows, weights, loss_cts, scale = body
        updated = self.client.weight_update(
            list(rows), list(weights), list(loss_cts), scale
        )
        self.endpoint.send(sender, updated, tag="lr-weights")


class Party:
    """One organisation: her columns, her key share, her bus endpoint.

    Build with the raw local data::

        bank    = Party(X_bank, labels=y, name="bank")     # super client
        fintech = Party(X_fintech, name="fintech")

    and hand the list to :class:`~repro.federation.federation.Federation`,
    which performs the joint setup (key generation, MPC preprocessing,
    candidate splits) and binds each party to her runtime identity.  After
    binding, :attr:`features` / :attr:`labels` are
    :class:`~repro.federation.locality.LocalView` guards — reading them
    outside this party's scope raises
    :class:`~repro.federation.locality.LocalityError`.
    """

    def __init__(
        self,
        features: np.ndarray,
        *,
        labels: np.ndarray | None = None,
        name: str | None = None,
    ) -> None:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("party features must be a 2-D (n x d_i) array")
        self._raw_features = features
        self._raw_labels = None if labels is None else np.asarray(labels)
        if self._raw_labels is not None and len(self._raw_labels) != len(features):
            raise ValueError("features and labels disagree on sample count")
        self.name = name
        # Set when a federation hands the columns to another process and
        # poisons the local copy; a flagged party cannot be federated
        # again (build a fresh one from source data).
        self._columns_remote = False
        # Assigned by Federation._bind():
        self.index: int | None = None
        self.columns: tuple[int, ...] | None = None
        self.key_share: Any = None
        self.endpoint: PartyEndpoint | None = None
        self._features_view: LocalView | None = None
        self._labels_view: LocalView | None = None

    # -- pre-binding facts -------------------------------------------------

    @property
    def n_samples(self) -> int:
        return self._raw_features.shape[0]

    @property
    def n_features(self) -> int:
        return self._raw_features.shape[1]

    @property
    def holds_labels(self) -> bool:
        return self._raw_labels is not None

    @property
    def is_bound(self) -> bool:
        return self.index is not None

    @property
    def is_super(self) -> bool:
        return self.holds_labels

    # -- bound identity ----------------------------------------------------

    def _bind(
        self,
        index: int,
        columns: tuple[int, ...],
        features_view: LocalView,
        labels_view: LocalView | None,
        key_share: Any,
        endpoint: PartyEndpoint,
    ) -> None:
        self.index = index
        self.columns = columns
        self._features_view = features_view
        self._labels_view = labels_view
        self.key_share = key_share
        self.endpoint = endpoint

    @property
    def features(self) -> Any:
        """This party's columns: a read-guarded view once federated."""
        if self._features_view is not None:
            return self._features_view
        return self._raw_features

    @property
    def labels(self) -> Any:
        """The label vector (super client only), read-guarded once federated."""
        if self._labels_view is not None:
            return self._labels_view
        return self._raw_labels

    def local(self) -> Any:
        """Scope marking a block as this party's own computation."""
        if self.index is None:
            raise RuntimeError("party is not federated yet")
        return as_party(self.index)

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        bound = f" index={self.index}" if self.is_bound else " (unbound)"
        role = " super" if self.holds_labels else ""
        return (
            f"Party(d_i={self.n_features}, n={self.n_samples}{label}{bound}{role})"
        )
