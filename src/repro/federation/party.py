"""The Party abstraction: one organisation in a vertical federation (§3.1).

A party owns exactly one client's feature columns (behind a
:class:`~repro.federation.locality.LocalView` read guard), her partial
threshold-Paillier secret key, and a :class:`PartyEndpoint` on the message
bus.  The *super client* party additionally owns the label vector.  A
party is constructed with raw local data and *bound* by the
:class:`~repro.federation.federation.Federation` during assembly, which
assigns the index, the global column ids, the key share, and the endpoint.

:class:`PartyRuntime` is the party's *reactive* protocol half: a loop over
her endpoint that answers every request flow she takes part in — among
them threshold-decryption share requests (paper §2.1: every one of the m
clients must exponentiate with her own ``d_i`` for any plaintext to
exist).  The per-party process deployment points the runtime's
``compute_shares`` hook at the owning worker process, so the share
exponentiations run under the key owner's authority, not the
orchestrator's.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.crypto.encoding import EncryptedNumber
from repro.crypto.paillier import Ciphertext
from repro.federation.locality import LocalView, as_party
from repro.mpc.conversion import mask_layout
from repro.network.wire import PartialDecryptionVector, Request, ShareVector

__all__ = [
    "DECRYPT_TAGS",
    "Party",
    "PartyEndpoint",
    "PartyRuntime",
]

#: Tags whose ciphertext-batch broadcasts are threshold-decryption requests:
#: a runtime that pops a list of ciphertexts under one of these tags answers
#: with her c^{d_i} share vector.  (Other ciphertext-list traffic — split
#: statistics, prediction vectors — carries its own tags and is consumed
#: without a reply.)
DECRYPT_TAGS = frozenset({"threshold-decrypt", "mpc-convert"})


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
        # pivotlint: disable=PL005 -- single-party transport primitive: the
        # round barrier belongs to the protocol flow driving all m parties
        # (flows.py / the reactive runtimes), not to one party's send.
        return self.bus.send_payload(self.index, receiver, payload, tag=tag)

    def broadcast(self, payload: Any, tag: str = "") -> int:
        """Send ``payload`` to every other party; returns per-receiver bytes."""
        # pivotlint: disable=PL005 -- single-party transport primitive: the
        # caller's protocol flow owns the round barrier (see send above).
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

    The super client *requests* — candidate-split statistics, split
    application, MPC mask contributions, logistic batch sums and weight
    updates, threshold-decryption shares — and each party *reacts* with
    her own local computation over her own columns and key material.  The
    orchestrator is not the protocol's scheduler; it is one party (the
    super client) driving her side of request/response flows that the
    other parties answer on their own event loops, and a plaintext only
    exists once every party has answered a decryption with her real
    c^{d_i} share vector.  Two ways to compute those shares:

    * ``key_share`` — the party's own :class:`ThresholdKeyShare`, for
      parties whose key material lives in this process (the super client,
      and every party of an in-memory federation).
    * ``compute_shares`` — a hook running the exponentiations elsewhere;
      :class:`~repro.federation.deployment.DeployedFederation` points it
      at the owning worker's ``partial_decrypt`` op, so a remote party's
      ``d_i`` is used only inside her own process.

    The same object serves three deployment shapes:

    * **in-memory / asyncio / process rows** — the flows *pump* each local
      runtime (:meth:`react` once per pending request) between a request
      broadcast and the round barrier;
    * **standalone-runtime row** — ``python -m repro.federation.runtime``
      runs :meth:`react` in a blocking serve loop against a socket
      transport; the party answers whenever a frame arrives, with no
      orchestrator process involved in her computation.

    State: a store of tree-node payloads keyed by heap position (root = 1,
    children of k at 2k / 2k+1).  ``node-split`` reactions store both
    children and pop the parent; leaf entries are retained (the store is
    bounded by the tree's leaf count).  Cross-sender socket ordering is
    absorbed by :meth:`_await_node`: a handler that needs a node not yet
    stored keeps reacting to queued messages until it arrives (in-process
    delivery is FIFO per inbox, so the loop only ever spins over real
    transports).
    """

    def __init__(
        self,
        endpoint: PartyEndpoint,
        *,
        client: Any = None,
        engine: Any = None,
        field_q: int | None = None,
        key_share: Any = None,
        compute_shares: Callable[[list[int]], Any] | None = None,
    ) -> None:
        if key_share is None and compute_shares is None:
            raise ValueError(
                "a PartyRuntime needs a key share or a compute_shares hook"
            )
        self.endpoint = endpoint
        self.index = endpoint.index
        self._key_share = key_share
        self._compute_shares = compute_shares
        #: The party's PivotClient (her columns + candidate splits); the
        #: deployed topology passes the RemotePivotClient proxy so feature
        #: reads keep executing inside the owning worker process.
        self.client = client
        #: Her BatchCryptoEngine (shared in-process; her own in standalone).
        self.engine = engine
        #: MPC share modulus for mask-contribution reactions.
        self.field_q = field_q
        #: node key -> [alpha, gammas-or-None] (decoded ciphertext vectors).
        self.nodes: dict[int, list] = {}

    # -- threshold-decryption shares ---------------------------------------

    def decryption_shares(self, batch: list) -> PartialDecryptionVector:
        """This party's share vector for a ciphertext batch (real values)."""
        ciphertexts = [
            c.ciphertext if isinstance(c, EncryptedNumber) else c for c in batch
        ]
        if self._compute_shares is not None:
            values = tuple(int(v) for v in self._compute_shares(ciphertexts))
            if len(values) != len(ciphertexts):
                raise ValueError(
                    f"party {self.index}'s compute hook returned "
                    f"{len(values)} shares for {len(ciphertexts)} ciphertexts"
                )
        else:
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
        * a ciphertext batch under a decryption tag → broadcast this
          party's c^{d_i} share vector;
        * anything else → consumed without a reply ("sink"): other
          parties' reply broadcasts, partial-share vectors this party does
          not combine, prediction traffic.
        """
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
            # pivotlint: disable=PL005 -- reactive reply: the decrypt
            # requester's flow owns the round barrier.
            self.endpoint.broadcast(vector, tag=tag)
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

    def store_split(self, body: list) -> None:
        """Record a node-split body: store both children, pop the parent."""
        key, _threshold, alpha_left, alpha_right, gam_left, gam_right = body
        self.store_node(2 * key, alpha_left, [list(g) for g in gam_left])
        self.store_node(2 * key + 1, alpha_right, [list(g) for g in gam_right])
        self.nodes.pop(key, None)

    # -- local computations (also called directly by the super client) -----

    def split_statistics(self, node_key: int, features: list[int]) -> list:
        """Encrypted split statistics (Eq. 7 / 9) for this party's available
        features on one node, as a single flat batched fan-out.

        Layout contract, per (feature asc, split asc) identifier:
        ``[n_left, g_left per stored gamma vector]`` — stride 1 + V, the
        *left child only*.  The right child and, for classification, the
        last class (whose [γ] is never published) are linear in these and
        in the node's own statistics; the trainer derives them on shares
        (:mod:`repro.core.gain`), so they are never computed, sent or
        decrypted.

        A dot product against a 0/1 indicator is the product of the chosen
        [α_j] — a deterministic function of ciphertexts every receiver
        holds, so a guessed indicator could be confirmed exactly.  Each
        statistic is therefore multiplied by one pool mask before it is
        returned (and broadcast).
        """
        alpha, gammas = self._await_node(node_key)
        if gammas is None:
            raise RuntimeError(
                f"party {self.index}: node {node_key} has no label vectors "
                "yet (missing node-gammas request?)"
            )
        tasks: list[tuple[list[int], list]] = []
        for feature in features:
            for split in range(self.client.n_splits(feature)):
                v_left = list(self.client.indicator(feature, split))
                tasks.extend((v_left, vector) for vector in (alpha, *gammas))
        stats = self.engine.batch_dot_products(tasks)
        return self.engine.mask_vector(stats, [1] * len(stats))

    def apply_split(
        self, node_key: int, feature: int, split: int, ride: int
    ) -> list:
        """Model update at the split owner (§4.1): mask [α] (and, when the
        label vectors ride with alpha, the [γ]s) by the plaintext indicator,
        broadcast both children, and store them locally.

        Returns the broadcast body ``[key, threshold, alpha_l, alpha_r,
        gam_l, gam_r]`` — the owner-is-super path uses it directly.
        """
        alpha, gammas = self._await_node(node_key)
        threshold = float(self.client.split_values[feature][split])
        v_left = self.client.indicator(feature, split)
        v_right = 1 - v_left
        alpha_left = self.engine.mask_vector(alpha, v_left)
        alpha_right = self.engine.mask_vector(alpha, v_right)
        gam_left: list = []
        gam_right: list = []
        if ride:
            gam_left = [self.engine.mask_vector(g, v_left) for g in gammas]
            gam_right = [self.engine.mask_vector(g, v_right) for g in gammas]
        body = [node_key, threshold, alpha_left, alpha_right, gam_left, gam_right]
        # pivotlint: disable=PL005 -- reactive reply: the split-apply
        # request came from the trainer's flow, which owns the barrier.
        self.endpoint.broadcast(Request("node-split", body), tag="mask-vector")
        self.store_split(body)
        return body

    # -- request handlers --------------------------------------------------

    def _op_node_state(self, sender: int, body: list) -> None:
        key, alpha, gammas = body
        self.store_node(key, alpha, [list(g) for g in gammas])

    def _op_node_gammas(self, sender: int, body: list) -> None:
        # The trainer announces node-state before node-gammas (per-sender
        # FIFO), but a provider driven directly (label-provider API, tests)
        # may publish gammas for a node never announced — store them under
        # a placeholder so the flow stays non-blocking either way.
        key, gammas = body
        node = self.nodes.setdefault(key, [None, None])
        node[1] = [list(g) for g in gammas]

    def _op_split_stats(self, sender: int, body: list) -> None:
        key, available = body
        stats = self.split_statistics(key, list(available[self.index]))
        self.endpoint.broadcast(stats, tag="split-stats")

    def _op_split_apply(self, sender: int, body: list) -> None:
        key, feature, split, ride = body
        self.apply_split(key, feature, split, ride)

    def _op_node_split(self, sender: int, body: list) -> None:
        self.store_split(body)

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
        if self.field_q is None:
            raise RuntimeError(
                f"party {self.index}: runtime has no MPC field modulus"
            )
        layout = mask_layout(
            body, self.endpoint.bus.n_parties, self.engine.public_key, packed
        )
        masks = [secrets.randbits(bits) for bits in body]
        mask_cts = self.engine.encrypt_ciphertexts(layout.pack_plaintexts(masks))
        negated = ShareVector(tuple((-r) % self.field_q for r in masks))
        self.endpoint.send(sender, [mask_cts, negated], tag="mpc-convert")

    def _op_convert_masks_packed(self, sender: int, body: list) -> None:
        """``convert-masks`` for values of declared bound: the masks share
        slots, one mask ciphertext per *packed* ciphertext."""
        self._op_convert_masks(sender, body, packed=True)

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
    binding, :attr:`features` / :attr:`labels` are strict
    :class:`~repro.federation.locality.LocalView` guards — reading them
    outside this party's scope raises
    :class:`~repro.federation.locality.LocalityError` when the federation
    enforces locality.
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
        # Set by DeployedFederation when the columns are shipped to a
        # worker process and the local copy is poisoned; a flagged party
        # cannot be federated again (build a fresh one from source data).
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
