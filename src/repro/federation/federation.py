"""The Federation: one object for a run's setup, keys, engine and accounting.

A :class:`Federation` is the initialization stage of the protocol (§3.4)
with the party boundary made explicit: it takes the m
:class:`~repro.federation.party.Party` objects (exactly one holding
labels — the super client), builds the
:class:`~repro.data.partition.VerticalPartition`, takes the
threshold-Paillier key from the trusted dealer (it hosts every party),
sets up the MPC engine, binds each party to her runtime identity
(index, global column ids, partial secret key, bus endpoint), and then *is*
the shared runtime every protocol reads: config, keys, MPC engine, bus,
clients, party runtimes, labels, and the cost accounting every experiment
reads (HE/decryption op counts, MPC rounds, bus bytes, and the log of every
value the protocol reveals in plaintext, used by the privacy tests).

Locality holds by construction: every raw feature/label read goes through a
:class:`~repro.federation.locality.LocalView`, which raises
:class:`~repro.federation.locality.LocalityError` outside the owner's
scope.  There is no setting that turns the guard off.

Estimators (:mod:`repro.federation.estimators`) either receive a prepared
federation (``fit(fed)``) — sharing its keys across estimators — or a bare
party list (``fit(parties)``), in which case they assemble a federation
themselves.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Any

import numpy as np

from repro.core.config import PivotConfig
from repro.crypto.batch import BatchCryptoEngine
from repro.crypto.encoding import EncryptedNumber, PaillierEncoder
from repro.crypto.packing import slot_layout, whole_layout
from repro.crypto.threshold import (
    ThresholdPaillier,
    combine_partial_vectors,
    generate_threshold_keypair,
)
from repro.data.partition import VerticalPartition, vertical_partition
from repro.federation.locality import LocalView, as_party
from repro.federation.party import Party, PartyEndpoint, PartyRuntime, PivotClient
from repro.mpc.advanced import FixedPointOps
from repro.mpc.conversion import (
    ConversionCounters,
    PackedBatch,
    ciphers_to_shares,
    share_to_cipher,
)
from repro.mpc.engine import MPCEngine
from repro.mpc.sharing import SharedValue
from repro.network.bus import MessageBus
from repro.network.flows import record_threshold_decrypt
from repro.network.transport import Transport, make_transport
from repro.network.wire import WireCodec
from repro.tree.splits import candidate_splits

__all__ = ["Federation"]


class Federation:
    """m parties, jointly keyed and wired, ready to train estimators.

    ``parties`` is the list of :class:`~repro.federation.party.Party`
    objects, or a :class:`~repro.data.partition.VerticalPartition`, which
    brings its own task and global column ids (a shuffled partition keeps
    its column assignment).

    ``transport`` picks the message transport for the whole run:
    ``"inmemory"`` (the default) routes serialized payloads through
    per-receiver queues in this process; ``"asyncio"`` moves the same
    bytes over real local TCP sockets
    (:class:`~repro.network.transport.SocketTransport`); a prepared
    :class:`~repro.network.transport.Transport` instance passes through
    if it hosts all m parties.  Protocol behaviour, measured bytes, and
    round counts are identical across transports — only the physical path
    of the bytes changes.

    A transport that hosts fewer parties is refused before anything is
    sent: this process would hold the d_i of a party whose runtime is
    elsewhere (the multi-process federation is
    :class:`~repro.federation.runtime.RuntimeFederation`).
    """

    def __init__(
        self,
        parties: list[Party] | VerticalPartition,
        *,
        task: str = "classification",
        config: PivotConfig | None = None,
        transport: Any = None,
    ) -> None:
        if isinstance(parties, VerticalPartition):
            partition = parties
            parties = [
                Party(
                    block,
                    labels=(
                        partition.labels
                        if i == partition.super_client
                        else None
                    ),
                )
                for i, block in enumerate(partition.local_features)
            ]
            self._validate_parties(parties)
        else:
            super_client = self._validate_parties(parties)
            partition = self._partition_of(parties, task, super_client)
        self.config = config or PivotConfig()
        self.parties = list(parties)
        remote_clients = self._remote_clients(partition)
        transport = make_transport(transport, partition.n_clients)
        local = tuple(
            i for i in range(partition.n_clients) if i not in remote_clients
        )
        if transport.hosted != local:
            raise ValueError(
                f"{type(self).__name__} holds the key shares of parties "
                f"{list(local)} in this process, but its transport hosts "
                + ", ".join(f"party {i}" for i in transport.hosted)
            )
        partition = self._poison_remote(partition, remote_clients)
        self._assemble(partition, transport, remote_clients)
        self._bind_parties()

    # -- validation ----------------------------------------------------------

    @staticmethod
    def _validate_parties(parties: list[Party]) -> int:
        """The federation invariants; returns the super client's index."""
        if len(parties) < 2:
            raise ValueError("a federation needs at least 2 parties")
        for party in parties:
            if party._columns_remote:
                raise ValueError(
                    f"{party!r} shipped her columns to her own process in a "
                    "previous deployment (the local copy is poisoned); "
                    "build fresh Party objects from the source data"
                )
        supers = [i for i, p in enumerate(parties) if p.holds_labels]
        if len(supers) != 1:
            raise ValueError(
                f"exactly one party must hold the labels (the super client); "
                f"got {len(supers)}"
            )
        counts = {p.n_samples for p in parties}
        if len(counts) != 1:
            raise ValueError("parties disagree on the sample count")
        return supers[0]

    @staticmethod
    def _partition_of(
        parties: list[Party], task: str, super_client: int
    ) -> VerticalPartition:
        """Build the distributed dataset view from validated parties."""
        # Global column ids: contiguous blocks in party order.
        columns, start = [], 0
        for party in parties:
            columns.append(tuple(range(start, start + party.n_features)))
            start += party.n_features
        return VerticalPartition(
            columns_per_client=tuple(columns),
            local_features=tuple(p._raw_features for p in parties),
            # pivotlint: disable=PL001 -- assembly: re-wrapping the super
            # client's own label array into the partition; the guarded views
            # over this data are constructed from it one step later.
            labels=np.asarray(parties[super_client]._raw_labels),
            super_client=super_client,
            task=task,
        )

    # -- assembly (§3.4) -----------------------------------------------------

    def _remote_clients(self, partition: VerticalPartition) -> dict[int, Any]:
        """Client objects for the parties whose columns live in another
        process, by index.  In-process federations have none; the
        multi-process rows override this to stub (and launch) them."""
        return {}

    def _poison_remote(
        self, partition: VerticalPartition, remote: dict[int, Any]
    ) -> VerticalPartition:
        """Replace this process's copy of every remote party's columns by
        NaN poison, so a read that should have gone to her process either
        fails or visibly poisons parity-checked output.  The flag makes
        re-federating such a Party object fail validation instead of
        training on the poison."""
        if not remote:
            return partition
        blocks = list(partition.local_features)
        for i in remote:
            blocks[i] = np.full_like(blocks[i], np.nan)
            self.parties[i]._raw_features = blocks[i]
            self.parties[i]._columns_remote = True
        return replace(partition, local_features=tuple(blocks))

    def _assemble(
        self,
        partition: VerticalPartition,
        transport: Transport,
        remote_clients: dict[int, Any],
    ) -> None:
        """Joint setup (§3.4): keys, MPC engine, bus, clients, runtimes.

        ``transport`` hosts exactly the parties whose inboxes, key shares
        and runtimes live in this process; ``remote_clients`` maps the
        other parties' indices to stubs, which get no
        :class:`~repro.federation.locality.LocalView` and no runtime here,
        because this process holds no columns or key share of theirs.
        """
        self.partition = partition
        config = self.config
        m = partition.n_clients
        self.engine = MPCEngine(
            m,
            kappa=config.kappa,
            authenticated=config.authenticated_mpc,
            seed=config.seed,
        )
        self.fx = FixedPointOps(self.engine, k=config.mpc_k, f=config.frac_bits)
        # The codec starts key-less (keygen payloads are plain integers and
        # bytes) and is bound to the public key keygen produces.
        codec = WireCodec(None, share_modulus=self.engine.field.q)
        self.bus = MessageBus(m, codec=codec, transport=transport)
        self.threshold = self._generate_keys()
        self.encoder = PaillierEncoder(
            self.threshold.public_key, frac_bits=config.frac_bits
        )
        codec.bind(self.threshold.public_key, encoder=self.encoder)
        #: Batched crypto engine shared by every hot path.
        self.batch = BatchCryptoEngine(
            self.threshold.public_key,
            encoder=self.encoder,
            threshold=self.threshold,
        )
        self.conversions = ConversionCounters()
        self.clients: list[Any] = []
        for i in range(m):
            if i in remote_clients:
                # The party's columns live in her own process; her stub
                # holds public counts only.
                self.clients.append(remote_clients[i])
                continue
            # pivotlint: disable=PL001 -- assembly: wrapping party i's block
            # in its LocalView guard is the act that *creates* the scope
            # regime; no data is computed on here.
            view = LocalView(partition.local_features[i], i, name="features")
            with as_party(i):  # candidate splits are client-local analysis
                split_values = [
                    candidate_splits(view.read()[:, j], config.tree.max_splits)
                    for j in range(view.shape[1])
                ]
            self.clients.append(
                PivotClient(index=i, features=view, split_values=split_values)
            )
        #: One reactive event loop per *local* party: every protocol flow
        #: she takes part in — threshold-decryption shares, candidate-split
        #: statistics, split application, MPC mask contributions, logistic
        #: batch flows — runs as a reaction on her own endpoint
        #: (:class:`~repro.federation.party.PartyRuntime`), which the bus
        #: serves.  A party hosted elsewhere gets ``None``: her event loop
        #: runs in her own process against the same bytes.
        self.runtimes: list[PartyRuntime | None] = [
            PartyRuntime(
                PartyEndpoint(self.bus, i),
                key_share=self.threshold.shares[i],
                client=self.clients[i],
                engine=self.batch,
                field_q=self.engine.field.q,
            )
            if i not in remote_clients
            else None
            for i in range(m)
        ]
        self.bus.host(self.runtimes, partition.super_client)
        #: The labels, owned by the super client alone (§3.1).
        self.labels = LocalView(
            partition.labels, partition.super_client, name="labels"
        )
        #: Everything any protocol run reveals in plaintext, as (tag, value)
        #: pairs; privacy tests assert nothing else leaks.
        self.revealed: list[tuple[str, object]] = []

    def _generate_keys(self) -> ThresholdPaillier:
        """The §3.4 trusted dealer: keys follow the topology, and this
        process hosts every party, so it holds every d_i anyway."""
        return generate_threshold_keypair(self.n_clients, self.config.keysize)

    def _bind_parties(self) -> None:
        for i, party in enumerate(self.parties):
            party._bind(
                index=i,
                columns=self.partition.columns_per_client[i],
                features_view=self.clients[i].features,
                labels_view=self.labels if i == self.super_client else None,
                key_share=self.threshold.shares[i],
                endpoint=PartyEndpoint(self.bus, i),
            )

    @classmethod
    def from_partition(
        cls,
        partition: VerticalPartition,
        config: PivotConfig | None = None,
        **kwargs: Any,
    ) -> "Federation":
        """Federate a partition object (simulation datasets), keeping its
        task and column assignment.  Runs the same invariant checks as the
        party-list constructor: a partition with fewer than 2 clients,
        without labels, or with ragged sample counts is rejected."""
        return cls(partition, config=config, **kwargs)

    @classmethod
    def from_global(
        cls,
        X: np.ndarray,
        y: np.ndarray,
        n_parties: int,
        *,
        task: str = "classification",
        super_client: int = 0,
        config: PivotConfig | None = None,
        **kwargs: Any,
    ) -> "Federation":
        """Split a caller-held global matrix evenly over ``n_parties``."""
        partition = vertical_partition(
            X, y, n_parties, task=task, super_client=super_client
        )
        return cls.from_partition(partition, config=config, **kwargs)

    # -- basic facts --------------------------------------------------------

    @property
    def n_parties(self) -> int:
        return len(self.parties)

    @property
    def n_clients(self) -> int:
        return self.partition.n_clients

    @property
    def n_samples(self) -> int:
        return self.partition.n_samples

    @property
    def task(self) -> str:
        return self.partition.task

    @property
    def super_client(self) -> int:
        return self.partition.super_client

    def read_labels(self) -> np.ndarray:
        """The label vector, read as the super client (her own data)."""
        with as_party(self.super_client):
            return self.labels.read()

    def split_identifiers(self, available: list[list[int]]) -> list[tuple[int, int, int]]:
        """Flat enumeration (i, j, s) of all splits of the available features.

        Order: clients ascending, client-local features ascending, split
        values ascending — the tie-break order shared with plaintext CART.
        """
        identifiers = []
        for client in self.clients:
            for j in available[client.index]:
                for s in range(client.n_splits(j)):
                    identifiers.append((client.index, j, s))
        return identifiers

    def slices(self, X: np.ndarray) -> list[np.ndarray]:
        """Split caller-held global rows into per-party column blocks.

        Simulation convenience for ``predict(party_slices)``: in a real
        deployment each party supplies her own block.
        """
        from repro.core.prediction import global_rows_to_party_slices

        return global_rows_to_party_slices(self, X)

    # -- estimator support ---------------------------------------------------

    def context_for(
        self,
        protocol: str | None = None,
        dp: Any = None,
        malicious: bool | None = None,
    ) -> "Federation":
        """A view of this federation with estimator-level switches applied.

        Key material, engine, bus and accounting are shared; only the
        config differs (the trainers read ``protocol`` / ``dp`` at fit
        time).  ``malicious`` requires the federation to have been built
        with authenticated MPC — MACs exist from preprocessing onward and
        cannot be retrofitted.
        """
        cfg = self.config
        overrides: dict[str, Any] = {}
        if protocol is not None and protocol != cfg.protocol:
            overrides["protocol"] = protocol
        if dp is not cfg.dp:
            overrides["dp"] = dp
        if malicious is not None and malicious != cfg.authenticated_mpc:
            if malicious and not self.engine.authenticated:
                raise ValueError(
                    "malicious=True needs authenticated MPC from setup: build "
                    "the Federation with PivotConfig(authenticated_mpc=True)"
                )
            overrides["authenticated_mpc"] = malicious
        if not overrides:
            return self
        view = copy.copy(self)
        view.config = replace(cfg, **overrides)  # re-validates the config
        return view

    # -- crypto helpers with accounting ------------------------------------------

    def encrypt_indicator(self, bits: np.ndarray) -> list[EncryptedNumber]:
        return self.batch.encrypt_vector([int(b) for b in bits], exponent=0)

    def joint_decrypt_raw(
        self, payload: list, tag: str, signed: bool = True, holder: int | None = None
    ) -> list[int]:
        """One batched threshold decryption: canonical flow + plaintexts.

        ``payload`` is the batch as held by ``holder`` (the super client
        unless given; ``EncryptedNumber`` or raw ``Ciphertext`` values —
        what travels on the wire), who broadcasts it under ``tag``, one of
        ``DECRYPT_TAGS``.  The other parties' runtimes answer with their
        c^{d_i} share vectors and the plaintexts are reconstructed *only*
        from the m vectors.
        """
        if not payload:
            return []
        holder = self.super_client if holder is None else holder
        vectors = record_threshold_decrypt(self.bus, payload, tag=tag, holder=holder)
        return combine_partial_vectors(
            self.threshold.public_key,
            vectors,
            self.n_clients,
            signed=signed,
            theta=self.threshold.theta,
        )

    def joint_decrypt_batch(
        self,
        values: list[EncryptedNumber],
        tag: str,
        bound_bits: int | None = None,
    ) -> list[float]:
        """Batched all-client decryption: one fan-out for the whole vector.

        Every value is logged as revealed, and one threshold-decryption
        message flow (2 rounds) carries them all — the deployment shape for
        n-row basic prediction.  The flow moves the ciphertext broadcast
        *and* the other m − 1 parties' partial-decryption share vectors to
        the holder, all as real serialized payloads consumed by their
        receivers.

        *What is packed, at what width.*  ``bound_bits`` declares that
        every value's fixed-point integer has magnitude below
        ``2**bound_bits``.  Declared values are slot-packed
        (:mod:`repro.crypto.packing`, ``bound_bits + 1`` bits each: the
        value plus its sign offset), so the flow moves and every party
        exponentiates one ciphertext per ⌊(|n| − 1) / (bound_bits + 1)⌋
        values; Cd counts those packed ciphertexts.  A single tree's
        prediction outputs declare the width of the widest leaf label
        (255 binary-labelled rows per 512-bit ciphertext); undeclared
        values (the ensembles' aggregated outputs) decrypt one ciphertext
        each.

        *Who re-masks.*  This method serves prediction outputs only,
        and a prediction output is a deterministic function of ciphertexts
        the previous party of the round-robin holds
        (:func:`repro.core.prediction.encrypted_leaf_sums`).  So the
        holder, u_1 (party 0, where the round-robin ends), multiplies one
        pool mask of her own into every ciphertext *after* packing — one
        mask per packed ciphertext, not per value — and only then
        broadcasts.
        """
        if not values:
            return []
        pk = self.threshold.public_key
        magnitudes: list[int] = []
        if bound_bits is None:
            layout = whole_layout(len(values), pk.n.bit_length())
        else:
            magnitudes = [bound_bits] * len(values)
            layout = slot_layout(
                [bound_bits + 1] * len(values), pk.n.bit_length()
            )
        packed = [
            self.encoder.wrap(ciphertext)
            for ciphertext in layout.pack_ciphertexts(
                [v.ciphertext for v in values], magnitudes
            )
        ]
        payload = [
            v.ciphertext for v in self.batch.mask_vector(packed, [1] * len(packed))
        ]
        plains = self.joint_decrypt_raw(
            payload, tag="threshold-decrypt", signed=False, holder=0
        )
        self.conversions.threshold_decryptions += layout.n_groups
        raws = layout.unpack(plains, magnitudes, pk)
        results = [raw * 2.0**v.exponent for raw, v in zip(raws, values)]
        for result in results:
            self.revealed.append((tag, result))
        return results

    def to_shares(
        self,
        values: list[EncryptedNumber] | PackedBatch,
        bound_bits: int | None = None,
        holder: int | None = None,
    ) -> list[SharedValue]:
        """Algorithm 2 over a batch; the conversion sends its real payloads
        (mask ciphertexts, masked batch, partial decryptions) on the bus.

        ``holder`` is the party that holds ``values`` and runs the
        conversion from them: the super client unless given (Algorithm 4's
        leaf sums stay with u_1, party 0).

        ``bound_bits`` declares every value's magnitude
        (``|x| < 2**bound_bits`` at the scale
        :func:`~repro.mpc.conversion.magnitude_bits` reads it at); only
        declared values are slot-packed, and a
        :class:`~repro.mpc.conversion.PackedBatch` arrives packed
        (:func:`~repro.mpc.conversion.ciphers_to_shares`), held by the
        super client.
        """
        return ciphers_to_shares(
            values, self.threshold, self.fx, self.conversions,
            batch_engine=self.batch, bus=self.bus, bound_bits=bound_bits,
            holder=self.super_client if holder is None else holder,
        )

    def to_cipher(
        self, values: list[SharedValue], exponent: int | None = None
    ) -> list[EncryptedNumber]:
        """Reverse conversion (§5.2) over a batch: one bus flow from the
        super client, two rounds, whatever the length."""
        return share_to_cipher(
            values, self.threshold, self.fx, self.conversions, exponent=exponent,
            bus=self.bus, holder=self.super_client,
        )

    def open_bits(self, bits: list[SharedValue], tag: str) -> list[int]:
        """Open shared 0/1 decisions (a tree level's pruning conditions) in
        one MPC round; each is logged as revealed under ``tag``."""
        values = self.engine.open_many(bits)
        for value in values:
            if value not in (0, 1):
                raise ValueError(f"expected a shared bit, opened {value}")
        self.revealed.extend((tag, value) for value in values)
        return values

    def open_values(self, values: list[SharedValue], tag: str) -> list[float]:
        """Open fixed-point values in one MPC round; each logged as revealed."""
        opened = self.fx.open(values)
        self.revealed.extend((tag, v) for v in opened)
        return opened

    # -- lifecycle / reporting ----------------------------------------------

    def assert_drained(self) -> None:
        """End-of-run invariant: every party consumed her whole inbox."""
        self.bus.assert_drained()

    def cost_snapshot(self) -> dict[str, object]:
        return {
            "bus": self.bus.snapshot(),
            "mpc": self.engine.stats.snapshot(),
            "conversions": self.conversions.snapshot(),
            "dealer": self.engine.dealer.usage.snapshot(),
        }

    def close(self) -> None:
        """Release the bus's transport (a no-op for the in-memory one;
        socket transports own threads and ports)."""
        self.bus.close()

    def __enter__(self) -> "Federation":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Federation(m={self.n_parties}, task={self.task!r}, "
            f"super_client={self.super_client})"
        )
