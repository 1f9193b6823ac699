"""Runtime context for a Pivot deployment: keys, engine, clients, accounting.

The initialization stage of the protocol (§3.4): the m clients agree on
hyper-parameters, jointly generate the threshold-Paillier keys (every
client receives pk and a partial secret key), and set up the MPC engine.
:class:`PivotContext` bundles all of it for the simulated single-process
deployment, and centralises the cost accounting every experiment reads:
HE/decryption op counts, MPC rounds, bus bytes, and the log of every value
the protocol reveals in plaintext (used by the privacy tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import PivotConfig
from repro.crypto.batch import BatchCryptoEngine
from repro.crypto.encoding import (
    EncryptedNumber,
    PaillierEncoder,
    encrypted_dot_product,
)
from repro.crypto.distkeygen import KeygenParty
from repro.crypto.packing import slot_layout, whole_layout
from repro.crypto.threshold import (
    ThresholdPaillier,
    combine_partial_vectors,
    generate_threshold_keypair,
)
from repro.data.partition import VerticalPartition
from repro.federation.locality import LocalView, as_party
from repro.federation.party import PartyEndpoint, PartyRuntime
from repro.mpc.advanced import FixedPointOps
from repro.mpc.conversion import (
    ConversionCounters,
    ciphers_to_shares,
    share_to_cipher,
)
from repro.mpc.engine import MPCEngine
from repro.mpc.sharing import SharedValue
from repro.network.bus import MessageBus
from repro.network.flows import record_threshold_decrypt, run_distributed_keygen
from repro.network.transport import make_transport
from repro.network.wire import WireCodec
from repro.tree.splits import candidate_splits

__all__ = ["PivotClient", "PivotContext"]


@dataclass
class PivotClient:
    """One client u_i: her local features and candidate splits (§3.1).

    ``features`` is a :class:`~repro.federation.locality.LocalView`: the
    columns are readable only inside this client's party scope when the
    deployment enforces locality (``strict_locality=True``).  The indicator
    helpers — the client's own local computations whose *outputs* enter the
    protocol — run inside :meth:`local` themselves.  ``split_values`` are
    derived local data too, but the basic protocol reveals the chosen
    threshold at every split, so they stay unguarded plaintext.
    """

    index: int
    features: LocalView  # n x d_i, client-local columns (read-guarded)
    split_values: list[list[float]]  # per local feature, <= b thresholds

    def __post_init__(self) -> None:
        if not isinstance(self.features, LocalView):
            self.features = LocalView(self.features, self.index)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def local(self):
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

    def local_row(self, t: int) -> np.ndarray:
        """This client's feature slice of training sample ``t``.

        Used by joint prediction over *training* rows (GBDT residual
        updates): each client contributes her own columns, read inside her
        scope — the replacement for reassembling a global matrix.
        """
        with self.local():
            return np.asarray(self.features.read()[t], dtype=np.float64)

    def batch_sums(
        self, rows: list[int], weights: list[EncryptedNumber]
    ) -> list[EncryptedNumber]:
        """Per-sample encrypted partial sums [ξ_i] = x_t,i ⊙ [θ_i] (§7.3).

        The logistic trainer's per-batch local computation: for each
        training row ``t`` the client reads *her own* columns in scope and
        folds them into the encrypted weight block homomorphically.  Only
        the ciphertext outputs leave the client; in the process deployment
        the whole computation runs in the owning worker.
        """
        encoder = weights[0].encoder
        with self.local():
            local = self.features.read()
            row_data = [np.asarray(local[t], dtype=np.float64) for t in rows]
        out = []
        for row in row_data:
            coefficients = [encoder.encode(float(v)).encoding for v in row]
            out.append(encrypted_dot_product(coefficients, weights))
        return out

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


class PivotContext:
    """Shared runtime for all Pivot protocols over one vertical partition.

    ``transport`` selects the bus's message transport (``None`` /
    ``"inmemory"``, ``"asyncio"`` for real local sockets, or a prepared
    :class:`~repro.network.transport.Transport`).  ``remote_clients`` maps
    party indices to client objects whose feature reads execute elsewhere
    (the per-party process deployment,
    :mod:`repro.federation.deployment`); those indices get no
    :class:`~repro.federation.locality.LocalView` here because this
    process holds no columns of theirs to guard.
    """

    def __init__(
        self,
        partition: VerticalPartition,
        config: PivotConfig | None = None,
        *,
        transport=None,
        remote_clients: dict[int, object] | None = None,
    ):
        self.partition = partition
        self.config = config or PivotConfig()
        remote_clients = remote_clients or {}
        m = partition.n_clients
        self.engine = MPCEngine(
            m,
            kappa=self.config.kappa,
            authenticated=self.config.authenticated_mpc,
            seed=self.config.seed,
        )
        self.fx = FixedPointOps(
            self.engine, k=self.config.mpc_k, f=self.config.frac_bits
        )
        if self.config.keygen == "distributed":
            # §3.4 without the dealer: the m clients run the distributed
            # keygen protocol as real bus flows *before* any key exists —
            # the codec starts key-less (keygen payloads are plain
            # integers/bytes) and is bound to the public key it produces.
            # Only this process's parties' machines run here; their d_i
            # shares are the only key material this process ever holds.
            codec = WireCodec(None, share_modulus=self.engine.field.q)
            self.bus = MessageBus(
                m,
                codec=codec,
                transport=make_transport(transport, m),
            )
            self.keygen_machines = {
                i: KeygenParty(
                    i,
                    m,
                    self.config.keysize,
                    seed=self.config.seed,
                    kappa=self.config.kappa,
                )
                for i in self.local_parties
            }
            results = run_distributed_keygen(self.bus, self.keygen_machines)
            sample = results[self.local_parties[0]]
            shares = [None] * m
            for i, result in results.items():
                shares[i] = result.share
            self.threshold = ThresholdPaillier(
                sample.public_key,
                shares,
                theta=sample.theta,
                distributed=True,
            )
            self.encoder = PaillierEncoder(
                sample.public_key, frac_bits=self.config.frac_bits
            )
            codec.bind(sample.public_key, encoder=self.encoder)
        else:
            self.keygen_machines = None
            self.threshold = generate_threshold_keypair(m, self.config.keysize)
            self.encoder = PaillierEncoder(
                self.threshold.public_key, frac_bits=self.config.frac_bits
            )
            self.bus = MessageBus(
                m,
                codec=WireCodec(
                    self.threshold.public_key,
                    share_modulus=self.engine.field.q,
                    encoder=self.encoder,
                ),
                transport=make_transport(transport, m),
            )
        #: Batched crypto engine shared by every hot path.
        self.batch = BatchCryptoEngine(
            self.threshold.public_key,
            encoder=self.encoder,
            threshold=self.threshold,
        )
        self.conversions = ConversionCounters()
        #: Enforced party boundary: feature/label reads go through
        #: LocalViews, which raise outside the owner's scope when strict.
        #: An unset config flag (None) means legacy unguarded behaviour
        #: here; the Federation resolves unset to True before building us.
        self.strict_locality = bool(self.config.strict_locality)
        self.clients = []
        for i in range(m):
            if i in remote_clients:
                # The party's columns live in her own process; her client
                # object proxies the sanctioned local computations there.
                self.clients.append(remote_clients[i])
                continue
            # pivotlint: disable=PL001 -- assembly: wrapping party i's block
            # in its LocalView guard is the act that *creates* the scope
            # regime; no data is computed on here.
            view = LocalView(
                partition.local_features[i],
                i,
                name="features",
                strict=self.strict_locality,
            )
            with as_party(i):  # candidate splits are client-local analysis
                split_values = [
                    candidate_splits(
                        view.read()[:, j], self.config.tree.max_splits
                    )
                    for j in range(view.shape[1])
                ]
            self.clients.append(
                PivotClient(index=i, features=view, split_values=split_values)
            )
        #: One reactive event loop per *local* party: every protocol flow
        #: she takes part in — threshold-decryption shares, candidate-split
        #: statistics, split application, MPC mask contributions, logistic
        #: batch flows — runs as a reaction on her own endpoint
        #: (:class:`~repro.federation.party.PartyRuntime`).  Remote-process
        #: parties (deployment workers) get a runtime whose key and feature
        #: computations proxy into their worker; standalone-runtime parties
        #: get ``None`` — their event loops run in their own processes
        #: against the same bytes.
        self.runtimes: list[PartyRuntime | None] = []
        field_q = self.engine.field.q
        for i in range(m):
            if i not in self.local_parties:
                self.runtimes.append(None)
                continue
            client = self.clients[i]
            remote = i in remote_clients
            self.runtimes.append(
                PartyRuntime(
                    PartyEndpoint(self.bus, i),
                    client=client,
                    engine=self.batch,
                    field_q=field_q,
                    key_share=None if remote else self.threshold.shares[i],
                    compute_shares=client.decryption_shares if remote else None,
                )
            )
        #: The labels, owned by the super client alone (§3.1).
        self.labels = LocalView(
            partition.labels,
            partition.super_client,
            name="labels",
            strict=self.strict_locality,
        )
        #: Everything any protocol run reveals in plaintext, as (tag, value)
        #: pairs; privacy tests assert nothing else leaks.
        self.revealed: list[tuple[str, object]] = []

    # -- basic facts -----------------------------------------------------------

    @property
    def local_parties(self) -> tuple[int, ...]:
        """Parties whose inboxes (and, with distributed keygen, keygen
        state machines and key shares) live in this process — whoever the
        bus's transport hosts: all m unless this is the standalone-runtime
        orchestrator, which hosts just the super client."""
        return self.bus.local_parties

    @property
    def n_clients(self) -> int:
        return self.partition.n_clients

    @property
    def n_samples(self) -> int:
        return self.partition.n_samples

    @property
    def super_client(self) -> int:
        return self.partition.super_client

    def read_labels(self) -> np.ndarray:
        """The label vector, read as the super client (her own data)."""
        with as_party(self.super_client):
            return self.labels.read()

    @property
    def ciphertext_bytes(self) -> int:
        """Width of one serialized ciphertext (single-sourced in the codec)."""
        return self.bus.codec.ciphertext_width

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

    # -- crypto helpers with accounting ------------------------------------------

    def encrypt_indicator(self, bits: np.ndarray) -> list[EncryptedNumber]:
        return self.batch.encrypt_vector([int(b) for b in bits], exponent=0)

    def joint_decrypt_raw(
        self, payload: list, tag: str, signed: bool = True
    ) -> list[int]:
        """One batched threshold decryption: canonical flow + plaintexts.

        ``payload`` is the batch as held by the caller (``EncryptedNumber``
        or raw ``Ciphertext`` values — what travels on the wire).  The
        per-party runtimes answer the flow with their c^{d_i} share vectors
        and the plaintexts are reconstructed *only* from the m received
        vectors.
        """
        if not payload:
            return []
        vectors = record_threshold_decrypt(
            self.bus, payload, tag=tag, runtimes=self.runtimes
        )
        return combine_partial_vectors(
            self.threshold.public_key,
            vectors,
            self.n_clients,
            signed=signed,
            theta=self.threshold.theta,
        )

    def joint_decrypt(self, value: EncryptedNumber, tag: str) -> float:
        """All-client decryption of a protocol output; logged as revealed.

        The flow moves the ciphertext broadcast *and* the m
        partial-decryption share vectors (the seed accounted only the
        former), all as real serialized payloads consumed by their
        receivers.  The holder multiplies one pool mask of hers into the
        ciphertext first (see :meth:`joint_decrypt_batch`).
        """
        masked = self.batch.mask_vector([value], [1])
        raws = self.joint_decrypt_raw(masked, tag="threshold-decrypt")
        self.conversions.threshold_decryptions += 1
        result = raws[0] * 2.0**value.exponent
        self.revealed.append((tag, result))
        return result

    def joint_decrypt_batch(
        self,
        values: list[EncryptedNumber],
        tag: str,
        bound_bits: int | None = None,
    ) -> list[float]:
        """Batched all-client decryption: one fan-out for the whole vector.

        The revealed log of calling :meth:`joint_decrypt` in a loop, but a
        single threshold-decryption message flow (2 rounds instead of 2 per
        value) — the deployment shape for n-row basic prediction.

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

        *Who re-masks.*  These two methods serve prediction outputs only,
        and a prediction output is a deterministic function of ciphertexts
        the previous party of the round-robin holds
        (:func:`repro.core.prediction.encrypted_leaf_sums`).  So the
        holder multiplies one pool mask of her own into every ciphertext
        *after* packing — one mask per packed ciphertext, not per value —
        and only then broadcasts.
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
            payload, tag="threshold-decrypt", signed=False
        )
        self.conversions.threshold_decryptions += layout.n_groups
        raws = layout.unpack(plains, magnitudes, pk)
        results = [raw * 2.0**v.exponent for raw, v in zip(raws, values)]
        for result in results:
            self.revealed.append((tag, result))
        return results

    def to_shares(
        self, values: list[EncryptedNumber], bound_bits: int | None = None
    ) -> list[SharedValue]:
        """Algorithm 2 over a batch; the conversion sends its real payloads
        (mask ciphertexts, masked batch, partial decryptions) on the bus.

        ``bound_bits`` declares every value's magnitude at the MPC scale
        (``|x| < 2**bound_bits``); only declared values are slot-packed
        (:func:`~repro.mpc.conversion.ciphers_to_shares`).
        """
        return ciphers_to_shares(
            values, self.threshold, self.fx, self.conversions,
            batch_engine=self.batch, bus=self.bus, runtimes=self.runtimes,
            bound_bits=bound_bits,
        )

    def to_cipher(self, value: SharedValue, exponent: int | None = None) -> EncryptedNumber:
        """Reverse conversion (§5.2); encrypted shares travel on the bus."""
        return share_to_cipher(
            value, self.threshold, self.fx, self.conversions, exponent=exponent,
            bus=self.bus,
        )

    def open_bit(self, bit: SharedValue, tag: str) -> int:
        """Open a shared 0/1 decision (pruning conditions etc.); logged."""
        value = self.engine.open(bit)
        if value not in (0, 1):
            raise ValueError(f"expected a shared bit, opened {value}")
        self.revealed.append((tag, value))
        return value

    def open_value(self, value: SharedValue, tag: str, fixed_point: bool = True) -> float:
        opened = self.fx.open(value) if fixed_point else self.engine.open(value)
        self.revealed.append((tag, opened))
        return opened

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Release the bus's transport (a no-op for the in-memory one;
        socket transports own threads and ports)."""
        self.bus.close()

    def __enter__(self) -> "PivotContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reporting ----------------------------------------------------------------

    def cost_snapshot(self) -> dict[str, object]:
        return {
            "bus": self.bus.snapshot(),
            "mpc": self.engine.stats.snapshot(),
            "conversions": self.conversions.snapshot(),
            "dealer": self.engine.dealer.usage.snapshot(),
        }
