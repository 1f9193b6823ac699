"""Standalone party runtime: one process per party, no orchestrator-scheduler.

This module is the deployment shape the paper actually measures (§8.1: "m
machines in a LAN, one client per machine"), in the one-service-per-node
style of production FL stacks: every party runs

    python -m repro.federation.runtime --config partyN.toml

as her own long-lived process.  Each process

* binds **only her own** listening port
  (a :class:`~repro.network.transport.SocketTransport` hosting one party —
  a full TCP mesh, lazily connected, start-order independent);
* takes part in **distributed Paillier keygen**
  (:mod:`repro.crypto.distkeygen`): her ``d_i`` share is *generated* inside
  her process; no dealer, no provisioning step, and the full private key
  (p, q, λ, µ) exists in no process at any time.  A multi-process
  federation always makes its key this way; only the in-process
  :class:`~repro.federation.federation.Federation` uses the dealer;
* serves the reactive protocol loop
  (:class:`~repro.federation.party.PartyRuntime`): candidate-split
  statistics and a tree level's masked batch, split application, mask
  contributions, decryption shares and logistic batch ops all run as
  reactions to frames arriving on her own socket.

The super client's process is the :class:`RuntimeFederation` — an ordinary
:class:`~repro.federation.federation.Federation` that hosts *only* her
party (its transport hosts party 0 alone).  The other parties appear as
:class:`StandalonePartyClient` stubs that expose exactly the public facts
the protocol needs (feature/split *counts*, fetched over the control
plane); their columns, candidate thresholds and key shares exist only in
their own processes, and any accidental local read fails loudly.

Control plane: administration (counter snapshots, key-material audits,
shutdown) travels over the same sockets via the bus's unaccounted
``send_control`` / ``receive_control`` — orchestration bytes never touch
the protocol books, so the parity suite can pin the runtime row
bit-identical to the in-memory one.  Because each party's inbox is FIFO, a
control request also acts as a barrier: by the time her reply arrives she
has reacted to every protocol frame sent before it.

**Warning: the keys can be replayed from the TOML.**  Every keygen
machine is seeded from the public ``[pivot] seed`` (default 3), so anyone
holding one party's config can rerun keygen and obtain N and every
party's d_i (ROADMAP item 13).

Restart/resume: with ``[party] key_state`` set, a party persists her own
``(n, i, d_i, θ)`` to her own disk after keygen and resumes from it when
relaunched — basic-protocol prediction needs nothing else from her (her
partial decryption of a predict call's batch, sent to its holder alone,
and one R·L-ciphertext prediction-vector frame per hop, which her loop
consumes without a reply: the only frames it sinks, since no partial
decryption reaches a party that does not combine it), so a party killed
after training can be restarted and serve predictions without rerunning
keygen.

Data: a :class:`StandalonePartyRuntime` is handed her own column block.
The TOML entrypoint derives it deterministically from the shared
``[data]`` spec (synthetic generators are seeded), standing in for each
organisation loading her own table in a real deployment;
:class:`~repro.federation.deployment.DeployedFederation` spawns the same
party processes from a party list, passing each her block.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
import time
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable, NoReturn

import numpy as np

from repro.analysis import opcount
from repro.core.config import PivotConfig
from repro.crypto.batch import BatchCryptoEngine
from repro.crypto.distkeygen import KeygenParty, KeygenResult
from repro.crypto.encoding import PaillierEncoder
from repro.crypto.paillier import PaillierPublicKey
from repro.crypto.threshold import ThresholdKeyShare, ThresholdPaillier
from repro.data.partition import VerticalPartition, vertical_partition
from repro.data.synthetic import make_classification, make_regression
from repro.federation.federation import Federation
from repro.federation.locality import LocalView, as_party
from repro.federation.party import (
    Party,
    PartyEndpoint,
    PartyRuntime,
    PivotClient,
    RemoteColumns,
)
from repro.mpc.field import MERSENNE_127
from repro.network.bus import CONTROL_TAG_PREFIX, MessageBus
from repro.network.flows import run_distributed_keygen
from repro.network.transport import SocketTransport
from repro.network.wire import Request, WireCodec
from repro.tree.cart import TreeParams
from repro.tree.splits import candidate_splits_matrix

__all__ = [
    "RuntimeConfig",
    "RuntimeFederation",
    "StandalonePartyClient",
    "StandalonePartyRuntime",
    "free_addresses",
    "load_runtime_config",
    "main",
    "run_orchestrator",
    "write_party_configs",
]

#: Control-plane operations a standalone party answers (tag == op).
CONTROL_OPS = ("ctl-info", "ctl-snapshot", "ctl-keyreport", "ctl-shutdown")

#: Per-party bus counters that sum across processes.
_SUMMED = ("messages", "consumed", "bytes", "bytes_estimated")

#: secret_summary key order on the wire (dicts are not a wire type).
_KEYREPORT_FIELDS = (
    "p_share",
    "q_share",
    "beta_share",
    "d_share",
    "aux_private_key",
    "full_private_key",
)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuntimeConfig:
    """One party's view of a standalone-runtime deployment (one TOML file).

    Every party of a deployment shares everything except ``index`` (and the
    per-party ``key_state`` path): the address book, the data spec and the
    pivot parameters must agree or keygen/diverging datasets will fail
    loudly.  The super client must be party 0 — the protocol's
    request/convert flows anchor at client 1 (index 0).
    """

    index: int
    addresses: tuple[tuple[str, int], ...]
    timeout: float = 15.0
    connect_timeout: float = 30.0
    key_state: str | None = None
    max_idle: float | None = None
    # [data]
    data_kind: str = "classification"
    n_samples: int = 24
    n_features: int = 6
    n_classes: int = 2
    data_seed: int = 11
    super_client: int = 0
    # [pivot]
    keysize: int = 256
    seed: int | None = 3
    kappa: int = 40
    frac_bits: int = 16
    max_depth: int = 2
    max_splits: int = 2
    protocol: str = "basic"
    # [run] (read by the orchestrator entrypoint only)
    run_fit: bool = True
    predict_rows: int = 6

    def __post_init__(self) -> None:
        if len(self.addresses) < 2:
            raise ValueError("a runtime deployment needs at least 2 parties")
        if not 0 <= self.index < len(self.addresses):
            raise ValueError(f"party index {self.index} out of range")
        if self.super_client != 0:
            raise ValueError(
                "the standalone runtime requires the super client to be "
                "party 0 (the protocol's request flows anchor at client 1)"
            )
        if self.data_kind not in ("classification", "regression"):
            raise ValueError(f"unknown data kind {self.data_kind!r}")
        if self.protocol == "enhanced":
            raise ValueError(
                "the enhanced protocol is centrally driven (Eq. 10, hidden "
                "splits) and is not supported by the standalone runtime"
            )

    @property
    def n_parties(self) -> int:
        return len(self.addresses)

    @property
    def task(self) -> str:
        return self.data_kind

    @property
    def is_orchestrator(self) -> bool:
        return self.index == self.super_client

    def make_dataset(self) -> tuple[np.ndarray, np.ndarray]:
        """The deployment's shared deterministic synthetic dataset."""
        if self.data_kind == "classification":
            return make_classification(
                self.n_samples,
                self.n_features,
                n_classes=self.n_classes,
                seed=self.data_seed,
            )
        return make_regression(
            self.n_samples, self.n_features, seed=self.data_seed
        )

    def partition(self) -> VerticalPartition:
        """The shared dataset split over the deployment's parties."""
        X, y = self.make_dataset()
        return vertical_partition(
            X, y, self.n_parties, task=self.task, super_client=self.super_client
        )

    def pivot_config(self) -> PivotConfig:
        return PivotConfig(
            keysize=self.keysize,
            frac_bits=self.frac_bits,
            kappa=self.kappa,
            seed=self.seed,
            protocol=self.protocol,
            tree=TreeParams(max_depth=self.max_depth, max_splits=self.max_splits),
        )

    def make_transport(self) -> SocketTransport:
        return SocketTransport(
            self.n_parties,
            hosted=(self.index,),
            addresses=self.addresses,
            timeout=self.timeout,
            connect_timeout=self.connect_timeout,
        )


#: Where every :class:`RuntimeConfig` field lives in a ``partyN.toml``:
#: section -> its fields.  A field's key is its name less a ``<section>_``
#: prefix (``data_seed`` is ``[data] seed``).
_TOML_SECTIONS = {
    "party": ("index", "key_state", "max_idle"),
    "network": ("addresses", "timeout", "connect_timeout"),
    "data": ("data_kind", "n_samples", "n_features", "n_classes", "data_seed",
             "super_client"),
    "pivot": ("keysize", "seed", "kappa", "frac_bits", "max_depth",
              "max_splits", "protocol"),
    "run": ("run_fit", "predict_rows"),
}
#: field -> (section, key): the one table the reader and the writer walk.
_TOML_KEYS = {
    name: (section, name.removeprefix(f"{section}_"))
    for section, names in _TOML_SECTIONS.items()
    for name in names
}
#: The scalar type a field's annotation names first (``"float | None"``
#: reads as float); ``addresses`` is the one structured field.
_SCALARS: dict[str, type] = {"int": int, "float": float, "str": str, "bool": bool}


def _parse_address(text: str) -> tuple[str, int]:
    host, _, port = str(text).rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address {text!r} is not host:port")
    return host, int(port)


def load_runtime_config(path: str | Path) -> RuntimeConfig:
    """Parse one party's ``partyN.toml`` into a :class:`RuntimeConfig`.

    An absent key reads as ``None`` where the field admits it (TOML has no
    null: :func:`write_party_configs` omits ``None``), else as the
    dataclass default."""
    import tomllib

    with open(path, "rb") as handle:
        raw = tomllib.load(handle)
    values: dict[str, Any] = {}
    for f in fields(RuntimeConfig):
        section, key = _TOML_KEYS[f.name]
        if key not in raw.get(section, {}):
            if str(f.type).endswith("| None"):
                values[f.name] = None
            elif f.default is MISSING:
                raise ValueError(f"{path}: [{section}] must set {key}")
            continue
        value = raw[section][key]
        values[f.name] = (
            tuple(_parse_address(a) for a in value)
            if f.name == "addresses"
            else _SCALARS[str(f.type).split(" |")[0]](value)
        )
    return RuntimeConfig(**values)


def free_addresses(n_parties: int, host: str = "127.0.0.1") -> list[tuple[str, int]]:
    """Reserve ``n_parties`` currently-free localhost ports (test/CI helper)."""
    import socket

    sockets, addresses = [], []
    try:
        for _ in range(n_parties):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.bind((host, 0))
            sockets.append(sock)
            addresses.append((host, sock.getsockname()[1]))
    finally:
        for sock in sockets:
            sock.close()
    return addresses


def write_party_configs(
    directory: str | Path,
    addresses: list[tuple[str, int]] | None = None,
    n_parties: int = 3,
    key_state: bool = False,
    max_idle: float | None = 300.0,
    **overrides: Any,
) -> list[Path]:
    """Write one ``partyN.toml`` per party; returns the paths in index order.

    The quickstart generator behind the CI runtime-smoke job and the
    deployment tests: every file shares the address book, data spec and
    pivot parameters (``overrides`` feed :class:`RuntimeConfig` fields),
    differing only in ``[party] index`` (and ``key_state`` when enabled).
    A field left at ``None`` is omitted; it reads back as ``None``.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if addresses is None:
        addresses = free_addresses(n_parties)
    template = RuntimeConfig(
        index=0, addresses=tuple(addresses), max_idle=max_idle, **overrides
    )
    paths = []
    for i in range(template.n_parties):
        config = replace(
            template,
            index=i,
            key_state=(
                str(directory / f"party{i}.key.json") if key_state else None
            ),
        )
        sections: dict[str, list[str]] = {}
        for f in fields(RuntimeConfig):
            section, key = _TOML_KEYS[f.name]
            lines = sections.setdefault(section, [f"[{section}]"])
            value = getattr(config, f.name)
            if f.name == "addresses":
                value = [f"{host}:{port}" for host, port in value]
            if value is not None:  # JSON scalars and lists are TOML values
                lines.append(f"{key} = {json.dumps(value)}")
        text = "\n\n".join("\n".join(lines) for lines in sections.values())
        path = directory / f"party{i}.toml"
        path.write_text(text + "\n")
        paths.append(path)
    return paths


def _join_keygen(
    bus: MessageBus, index: int, config: RuntimeConfig | PivotConfig
) -> tuple[KeygenParty, KeygenResult]:
    """Run party ``index``'s distributed-keygen machine over ``bus`` with
    ``config``'s keysize, seed and kappa; the other parties' waves arrive
    over her socket from their own processes
    (:func:`~repro.network.flows.run_distributed_keygen` blocks on them).

    The machine's stream is seeded from the public ``seed``, so anyone who
    knows (seed, m, keysize) can replay every party's d_i (ROADMAP item 13).
    """
    machine = KeygenParty(
        index, bus.n_parties, config.keysize, seed=config.seed,
        kappa=config.kappa,
    )
    return machine, run_distributed_keygen(bus, {index: machine})[index]


# ---------------------------------------------------------------------------
# the standalone party process
# ---------------------------------------------------------------------------


class StandalonePartyRuntime:
    """One non-super party's whole process: socket, keys, event loop.

    Deliberately *not* a :class:`~repro.federation.federation.Federation`: a
    standalone party runs no MPC, owns no labels, and drives no flows —
    she needs her columns, her codec/bus on her own socket, her keygen
    state machine (or a resumed ``d_i``), her crypto engine and her
    :class:`~repro.federation.party.PartyRuntime`.  Everything she ever
    does is a reaction in :meth:`serve`.
    """

    def __init__(self, config: RuntimeConfig, block: np.ndarray) -> None:
        if config.is_orchestrator:
            raise ValueError(
                "the super client's process is the RuntimeFederation "
                "orchestrator, not a StandalonePartyRuntime"
            )
        self.config = config
        self.index = config.index
        self.running = True
        #: Fresh per-launch marker so the orchestrator can tell a restart
        #: (reset counters) from a continuation when merging snapshots.
        self.boot = secrets.randbits(63)

        # Her columns: her block only, handed over by whoever launched her.
        with as_party(self.index):  # her own columns, in her own process
            split_values = candidate_splits_matrix(block, config.max_splits)
        self.n_samples = int(block.shape[0])

        # Transport + key-less codec + bus: the codec is bound to the
        # public key distributed keygen produces (or the resumed one).
        self.field_q = MERSENNE_127.q
        self.codec = WireCodec(None, share_modulus=self.field_q)
        self.bus = MessageBus(
            config.n_parties,
            codec=self.codec,
            transport=config.make_transport(),
        )
        try:
            self.keygen_machine: KeygenParty | None = None
            self.resumed = False
            state_path = (
                Path(config.key_state) if config.key_state else None
            )
            if state_path is not None and state_path.exists():
                public_key, share, theta = self._load_key_state(state_path)
                self.resumed = True
            else:
                self.keygen_machine, result = _join_keygen(
                    self.bus, self.index, config
                )
                public_key, share = result.public_key, result.share
                theta = result.theta
                if state_path is not None:
                    self._save_key_state(state_path, public_key, share, theta)
            self.public_key = public_key
            self.key_share = share
            self.theta = theta
            self.encoder = PaillierEncoder(
                public_key, frac_bits=config.frac_bits
            )
            self.codec.bind(public_key, encoder=self.encoder)
            self.engine = BatchCryptoEngine(
                public_key, frac_bits=config.frac_bits, encoder=self.encoder
            )
            client = PivotClient(
                index=self.index,
                features=LocalView(block, self.index, name="features"),
                split_values=split_values,
            )
            self.runtime = PartyRuntime(
                PartyEndpoint(self.bus, self.index),
                client=client,
                engine=self.engine,
                field_q=self.field_q,
                key_share=share,
            )
        except BaseException:
            self.bus.close()
            raise

    # -- key material ------------------------------------------------------

    def _save_key_state(
        self,
        path: Path,
        public_key: PaillierPublicKey,
        share: Any,
        theta: int,
    ) -> None:
        """Persist this party's own key material to her own disk.

        Contains her ``d_i`` — private to her machine, exactly like any
        service's key file; it never crosses the bus.
        """
        path.write_text(
            json.dumps(
                {
                    "n": public_key.n,
                    "party_index": share.party_index,
                    "d_share": share.d_share,
                    "theta": theta,
                    "n_parties": self.config.n_parties,
                }
            )
        )

    def _load_key_state(
        self, path: Path
    ) -> tuple[PaillierPublicKey, ThresholdKeyShare, int]:
        state = json.loads(path.read_text())
        if state["party_index"] != self.index:
            raise ValueError(
                f"key state {path} belongs to party {state['party_index']}, "
                f"this is party {self.index}"
            )
        if state["n_parties"] != self.config.n_parties:
            raise ValueError(f"key state {path} is for a different deployment")
        public_key = PaillierPublicKey(int(state["n"]))
        share = ThresholdKeyShare(
            public_key, self.index, int(state["d_share"])
        )
        return public_key, share, int(state["theta"])

    def secret_summary(self) -> dict[str, bool]:
        """What key material this process holds (never the full key)."""
        if self.keygen_machine is not None:
            return self.keygen_machine.secret_summary()
        # Resumed from the key-state file: only (i, d_i) exists here.
        return {
            "p_share": False,
            "q_share": False,
            "beta_share": False,
            "d_share": True,
            "aux_private_key": False,
            "full_private_key": False,
        }

    # -- serve loop --------------------------------------------------------

    def serve(self) -> None:
        """React until shutdown: the party's entire protocol life.

        Every pop is uncounted first (:meth:`MessageBus.receive_control`)
        and dispatched on its tag: ``ctl-*`` frames are administration,
        anything else is protocol — counted as consumed and handed to the
        :class:`~repro.federation.party.PartyRuntime` event loop, whose
        handlers may themselves receive follow-up frames (counted there).
        An idle inbox just times out and loops; with ``max_idle`` set, a
        party abandoned by her orchestrator eventually exits instead of
        lingering forever.
        """
        idle_since = time.monotonic()
        while self.running:
            try:
                sender, tag, payload = self.bus.receive_control(self.index)
            except LookupError:
                if (
                    self.config.max_idle is not None
                    and time.monotonic() - idle_since > self.config.max_idle
                ):
                    break
                continue
            idle_since = time.monotonic()
            if tag.startswith(CONTROL_TAG_PREFIX):
                self._answer_control(sender, tag, payload)
            else:
                self.bus.consumed += 1
                self.runtime.handle(sender, tag, payload)

    def _answer_control(self, sender: int, tag: str, payload: Any) -> None:
        if not isinstance(payload, Request) or payload.op != tag:
            raise ValueError(
                f"party {self.index}: malformed control frame {tag!r}"
            )
        if tag == "ctl-info":
            client = self.runtime.client
            body = [
                self.n_samples,
                client.n_features,
                [client.n_splits(j) for j in range(client.n_features)],
            ]
        elif tag == "ctl-snapshot":
            ops = opcount.snapshot()
            body = [
                self.boot,
                self.bus.pending(self.index),
                self.bus.rounds,
                [[key.encode(), n] for key, n in sorted(self.bus.by_tag.items())],
                [ops["ce"], ops["cd"], ops["cs"], ops["cc"]],
                *(getattr(self.bus, key) for key in _SUMMED),
            ]
        elif tag == "ctl-keyreport":
            summary = self.secret_summary()
            body = [
                [name.encode(), int(summary[name])]
                for name in _KEYREPORT_FIELDS
            ]
        elif tag == "ctl-shutdown":
            self.running = False
            body = [1]
        else:
            raise ValueError(
                f"party {self.index}: unknown control op {tag!r}"
            )
        self.bus.send_control(self.index, sender, Request(tag, body), tag=tag)

    def close(self) -> None:
        self.running = False
        self.bus.close()


# ---------------------------------------------------------------------------
# the orchestrator process (the super client)
# ---------------------------------------------------------------------------


class StandalonePartyClient:
    """Client stub for a party living in her own standalone process.

    Exposes exactly the *public* facts the centrally-driven parts of the
    protocol need — her index, her feature count, and her per-feature
    candidate-split **counts** (fetched lazily over the control plane; the
    threshold *values* stay with her, revealed one at a time only when the
    basic protocol publishes a chosen split).  Every local computation
    (indicators, rows, logistic folds) happens in her process as a
    :class:`~repro.federation.party.PartyRuntime` reaction, so this stub
    refuses them all.
    """

    def __init__(self, index: int, shape: tuple[int, int]) -> None:
        self.index = index
        self.features = RemoteColumns(index, shape)
        self._shape = shape
        self._split_counts: list[int] | None = None
        #: bound to RuntimeFederation._control
        self._fetch: Callable[..., Any] | None = None

    @property
    def n_features(self) -> int:
        return self._shape[1]

    def n_splits(self, feature: int) -> int:
        if self._split_counts is None:
            if self._fetch is None:
                raise RuntimeError(
                    f"party {self.index}'s stub is not bound to a "
                    "RuntimeFederation yet"
                )
            n_samples, n_features, counts = self._fetch(self.index, "ctl-info")
            if (int(n_samples), int(n_features)) != self._shape:
                raise ValueError(
                    f"party {self.index} reports a {n_samples}x{n_features} "
                    f"block; the shared data spec says {self._shape}"
                )
            self._split_counts = [int(c) for c in counts]
        return self._split_counts[feature]

    def _refuse(self, what: str) -> NoReturn:
        raise NotImplementedError(
            f"{what} is party {self.index}'s local computation; in the "
            "standalone topology it runs in her own process as a protocol "
            "reaction, never through the orchestrator"
        )

    @property
    def split_values(self) -> NoReturn:
        self._refuse("split_values")

    def indicator(self, feature: int, split: int) -> NoReturn:
        self._refuse("indicator")

    def indicator_matrix(self, feature: int) -> NoReturn:
        self._refuse("indicator_matrix")

    def local_block(self) -> NoReturn:
        self._refuse("local_block")

    def batch_sums(self, rows: Any, weights: Any) -> NoReturn:
        self._refuse("batch_sums")

    def weight_update(
        self, rows: Any, weights: Any, loss_cts: Any, scale: Any
    ) -> NoReturn:
        self._refuse("weight_update")


class RuntimeFederation(Federation):
    """The super client's process in a standalone-runtime deployment.

    An ordinary :class:`~repro.federation.federation.Federation` — same
    estimator API, same parity guarantees — except physically minimal:
    it hosts only party 0's inbox, key-material and columns
    (her transport hosts no one else); distributed keygen runs her
    machine against the remote parties' over the socket mesh; the other
    parties are :class:`StandalonePartyClient` stubs.  Cost snapshots and the
    end-of-run drain check merge the remote parties' control-plane
    reports (the only way remote op counts reach this process).  What
    would need a party's plaintext here — the enhanced protocol, the
    malicious model, GBDT's training rows — raises ``NotImplementedError``
    before any protocol message is sent.

    Built from a partition (or party list), a
    :class:`~repro.core.config.PivotConfig` and a transport hosting party
    0 alone (the TOML entrypoint derives all three from a
    :class:`RuntimeConfig`), which is closed if construction fails.  The
    party processes must already be running (or starting): keygen blocks
    until all m machines participate.
    """

    def __init__(
        self,
        parties: list[Party] | VerticalPartition,
        config: PivotConfig,
        transport: SocketTransport,
        *,
        task: str = "classification",
    ) -> None:
        try:
            # Every block but hers lives in its party's own process:
            # assembly refuses a transport hosting anyone but party 0,
            # poisons this process's copies, and runs distributed keygen
            # over the socket mesh before the codec is bound — the
            # constructor returns with pk shared and only d_0 in this
            # process.
            super().__init__(
                parties, task=task, config=config, transport=transport
            )
        except BaseException:
            transport.close()
            raise
        self._remote = tuple(self.stubs)
        for stub in self.stubs.values():
            stub._fetch = self._control
        #: Last merged per-party state: (boot, [ce, cd, cs, cc]) so op
        #: deltas merge exactly once, and cached bus counters for
        #: cost_snapshot.  The first pull is the baseline (assembly work
        #: stays out of later counting windows, like every other row).
        self._party_ops: dict[int, tuple[int, list[int]]] = {}
        self._party_bus: dict[int, dict] = {}
        #: A restarted party's last state before her restart.
        self._retired: dict[int, dict] = {}
        self._closed = False
        #: Parties whose last control reply acknowledged ctl-shutdown: they
        #: have exited, so asking again could only wait out the transport
        #: timeout.  Any later reply (a restarted party) clears the mark.
        self._shut_down: set[int] = set()
        for i in self._remote:
            self._pull_state(i)

    def _generate_keys(self) -> ThresholdPaillier:
        """§3.4 without the dealer: party 0's keygen machine runs against
        the remote parties' over the socket mesh; the bundle holds her
        d_0 alone and no private key."""
        self.keygen_machine, result = _join_keygen(
            self.bus, self.super_client, self.config
        )
        shares: list[ThresholdKeyShare | None] = [None] * self.n_clients
        shares[self.super_client] = result.share
        return ThresholdPaillier(result.public_key, shares, theta=result.theta)

    def _remote_clients(
        self, partition: VerticalPartition
    ) -> dict[int, StandalonePartyClient]:
        """Every other party is a stub of public facts; her columns, split
        thresholds and key share live only in her own process."""
        if partition.super_client != 0:
            raise ValueError(
                "a multi-process deployment requires the super client to be "
                "party 0 (the protocol's request flows anchor at client 1)"
            )
        self.stubs: dict[int, StandalonePartyClient] = {
            i: StandalonePartyClient(i, block.shape)
            for i, block in enumerate(partition.local_features)
            if i != partition.super_client
        }
        return dict(self.stubs)

    # -- control plane -----------------------------------------------------

    def _control(self, party: int, op: str, body: list | None = None) -> list:
        """One request/reply round trip on the unaccounted control plane.

        Per-party FIFO makes this a barrier: the reply proves the party
        has reacted to every protocol frame that preceded the request.
        """
        bus = self.bus
        sup = self.super_client
        bus.send_control(sup, party, Request(op, list(body or [])), tag=op)
        sender, tag, payload = bus.receive_control(sup)
        if sender != party or tag != op or not isinstance(payload, Request):
            raise RuntimeError(
                f"expected a {op!r} reply from party {party}; got "
                f"{tag!r} from party {sender} — protocol traffic is "
                "leaking past its round barriers"
            )
        if op == "ctl-shutdown":
            self._shut_down.add(party)
        else:
            self._shut_down.discard(party)
        return list(payload.body)

    def _pull_state(self, party: int) -> dict:
        """Fetch one party's counters; merge her op-count delta exactly once.

        A changed boot marker means the party restarted (fresh counters):
        her op tallies restart as a new baseline rather than merging a
        negative delta, and her bus counters carry on from the last ones
        her previous launch reported.
        """
        body = self._control(party, "ctl-snapshot")
        boot, pending, rounds, tag_pairs, ops, *counters = body
        ops = [int(v) for v in ops]
        previous = self._party_ops.get(party)
        if previous is not None and previous[0] == boot:
            delta = [now - then for now, then in zip(ops, previous[1])]
            opcount.GLOBAL.ce += delta[0]
            opcount.GLOBAL.cd += delta[1]
            opcount.GLOBAL.cs += delta[2]
            opcount.GLOBAL.cc += delta[3]
        elif previous is not None:
            self._retired[party] = self._party_bus[party]
        self._party_ops[party] = (boot, ops)
        state: dict[str, Any] = {
            key: int(value) for key, value in zip(_SUMMED, counters)
        }
        state.update(
            boot=int(boot),
            pending=int(pending),
            rounds=int(rounds),
            by_tag={key.decode(): int(n) for key, n in tag_pairs},
        )
        retired = self._retired.get(party)
        if retired is not None:
            for key in _SUMMED:
                state[key] += retired[key]
            for tag, n in retired["by_tag"].items():
                state["by_tag"][tag] = state["by_tag"].get(tag, 0) + n
        self._party_bus[party] = state
        return state

    # -- federation API overrides ------------------------------------------

    def context_for(
        self,
        protocol: str | None = None,
        dp: Any = None,
        malicious: bool | None = None,
    ) -> Any:
        if (protocol or self.config.protocol) == "enhanced":
            raise NotImplementedError(
                "the enhanced protocol's model update (Eq. 10) and hidden "
                "split selection are centrally driven; the standalone "
                "runtime topology supports the basic protocol"
            )
        if malicious or (malicious is None and self.config.authenticated_mpc):
            raise NotImplementedError(
                "the malicious model's verified conversions are centrally "
                "driven; the standalone runtime topology runs semi-honest"
            )
        return super().context_for(protocol=protocol, dp=dp, malicious=malicious)

    def assert_drained(self) -> None:
        """Summed over every process, protocol messages sent equal those
        consumed and nothing is pending.

        A party's reply proves only that she has reacted to this
        process's frames; a peer's frame to her may still be in flight, so
        the parties are re-pulled until the sums agree or the transport
        timeout passes.  The local check runs first so a control reply
        cannot interleave with leftover protocol mail.
        """
        self.bus.assert_drained()
        deadline = time.monotonic() + self.bus.transport.timeout
        while True:
            counts = {
                self.super_client: (self.bus.messages, self.bus.consumed, 0)
            }
            for i in self._remote:
                state = self._pull_state(i)
                counts[i] = (
                    state["messages"], state["consumed"], state["pending"]
                )
            sent, consumed, pending = (sum(c) for c in zip(*counts.values()))
            if sent == consumed and not pending:
                return
            if time.monotonic() > deadline:
                break
            time.sleep(0.01)
        raise AssertionError(
            f"not drained: {sent} protocol messages sent, {consumed} "
            f"consumed, {pending} pending; "
            + ", ".join(
                f"party {i} sent {s} consumed {c} pending {p}"
                for i, (s, c, p) in counts.items()
                if s != c or p
            )
        )

    def cost_snapshot(self) -> dict[str, object]:
        """Deployment-wide accounting: every send counted once, at its
        sender's bus, summed across processes; rounds are the protocol's
        barrier count (every process applies the same barriers locally, so
        they are reported once, not summed)."""
        for i in self._remote:
            self._pull_state(i)
        snap = super().cost_snapshot()
        bus = dict(snap["bus"])
        by_tag = dict(bus["by_tag"])
        for state in self._party_bus.values():
            for key in (*_SUMMED, "pending"):
                bus[key] += state[key]
            for tag, n in state["by_tag"].items():
                by_tag[tag] = by_tag.get(tag, 0) + n
        bus["by_tag"] = by_tag
        bus["bytes_measured"] = bus["bytes"]
        snap["bus"] = bus
        return snap

    def key_report(self) -> dict[int, dict[str, bool]]:
        """Every process's key-material audit: no full private key anywhere."""
        report = {self.super_client: self.keygen_machine.secret_summary()}
        for i in self._remote:
            pairs = self._control(i, "ctl-keyreport")
            report[i] = {key.decode(): bool(v) for key, v in pairs}
        return report

    def shutdown_parties(self) -> None:
        """Best-effort ctl-shutdown to every standalone party still up."""
        for i in self._remote:
            if i in self._shut_down:
                continue
            try:
                self._control(i, "ctl-shutdown")
            except Exception:
                pass  # already gone — her exit is her own process's business

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.shutdown_parties()
        super().close()


# ---------------------------------------------------------------------------
# entrypoint
# ---------------------------------------------------------------------------


def run_orchestrator(config: RuntimeConfig) -> dict:
    """The quickstart: federate, fit, predict; returns a JSON-able summary."""
    from repro.federation.estimators import PivotClassifier, PivotRegressor

    if not config.is_orchestrator:
        raise ValueError(
            f"the orchestrator is the super client's process; this config "
            f"is for party {config.index}"
        )
    X, y = config.make_dataset()
    summary: dict[str, object] = {
        "parties": config.n_parties,
        "keygen": "distributed",
        "task": config.task,
        "protocol": config.protocol,
    }
    with RuntimeFederation(
        config.partition(), config.pivot_config(), config.make_transport()
    ) as fed:
        summary["key_report"] = {
            str(i): report for i, report in fed.key_report().items()
        }
        if config.run_fit:
            if config.task == "classification":
                estimator = PivotClassifier(protocol=config.protocol)
            else:
                estimator = PivotRegressor(protocol=config.protocol)
            estimator.fit(fed)
            rows = X[: config.predict_rows]
            predictions = estimator.predict(rows)
            summary["predictions"] = [float(p) for p in predictions]
            summary["score"] = float(
                estimator.score(rows, y[: config.predict_rows])
            )
            summary["signature"] = estimator.model_.structure_signature()
        cost = fed.cost_snapshot()
        summary["bytes"] = cost["bus"]["bytes"]
        summary["rounds"] = cost["bus"]["rounds"]
        fed.assert_drained()
    summary["ok"] = True
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.federation.runtime",
        description=(
            "Run one Pivot party as a standalone process. The super "
            "client's config runs the orchestrator quickstart (fit + "
            "predict, JSON summary on stdout); any other party serves her "
            "reactive event loop until shutdown."
        ),
    )
    parser.add_argument(
        "--config", required=True, help="path to this party's partyN.toml"
    )
    args = parser.parse_args(argv)
    config = load_runtime_config(args.config)
    if config.is_orchestrator:
        summary = run_orchestrator(config)
        json.dump(summary, sys.stdout)
        sys.stdout.write("\n")
        return 0
    partition = config.partition()
    with as_party(config.index):  # her own columns, in her own process
        block = partition.local_features[config.index]
    party = StandalonePartyRuntime(config, block)
    host, port = config.addresses[config.index]
    print(
        f"party {config.index} serving on {host}:{port} "
        f"({'resumed' if party.resumed else 'keygen complete'})",
        file=sys.stderr,
        flush=True,
    )
    try:
        party.serve()
    finally:
        party.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
