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
  (p, q, λ, µ) exists in no process at any time;
* serves the reactive protocol loop
  (:class:`~repro.federation.party.PartyRuntime`): candidate-split
  statistics, split application, mask contributions, decryption shares and
  logistic batch ops all run as reactions to frames arriving on her own
  socket.

The super client's process is the :class:`RuntimeFederation` — an ordinary
:class:`~repro.federation.federation.Federation` whose context holds *only*
her party (its transport hosts party 0 alone).  The other parties appear as
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

Restart/resume: with ``[party] key_state`` set, a party persists her own
``(n, i, d_i, θ)`` to her own disk after keygen and resumes from it when
relaunched — basic-protocol prediction needs nothing else from her
(decryption shares + prediction-vector sinks: one R·L-ciphertext frame per
hop of a predict call, which her loop consumes without a reply), so a
party killed after training can be restarted and serve predictions
without rerunning keygen.

Data: the quickstart derives each party's columns deterministically from
the shared ``[data]`` spec (synthetic generators are seeded), standing in
for each organisation loading her own table in a real deployment.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NoReturn

import numpy as np

from repro.analysis import opcount
from repro.core.config import PivotConfig
from repro.core.context import PivotClient
from repro.crypto.batch import BatchCryptoEngine
from repro.crypto.distkeygen import KeygenParty
from repro.crypto.encoding import PaillierEncoder
from repro.crypto.paillier import PaillierPublicKey
from repro.crypto.threshold import ThresholdKeyShare
from repro.data.partition import vertical_partition
from repro.data.synthetic import make_classification, make_regression
from repro.federation.federation import Federation
from repro.federation.locality import LocalView, as_party
from repro.federation.party import Party, PartyEndpoint, PartyRuntime
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

    def pivot_config(self) -> PivotConfig:
        return PivotConfig(
            keysize=self.keysize,
            frac_bits=self.frac_bits,
            kappa=self.kappa,
            seed=self.seed,
            keygen="distributed",
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


def _parse_address(text: str) -> tuple[str, int]:
    host, _, port = str(text).rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address {text!r} is not host:port")
    return host, int(port)


def load_runtime_config(path: str | Path) -> RuntimeConfig:
    """Parse one party's ``partyN.toml`` into a :class:`RuntimeConfig`."""
    import tomllib

    with open(path, "rb") as handle:
        raw = tomllib.load(handle)
    party = raw.get("party", {})
    network = raw.get("network", {})
    data = raw.get("data", {})
    pivot = raw.get("pivot", {})
    run = raw.get("run", {})
    if "index" not in party:
        raise ValueError(f"{path}: [party] must set index")
    if "addresses" not in network:
        raise ValueError(f"{path}: [network] must set addresses")
    return RuntimeConfig(
        index=int(party["index"]),
        addresses=tuple(_parse_address(a) for a in network["addresses"]),
        timeout=float(network.get("timeout", 15.0)),
        connect_timeout=float(network.get("connect_timeout", 30.0)),
        key_state=party.get("key_state"),
        max_idle=(
            float(party["max_idle"]) if "max_idle" in party else None
        ),
        data_kind=str(data.get("kind", "classification")),
        n_samples=int(data.get("n_samples", 24)),
        n_features=int(data.get("n_features", 6)),
        n_classes=int(data.get("n_classes", 2)),
        data_seed=int(data.get("seed", 11)),
        super_client=int(data.get("super_client", 0)),
        keysize=int(pivot.get("keysize", 256)),
        seed=(int(pivot["seed"]) if pivot.get("seed") is not None else None),
        kappa=int(pivot.get("kappa", 40)),
        frac_bits=int(pivot.get("frac_bits", 16)),
        max_depth=int(pivot.get("max_depth", 2)),
        max_splits=int(pivot.get("max_splits", 2)),
        protocol=str(pivot.get("protocol", "basic")),
        run_fit=bool(run.get("fit", True)),
        predict_rows=int(run.get("predict_rows", 6)),
    )


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
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if addresses is None:
        addresses = free_addresses(n_parties)
    template = RuntimeConfig(
        index=0, addresses=tuple(addresses), max_idle=max_idle, **overrides
    )
    address_list = ", ".join(f'"{h}:{p}"' for h, p in template.addresses)
    paths = []
    for i in range(template.n_parties):
        lines = ["[party]", f"index = {i}"]
        if key_state:
            lines.append(f'key_state = "{directory / f"party{i}.key.json"}"')
        if template.max_idle is not None:
            lines.append(f"max_idle = {float(template.max_idle)}")
        lines += [
            "",
            "[network]",
            f"addresses = [{address_list}]",
            f"timeout = {float(template.timeout)}",
            f"connect_timeout = {float(template.connect_timeout)}",
            "",
            "[data]",
            f'kind = "{template.data_kind}"',
            f"n_samples = {template.n_samples}",
            f"n_features = {template.n_features}",
            f"n_classes = {template.n_classes}",
            f"seed = {template.data_seed}",
            f"super_client = {template.super_client}",
            "",
            "[pivot]",
            f"keysize = {template.keysize}",
        ]
        if template.seed is not None:
            lines.append(f"seed = {template.seed}")
        lines += [
            f"kappa = {template.kappa}",
            f"frac_bits = {template.frac_bits}",
            f"max_depth = {template.max_depth}",
            f"max_splits = {template.max_splits}",
            f'protocol = "{template.protocol}"',
            "",
            "[run]",
            f"fit = {'true' if template.run_fit else 'false'}",
            f"predict_rows = {template.predict_rows}",
            "",
        ]
        path = directory / f"party{i}.toml"
        path.write_text("\n".join(lines))
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# the standalone party process
# ---------------------------------------------------------------------------


class StandalonePartyRuntime:
    """One non-super party's whole process: socket, keys, event loop.

    Deliberately *not* a :class:`~repro.core.context.PivotContext`: a
    standalone party runs no MPC, owns no labels, and drives no flows —
    she needs her columns, her codec/bus on her own socket, her keygen
    state machine (or a resumed ``d_i``), her crypto engine and her
    :class:`~repro.federation.party.PartyRuntime`.  Everything she ever
    does is a reaction in :meth:`serve`.
    """

    def __init__(self, config: RuntimeConfig) -> None:
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
        self._ops_reported = {"ce": 0, "cd": 0, "cs": 0, "cc": 0}

        # Her columns: the shared deterministic dataset, restricted to her
        # vertical slice (stands in for loading her own table).
        X, y = config.make_dataset()
        partition = vertical_partition(
            X,
            y,
            config.n_parties,
            task=config.task,
            super_client=config.super_client,
        )
        with as_party(self.index):  # her own columns, in her own process
            block = partition.local_features[self.index]
            split_values = candidate_splits_matrix(block, config.max_splits)
        del X, y, partition  # she keeps only her own columns
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
                public_key, share, theta = self._run_keygen()
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
                features=LocalView(
                    block, self.index, name="features", strict=True
                ),
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

    def _run_keygen(self) -> tuple[PaillierPublicKey, ThresholdKeyShare, int]:
        """Join distributed keygen with *her* machine only; remote waves
        arrive over her socket (run_distributed_keygen blocks on them)."""
        self.keygen_machine = KeygenParty(
            self.index,
            self.config.n_parties,
            self.config.keysize,
            seed=self.config.seed,
            kappa=self.config.kappa,
        )
        results = run_distributed_keygen(
            self.bus, {self.index: self.keygen_machine}
        )
        result = results[self.index]
        return result.public_key, result.share, result.theta

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
                self.bus.messages,
                self.bus.consumed,
                self.bus.pending(self.index),
                self.bus.bytes,
                self.bus.bytes_measured,
                self.bus.bytes_estimated,
                self.bus.rounds,
                [[key.encode(), n] for key, n in sorted(self.bus.by_tag.items())],
                [ops["ce"], ops["cd"], ops["cs"], ops["cc"]],
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


class _StandaloneColumns:
    """Shape-only stand-in for a standalone party's columns.

    Mirrors the deployed topology's ``_RemoteColumns``: anything beyond
    shape/len fails loudly — the columns exist only in the party's own
    process, reachable solely through her sanctioned protocol reactions.
    """

    def __init__(self, owner: int, shape: tuple[int, int]) -> None:
        self.owner = owner
        self.shape = shape

    @property
    def ndim(self) -> int:
        return 2

    def __len__(self) -> int:
        return self.shape[0]

    def _refuse(self) -> NoReturn:
        raise RuntimeError(
            f"party {self.owner}'s columns live in her standalone runtime "
            "process; the orchestrator holds no copy to read"
        )

    def read(self) -> np.ndarray:
        self._refuse()

    def __getitem__(self, key: Any) -> Any:
        self._refuse()

    def __array__(self, dtype: Any = None, copy: bool | None = None) -> np.ndarray:
        self._refuse()

    def __repr__(self) -> str:
        return f"_StandaloneColumns(owner={self.owner}, shape={self.shape})"


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
        self.features = _StandaloneColumns(index, shape)
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

    def local_row(self, t: int) -> NoReturn:
        self._refuse("local_row")

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
    the context hosts only party 0's inbox, key-material and columns
    (her transport hosts no one else); distributed keygen runs her
    machine against the remote parties' over the socket mesh; the other
    parties are :class:`StandalonePartyClient` stubs.  Cost snapshots and the
    end-of-run drain check merge the remote parties' control-plane
    reports, so accounting stays comparable with the single-process rows.

    The standalone party processes must already be running (or starting —
    the transport retries refused connections) when this constructor runs:
    keygen blocks until all m machines participate.
    """

    def __init__(self, config: RuntimeConfig) -> None:
        if not config.is_orchestrator:
            raise ValueError(
                f"RuntimeFederation is the super client's process; this "
                f"config is for party {config.index}"
            )
        self.runtime_config = config
        X, y = config.make_dataset()
        partition = vertical_partition(
            X,
            y,
            config.n_parties,
            task=config.task,
            super_client=config.super_client,
        )
        sup = config.super_client
        self._remote = tuple(
            i for i in range(config.n_parties) if i != sup
        )
        # Orchestrator-side Party handles: hers is real, every remote block
        # is NaN poison of the right shape — reading one fails or visibly
        # poisons parity-checked output (the DeployedFederation guarantee).
        parties, masked, stubs = [], [], {}
        for i, block in enumerate(partition.local_features):
            if i == sup:
                parties.append(Party(block, labels=y, name="super"))
                masked.append(block)
                continue
            poison = np.full_like(block, np.nan)
            parties.append(Party(poison, name=f"party{i}"))
            masked.append(poison)
            stubs[i] = StandalonePartyClient(i, block.shape)
        from dataclasses import replace as _replace

        partition = _replace(partition, local_features=tuple(masked))
        self.stubs = stubs
        # Assembly runs distributed keygen over the socket mesh before the
        # codec is bound — the constructor returns with pk shared and only
        # d_0 in this process.
        self._assemble(
            parties,
            partition,
            config.pivot_config(),
            None,
            config.make_transport(),
            remote_clients=dict(stubs),
        )
        for stub in stubs.values():
            stub._fetch = self._control
        #: Last merged per-party state: (boot, [ce, cd, cs, cc]) so op
        #: deltas merge exactly once, and cached bus counters for
        #: cost_snapshot.  The first pull is the baseline (assembly work
        #: stays out of later counting windows, like every other row).
        self._party_ops: dict[int, tuple[int, list[int]]] = {}
        self._party_bus: dict[int, dict] = {}
        self._closed = False
        #: Parties whose last control reply acknowledged ctl-shutdown: they
        #: have exited, so asking again could only wait out the transport
        #: timeout.  Any later reply (a restarted party) clears the mark.
        self._shut_down: set[int] = set()
        for i in self._remote:
            self._pull_state(i)

    # -- control plane -----------------------------------------------------

    def _control(self, party: int, op: str, body: list | None = None) -> list:
        """One request/reply round trip on the unaccounted control plane.

        Per-party FIFO makes this a barrier: the reply proves the party
        has reacted to every protocol frame that preceded the request.
        """
        bus = self.context.bus
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
        her tallies restart as a new baseline rather than merging a
        negative delta.
        """
        body = self._control(party, "ctl-snapshot")
        (
            boot,
            messages,
            consumed,
            pending,
            nbytes,
            measured,
            estimated,
            rounds,
            tag_pairs,
            ops,
        ) = body
        ops = [int(v) for v in ops]
        previous = self._party_ops.get(party)
        if previous is not None and previous[0] == boot:
            delta = [now - then for now, then in zip(ops, previous[1])]
            opcount.GLOBAL.ce += delta[0]
            opcount.GLOBAL.cd += delta[1]
            opcount.GLOBAL.cs += delta[2]
            opcount.GLOBAL.cc += delta[3]
        self._party_ops[party] = (boot, ops)
        state = {
            "boot": int(boot),
            "messages": int(messages),
            "consumed": int(consumed),
            "pending": int(pending),
            "bytes": int(nbytes),
            "bytes_measured": int(measured),
            "bytes_estimated": int(estimated),
            "rounds": int(rounds),
            "by_tag": {key.decode(): int(n) for key, n in tag_pairs},
        }
        self._party_bus[party] = state
        return state

    # -- federation API overrides ------------------------------------------

    def context_for(
        self,
        protocol: str | None = None,
        dp: Any = None,
        malicious: bool | None = None,
    ) -> Any:
        resolved = protocol or self.config.protocol
        if resolved == "enhanced":
            raise NotImplementedError(
                "the enhanced protocol's model update (Eq. 10) and hidden "
                "split selection are centrally driven; the standalone "
                "runtime topology supports the basic protocol"
            )
        return super().context_for(protocol=protocol, dp=dp, malicious=malicious)

    def assert_drained(self) -> None:
        """Every inbox empty — the orchestrator's *and* every party's.

        The local check runs first so a control reply cannot interleave
        with leftover protocol mail; each party's report then doubles as
        the barrier that she has reacted to everything sent before it.
        """
        self.context.bus.assert_drained()
        for i in self._remote:
            state = self._pull_state(i)
            if state["pending"]:
                raise AssertionError(
                    f"party {i} still has {state['pending']} undelivered "
                    "protocol messages"
                )

    def cost_snapshot(self) -> dict[str, object]:
        """Deployment-wide accounting: every send counted once, at its
        sender's bus, summed across processes; rounds are the protocol's
        barrier count (every process applies the same barriers locally, so
        they are reported once, not summed)."""
        for i in self._remote:
            self._pull_state(i)
        snap = self.context.cost_snapshot()
        bus = dict(snap["bus"])
        by_tag = dict(bus["by_tag"])
        for state in self._party_bus.values():
            for key in (
                "messages",
                "consumed",
                "pending",
                "bytes",
                "bytes_measured",
                "bytes_estimated",
            ):
                bus[key] += state[key]
            for tag, n in state["by_tag"].items():
                by_tag[tag] = by_tag.get(tag, 0) + n
        bus["by_tag"] = by_tag
        bus["simulated_seconds"] = self.context.bus.model.time(
            bus["rounds"], bus["bytes"]
        )
        snap["bus"] = bus
        return snap

    def key_report(self) -> dict[int, dict[str, bool]]:
        """Every process's key-material audit: no full private key anywhere."""
        report = {
            self.super_client: self.context.keygen_machines[
                self.super_client
            ].secret_summary()
        }
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

    X, y = config.make_dataset()
    summary: dict[str, object] = {
        "parties": config.n_parties,
        "keygen": "distributed",
        "task": config.task,
        "protocol": config.protocol,
    }
    with RuntimeFederation(config) as fed:
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
    party = StandalonePartyRuntime(config)
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
