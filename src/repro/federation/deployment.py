"""Per-party process deployment: the locality boundary made physical.

The paper evaluates Pivot with every client on her own machine in a LAN
(§8.1).  :class:`DeployedFederation` reproduces that topology on one host:
each non-super :class:`~repro.federation.party.Party` is launched in her
own **worker process** holding her raw feature columns (and, after
provisioning, her partial threshold-Paillier key share), while the super
client's process — the orchestrator — owns the labels and drives the
protocol.  The :class:`~repro.federation.locality.LocalView` /
``strict_locality`` guarantee that PR 3 enforced cooperatively becomes
physically true: a non-super party's raw columns exist **only** in her
worker process (the orchestrator's copies are replaced by NaN poison
arrays the moment the worker owns the data), so no orchestrator-side code
path can read them, scoped or not.

What runs where:

* **Worker process** (one per non-super party): stores the party's
  columns behind a strict ``LocalView``, computes her sanctioned local
  protocol steps *inside her own scope* — candidate splits (§3.4 setup),
  split-indicator vectors/matrices (§4.1/§5.2), per-sample feature slices
  (§5.2 residual rounds), the logistic trainer's per-epoch batch sums and
  gradient folds (§7.3), and **her half of every threshold decryption**:
  the c^{d_i} exponentiations with her provisioned key share run here, on
  the real protocol path (her
  :class:`~repro.federation.party.PartyRuntime` answers each decrypt
  request through the worker's ``partial_decrypt`` op).
* **Orchestrator** (the super client's process): assembles the
  federation, runs key generation as the trusted dealer (§3.4; the
  simulation's centralized stand-in for distributed keygen), provisions
  each share to its owner and then **scrubs the dealer key material**
  (:meth:`~repro.crypto.threshold.ThresholdPaillier.scrub_dealer`): the
  withheld private key and the remote ``d_share`` values are dropped, so
  every plaintext can only be reconstructed from the m share vectors the
  decrypt flow moves.  It still moves messages on the shared
  :class:`~repro.network.bus.MessageBus` and drives each remote party
  through her command channel, but it cannot decrypt alone — kill one
  worker and decryption fails (``RemoteOpError``) instead of falling back
  to a dealer key that no longer exists.

Protocol payloads flow on the federation's transport exactly as in the
single-process deployment — with ``transport="asyncio"`` (the default
here) they cross real local sockets — so measured bytes, rounds, op
counts, and the trained model are bit-identical to an in-memory run; the
parity test in ``tests/federation/test_deployment_parity.py`` (wired into
CI) asserts exactly that.  The worker command channel is deployment
control plane, not protocol traffic, and is therefore not accounted.

Usage::

    from repro.federation.deployment import DeployedFederation

    parties = [Party(X_bank, labels=y), Party(X_fintech)]
    with DeployedFederation(parties) as fed:      # spawns 1 worker process
        clf = PivotClassifier().fit(fed)
        preds = clf.predict([Xb_test, Xf_test])
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import replace
from typing import Any, NoReturn

import numpy as np

from repro.analysis import opcount
from repro.core.config import PivotConfig
from repro.core.context import PivotClient
from repro.federation.federation import Federation, _resolve_config
from repro.federation.locality import LocalView, as_party
from repro.federation.party import Party
from repro.tree.splits import candidate_splits

__all__ = [
    "DeployedFederation",
    "PartyProcess",
    "RemotePivotClient",
    "RemoteOpError",
    "deploy",
]


class RemoteOpError(RuntimeError):
    """A party-local operation failed (or its worker process died)."""


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def _party_worker(
    conn: Any, index: int, features: np.ndarray, strict: bool
) -> None:
    """One party's process: her columns, her key share, her local compute.

    Runs a command loop over the process pipe.  Every feature read happens
    through this party's own strict :class:`LocalView` inside her
    ``as_party`` scope — in this process there is nobody else's scope to
    leak into, which is the point.  Ops that perform homomorphic work
    (``batch_sums``, ``weight_update``) return their Ce/Cd op-count delta
    alongside the result so the orchestrator's Table-2 tallies stay exact.
    """
    view = LocalView(features, index, name="features", strict=strict)
    # The sanctioned local-computation surface over this party's columns;
    # split_values stay empty (the logistic ops don't use them).
    local_client = PivotClient(index=index, features=view, split_values=[])
    key_share: Any = None
    split_values: list[list[float]] | None = None

    def compute(op: str, kw: dict) -> Any:
        nonlocal key_share, split_values
        if op == "info":
            return {
                "n_samples": view.shape[0],
                "n_features": view.shape[1],
            }
        if op == "candidate_splits":
            with as_party(index):
                split_values = [
                    candidate_splits(view.read()[:, j], kw["max_splits"])
                    for j in range(view.shape[1])
                ]
            return split_values
        if op == "indicator":
            if split_values is None:
                raise RuntimeError("candidate_splits must run first")
            threshold = split_values[kw["feature"]][kw["split"]]
            with as_party(index):
                column = view.read()[:, kw["feature"]]
            return (column <= threshold).astype(np.int64)
        if op == "indicator_matrix":
            if split_values is None:
                raise RuntimeError("candidate_splits must run first")
            feature = kw["feature"]
            with as_party(index):
                column = view.read()[:, feature]
            return np.column_stack(
                [
                    (column <= t).astype(np.int64)
                    for t in split_values[feature]
                ]
            )
        if op == "local_row":
            with as_party(index):
                return np.asarray(view.read()[kw["t"]], dtype=np.float64)
        if op == "provision":
            key_share = kw["key_share"]
            return None
        if op == "partial_decrypt":
            # This party's half of a real threshold decryption: the
            # c^{d_i} exponentiations run here, with the share only this
            # process holds, and only the share values travel back.
            if key_share is None:
                raise RuntimeError("no key share provisioned yet")
            return [
                p.value
                for p in key_share.partial_decrypt_batch(kw["ciphertexts"])
            ]
        if op == "batch_sums":
            # Logistic §7.3: per-sample encrypted partial sums over this
            # party's own columns (the op that used to force logistic
            # training back into a single process).
            with opcount.counting() as ops:
                result = local_client.batch_sums(kw["rows"], kw["weights"])
            return {"result": result, "ops": ops}
        if op == "weight_update":
            with opcount.counting() as ops:
                result = local_client.weight_update(
                    kw["rows"], kw["weights"], kw["loss_cts"], kw["scale"]
                )
            return {"result": result, "ops": ops}
        raise ValueError(f"unknown party op {op!r}")

    while True:
        try:
            op, kw = conn.recv()
        except (EOFError, OSError):
            break
        if op == "shutdown":
            conn.send(("ok", None))
            break
        try:
            conn.send(("ok", compute(op, kw)))
        except Exception:
            conn.send(("error", traceback.format_exc()))
    conn.close()


# ---------------------------------------------------------------------------
# orchestrator side
# ---------------------------------------------------------------------------


class PartyProcess:
    """Orchestrator-side handle on one party's worker process.

    The command channel (a process pipe) is the deployment's control
    plane; the party's protocol outputs travel back over it, her raw
    columns and key share never do.
    """

    def __init__(
        self,
        index: int,
        features: np.ndarray,
        *,
        strict: bool = True,
        start_method: str = "spawn",
        timeout: float = 120.0,
    ) -> None:
        self.index = index
        self.timeout = timeout
        ctx = multiprocessing.get_context(start_method)
        self._conn, child = ctx.Pipe()
        self._proc: Any = ctx.Process(
            target=_party_worker,
            args=(child, index, np.ascontiguousarray(features), strict),
            name=f"pivot-party-{index}",
            daemon=True,
        )
        self._proc.start()
        child.close()

    def request(self, op: str, **kwargs: Any) -> Any:
        """Run one party-local operation in the worker; return its output."""
        if self._proc is None:
            raise RemoteOpError(f"party {self.index} worker already shut down")
        try:
            self._conn.send((op, kwargs))
        except (BrokenPipeError, OSError) as exc:
            raise RemoteOpError(
                f"party {self.index} worker is unreachable: {exc}"
            ) from exc
        deadline = time.monotonic() + self.timeout
        while not self._conn.poll(0.05):
            if not self._proc.is_alive():
                raise RemoteOpError(
                    f"party {self.index} worker died during {op!r}"
                )
            if time.monotonic() > deadline:
                raise RemoteOpError(
                    f"party {self.index} worker timed out on {op!r}"
                )
        try:
            status, value = self._conn.recv()
        except (EOFError, OSError) as exc:
            # poll() reports readable on pipe EOF too: the worker died
            # after accepting the request.
            raise RemoteOpError(
                f"party {self.index} worker died during {op!r}"
            ) from exc
        if status != "ok":
            raise RemoteOpError(
                f"party {self.index} failed {op!r}:\n{value}"
            )
        return value

    def close(self) -> None:
        if self._proc is None:
            return
        try:
            self.request("shutdown")
        except RemoteOpError:
            pass  # already gone; join/terminate below still runs
        self._proc.join(5.0)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(5.0)
        self._conn.close()
        self._proc = None


class RemotePivotClient:
    """Duck-type of :class:`~repro.core.context.PivotClient` whose feature
    reads execute in the owning party's process.

    Exposes the same sanctioned local-computation surface (``indicator``,
    ``indicator_matrix``, ``local_row``, plaintext ``split_values``); the
    raw column matrix is *not* reachable — :attr:`features` is a proxy
    whose data access raises, because this process holds no such array.
    """

    def __init__(
        self,
        index: int,
        worker: PartyProcess,
        split_values: list[list[float]],
        n_samples: int,
        n_features: int,
    ) -> None:
        self.index = index
        self.worker = worker
        self.split_values = split_values
        self.features = _RemoteColumns(index, (n_samples, n_features))

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def local(self) -> Any:
        return as_party(self.index)

    def n_splits(self, feature: int) -> int:
        return len(self.split_values[feature])

    def indicator(self, feature: int, split: int) -> np.ndarray:
        return self.worker.request("indicator", feature=feature, split=split)

    def indicator_matrix(self, feature: int) -> np.ndarray:
        return self.worker.request("indicator_matrix", feature=feature)

    def local_row(self, t: int) -> np.ndarray:
        return self.worker.request("local_row", t=t)

    def decryption_shares(self, ciphertexts: list) -> list[int]:
        """This party's half of a threshold decryption, computed in her
        worker with the key share only that process holds.  Wired into the
        context's :class:`~repro.federation.party.PartyRuntime` so the
        decrypt flow's share vectors are real remote computations."""
        return self.worker.request("partial_decrypt", ciphertexts=ciphertexts)

    def _counted(self, op: str, **kwargs: Any) -> Any:
        """Run a homomorphic worker op and absorb its op-count delta, so
        the orchestrator's Ce/Cd tallies match the in-memory run."""
        reply = self.worker.request(op, **kwargs)
        ops = reply["ops"]
        opcount.GLOBAL.ce += ops["ce"]
        opcount.GLOBAL.cd += ops["cd"]
        opcount.GLOBAL.cs += ops["cs"]
        opcount.GLOBAL.cc += ops["cc"]
        return reply["result"]

    def batch_sums(self, rows: list[int], weights: list) -> list:
        return self._counted("batch_sums", rows=list(rows), weights=weights)

    def weight_update(
        self, rows: list[int], weights: list, loss_cts: list, scale: float
    ) -> list:
        return self._counted(
            "weight_update",
            rows=list(rows),
            weights=weights,
            loss_cts=loss_cts,
            scale=scale,
        )


class _RemoteColumns:
    """Shape metadata of a remote party's columns; data access raises."""

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
        raise RemoteOpError(
            f"party {self.owner}'s raw columns live in her worker process; "
            f"this process holds no such array (only protocol-level outputs "
            f"travel back over the command channel)"
        )

    def read(self) -> np.ndarray:
        self._refuse()

    def __getitem__(self, key: Any) -> Any:
        self._refuse()

    def __array__(self, dtype: Any = None, copy: bool | None = None) -> np.ndarray:
        self._refuse()

    def __repr__(self) -> str:
        return f"RemoteColumns(party {self.owner}, shape={self.shape})"


class DeployedFederation(Federation):
    """A federation whose non-super parties run in their own processes.

    Same API and bit-identical behaviour as :class:`Federation`; the
    difference is physical.  The orchestrator (this process) is the super
    client's machine: it keeps her columns and the labels.  Every other
    party's columns are shipped to her worker process at launch and the
    orchestrator's reference is replaced by a NaN poison array, so any
    code path that would read them locally either fails loudly
    (:class:`RemotePivotClient` raises) or poisons the parity-checked
    output — the locality guarantee no longer depends on cooperation.
    """

    def __init__(
        self,
        parties: list[Party],
        *,
        task: str = "classification",
        config: PivotConfig | None = None,
        strict_locality: bool | None = None,
        transport: Any = "asyncio",
        start_method: str = "spawn",
    ) -> None:
        super_client = self._validate_parties(parties)
        resolved = _resolve_config(config, strict_locality)
        partition = self._partition_of(parties, task, super_client)
        self.workers: dict[int, PartyProcess] = {}
        remote_clients: dict[int, object] = {}
        masked: list[np.ndarray] = []
        try:
            for i, party in enumerate(parties):
                # pivotlint: disable=PL001 -- provisioning: handing party i's
                # own block to party i's worker process (then poisoning the
                # orchestrator copy below); nothing is computed on it here.
                block = partition.local_features[i]
                if i == partition.super_client:
                    masked.append(block)
                    continue
                worker = PartyProcess(
                    i,
                    block,
                    strict=bool(resolved.strict_locality),
                    start_method=start_method,
                )
                self.workers[i] = worker
                splits = worker.request(
                    "candidate_splits", max_splits=resolved.tree.max_splits
                )
                remote_clients[i] = RemotePivotClient(
                    i, worker, splits, block.shape[0], block.shape[1]
                )
                # The worker owns the columns now; poison the
                # orchestrator's copy so a cross-process read cannot
                # silently succeed.  The flag makes re-federating this
                # Party object fail validation instead of training on the
                # poison.
                poison = np.full_like(block, np.nan)
                masked.append(poison)
                party._raw_features = poison
                party._columns_remote = True
            partition = replace(partition, local_features=tuple(masked))
            self._assemble(
                parties,
                partition,
                resolved,
                None,
                transport,
                remote_clients=remote_clients,
            )
            # Provision each remote party's partial key share to its owner
            # and drop the orchestrator-side Party handle's copy.
            for i, worker in self.workers.items():
                # pivotlint: disable=PL002 -- sanctioned key distribution:
                # the dealer hands share i to its owner over the private
                # process pipe (not the party-visible bus), then scrubs
                # every orchestrator-side copy below.
                worker.request(
                    "provision", key_share=self.context.threshold.shares[i]
                )
                parties[i].key_share = None
            # The workers own their shares now: scrub the dealer.  The
            # withheld private key and the remote parties' d_share values
            # are dropped from this process (only the super client's own
            # share stays — she *is* this process): every plaintext from
            # here on is reconstructed from the m share vectors the
            # decrypt flow moves, m−1 of which only the workers can
            # produce.  The orchestrator provably cannot decrypt alone.
            self.context.threshold.scrub_dealer(
                keep_shares={partition.super_client}
            )
        except BaseException:
            self._shutdown_workers()
            raise

    @classmethod
    def from_partition(
        cls,
        partition: Any,
        config: PivotConfig | None = None,
        strict_locality: bool | None = None,
        transport: Any = "asyncio",
    ) -> "DeployedFederation":
        """Deploy from a legacy partition object.

        Unlike the base class this cannot share the ``cls.__new__``
        assembly path — worker processes must be launched — so the
        partition is unpacked into parties and routed through the real
        constructor (``from_global`` inherits and lands here too).
        """
        # from_global passes transport=None through; the deployed default
        # stays the socket transport.
        transport = "asyncio" if transport is None else transport
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
        return cls(
            parties,
            task=partition.task,
            config=config,
            strict_locality=strict_locality,
            transport=transport,
        )

    def _shutdown_workers(self) -> None:
        for worker in self.workers.values():
            worker.close()
        self.workers.clear()

    def close(self) -> None:
        self._shutdown_workers()
        super().close()


def deploy(parties: list[Party], **kwargs: Any) -> DeployedFederation:
    """Launch a per-party process deployment (sugar for the class)."""
    return DeployedFederation(parties, **kwargs)
