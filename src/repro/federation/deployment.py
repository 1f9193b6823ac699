"""Per-party process deployment: the standalone runtime, launched from here.

The paper evaluates Pivot with every client on her own machine in a LAN
(§8.1).  :class:`DeployedFederation` reproduces that topology on one host
from an ordinary party list: it reserves one localhost address per party,
spawns one :class:`~repro.federation.runtime.StandalonePartyRuntime` per
non-super party — handing her her own column block in the spawn
arguments — and then *is* the
:class:`~repro.federation.runtime.RuntimeFederation` of the super client,
over a :class:`~repro.network.transport.SocketTransport` that hosts party 0
only.  From then on the deployed row runs exactly what the standalone
runtime runs:

* keys come from distributed keygen over the socket mesh
  (:mod:`repro.crypto.distkeygen`): each party's ``d_i`` is generated in
  her own process and the full private key exists in no process;
* each spawned party keeps her columns, candidate thresholds, indicators
  and key share in her own process and answers every protocol flow as a
  :class:`~repro.federation.party.PartyRuntime` reaction on her own
  socket;
* this process holds a
  :class:`~repro.federation.runtime.StandalonePartyClient` stub per remote
  party (public counts only) and a NaN poison array in place of her
  columns, so a read that should have run in her process fails loudly.

What runs there is what the standalone runtime supports: basic trees and
regressors, forests and logistic regression.  The enhanced protocol, GBDT
and the malicious model are refused with ``NotImplementedError`` before any
protocol message is sent.  The super client must be party 0.

Over a fit/predict window its model, predictions, bytes, rounds and op
counts are pinned bit-identical to the dealer-keyed in-process
:class:`~repro.federation.federation.Federation`, and its construction
traffic to an in-memory replay of distributed keygen
(``tests/federation/test_deployment_parity.py``).

Usage::

    from repro.federation.deployment import DeployedFederation

    parties = [Party(X_bank, labels=y), Party(X_fintech)]
    with DeployedFederation(parties) as fed:      # spawns 1 party process
        clf = PivotClassifier().fit(fed)
        preds = clf.predict([Xb_test, Xf_test])
"""

from __future__ import annotations

import multiprocessing
from dataclasses import replace
from typing import Any

import numpy as np

from repro.core.config import PivotConfig
from repro.data.partition import VerticalPartition
from repro.federation.party import Party
from repro.federation.runtime import (
    RuntimeConfig,
    RuntimeFederation,
    StandalonePartyClient,
    StandalonePartyRuntime,
    free_addresses,
)

__all__ = ["DeployedFederation"]


def _serve(config: RuntimeConfig, block: np.ndarray) -> None:
    """A spawned party's whole life: keygen, then react until shutdown."""
    party = StandalonePartyRuntime(config, block)
    try:
        party.serve()
    finally:
        party.close()


class DeployedFederation(RuntimeFederation):
    """A federation whose non-super parties run in their own processes.

    Same API as :class:`~repro.federation.federation.Federation`; the
    difference is physical.  Every non-super party's block is handed to
    her spawned process and this process's copy (the caller's ``Party``
    object included) is replaced by NaN poison.  A
    :class:`~repro.data.partition.VerticalPartition` deploys with its own
    column assignment, exactly as it federates in one process.
    """

    def __init__(
        self,
        parties: list[Party] | VerticalPartition,
        *,
        task: str = "classification",
        config: PivotConfig | None = None,
    ) -> None:
        config = config or PivotConfig()
        m = (
            parties.n_clients
            if isinstance(parties, VerticalPartition)
            else len(parties)
        )
        #: Each spawned party's settings, bar her index.
        self._party_config = RuntimeConfig(
            index=0,
            addresses=tuple(free_addresses(m)),
            timeout=60.0,
            keysize=config.keysize,
            seed=config.seed,
            kappa=config.kappa,
            frac_bits=config.frac_bits,
            max_splits=config.tree.max_splits,
            max_idle=300.0,
        )
        self.processes: dict[int, Any] = {}
        try:
            super().__init__(
                parties, config, self._party_config.make_transport(), task=task
            )
        except BaseException:
            self._stop_processes(grace=0.0)
            raise

    def _remote_clients(
        self, partition: VerticalPartition
    ) -> dict[int, StandalonePartyClient]:
        """Spawn one standalone party per stub, each with her own block."""
        stubs = super()._remote_clients(partition)
        spawn = multiprocessing.get_context("spawn")
        for i in stubs:
            # pivotlint: disable=PL001 -- provisioning: handing party i's
            # own block to party i's process (this copy is poisoned next);
            # nothing is computed on it here.
            block = np.ascontiguousarray(partition.local_features[i])
            process = spawn.Process(
                target=_serve,
                args=(replace(self._party_config, index=i), block),
                name=f"pivot-party-{i}",
                daemon=True,
            )
            process.start()
            self.processes[i] = process
        return stubs

    def _stop_processes(self, grace: float = 5.0) -> None:
        for process in self.processes.values():
            process.join(grace)
            if process.is_alive():
                process.terminate()
                process.join(5.0)
        self.processes.clear()

    def close(self) -> None:
        # A party whose process is gone cannot acknowledge ctl-shutdown.
        self._shut_down.update(
            i for i, p in self.processes.items() if not p.is_alive()
        )
        try:
            super().close()
        finally:
            self._stop_processes()
