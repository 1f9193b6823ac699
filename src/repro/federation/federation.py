"""The Federation orchestrator: assemble parties, run the joint setup.

A :class:`Federation` is the initialization stage of the protocol (§3.4)
with the party boundary made explicit: it takes the m
:class:`~repro.federation.party.Party` objects (exactly one holding
labels — the super client), builds the
:class:`~repro.data.partition.VerticalPartition`, runs threshold-Paillier
key generation and MPC setup through the existing
:class:`~repro.core.context.PivotContext` runtime, and binds each party to
her runtime identity: index, global column ids, partial secret key, and
bus endpoint.

Locality is enforced by default (``strict_locality=True`` unless an
explicit :class:`~repro.core.config.PivotConfig` says otherwise): raw
feature/label reads outside the owner's scope raise
:class:`~repro.federation.locality.LocalityError`.

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
from repro.core.context import PivotContext
from repro.data.partition import VerticalPartition, vertical_partition
from repro.federation.party import Party, PartyEndpoint

__all__ = ["Federation"]


def _resolve_config(
    config: PivotConfig | None, strict_locality: bool | None
) -> PivotConfig:
    """The federation enforces the party boundary unless explicitly told
    not to: an *unset* ``strict_locality`` (None — the PivotConfig default
    when the PIVOT_STRICT_LOCALITY env var is absent) resolves to True
    here, so passing a custom config does not silently drop enforcement.
    """
    config = config or PivotConfig()
    if strict_locality is not None:
        return replace(config, strict_locality=strict_locality)
    if config.strict_locality is None:
        return replace(config, strict_locality=True)
    return config


class Federation:
    """m parties, jointly keyed and wired, ready to train estimators.

    ``transport`` picks the message transport for the whole run:
    ``"inmemory"`` (the default) routes serialized payloads through
    per-receiver queues in this process; ``"asyncio"`` moves the same
    bytes over real local TCP sockets
    (:class:`~repro.network.transport.SocketTransport`); a prepared
    :class:`~repro.network.transport.Transport` instance passes through.
    Protocol behaviour, measured bytes, and round counts are identical
    across transports — only the physical path of the bytes changes.
    """

    def __init__(
        self,
        parties: list[Party],
        *,
        task: str = "classification",
        config: PivotConfig | None = None,
        strict_locality: bool | None = None,
        transport: Any = None,
    ) -> None:
        super_client = self._validate_parties(parties)
        partition = self._partition_of(parties, task, super_client)
        self._assemble(parties, partition, config, strict_locality, transport)

    # -- shared validation / assembly ---------------------------------------

    @staticmethod
    def _validate_parties(parties: list[Party]) -> int:
        """The federation invariants, shared by every constructor.

        Returns the super client's index.  ``from_partition`` used to
        bypass these checks via ``cls.__new__``, so a 1-party or
        label-less partition could build a "federation" violating the
        exactly-one-super-client invariant.
        """
        if len(parties) < 2:
            raise ValueError("a federation needs at least 2 parties")
        for party in parties:
            if getattr(party, "_columns_remote", False):
                raise ValueError(
                    f"{party!r} shipped her columns to a worker process in a "
                    "previous DeployedFederation (the local copy is poisoned); "
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

    def _assemble(
        self,
        parties: list[Party],
        partition: VerticalPartition,
        config: PivotConfig | None,
        strict_locality: bool | None,
        transport: Any,
        remote_clients: dict[int, object] | None = None,
    ) -> None:
        """Joint setup (§3.4): config, keys, MPC engine, bus, binding.

        Which parties' inboxes (and, with distributed keygen, key shares)
        live in this process is the transport's ``hosted`` — all m parties
        unless the caller hands over a transport that hosts fewer (the
        standalone-runtime orchestrator's hosts only the super client).
        """
        self.config = _resolve_config(config, strict_locality)
        self.parties = list(parties)
        #: Shared runtime: keys, MPC engine, bus, accounting (§3.4 setup).
        self.context = PivotContext(
            partition,
            self.config,
            transport=transport,
            remote_clients=remote_clients,
        )
        self._bind_parties()

    @classmethod
    def from_partition(
        cls,
        partition: VerticalPartition,
        config: PivotConfig | None = None,
        strict_locality: bool | None = None,
        transport: Any = None,
    ) -> "Federation":
        """Bridge from the legacy partition object (simulation datasets).

        Runs the same invariant checks as the party-list constructor: a
        partition with fewer than 2 clients, without labels, or with
        ragged sample counts is rejected, not silently federated.
        """
        parties = []
        for i, block in enumerate(partition.local_features):
            labels = partition.labels if i == partition.super_client else None
            parties.append(Party(block, labels=labels))
        fed = cls.__new__(cls)
        fed._validate_parties(parties)
        fed._assemble(parties, partition, config, strict_locality, transport)
        return fed

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
        strict_locality: bool | None = None,
        transport: Any = None,
    ) -> "Federation":
        """Split a caller-held global matrix evenly over ``n_parties``."""
        partition = vertical_partition(
            X, y, n_parties, task=task, super_client=super_client
        )
        return cls.from_partition(
            partition,
            config=config,
            strict_locality=strict_locality,
            transport=transport,
        )

    def _bind_parties(self) -> None:
        ctx = self.context
        for i, party in enumerate(self.parties):
            labels_view = ctx.labels if i == ctx.super_client else None
            party._bind(
                index=i,
                columns=ctx.partition.columns_per_client[i],
                features_view=ctx.clients[i].features,
                labels_view=labels_view,
                key_share=ctx.threshold.shares[i],
                endpoint=PartyEndpoint(ctx.bus, i),
            )

    # -- basic facts --------------------------------------------------------

    @property
    def n_parties(self) -> int:
        return len(self.parties)

    @property
    def task(self) -> str:
        return self.context.partition.task

    @property
    def super_client(self) -> int:
        return self.context.super_client

    @property
    def strict_locality(self) -> bool:
        return self.context.strict_locality

    def slices(self, X: np.ndarray) -> list[np.ndarray]:
        """Split caller-held global rows into per-party column blocks.

        Simulation convenience for ``predict(party_slices)``: in a real
        deployment each party supplies her own block.
        """
        from repro.core.prediction import global_rows_to_party_slices

        return global_rows_to_party_slices(self.context, X)

    # -- estimator support ---------------------------------------------------

    def context_for(
        self,
        protocol: str | None = None,
        dp: Any = None,
        malicious: bool | None = None,
    ) -> PivotContext:
        """A context view with estimator-level switches applied.

        Key material, engine, bus and accounting are shared with
        :attr:`context`; only the config differs (the trainers read
        ``protocol`` / ``dp`` at fit time).  ``malicious`` requires the
        federation to have been built with authenticated MPC — MACs exist
        from preprocessing onward and cannot be retrofitted.
        """
        cfg = self.config
        overrides: dict[str, Any] = {}
        if protocol is not None and protocol != cfg.protocol:
            overrides["protocol"] = protocol
        if dp is not cfg.dp:
            overrides["dp"] = dp
        if malicious is not None and malicious != cfg.authenticated_mpc:
            if malicious and not self.context.engine.authenticated:
                raise ValueError(
                    "malicious=True needs authenticated MPC from setup: build "
                    "the Federation with PivotConfig(authenticated_mpc=True)"
                )
            overrides["authenticated_mpc"] = malicious
        if not overrides:
            return self.context
        view = copy.copy(self.context)
        view.config = replace(cfg, **overrides)  # re-validates the config
        return view

    # -- lifecycle / reporting ----------------------------------------------

    def assert_drained(self) -> None:
        """End-of-run invariant: every party consumed her whole inbox."""
        self.context.bus.assert_drained()

    def cost_snapshot(self) -> dict[str, object]:
        return self.context.cost_snapshot()

    def close(self) -> None:
        self.context.close()

    def __enter__(self) -> "Federation":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Federation(m={self.n_parties}, task={self.task!r}, "
            f"super_client={self.super_client}, "
            f"strict_locality={self.strict_locality})"
        )
