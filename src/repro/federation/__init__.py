"""Party-scoped federation API: the primary way to use this library.

Pivot's deployment model (§3.1) is m organisations, each owning a disjoint
block of feature columns for the same samples; exactly one (the *super
client*) additionally owns the labels.  This package mirrors that model in
the API instead of hiding it behind a context object that holds everyone's
data:

* :class:`~repro.federation.party.Party` — one organisation: her feature
  columns (behind a :class:`~repro.federation.locality.LocalView` read
  guard), her partial threshold-Paillier secret key, and her
  :class:`~repro.federation.party.PartyEndpoint` on the message bus.  The
  super client's party additionally owns the labels.
* :class:`~repro.federation.federation.Federation` — assembles the
  parties, takes the threshold key from the trusted dealer (it hosts every
  party in this process), sets up the MPC engine, and is then the
  one object a run reads: config, keys, MPC engine, bus, clients, party
  runtimes, labels and accounting.
  ``transport="asyncio"`` routes every protocol payload over real local
  sockets (:class:`~repro.network.transport.SocketTransport`, the class
  the standalone runtime's mesh is made of too).
  :class:`~repro.federation.deployment.DeployedFederation` spawns each
  non-super party as a standalone runtime process holding her own columns
  and key share, and runs the super client's side in this process
  (distributed keygen; basic trees, forests and logistic regression).
* sklearn-style estimators (:mod:`repro.federation.estimators`):
  :class:`PivotClassifier`, :class:`PivotRegressor`,
  :class:`PivotForestClassifier`, :class:`PivotGBDTClassifier`,
  :class:`PivotGBDTRegressor`, :class:`PivotLogisticClassifier` — each with
  ``fit(parties)`` / ``predict(party_slices)`` / ``score(...)``, a
  ``protocol=`` switch (``"basic"`` / ``"enhanced"``) and uniform ``dp=`` /
  ``malicious=`` hooks, dispatching to the existing trainer / ensemble /
  prediction internals.

Quick start::

    from repro.federation import Federation, Party, PivotClassifier

    parties = [Party(X0, labels=y), Party(X1), Party(X2)]
    with Federation(parties) as fed:
        clf = PivotClassifier(protocol="basic", max_depth=3).fit(fed)
        predictions = clf.predict([X0_test, X1_test, X2_test])

The locality guarantee: inside every Federation, however it was built
(party list, ``from_partition``, ``from_global``), every raw feature/label
read must execute in the owning party's scope; a cross-party read raises
:class:`~repro.federation.locality.LocalityError`.  There is no setting
that turns the guard off.

Submodules import lazily (PEP 562) because :mod:`repro.core` imports
:mod:`repro.federation.locality` while the estimators import
:mod:`repro.core` — eager imports would cycle.
"""

from typing import Any

from repro.federation.locality import (
    LocalityError,
    LocalView,
    as_party,
    current_party,
)

__all__ = [
    "DeployedFederation",
    "Federation",
    "LocalityError",
    "LocalView",
    "Party",
    "PartyEndpoint",
    "PivotClassifier",
    "PivotForestClassifier",
    "PivotGBDTClassifier",
    "PivotGBDTRegressor",
    "PivotLogisticClassifier",
    "PivotRegressor",
    "as_party",
    "current_party",
]

_LAZY = {
    "Party": "repro.federation.party",
    "PartyEndpoint": "repro.federation.party",
    "Federation": "repro.federation.federation",
    "DeployedFederation": "repro.federation.deployment",
    "PivotClassifier": "repro.federation.estimators",
    "PivotRegressor": "repro.federation.estimators",
    "PivotForestClassifier": "repro.federation.estimators",
    "PivotGBDTClassifier": "repro.federation.estimators",
    "PivotGBDTRegressor": "repro.federation.estimators",
    "PivotLogisticClassifier": "repro.federation.estimators",
}


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
