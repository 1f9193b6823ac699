"""repro — a from-scratch reproduction of *Pivot: Privacy Preserving
Vertical Federated Learning for Tree-based Models* (VLDB 2020).

The API — the party-scoped federation (:mod:`repro.federation`):

* :class:`repro.Party` / :class:`repro.Federation` — one object per
  organisation (her columns, her partial secret key, her bus endpoint; the
  super client additionally holds the labels) and the one object that
  runs the joint setup and then holds the run's config, keys, MPC engine,
  bus, clients and accounting.
* sklearn-style estimators: :class:`repro.PivotClassifier`,
  :class:`repro.PivotRegressor`, :class:`repro.PivotForestClassifier`,
  :class:`repro.PivotGBDTClassifier`, :class:`repro.PivotGBDTRegressor`,
  :class:`repro.PivotLogisticClassifier` — each with ``fit(parties)`` /
  ``predict(party_slices)`` / ``score``, a ``protocol=`` switch
  (``basic``/``enhanced``) and uniform ``dp=``/``malicious=`` hooks.

Lower layers: :class:`repro.PivotConfig` and the trainers in
:mod:`repro.core`, :mod:`repro.tree` (plaintext CART/RF/GBDT baselines),
:mod:`repro.baselines` (SPDZ-DT, NPD-DT), :mod:`repro.data` (synthetic
generators and simulated paper datasets).
"""

from repro.core import DPConfig, PivotConfig
from repro.federation import (
    Federation,
    LocalityError,
    LocalView,
    Party,
    PivotClassifier,
    PivotForestClassifier,
    PivotGBDTClassifier,
    PivotGBDTRegressor,
    PivotLogisticClassifier,
    PivotRegressor,
    as_party,
)

__version__ = "2.0.0"

__all__ = [
    "DPConfig",
    "Federation",
    "LocalView",
    "LocalityError",
    "Party",
    "PivotClassifier",
    "PivotConfig",
    "PivotForestClassifier",
    "PivotGBDTClassifier",
    "PivotGBDTRegressor",
    "PivotLogisticClassifier",
    "PivotRegressor",
    "as_party",
    "__version__",
]
