"""sklearn-style estimators over the enforced party boundary.

One facade per model family, each dispatching to the existing trainer /
ensemble / prediction internals:

=============================  ============================================
estimator                      implementation
=============================  ============================================
:class:`PivotClassifier`       :class:`~repro.core.trainer.TreeTrainer` /
                               :class:`~repro.core.malicious.MaliciousTreeTrainer`
:class:`PivotRegressor`        :class:`~repro.core.trainer.TreeTrainer`
:class:`PivotForestClassifier` :class:`~repro.core.ensemble.ForestTrainer`
:class:`PivotGBDTClassifier`   :class:`~repro.core.ensemble.GBDTTrainer`
:class:`PivotGBDTRegressor`    :class:`~repro.core.ensemble.GBDTTrainer`
:class:`PivotLogisticClassifier` :class:`~repro.core.logistic.LogisticTrainer`
=============================  ============================================

Uniform surface:

* ``fit(federation_or_parties)`` — a prepared
  :class:`~repro.federation.federation.Federation` (estimators share its
  keys) or a bare list of :class:`~repro.federation.party.Party` objects
  (the estimator assembles its own federation from its constructor
  arguments and owns it).
* ``predict(party_slices)`` / ``predict_proba`` — per-party feature
  blocks, one ``n × d_i`` array per party (a global ``n × d`` matrix is
  accepted as a single-process convenience and split by the federation's
  column assignment).
* ``score(party_slices, y)`` — accuracy for classifiers, R² for
  regressors.
* ``protocol=`` — ``"basic"`` (plaintext model released) or
  ``"enhanced"`` (§5.2: thresholds and leaf labels stay secret-shared;
  ensembles aggregate at the share level).
* ``dp=`` — a :class:`~repro.core.config.DPConfig` enabling the §9.2
  mechanisms inside MPC (tree-based estimators).
* ``malicious=`` — §9.1 zero-knowledge-audited training (basic protocol;
  requires a federation built with ``authenticated_mpc=True`` or a bare
  party list, for which the estimator configures it).

After every ``fit``/``predict`` the inboxes are asserted drained — payload
sends are consumed by their receivers, not accumulated.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.config import DPConfig, PivotConfig
from repro.core.ensemble import ForestTrainer, GBDTTrainer
from repro.core.logistic import LogisticTrainer
from repro.core.malicious import MaliciousTreeTrainer
from repro.core.prediction import run_predict_batch_slices
from repro.core.trainer import TreeTrainer
from repro.federation.federation import Federation
from repro.federation.party import Party
from repro.tree.cart import TreeParams

__all__ = [
    "PivotClassifier",
    "PivotForestClassifier",
    "PivotGBDTClassifier",
    "PivotGBDTRegressor",
    "PivotLogisticClassifier",
    "PivotRegressor",
]

#: Sentinel distinguishing "dp not specified" (inherit the federation's)
#: from an explicit ``dp=None`` (train without DP even on a DP federation).
_UNSET = object()


class _FederatedEstimator:
    """Shared fit/predict plumbing for all facade estimators."""

    _task = "classification"
    _supports_dp = True
    _supports_malicious = True

    def __init__(
        self,
        *,
        protocol: str | None = None,
        dp: Any = _UNSET,
        malicious: bool = False,
        keysize: int | None = None,
        tree: TreeParams | None = None,
        max_depth: int | None = None,
        max_splits: int | None = None,
        seed: int | None = None,
        config: PivotConfig | None = None,
    ) -> None:
        if protocol not in (None, "basic", "enhanced"):
            raise ValueError(f"unknown protocol {protocol!r}")
        if malicious and not self._supports_malicious:
            raise NotImplementedError(
                f"{type(self).__name__} has no malicious-model variant "
                "(§9.1 covers the tree protocols with plaintext-committed labels)"
            )
        if dp is not _UNSET and dp is not None and not self._supports_dp:
            raise ValueError(
                f"{type(self).__name__} does not take dp=: the §9.2 "
                "mechanisms are tree-specific"
            )
        if malicious and protocol == "enhanced":
            raise ValueError(
                "the malicious model (§9.1) hardens the basic protocol; "
                "combine malicious=True with protocol='basic'"
            )
        #: None = inherit the federation's protocol (basic when the
        #: estimator assembles its own federation).  Likewise _UNSET dp
        #: inherits; an explicit value overrides.
        self.protocol = protocol
        self.dp = dp
        self.malicious = malicious
        self.keysize = keysize
        self.seed = seed
        if tree is None and (max_depth is not None or max_splits is not None):
            defaults = TreeParams()
            tree = TreeParams(
                max_depth=max_depth if max_depth is not None else defaults.max_depth,
                max_splits=(
                    max_splits if max_splits is not None else defaults.max_splits
                ),
            )
        self.tree = tree
        self.config = config
        # Set by fit():
        self.federation_: Any = None
        self.ctx_: Any = None
        self.protocol_: str | None = None  # resolved at fit time
        self.dp_: DPConfig | None = None
        self._owns_federation = False

    # -- federation resolution ----------------------------------------------

    def _build_config(self) -> PivotConfig:
        base = self.config or PivotConfig()
        kwargs: dict = {
            "protocol": self.protocol or base.protocol,
            "dp": base.dp if self.dp is _UNSET else self.dp,
            "authenticated_mpc": self.malicious or base.authenticated_mpc,
        }
        if self.keysize is not None:
            kwargs["keysize"] = self.keysize
        if self.tree is not None:
            kwargs["tree"] = self.tree
        if self.seed is not None:
            kwargs["seed"] = self.seed
        from dataclasses import replace

        return replace(base, **kwargs)

    def _resolve(self, federation: Any) -> None:
        if isinstance(federation, Federation):
            # Setup-level parameters are fixed at key/candidate-split
            # generation and cannot be retrofitted onto a prepared
            # federation — refuse rather than silently ignore them.
            fixed = {
                "keysize": self.keysize,
                "tree": self.tree,
                "seed": self.seed,
                "config": self.config,
            }
            set_anyway = [name for name, value in fixed.items() if value is not None]
            if set_anyway:
                raise ValueError(
                    f"{', '.join(set_anyway)} cannot be applied to a prepared "
                    "Federation (they are fixed at setup); either build the "
                    "Federation with them or pass a bare party list to fit()"
                )
            fed = federation
            self._owns_federation = False
        elif isinstance(federation, (list, tuple)) and all(
            isinstance(p, Party) for p in federation
        ):
            fed = Federation(
                list(federation), task=self._task, config=self._build_config()
            )
            self._owns_federation = True
        else:
            raise TypeError(
                "fit() takes a Federation or a list of Party objects, got "
                f"{type(federation).__name__}"
            )
        if fed.task != self._task:
            raise ValueError(
                f"{type(self).__name__} needs a {self._task!r} federation, "
                f"got {fed.task!r}"
            )
        # Unspecified protocol/dp inherit the federation's configuration;
        # only explicit arguments override it.
        self.protocol_ = self.protocol or fed.config.protocol
        self.dp_ = fed.config.dp if self.dp is _UNSET else self.dp
        if self.malicious and self.protocol_ != "basic":
            raise ValueError(
                "the malicious model (§9.1) hardens the basic protocol; "
                f"this federation runs {self.protocol_!r}"
            )
        self.federation_ = fed
        self.ctx_ = fed.context_for(
            protocol=self.protocol_, dp=self.dp_, malicious=self.malicious
        )

    def _require_fitted(self) -> None:
        if self.ctx_ is None:
            raise RuntimeError("fit() must be called before predict()/score()")

    def _as_party_slices(self, X: Any) -> list[np.ndarray]:
        """Accept per-party blocks, or split a caller-held global matrix."""
        self._require_fitted()
        if isinstance(X, (list, tuple)):
            return [np.atleast_2d(np.asarray(b, dtype=np.float64)) for b in X]
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return self.federation_.slices(X)

    # -- sklearn-style surface ------------------------------------------------

    def fit(self, federation: Any) -> "_FederatedEstimator":
        """Train over a Federation (or assemble one from a party list)."""
        self._resolve(federation)
        self._fit(self.ctx_)
        self.federation_.assert_drained()
        return self

    def predict(self, X: Any) -> np.ndarray:
        self._require_fitted()
        out = self._predict(self._as_party_slices(X))
        self.federation_.assert_drained()
        return out

    def score(self, X: Any, y: Any) -> float:
        """Accuracy (classifiers) or R² (regressors)."""
        y = np.asarray(y)
        predictions = self.predict(X)
        if self._task == "classification":
            return float(np.mean(predictions == y))
        residual = float(np.sum((y - predictions) ** 2))
        total = float(np.sum((y - y.mean()) ** 2)) or 1.0
        return 1.0 - residual / total

    def close(self) -> None:
        """Release the federation's workers if this estimator owns it."""
        if self._owns_federation and self.federation_ is not None:
            self.federation_.close()

    def __enter__(self) -> "_FederatedEstimator":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- subclass hooks -------------------------------------------------------

    def _fit(self, ctx: Any) -> None:
        raise NotImplementedError

    def _predict(self, party_slices: list[np.ndarray]) -> np.ndarray:
        raise NotImplementedError


class _TreeEstimator(_FederatedEstimator):
    """Single decision tree (Algorithm 3), basic or enhanced protocol."""

    def _fit(self, ctx: Any) -> None:
        trainer: Any = (
            MaliciousTreeTrainer(ctx) if self.malicious else TreeTrainer(ctx)
        )
        self.model_ = trainer.fit()
        if self._task == "classification":
            self.n_classes_ = trainer.provider.n_classes

    def _predict(self, party_slices: list[np.ndarray]) -> np.ndarray:
        return run_predict_batch_slices(
            self.model_, self.ctx_, party_slices, protocol=self.protocol_
        )


class PivotClassifier(_TreeEstimator):
    """Privacy-preserving CART classification over a vertical federation."""

    _task = "classification"


class PivotRegressor(_TreeEstimator):
    """Privacy-preserving CART regression over a vertical federation."""

    _task = "regression"
    _supports_malicious = True


class PivotForestClassifier(_FederatedEstimator):
    """Pivot-RF (§7.1): bagged trees, votes aggregated privately.

    With ``protocol="enhanced"`` the per-tree predictions stay secretly
    shared; votes are computed with secure equality tests and only the
    winning class index is opened.
    """

    _task = "classification"

    def __init__(
        self,
        n_trees: int = 4,
        *,
        sample_fraction: float = 0.8,
        sample_seed: int | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        self.n_trees = n_trees
        self.sample_fraction = sample_fraction
        self.sample_seed = sample_seed

    def _fit(self, ctx: Any) -> None:
        factory = MaliciousTreeTrainer if self.malicious else TreeTrainer
        self.trainer_ = ForestTrainer(
            ctx,
            n_trees=self.n_trees,
            sample_fraction=self.sample_fraction,
            seed=self.sample_seed if self.sample_seed is not None else self.seed,
            trainer_factory=factory,
        ).fit()
        self.models_ = self.trainer_.models
        self.n_classes_ = self.trainer_.n_classes

    def _predict(self, party_slices: list[np.ndarray]) -> np.ndarray:
        return self.trainer_.predict_slices(party_slices)


class _GBDTEstimator(_FederatedEstimator):
    # §9.1's proofs commit plaintext label vectors; boosting rounds >= 2
    # train on encrypted residuals nobody can commit to.
    _supports_malicious = False

    def __init__(
        self,
        n_rounds: int = 4,
        *,
        learning_rate: float = 0.3,
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        self.n_rounds = n_rounds
        self.learning_rate = learning_rate

    def _fit(self, ctx: Any) -> None:
        self.trainer_ = GBDTTrainer(
            ctx,
            n_rounds=self.n_rounds,
            learning_rate=self.learning_rate,
        ).fit()
        self.models_ = self.trainer_.models or self.trainer_.class_models

    def _predict(self, party_slices: list[np.ndarray]) -> np.ndarray:
        return self.trainer_.predict_slices(party_slices)


class PivotGBDTClassifier(_GBDTEstimator):
    """Pivot-GBDT classification (§7.2): one-vs-rest boosted residuals."""

    _task = "classification"


class PivotGBDTRegressor(_GBDTEstimator):
    """Pivot-GBDT regression (§7.2): encrypted-residual boosting."""

    _task = "regression"


class PivotLogisticClassifier(_FederatedEstimator):
    """Vertical logistic regression (§7.3).

    The weights, losses and gradients are hidden end to end regardless of
    protocol — there is no released model for basic/enhanced to differ on —
    so both protocol values run the same computation.
    """

    _task = "classification"
    _supports_dp = False
    _supports_malicious = False

    def __init__(
        self,
        *,
        learning_rate: float = 0.5,
        n_epochs: int = 3,
        batch_size: int = 16,
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        self.learning_rate = learning_rate
        self.n_epochs = n_epochs
        self.batch_size = batch_size

    def _fit(self, ctx: Any) -> None:
        self.trainer_ = LogisticTrainer(
            ctx,
            learning_rate=self.learning_rate,
            n_epochs=self.n_epochs,
            batch_size=self.batch_size,
        ).fit()

    def _predict(self, party_slices: list[np.ndarray]) -> np.ndarray:
        return self.trainer_.predict_slices(party_slices)

    def predict_proba(self, X: Any) -> np.ndarray:
        self._require_fitted()
        out = self.trainer_.predict_proba_slices(self._as_party_slices(X))
        self.federation_.assert_drained()
        return out
