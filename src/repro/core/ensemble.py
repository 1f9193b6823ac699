"""Pivot ensemble extensions: random forest and GBDT (paper §7).

**Pivot-RF** (§7.1): trees are independent CARTs over public row subsets
(sampling without replacement keeps the per-tree sample set expressible as
the initial encrypted mask vector).  With the *basic* protocol the released
trees are plaintext and prediction aggregates *encrypted* per-tree outputs:
per-class vote ciphertexts are summed homomorphically, converted to shares
once, and the winner found with the secure maximum (classification), or the
encrypted mean is decrypted directly (regression).  With the *enhanced*
protocol every tree's thresholds and leaf labels stay secretly shared, so
prediction aggregates at the share level: each tree's §5.2 walk yields a
shared prediction ⟨k̄_w⟩, per-class votes are computed with secure equality
tests, and only the argmax (or the mean) is ever opened — per-tree outputs
are never revealed.

**Pivot-GBDT** (§7.2): trees are trained sequentially; the training labels
of round w+1 are the encrypted residuals [Y^{w+1}] = [Y] - [Ŷ^w], which no
client ever sees.  Each round:

* the clients jointly predict every training sample through the new tree,
  keeping the outputs encrypted (basic: Algorithm 4's [k̄]; enhanced: the
  shared §5.2 prediction converted back to a ciphertext),
* the encrypted running estimate [Ŷ] and residuals are updated
  homomorphically,
* for the next round's regression-tree statistics the clients compute the
  encrypted squared residuals once per round via an MPC round-trip
  (shares → secure square → ciphertext), which is the paper's γ2
  optimisation.

GBDT classification uses one-vs-the-rest: c parallel regression chains
whose round-w residuals are [onehot_k] - [p_k] with ⟨p⟩ = secure softmax
over the per-class scores.

Party locality: training samples are never reassembled into a global
matrix.  Joint prediction over training rows reads each client's columns
inside her own party scope (:func:`~repro.core.prediction.local_slices_for_sample`);
labels are read as the super client.

:class:`PivotRandomForest` / :class:`PivotGBDT` are the deprecated
flat-API names; new code uses :class:`repro.federation.PivotForestClassifier`
/ :class:`~repro.federation.PivotGBDTClassifier` /
:class:`~repro.federation.PivotGBDTRegressor`, which dispatch to
:class:`ForestTrainer` / :class:`GBDTTrainer` here.
"""

from __future__ import annotations

import numpy as np

from repro.core._deprecation import warn_deprecated as _warn_deprecated
from repro.core.context import PivotContext
from repro.core.labels import EncryptedLabelProvider, PlaintextLabelProvider
from repro.core.prediction import (
    enhanced_prediction_share,
    local_slices_for_sample,
    predict_basic_encrypted_slices,
)
from repro.core.trainer import TreeTrainer
from repro.crypto.encoding import EncryptedNumber, encrypted_dot_product
from repro.tree.forest import forest_subsets
from repro.tree.model import DecisionTreeModel

__all__ = ["ForestTrainer", "GBDTTrainer", "PivotRandomForest", "PivotGBDT"]


def _per_row_slices(context: PivotContext, rows: np.ndarray) -> list[list[np.ndarray]]:
    """Split caller-held global rows into per-sample, per-party slices."""
    from repro.core.prediction import _local_slices

    return [_local_slices(context, np.asarray(row)) for row in np.atleast_2d(rows)]


class ForestTrainer:
    """Privacy-preserving random forest (§7.1), basic or enhanced protocol."""

    def __init__(
        self,
        context: PivotContext,
        n_trees: int = 4,
        sample_fraction: float = 0.8,
        seed: int | None = None,
        trainer_factory=None,
    ):
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        self.ctx = context
        self.task = context.partition.task
        self.enhanced = context.config.protocol == "enhanced"
        self.n_trees = n_trees
        self.sample_fraction = sample_fraction
        self.seed = seed
        #: Hook for the malicious model: builds the per-tree trainer.
        self.trainer_factory = trainer_factory or TreeTrainer
        self.models: list[DecisionTreeModel] = []
        self.n_classes = 0

    def fit(self) -> "ForestTrainer":
        ctx = self.ctx
        masks = forest_subsets(
            ctx.n_samples, self.n_trees, self.sample_fraction, self.seed
        )
        self.models = []
        for mask in masks:
            trainer = self.trainer_factory(ctx)
            self.models.append(trainer.fit(initial_mask=mask))
            if self.task == "classification":
                self.n_classes = trainer.provider.n_classes
        return self

    # ------------------------------------------------------------------

    def predict(self, rows: np.ndarray) -> np.ndarray:
        """Predict caller-held global rows (simulation convenience)."""
        return self._predict_rows(_per_row_slices(self.ctx, rows))

    def predict_slices(self, party_slices: list[np.ndarray]) -> np.ndarray:
        """Predict from per-party feature blocks (federation-native)."""
        from repro.core.prediction import _slices_per_row

        return self._predict_rows(_slices_per_row(self.ctx, party_slices))

    def _predict_rows(self, rows: list[list[np.ndarray]]) -> np.ndarray:
        if not self.models:
            raise RuntimeError("fit() must be called before predict()")
        out = [self._predict_row(slices) for slices in rows]
        dtype = np.int64 if self.task == "classification" else np.float64
        return np.asarray(out, dtype=dtype)

    def _predict_row(self, slices: list[np.ndarray]) -> float | int:
        if self.enhanced:
            return self._predict_row_enhanced(slices)
        return self._predict_row_basic(slices)

    def _predict_row_basic(self, slices: list[np.ndarray]) -> float | int:
        ctx = self.ctx
        if self.task == "classification":
            votes: list[EncryptedNumber | None] = [None] * self.n_classes
            for model in self.models:
                encrypted_eta = _encrypted_eta(model, ctx, slices)
                for k in range(self.n_classes):
                    coeff = [
                        1 if int(leaf.prediction) == k else 0
                        for leaf in model.leaves()
                    ]
                    vote = encrypted_dot_product(coeff, encrypted_eta)
                    wrapped = ctx.encoder.wrap(vote.ciphertext, 0)
                    votes[k] = wrapped if votes[k] is None else votes[k] + wrapped
            shares = ctx.to_shares([v for v in votes if v is not None])
            index, _, _ = ctx.fx.argmax(shares)
            return int(ctx.engine.open(index))
        total: EncryptedNumber | None = None
        for model in self.models:
            pred = predict_basic_encrypted_slices(model, ctx, slices)
            total = pred if total is None else total + pred
        mean = total * (1.0 / self.n_trees)
        return float(ctx.joint_decrypt(mean, tag="rf-prediction"))

    def _predict_row_enhanced(self, slices: list[np.ndarray]) -> float | int:
        """Share-level aggregation: per-tree predictions stay hidden (§5.2).

        Classification: each tree's shared prediction ⟨k̄_w⟩ is compared
        against every class with a secure equality test; the per-class vote
        sums stay shared and only the argmax index is opened.  Regression:
        the shared per-tree means are averaged and opened once.
        """
        ctx, fx = self.ctx, self.ctx.fx
        results = [
            enhanced_prediction_share(model, ctx, slices) for model in self.models
        ]
        shares = [share for share, _ in results]
        if self.task == "classification":
            votes = [
                ctx.engine.sum_values(
                    [fx.eqz(share - fx.share(k)) for share in shares]
                )
                for k in range(self.n_classes)
            ]
            index, _, _ = fx.argmax(votes)
            return int(ctx.engine.open(index))
        scales = {scale for _, scale in results}
        if len(scales) > 1:
            raise ValueError(
                f"forest trees disagree on the label scale {sorted(scales)}"
            )
        mean = fx.mul_public(ctx.engine.sum_values(shares), 1.0 / self.n_trees)
        value = ctx.open_value(mean, tag="rf-prediction")
        return float(value * next(iter(scales)))


def _encrypted_eta(
    model: DecisionTreeModel, context: PivotContext, slices: list[np.ndarray]
) -> list[EncryptedNumber]:
    """Algorithm 4's round-robin [η] update, returning the leaf vector."""
    ctx = context
    paths = model.leaf_paths()
    eta = ctx.batch.encrypt_vector([1] * len(paths), exponent=0)
    for client_index in reversed(range(ctx.n_clients)):
        local = slices[client_index]
        for leaf_pos, path in enumerate(paths):
            factor = 1
            for node, direction in path:
                if node.owner != client_index:
                    continue
                goes_left = local[node.feature] <= node.threshold
                factor &= int((direction == 0) == goes_left)
            eta[leaf_pos] = eta[leaf_pos] * factor
        if client_index > 0:
            ctx.bus.send_payload(
                client_index, client_index - 1, eta, tag="prediction-vector"
            )
    ctx.bus.round()
    return eta


class GBDTTrainer:
    """Privacy-preserving gradient boosting (§7.2), basic or enhanced."""

    def __init__(
        self,
        context: PivotContext,
        n_rounds: int = 4,
        learning_rate: float = 0.3,
        use_softmax: bool = True,
    ):
        if n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        if not 0 < learning_rate <= 1:
            raise ValueError("learning_rate must be in (0, 1]")
        self.ctx = context
        self.task = context.partition.task
        self.enhanced = context.config.protocol == "enhanced"
        self.n_rounds = n_rounds
        self.learning_rate = learning_rate
        self.use_softmax = use_softmax
        self.label_scale = 1.0
        self.n_classes = 0
        self.models: list[DecisionTreeModel] = []  # regression
        self.class_models: list[list[DecisionTreeModel]] = []  # [round][class]

    # ------------------------------------------------------------------

    def fit(self) -> "GBDTTrainer":
        if self.task == "regression":
            return self._fit_regression()
        return self._fit_classification()

    def _tree_prediction_ct(
        self, model: DecisionTreeModel, slices: list[np.ndarray]
    ) -> EncryptedNumber:
        """One tree's encrypted prediction for one sample.

        Basic: Algorithm 4's [k̄].  Enhanced: the §5.2 shared prediction,
        converted back to a ciphertext (§5.2's reverse conversion) so the
        running estimate [Ŷ] updates homomorphically either way; the
        ciphertext holds the prediction itself, like the basic one.
        """
        ctx = self.ctx
        if not self.enhanced:
            return predict_basic_encrypted_slices(model, ctx, slices)
        share, scale = enhanced_prediction_share(model, ctx, slices)
        if scale != 1.0:
            # Boosting providers keep residuals in score units (scale 1);
            # a scaled tree would need a public rescale after conversion.
            share = ctx.fx.mul_public(share, scale)
        return ctx.to_cipher(share)

    def _fit_regression(self) -> "GBDTTrainer":
        ctx = self.ctx
        labels = np.asarray(ctx.read_labels(), dtype=np.float64)
        self.label_scale = float(np.max(np.abs(labels))) or 1.0
        normalized = labels / self.label_scale
        n = ctx.n_samples
        # [Y]: the encrypted (normalised) ground-truth labels, batched.
        label_cts = ctx.batch.encrypt_vector([float(y) for y in normalized])
        estimate: list[EncryptedNumber] | None = None
        self.models = []
        for round_index in range(self.n_rounds):
            if round_index == 0:
                provider = PlaintextLabelProvider(
                    ctx, normalized, "regression"
                )
            else:
                assert estimate is not None, "round 0 always seeds the estimate"
                residual = [y - est for y, est in zip(label_cts, estimate)]
                gamma2 = self._encrypted_squares(residual)
                provider = EncryptedLabelProvider(
                    ctx, residual, gamma2, label_scale=1.0
                )
            model = TreeTrainer(ctx, provider).fit()
            self.models.append(model)
            if round_index == self.n_rounds - 1:
                break
            # Joint prediction of all training samples, kept encrypted;
            # each client contributes her own columns of every row.
            preds = [
                self._tree_prediction_ct(model, local_slices_for_sample(ctx, t))
                * self.learning_rate
                for t in range(n)
            ]
            if estimate is None:
                estimate = preds
            else:
                estimate = [e + p for e, p in zip(estimate, preds)]
        return self

    def _fit_classification(self) -> "GBDTTrainer":
        ctx = self.ctx
        labels = np.asarray(ctx.read_labels(), dtype=np.int64)
        self.n_classes = max(2, int(labels.max()) + 1)
        n = ctx.n_samples
        onehot = np.eye(self.n_classes)[labels]
        onehot_cts = [
            ctx.batch.encrypt_vector([float(onehot[t, k]) for t in range(len(labels))])
            for k in range(self.n_classes)
        ]
        scores: list[list[EncryptedNumber]] | None = None  # [class][sample]
        residual_plain = onehot - 1.0 / self.n_classes  # softmax of zeros
        residual_cts: list[list[EncryptedNumber]] | None = None
        self.class_models = []
        for round_index in range(self.n_rounds):
            round_models = []
            for k in range(self.n_classes):
                if round_index == 0:
                    provider = PlaintextLabelProvider(
                        ctx, residual_plain[:, k], "regression"
                    )
                    provider.label_scale = 1.0  # residuals stay in score units
                    provider.betas = [residual_plain[:, k], residual_plain[:, k] ** 2]
                else:
                    assert residual_cts is not None, "set at the end of round 0"
                    res_k = residual_cts[k]
                    provider = EncryptedLabelProvider(
                        ctx, res_k, self._encrypted_squares(res_k), label_scale=1.0
                    )
                round_models.append(TreeTrainer(ctx, provider).fit())
            self.class_models.append(round_models)
            if round_index == self.n_rounds - 1:
                break
            # Update encrypted scores and residuals via secure softmax.
            new_scores = []
            for k in range(self.n_classes):
                preds = [
                    self._tree_prediction_ct(
                        round_models[k], local_slices_for_sample(ctx, t)
                    )
                    * self.learning_rate
                    for t in range(n)
                ]
                if scores is None:
                    new_scores.append(preds)
                else:
                    new_scores.append([s + p for s, p in zip(scores[k], preds)])
            scores = new_scores
            residual_cts = self._softmax_residuals(scores, onehot_cts)
        return self

    # ------------------------------------------------------------------

    def _encrypted_squares(
        self, values: list[EncryptedNumber]
    ) -> list[EncryptedNumber]:
        """[y²] per element: shares -> secure square -> ciphertext (§7.2)."""
        ctx = self.ctx
        shares = ctx.to_shares(values)
        squares = [ctx.fx.mul(s, s) for s in shares]
        return [ctx.to_cipher(sq) for sq in squares]

    def _softmax_residuals(
        self,
        scores: list[list[EncryptedNumber]],
        onehot_cts: list[list[EncryptedNumber]],
    ) -> list[list[EncryptedNumber]]:
        """[onehot_k - softmax_k(scores)] for every sample (§7.2)."""
        ctx = self.ctx
        n = len(scores[0])
        residuals: list[list[EncryptedNumber]] = [[] for _ in range(self.n_classes)]
        for t in range(n):
            per_class = ctx.to_shares([scores[k][t] for k in range(self.n_classes)])
            probs = ctx.fx.softmax(per_class)
            for k in range(self.n_classes):
                p_ct = ctx.to_cipher(probs[k])
                residuals[k].append(onehot_cts[k][t] - p_ct)
        return residuals

    # ------------------------------------------------------------------

    def predict(self, rows: np.ndarray) -> np.ndarray:
        """Predict caller-held global rows (simulation convenience)."""
        return self._predict_rows(_per_row_slices(self.ctx, rows))

    def predict_slices(self, party_slices: list[np.ndarray]) -> np.ndarray:
        """Predict from per-party feature blocks (federation-native)."""
        from repro.core.prediction import _slices_per_row

        return self._predict_rows(_slices_per_row(self.ctx, party_slices))

    def _predict_rows(self, rows: list[list[np.ndarray]]) -> np.ndarray:
        if self.task == "regression":
            out = [self._predict_regression(slices) for slices in rows]
            return np.asarray(out, dtype=np.float64)
        out = [self._predict_classification(slices) for slices in rows]
        return np.asarray(out, dtype=np.int64)

    def _predict_regression(self, slices: list[np.ndarray]) -> float:
        if not self.models:
            raise RuntimeError("fit() must be called before predict()")
        ctx = self.ctx
        if self.enhanced:
            # Aggregate at the share level; one opening for the sum.  The
            # per-tree label scale is 1.0 for boosting-trained trees (the
            # providers keep residuals in score units) but is applied
            # anyway so hand-assembled models cannot silently mispredict.
            terms = []
            for model in self.models:
                share, scale = enhanced_prediction_share(model, ctx, slices)
                terms.append(
                    ctx.fx.mul_public(share, self.learning_rate * scale)
                )
            value = ctx.open_value(
                ctx.engine.sum_values(terms), tag="gbdt-prediction"
            )
            return float(value * self.label_scale)
        total: EncryptedNumber | None = None
        for model in self.models:
            pred = predict_basic_encrypted_slices(model, ctx, slices)
            pred = pred * self.learning_rate
            total = pred if total is None else total + pred
        value = ctx.joint_decrypt(total, tag="gbdt-prediction")
        return float(value * self.label_scale)

    def _predict_classification(self, slices: list[np.ndarray]) -> int:
        if not self.class_models:
            raise RuntimeError("fit() must be called before predict()")
        ctx = self.ctx
        if self.enhanced:
            score_shares = [None] * self.n_classes
            for round_models in self.class_models:
                for k, model in enumerate(round_models):
                    share, scale = enhanced_prediction_share(model, ctx, slices)
                    term = ctx.fx.mul_public(share, self.learning_rate * scale)
                    score_shares[k] = (
                        term if score_shares[k] is None else score_shares[k] + term
                    )
            shares = [s for s in score_shares if s is not None]
        else:
            score_cts: list[EncryptedNumber | None] = [None] * self.n_classes
            for round_models in self.class_models:
                for k, model in enumerate(round_models):
                    pred = predict_basic_encrypted_slices(model, ctx, slices)
                    pred = pred * self.learning_rate
                    score_cts[k] = pred if score_cts[k] is None else score_cts[k] + pred
            shares = ctx.to_shares([s for s in score_cts if s is not None])
        if self.use_softmax:
            shares = ctx.fx.softmax(shares)
        index, _, _ = ctx.fx.argmax(shares)
        return int(ctx.engine.open(index))


# ---------------------------------------------------------------------------
# deprecated flat-API entry points
# ---------------------------------------------------------------------------


class PivotRandomForest(ForestTrainer):
    """Deprecated flat-API name; basic protocol only (its documented scope).

    New code uses :class:`repro.federation.PivotForestClassifier`, which
    also supports the enhanced protocol via share-level vote aggregation.
    """

    def __init__(self, context, n_trees=4, sample_fraction=0.8, seed=None):
        _warn_deprecated("PivotRandomForest", "PivotForestClassifier")
        if context.config.protocol != "basic":
            raise ValueError(
                "PivotRandomForest releases trees in plaintext (§7): use basic "
                "(PivotForestClassifier supports protocol='enhanced')"
            )
        super().__init__(context, n_trees, sample_fraction, seed)


class PivotGBDT(GBDTTrainer):
    """Deprecated flat-API name; basic protocol only (its documented scope).

    New code uses :class:`repro.federation.PivotGBDTClassifier` /
    :class:`~repro.federation.PivotGBDTRegressor`.
    """

    def __init__(self, context, n_rounds=4, learning_rate=0.3, use_softmax=True):
        _warn_deprecated("PivotGBDT", "PivotGBDTClassifier / PivotGBDTRegressor")
        if context.config.protocol != "basic":
            raise ValueError(
                "PivotGBDT releases trees in plaintext (§7): use basic "
                "(PivotGBDTClassifier/Regressor support protocol='enhanced')"
            )
        super().__init__(context, n_rounds, learning_rate, use_softmax)
