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
  keeping the outputs encrypted (basic: Algorithm 4's [k̄], one round-robin
  for all n samples; enhanced: the shared §5.2 prediction converted back
  to a ciphertext),
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
    _slices_per_row,
    encrypted_leaf_sums,
    enhanced_prediction_share,
    global_rows_to_party_slices,
    local_slices_for_sample,
    predict_basic_encrypted_batch,
)
from repro.core.trainer import TreeTrainer
from repro.crypto.encoding import EncryptedNumber
from repro.tree.forest import forest_subsets
from repro.tree.model import DecisionTreeModel

__all__ = ["ForestTrainer", "GBDTTrainer", "PivotRandomForest", "PivotGBDT"]


def _add_rows(
    total: list[EncryptedNumber] | None, terms: list[EncryptedNumber]
) -> list[EncryptedNumber]:
    """Element-wise running sum of per-row ciphertext vectors."""
    if total is None:
        return terms
    return [t + term for t, term in zip(total, terms)]


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
        return self.predict_slices(global_rows_to_party_slices(self.ctx, rows))

    def predict_slices(self, party_slices: list[np.ndarray]) -> np.ndarray:
        """Predict from per-party feature blocks (federation-native)."""
        if not self.models:
            raise RuntimeError("fit() must be called before predict()")
        if self.enhanced:
            out = [
                self._predict_row_enhanced(slices)
                for slices in _slices_per_row(self.ctx, party_slices)
            ]
        else:
            out = self._predict_basic(party_slices)
        dtype = np.int64 if self.task == "classification" else np.float64
        return np.asarray(out, dtype=dtype)

    def _predict_basic(self, party_slices: list[np.ndarray]) -> list[float | int]:
        """One Algorithm 4 round-robin per tree for all rows; the per-tree
        outputs are aggregated encrypted and only the aggregate leaves the
        ciphertext domain (votes through Algorithm 2, means decrypted)."""
        ctx = self.ctx
        if self.task == "classification":
            votes: list[list[EncryptedNumber]] | None = None  # [row][class]
            for model in self.models:
                leaves = model.leaves()
                # Per-class votes need every leaf: coefficient k is 1 on
                # the leaves labelled k.
                per_class = [
                    [int(int(leaf.prediction) == k) for leaf in leaves]
                    for k in range(self.n_classes)
                ]
                sums = encrypted_leaf_sums(
                    model, ctx, party_slices, list(range(len(leaves))), per_class
                )
                if votes is None:
                    votes = sums
                else:
                    votes = [_add_rows(row, terms) for row, terms in zip(votes, sums)]
            out: list[float | int] = []
            for row in votes or []:
                index, _, _ = ctx.fx.argmax(ctx.to_shares(row))
                out.append(int(ctx.engine.open(index)))
            return out
        total: list[EncryptedNumber] | None = None
        for model in self.models:
            total = _add_rows(
                total, predict_basic_encrypted_batch(model, ctx, party_slices)
            )
        means = [t * (1.0 / self.n_trees) for t in total or []]
        return ctx.joint_decrypt_batch(means, tag="rf-prediction")

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

    def _tree_predictions(
        self, model: DecisionTreeModel, party_slices: list[np.ndarray]
    ) -> list[EncryptedNumber]:
        """One tree's encrypted prediction for every row.

        Basic: Algorithm 4's [k̄], one round-robin for all rows.  Enhanced:
        per row, the §5.2 shared prediction converted back to a ciphertext
        (§5.2's reverse conversion) so the running estimate [Ŷ] updates
        homomorphically either way; the ciphertext holds the prediction
        itself, like the basic one.
        """
        ctx = self.ctx
        if not self.enhanced:
            return predict_basic_encrypted_batch(model, ctx, party_slices)
        out = []
        for slices in _slices_per_row(ctx, party_slices):
            share, scale = enhanced_prediction_share(model, ctx, slices)
            if scale != 1.0:
                # Boosting providers keep residuals in score units (scale
                # 1); a scaled tree would need a public rescale after
                # conversion.
                share = ctx.fx.mul_public(share, scale)
            out.append(ctx.to_cipher(share))
        return out

    def _training_slices(self) -> list[np.ndarray]:
        """Per-party blocks of all n training samples, each client's read
        inside her own scope."""
        ctx = self.ctx
        per_sample = [local_slices_for_sample(ctx, t) for t in range(ctx.n_samples)]
        return [np.stack(rows) for rows in zip(*per_sample)]

    def _training_steps(
        self, model: DecisionTreeModel, party_slices: list[np.ndarray]
    ) -> list[EncryptedNumber]:
        """learning_rate · [the tree's prediction] per training sample: what
        one round adds to the running estimate.

        The estimate is published, as the next round's residual [γ]s.  A
        basic [k̄] is a product of ciphertexts u_2 sent, and the quotient of
        two consecutive rounds' residuals would hand it to her, so the
        super client re-masks each one first.  (An enhanced one is masked
        by every party's encryption in ``share_to_cipher``.)
        """
        preds = self._tree_predictions(model, party_slices)
        if not self.enhanced:
            preds = self.ctx.batch.mask_vector(preds, [1] * len(preds))
        return [pred * self.learning_rate for pred in preds]

    def _fit_regression(self) -> "GBDTTrainer":
        ctx = self.ctx
        labels = np.asarray(ctx.read_labels(), dtype=np.float64)
        self.label_scale = float(np.max(np.abs(labels))) or 1.0
        normalized = labels / self.label_scale
        train_slices = self._training_slices()
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
            estimate = _add_rows(estimate, self._training_steps(model, train_slices))
        return self

    def _fit_classification(self) -> "GBDTTrainer":
        ctx = self.ctx
        labels = np.asarray(ctx.read_labels(), dtype=np.int64)
        self.n_classes = max(2, int(labels.max()) + 1)
        train_slices = self._training_slices()
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
            scores = [
                _add_rows(
                    None if scores is None else scores[k],
                    self._training_steps(round_models[k], train_slices),
                )
                for k in range(self.n_classes)
            ]
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
        return self.predict_slices(global_rows_to_party_slices(self.ctx, rows))

    def predict_slices(self, party_slices: list[np.ndarray]) -> np.ndarray:
        """Predict from per-party feature blocks (federation-native).

        Basic: every tree predicts all rows in one round-robin and the
        per-row sums of the encrypted tree outputs are what is decrypted
        (regression) or converted to shares (classification).  Enhanced:
        row by row at the share level.
        """
        ctx = self.ctx
        if self.task == "regression":
            if not self.models:
                raise RuntimeError("fit() must be called before predict()")
            if self.enhanced:
                values = [
                    self._predict_regression_enhanced(slices)
                    for slices in _slices_per_row(ctx, party_slices)
                ]
            else:
                values = ctx.joint_decrypt_batch(
                    self._score_sums(self.models, party_slices),
                    tag="gbdt-prediction",
                )
            return np.asarray(values, dtype=np.float64) * self.label_scale
        if not self.class_models:
            raise RuntimeError("fit() must be called before predict()")
        # Generators: each row's scores are shared, soft-maxed and opened
        # before the next row's touch the MPC engine.
        if self.enhanced:
            rows = (
                self._class_scores_enhanced(slices)
                for slices in _slices_per_row(ctx, party_slices)
            )
        else:
            per_class = [
                self._score_sums(
                    [round_models[k] for round_models in self.class_models],
                    party_slices,
                )
                for k in range(self.n_classes)
            ]
            rows = (ctx.to_shares(list(scores)) for scores in zip(*per_class))
        out = []
        for shares in rows:
            if self.use_softmax:
                shares = ctx.fx.softmax(shares)
            index, _, _ = ctx.fx.argmax(shares)
            out.append(int(ctx.engine.open(index)))
        return np.asarray(out, dtype=np.int64)

    def _score_sums(
        self, models: list[DecisionTreeModel], party_slices: list[np.ndarray]
    ) -> list[EncryptedNumber]:
        """Per row, [Σ_w learning_rate · tree_w's prediction] (basic)."""
        total: list[EncryptedNumber] | None = None
        for model in models:
            preds = predict_basic_encrypted_batch(model, self.ctx, party_slices)
            total = _add_rows(total, [p * self.learning_rate for p in preds])
        return total or []

    def _predict_regression_enhanced(self, slices: list[np.ndarray]) -> float:
        """Aggregate at the share level; one opening for the sum.  The
        per-tree label scale is 1.0 for boosting-trained trees (the
        providers keep residuals in score units) but is applied anyway so
        hand-assembled models cannot silently mispredict."""
        ctx = self.ctx
        terms = []
        for model in self.models:
            share, scale = enhanced_prediction_share(model, ctx, slices)
            terms.append(ctx.fx.mul_public(share, self.learning_rate * scale))
        return ctx.open_value(ctx.engine.sum_values(terms), tag="gbdt-prediction")

    def _class_scores_enhanced(self, slices: list[np.ndarray]) -> list:
        ctx = self.ctx
        score_shares = [None] * self.n_classes
        for round_models in self.class_models:
            for k, model in enumerate(round_models):
                share, scale = enhanced_prediction_share(model, ctx, slices)
                term = ctx.fx.mul_public(share, self.learning_rate * scale)
                score_shares[k] = (
                    term if score_shares[k] is None else score_shares[k] + term
                )
        return [s for s in score_shares if s is not None]


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
