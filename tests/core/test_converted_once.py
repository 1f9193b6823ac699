"""Every statistic crosses the ciphertext→share boundary at most once —
and nothing that crosses a party boundary on the way is linkable.

Two families:

* **Derived statistics are exact.**  The trainer converts only the left
  child's count and the published label vectors' sums; the last class, the
  right child and every non-root node's own statistics are share
  subtractions or inherited.  Each must open to exactly what converting the
  dropped ciphertext would have given — recomputed here from the decrypted
  mask vector, the plaintext labels (or the decrypted riding [γ]) and the
  owners' indicators.
* **Leak regression.**  No ``label-vectors`` or ``split-stats`` payload
  carries a ciphertext that is the unit, or bit-equal to one its receiver
  already holds; the raw-equality attack that read every label off the
  parent commit's ``node-gammas`` matches nothing.
"""

import numpy as np
import pytest

from repro.core import DPConfig, TreeTrainer, trainer as trainer_module
from repro.core.ensemble import GBDTTrainer
from repro.crypto.encoding import EncryptedNumber
from repro.network.wire import Request
from repro.tree import TreeParams

from tests.core.conftest import make_context

# -- derived statistics -------------------------------------------------------


class _StatisticsAudit:
    """Checks every NodeStats a ``_build`` receives and every SplitStats the
    gain step receives against the plaintext recomputation."""

    def __init__(self, monkeypatch, ctx, labels, tolerance=0, check_splits=True):
        self.ctx = ctx
        self.labels = labels
        self.tolerance = tolerance  # ulps of 2^-F (riding [γ]s are truncated)
        self.nodes = 0
        self.candidates = 0
        self._frames: list = []
        real_build = TreeTrainer._build
        real_gains = trainer_module.secure_split_gains

        def build(trainer, alpha, node_gammas, available, depth, key, stats):
            terms = self._terms(trainer, alpha, node_gammas)
            self._check(stats.n, stats.totals, terms)
            self.nodes += 1
            self._frames.append((terms, available))
            try:
                return real_build(
                    trainer, alpha, node_gammas, available, depth, key, stats
                )
            finally:
                self._frames.pop()

        def gains(fx, task, node, splits, *args, **kwargs):
            terms, available = self._frames[-1]
            identifiers = ctx.split_identifiers(available)
            assert len(identifiers) == len(splits)
            for (owner, feature, s), split in zip(identifiers, splits):
                v = ctx.clients[owner].indicator(feature, s)
                self._check(split.n_left, split.left, terms * v)
                self._check(split.n_right, split.right, terms * (1 - v))
                self.candidates += 1
            return real_gains(fx, task, node, splits, *args, **kwargs)

        monkeypatch.setattr(TreeTrainer, "_build", build)
        if check_splits:
            monkeypatch.setattr(trainer_module, "secure_split_gains", gains)

    def _decrypt(self, vector: list[EncryptedNumber]) -> np.ndarray:
        raws = self.ctx.threshold.joint_decrypt_batch(
            [v.ciphertext for v in vector]
        )
        return np.array([r * 2.0**v.exponent for r, v in zip(raws, vector)])

    def _terms(self, trainer, alpha, node_gammas) -> np.ndarray:
        """Row 0: each sample's contribution to the count; row 1 + k: to the
        k-th label sum — *including* the class nobody publishes.  (Exact in
        doubles: small multiples of 2^-F, or of 2^-2F for a riding [γ].)"""
        provider = trainer.provider
        weights = self._decrypt(alpha)
        if provider.rides_with_alpha:
            # Riding [γ]s carry the mask already.
            vectors = provider.root_gammas if node_gammas is None else node_gammas
            return np.stack([weights, *(self._decrypt(g) for g in vectors)])
        if trainer.task == "classification":
            multipliers = [self.labels == k for k in range(provider.n_classes)]
        else:
            # What the super client encrypts: β quantised to 2^-F.
            multipliers = [
                [self.ctx.encoder.encode(float(b)).to_float() for b in beta]
                for beta in provider.betas
            ]
        return np.stack([weights, *(weights * np.asarray(m) for m in multipliers)])

    def _check(self, n, totals, terms):
        ctx = self.ctx
        opened = [
            ctx.engine.field.to_signed(v)
            for v in ctx.engine.open_many([n, *totals])
        ]
        expected = terms.sum(axis=1) * 2.0**ctx.fx.f  # in ulps of 2^-F
        assert len(opened) == len(expected)
        for got, want in zip(opened, expected):
            assert abs(got - want) <= self.tolerance, (opened, list(expected))


def _fit_audited(monkeypatch, X, y, task, fit=None, tolerance=0, **context_kwargs):
    params = context_kwargs.pop("params", TreeParams(max_depth=2, max_splits=2))
    ctx = make_context(X, y, task, params=params, **context_kwargs)
    labels = np.asarray(y)
    audit = _StatisticsAudit(
        monkeypatch, ctx, labels, tolerance,
        check_splits=params.min_samples_leaf == 1,
    )
    model = (fit or (lambda c: TreeTrainer(c).fit()))(ctx)
    return ctx, model, audit


def test_three_classes_last_class_and_right_child_by_subtraction(
    monkeypatch, small_multiclass
):
    X, y = small_multiclass
    _, model, audit = _fit_audited(monkeypatch, X, y, "classification", seed=3)
    assert audit.nodes == model.n_internal + len(model.leaves()) > 1
    assert audit.candidates >= 8


def test_regression_right_child_by_subtraction(monkeypatch, small_regression):
    X, y = small_regression
    _, model, audit = _fit_audited(monkeypatch, X, y, "regression")
    assert audit.nodes > 1 and audit.candidates >= 8


def test_bagged_mask_with_entries_above_one(monkeypatch, small_classification):
    """n − Σ_{k<c−1} g_k is the last class for *any* mask vector."""
    X, y = small_classification
    mask = np.arange(len(y)) % 3  # 0, 1, 2, 0, ...
    _, model, audit = _fit_audited(
        monkeypatch, X, y, "classification",
        fit=lambda ctx: TreeTrainer(ctx).fit(initial_mask=mask),
    )
    assert audit.nodes > 1


@pytest.mark.parametrize("classes", ["small_classification", "small_multiclass"])
def test_enhanced_children_inherit_through_the_hidden_onehot(
    monkeypatch, request, classes
):
    X, y = request.getfixturevalue(classes)
    ctx, model, audit = _fit_audited(
        monkeypatch, X, y, "classification", protocol="enhanced", seed=3
    )
    assert audit.nodes == model.n_internal + len(model.leaves()) > 1
    # The winning split index was never opened.
    assert not any(tag.startswith("best-split") for tag, _ in ctx.revealed)


@pytest.mark.parametrize("protocol", ["basic", "enhanced"])
def test_dp_children_inherit_the_unmasked_statistics(
    monkeypatch, small_classification, protocol
):
    """min_samples_leaf above n/2 invalidates *every* candidate, so the
    exponential mechanism picks a split whose gain inputs were zeroed; the
    children must still inherit the statistics as converted."""
    X, y = small_classification
    params = TreeParams(max_depth=1, max_splits=2, min_samples_leaf=len(y) // 2 + 1)
    _, model, audit = _fit_audited(
        monkeypatch, X, y, "classification", params=params, protocol=protocol,
        dp=DPConfig(epsilon=5.0), seed=13,
    )
    assert not model.root.is_leaf
    assert audit.nodes == 3


def test_riding_gammas_of_a_gbdt_round(monkeypatch, small_regression):
    """Round 2's [γ]s ride with [α] and are converted undeclared (one
    ciphertext each, truncated from exponent −2F): the by-subtraction
    shares are within the truncations' ulps of the dropped conversions."""
    X, y = small_regression
    params = TreeParams(max_depth=2, max_splits=2)

    def fit(ctx):
        trainer = GBDTTrainer(ctx, n_rounds=2)
        trainer.fit()
        return trainer.models[-1]

    _, model, audit = _fit_audited(
        monkeypatch, X[:16], y[:16], "regression", fit=fit, tolerance=4,
        params=params,
    )
    assert audit.nodes > 2


# -- leak regression ----------------------------------------------------------


def _raws(payload) -> list[int]:
    """Every ciphertext in a (nested) payload, as raw integers."""
    if isinstance(payload, Request):
        return _raws(list(payload.body))
    if isinstance(payload, EncryptedNumber):
        return [payload.ciphertext.raw]
    if isinstance(payload, (list, tuple)):
        return [raw for item in payload for raw in _raws(item)]
    return []


def _spy_on_party(monkeypatch, bus, index: int) -> list[tuple[str, object]]:
    """Every (tag, payload) the bus delivers to party ``index``, in order."""
    seen: list[tuple[str, object]] = []
    real_send, real_broadcast = bus.send_payload, bus.broadcast_payload

    def send_payload(sender, receiver, payload, tag=""):
        if receiver == index:
            seen.append((tag, payload))
        return real_send(sender, receiver, payload, tag=tag)

    def broadcast_payload(sender, payload, tag=""):
        if sender != index:
            seen.append((tag, payload))
        return real_broadcast(sender, payload, tag=tag)

    monkeypatch.setattr(bus, "send_payload", send_payload)
    monkeypatch.setattr(bus, "broadcast_payload", broadcast_payload)
    return seen


@pytest.mark.parametrize(
    "task, protocol",
    [("classification", "basic"), ("classification", "enhanced"),
     ("regression", "basic")],
)
def test_published_vectors_and_statistics_are_unlinkable(
    monkeypatch, small_classification, small_regression, task, protocol
):
    X, y = small_classification if task == "classification" else small_regression
    X, y = X[:30], y[:30]
    ctx = make_context(X, y, task, protocol=protocol)
    seen = _spy_on_party(monkeypatch, ctx.bus, 1)
    trainer = TreeTrainer(ctx)
    model = trainer.fit()
    assert model.n_internal >= 1

    held: set[int] = set()  # every [α_j] party 1 was ever sent
    alphas: dict[int, list[int]] = {}  # node key -> raw [α]
    published = []
    for tag, payload in seen:
        if tag == "mask-vector":
            held.update(_raws(payload))
            if isinstance(payload, Request) and payload.op == "node-state":
                alphas[payload.body[0]] = _raws(payload.body[1])
            elif isinstance(payload, Request) and payload.op == "node-split":
                key = payload.body[0]
                alphas[2 * key] = _raws(payload.body[2])
                alphas[2 * key + 1] = _raws(payload.body[3])
        elif tag in ("label-vectors", "split-stats"):
            published.append((tag, payload))
    carried = {tag: 0 for tag in ("label-vectors", "split-stats")}
    for tag, payload in published:
        raws = _raws(payload)  # none in the split-stats *request*
        carried[tag] += len(raws)
        assert 1 not in raws
        assert held.isdisjoint(raws)
    assert all(carried.values())

    # The attack the parent commit lost every label to: γ_kj == α_j iff
    # β_kj = 1 (and, for regression, a dictionary test on the known power).
    public_key = ctx.threshold.public_key
    recovered = 0
    for tag, payload in published:
        if tag != "label-vectors":
            continue
        key, gammas = payload.body
        for beta, gamma in zip(trainer.provider.betas, gammas):
            for a_raw, g, b in zip(alphas[key], gamma, beta):
                if task == "classification":
                    guess = a_raw
                else:
                    power = ctx.encoder.encode(float(b)).encoding % public_key.n
                    guess = pow(a_raw, power, public_key.n_squared)
                recovered += g.ciphertext.raw == guess
    assert recovered == 0
