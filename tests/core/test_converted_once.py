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
  parent commit's ``node-gammas`` matches nothing.  Likewise prediction:
  no ``prediction-vector`` element is the unit or one its sender received,
  and nothing a prediction sends out for decryption is a deterministic
  function of the vector u_1 received — the attack that read every
  sender's comparisons off the per-row round-robin, replayed.
"""

from itertools import product

import numpy as np
import pytest

from repro.core import DPConfig, TreeTrainer, run_predict_batch
from repro.core import trainer as trainer_module
from repro.core.ensemble import ForestTrainer, GBDTTrainer
from repro.crypto.encoding import EncryptedNumber
from repro.crypto.paillier import Ciphertext
from repro.federation.party import DECRYPT_TAGS
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
    if isinstance(payload, Ciphertext):
        return [payload.raw]
    if isinstance(payload, (list, tuple)):
        return [raw for item in payload for raw in _raws(item)]
    return []


def _spy_on_bus(monkeypatch, bus) -> list[tuple[int, int | None, str, object]]:
    """Every (sender, receiver, tag, payload) the bus carries, in order;
    a broadcast has receiver ``None``."""
    seen: list[tuple[int, int | None, str, object]] = []
    real_send, real_broadcast = bus.send_payload, bus.broadcast_payload

    def send_payload(sender, receiver, payload, tag=""):
        seen.append((sender, receiver, tag, payload))
        return real_send(sender, receiver, payload, tag=tag)

    def broadcast_payload(sender, payload, tag=""):
        seen.append((sender, None, tag, payload))
        return real_broadcast(sender, payload, tag=tag)

    monkeypatch.setattr(bus, "send_payload", send_payload)
    monkeypatch.setattr(bus, "broadcast_payload", broadcast_payload)
    return seen


def _delivered_to(spy, index: int) -> list[tuple[str, object]]:
    """Every (tag, payload) of a spied bus that reached party ``index``."""
    return [
        (tag, payload)
        for sender, receiver, tag, payload in spy
        if receiver == index or (receiver is None and sender != index)
    ]


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
    spy = _spy_on_bus(monkeypatch, ctx.bus)
    trainer = TreeTrainer(ctx)
    model = trainer.fit()
    assert model.n_internal >= 1
    seen = _delivered_to(spy, 1)

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


# -- prediction ---------------------------------------------------------------


def _round_robins(spy, m: int) -> list[list[list[int]]]:
    """The ``prediction-vector`` hops of a spied bus, one list of m - 1
    raw vectors per Algorithm 4 call, each hop checked for its route."""
    hops = [entry for entry in spy if entry[2] == "prediction-vector"]
    assert len(hops) % (m - 1) == 0
    calls = []
    for start in range(0, len(hops), m - 1):
        call = hops[start : start + m - 1]
        assert [(s, r) for s, r, _, _ in call] == [
            (sender, sender - 1) for sender in range(m - 1, 0, -1)
        ]
        calls.append([_raws(payload) for _, _, _, payload in call])
    return calls


def _assert_hops_carry_fresh_masks(call: list[list[int]], rows: int, width: int):
    """No hop shows its receiver what the sender computed: the length is
    rows × travelling leaves whatever the rows' paths, no element is the
    unit (a leaf ruled out), none repeats, and none is an element the
    sender received on the previous hop (a leaf kept)."""
    received: set[int] = set()
    for raws in call:
        assert len(raws) == rows * width
        assert 1 not in raws
        assert len(set(raws)) == len(raws)
        assert received.isdisjoint(raws)
        received = set(raws)


def _decryption_broadcasts(spy) -> list[int]:
    """Raw ciphertexts the super client sent out to be decrypted."""
    return [
        raw
        for sender, receiver, tag, payload in spy
        if sender == 0 and receiver is None and tag in DECRYPT_TAGS
        for raw in _raws(payload)
    ]


def _assert_no_guess_explains(public_key, sent_out: list[int], received: list[int]):
    """The attack: whoever sent u_1 ``received`` guesses u_1's bits and
    recomputes her output.  Public constants (z₀, the packing offset) are
    deterministic encryptions, ≡ 1 (mod n), so a guess is right iff the
    output over the guessed product of received elements is ≡ 1 (mod n).
    Every combination of exponents in {-1, 0, 1} — the label differences
    of a class-labelled tree — is tried against every output."""
    n = public_key.n
    assert sent_out and 0 < len(received) <= 8
    residues = [(pow(raw, -1, n), 1, raw % n) for raw in received]
    outputs = {raw % n for raw in sent_out}
    for choice in product(range(3), repeat=len(received)):
        guess = 1
        for options, pick in zip(residues, choice):
            guess = guess * options[pick] % n
        assert guess not in outputs


def _travelling(model) -> int:
    labels = model.leaf_label_vector()
    return len(labels) - max(labels.count(z) for z in set(labels))


def test_single_tree_prediction_shows_nobody_the_comparisons(
    monkeypatch, small_classification
):
    X, y = small_classification
    ctx = make_context(X, y, "classification")
    model = TreeTrainer(ctx).fit()
    width = _travelling(model)
    assert 0 < width < len(model.leaves())
    rows = X[:12]
    assert len(set(model.predict(rows))) == 2  # rows on different paths
    spy = _spy_on_bus(monkeypatch, ctx.bus)
    run_predict_batch(model, ctx, rows)
    (call,) = _round_robins(spy, ctx.n_clients)
    _assert_hops_carry_fresh_masks(call, len(rows), width)
    assert len(_decryption_broadcasts(spy)) == 1  # 12 outputs, one slot each
    for row in rows[:4]:
        del spy[:]
        run_predict_batch(model, ctx, row)
        (call,) = _round_robins(spy, ctx.n_clients)
        _assert_hops_carry_fresh_masks(call, 1, width)
        _assert_no_guess_explains(
            ctx.threshold.public_key, _decryption_broadcasts(spy), call[-1]
        )


def test_forest_prediction_shows_nobody_the_comparisons(
    monkeypatch, small_classification
):
    X, y = small_classification
    ctx = make_context(X, y, "classification", params=TreeParams(max_depth=1, max_splits=2))
    forest = ForestTrainer(ctx, n_trees=2, seed=3).fit()
    spy = _spy_on_bus(monkeypatch, ctx.bus)
    forest.predict(X[:3])
    calls = _round_robins(spy, ctx.n_clients)
    assert len(calls) == len(forest.models)
    for model, call in zip(forest.models, calls):
        # Per-class votes need every leaf.
        _assert_hops_carry_fresh_masks(call, 3, len(model.leaves()))
    del spy[:]
    forest.predict(X[:1])
    calls = _round_robins(spy, ctx.n_clients)
    received = [raw for call in calls for raw in call[-1]]
    _assert_no_guess_explains(
        ctx.threshold.public_key, _decryption_broadcasts(spy), received
    )


def test_gbdt_round_shows_nobody_the_comparisons(monkeypatch, small_regression):
    """One boosting round predicts all n training samples in one
    round-robin; what it adds to the estimate is re-masked, because the
    estimate is published as the next round's residuals: the quotient of
    two consecutive rounds' residual vectors is that addition, and must
    not be a function of what u_1 received."""
    X, y = small_regression
    X, y = X[:12], y[:12]
    ctx = make_context(X, y, "regression", params=TreeParams(max_depth=1, max_splits=2))
    spy = _spy_on_bus(monkeypatch, ctx.bus)
    trainer = GBDTTrainer(ctx, n_rounds=3).fit()
    calls = _round_robins(spy, ctx.n_clients)
    assert len(calls) == 2  # the last round's tree predicts nothing
    for model, call in zip(trainer.models, calls):
        _assert_hops_carry_fresh_masks(call, len(y), _travelling(model))
    assert 1 not in _decryption_broadcasts(spy)
    # Rounds 2 and 3 announce their residuals as the root's riding [γ_1].
    residuals = [
        _raws(payload.body[2][0])
        for _, _, tag, payload in spy
        if tag == "mask-vector"
        and isinstance(payload, Request)
        and payload.op == "node-state"
        and payload.body[0] == 1
        and payload.body[2]
    ]
    assert len(residuals) == 2 and len(residuals[0]) == len(y)
    public_key = ctx.threshold.public_key
    n = public_key.n
    rate = ctx.encoder.encode(trainer.learning_rate).encoding
    labels = [
        ctx.encoder.encode(float(z)).encoding
        for z in trainer.models[1].leaf_label_vector()
    ]
    base = max(labels, key=labels.count)
    differences = [z - base for z in labels if z != base]
    width = len(differences)
    for t, (before, after) in enumerate(zip(*residuals)):
        step = before * pow(after, -1, n) % n  # [rate · k̄_t] of round 2's tree
        received = calls[1][-1][t * width : (t + 1) * width]
        for bits in product((0, 1), repeat=width):
            guess = 1
            for raw, difference, bit in zip(received, differences, bits):
                guess = guess * pow(raw, difference * rate * bit, n) % n
            assert guess != step
