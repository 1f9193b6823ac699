"""Every statistic crosses the ciphertext→share boundary at most once —
and nothing that crosses a party boundary on the way is linkable.

Three families:

* **Derived statistics are exact.**  The trainer converts only the left
  child's count and the published label vectors' sums; the last class, the
  right child and every non-root node's own statistics are share
  subtractions or inherited.  Each must open to exactly what converting the
  dropped ciphertext would have given — recomputed here from the decrypted
  mask vector, the plaintext labels (or the decrypted riding [γ]) and the
  owners' indicators.  A leaf at the depth limit has no mask vector: it is
  recomputed from its parent's.
* **Children are built only where they are read.**  The basic model
  update sends one child's mask vector, never the derived sibling's, and
  neither protocol builds one for a leaf at the depth limit.
* **Leak regression.**  No published label vector — riding in the
  root's entry or a ``node-split``, or a ``node-gammas`` under the
  enhanced protocol — no enhanced [α_l] and no ``split-stats`` payload
  carries a ciphertext that is the unit, or bit-equal to one its receiver
  already holds; the raw-equality attack that once read every label off
  ``node-gammas`` matches nothing.  The root's [α] never goes on the
  wire: its weights are public.  Likewise prediction:
  no ``prediction-vector`` element is the unit or one its sender received,
  and nothing a prediction sends out for decryption is a deterministic
  function of the vector u_1 received — the attack that read every
  sender's comparisons off the per-row round-robin, replayed.
"""

from collections import Counter
from itertools import product

import numpy as np
import pytest

from repro.core import DPConfig, TreeTrainer, run_predict_batch
from repro.core import trainer as trainer_module
from repro.core.ensemble import ForestTrainer, GBDTTrainer
from repro.core.labels import PlaintextLabelProvider
from repro.crypto.encoding import EncryptedNumber
from repro.crypto.paillier import Ciphertext
from repro.federation.party import DECRYPT_TAGS, level_entries, split_root_entry
from repro.network.wire import Request
from repro.tree import TreeParams

from tests.core.conftest import make_context, spy_on_bus

# -- derived statistics -------------------------------------------------------


class _StatisticsAudit:
    """Checks every NodeStats a tree level starts from and every SplitStats
    the gain step receives against the plaintext recomputation.

    A child whose [α] was never built (a leaf at the depth limit) is checked
    through its parent: the parent's plaintext terms times the winning
    indicator, or its complement for the right child.  The winning split is
    read off each node's opened one-hot, under either protocol.  The root
    enters level 0 without statistics (they come out of the level's
    conversion), so it is checked once they are set.

    Every row a level's split step starts from is checked too, as
    converted or derived, before ``min_samples_leaf`` masks the SplitStats:
    a right child whose left sibling is open never converts, so its rows
    are its parent's minus the sibling's and must still open to its own
    left-split statistics."""

    def __init__(self, monkeypatch, ctx, labels, tolerance=0, check_splits=True):
        self.ctx = ctx
        self.labels = labels
        self.tolerance = tolerance  # ulps of 2^-F (riding [γ]s are truncated)
        self.nodes = 0
        self.inherited = 0  # of them, children checked through their parent
        self.candidates = 0
        self.rows = 0
        #: Of them, by depth: rows of a right child whose sibling is open.
        self.derived_rows: Counter = Counter()
        self._terms: dict[int, np.ndarray] = {}  # heap key -> plaintext terms
        self._winners: dict[int, tuple[int, int, int]] = {}  # heap key -> split
        self._levels: dict[int, tuple] = {}  # id(NodeStats) -> (terms, available)
        self._root = None  # the root, until its statistics are converted
        real_grow = TreeTrainer._grow_level
        real_split_level = TreeTrainer._split_level
        real_gains = trainer_module.secure_split_gains

        def grow_level(trainer, nodes, depth, tree):
            for node in nodes:
                if node.alpha is None:
                    terms = self._inherited(node.key)
                else:
                    terms = self._terms_of(trainer, node.alpha, node.gammas)
                self._terms[node.key] = terms
                if node.stats is None:
                    self._root = node
                else:
                    self._register(node)
            try:
                return real_grow(trainer, nodes, depth, tree)
            finally:
                self._register_root()

        def split_level(trainer, nodes, converted, depth, *rest):
            self._register_root()
            keys = {node.key for node in nodes}
            for node in nodes:
                terms, available = self._levels[id(node.stats)]
                identifiers = ctx.split_identifiers(available)
                assert len(identifiers) == len(converted[node.key])
                derived = node.key % 2 == 1 and node.key - 1 in keys
                for (owner, feature, s), row in zip(identifiers, converted[node.key]):
                    v = ctx.clients[owner].indicator(feature, s)
                    # [n_l, g_l per published vector]: the unpublished
                    # last class is the one term row it lacks.
                    self._check(row[0], row[1:], (terms * v)[: len(row)])
                    self.rows += 1
                    self.derived_rows[depth] += derived
            return real_split_level(trainer, nodes, converted, depth, *rest)

        def update(real):
            def wrapped(trainer, nodes, identifiers, picks, *rest):
                for node, ids, (_, onehot) in zip(nodes, identifiers, picks):
                    bits = ctx.engine.open_many(onehot)
                    self._winners[node.key] = ids[bits.index(1)]
                return real(trainer, nodes, identifiers, picks, *rest)

            return wrapped

        def gains(fx, task, nodes, splits, *args, **kwargs):
            self._register_root()
            for node, node_splits in zip(nodes, splits):
                terms, available = self._levels[id(node)]
                identifiers = ctx.split_identifiers(available)
                assert len(identifiers) == len(node_splits)
                for (owner, feature, s), split in zip(identifiers, node_splits):
                    v = ctx.clients[owner].indicator(feature, s)
                    self._check(split.n_left, split.left, terms * v)
                    self._check(split.n_right, split.right, terms * (1 - v))
                    self.candidates += 1
            return real_gains(fx, task, nodes, splits, *args, **kwargs)

        monkeypatch.setattr(TreeTrainer, "_grow_level", grow_level)
        monkeypatch.setattr(TreeTrainer, "_split_level", split_level)
        for name in ("_update_basic", "_update_enhanced"):
            monkeypatch.setattr(TreeTrainer, name, update(getattr(TreeTrainer, name)))
        if check_splits:
            monkeypatch.setattr(trainer_module, "secure_split_gains", gains)

    def _register(self, node) -> None:
        terms = self._terms[node.key]
        self._check(node.stats.n, node.stats.totals, terms)
        self.nodes += 1
        self._levels[id(node.stats)] = (terms, node.available)

    def _register_root(self) -> None:
        if self._root is not None and self._root.stats is not None:
            self._register(self._root)
            self._root = None

    def _inherited(self, key: int) -> np.ndarray:
        owner, feature, s = self._winners[key // 2]
        v = self.ctx.clients[owner].indicator(feature, s)
        self.inherited += 1
        return self._terms[key // 2] * (v if key % 2 == 0 else 1 - v)

    def _decrypt(self, vector: list[EncryptedNumber]) -> np.ndarray:
        raws = self.ctx.threshold.joint_decrypt_batch(
            [v.ciphertext for v in vector]
        )
        return np.array([r * 2.0**v.exponent for r, v in zip(raws, vector)])

    def _terms_of(self, trainer, alpha, node_gammas) -> np.ndarray:
        """Row 0: each sample's contribution to the count; row 1 + k: to the
        k-th label sum — *including* the class nobody publishes.  (Exact in
        doubles: small multiples of 2^-F, or of 2^-2F for a riding [γ].)"""
        provider = trainer.provider
        weights = self._decrypt(alpha)
        if provider.rides_with_alpha:
            # Riding [γ]s carry the mask already; the class nobody
            # publishes is the count minus the others.
            vectors = [self._decrypt(g) for g in node_gammas]
            if trainer.task == "classification":
                vectors.append(weights - sum(vectors))
            return np.stack([weights, *vectors])
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


def _leaves_at(model, depth: int) -> int:
    """Leaves at the depth limit: the ones checked through their parent."""
    return sum(leaf.depth == depth for leaf in model.leaves())


def test_three_classes_last_class_and_right_child_by_subtraction(
    monkeypatch, small_multiclass
):
    X, y = small_multiclass
    _, model, audit = _fit_audited(monkeypatch, X, y, "classification", seed=3)
    assert audit.nodes == model.n_internal + len(model.leaves()) > 1
    assert audit.inherited == _leaves_at(model, 2) > 0
    assert audit.candidates >= 8


def test_regression_right_child_by_subtraction(monkeypatch, small_regression):
    X, y = small_regression
    _, model, audit = _fit_audited(monkeypatch, X, y, "regression")
    assert audit.nodes > 1 and audit.candidates >= 8
    assert audit.inherited == _leaves_at(model, 2) > 0


def test_bagged_mask_with_entries_above_one(monkeypatch, small_classification):
    """n − Σ_{k<c−1} g_k is the last class for *any* mask vector."""
    X, y = small_classification
    mask = np.arange(len(y)) % 3  # 0, 1, 2, 0, ...
    _, model, audit = _fit_audited(
        monkeypatch, X, y, "classification",
        fit=lambda ctx: TreeTrainer(ctx).fit(initial_mask=mask),
    )
    assert audit.nodes > 1
    assert audit.inherited == _leaves_at(model, 2) > 0


@pytest.mark.parametrize("classes", ["small_classification", "small_multiclass"])
def test_enhanced_children_inherit_through_the_hidden_onehot(
    monkeypatch, request, classes
):
    X, y = request.getfixturevalue(classes)
    ctx, model, audit = _fit_audited(
        monkeypatch, X, y, "classification", protocol="enhanced", seed=3
    )
    assert audit.nodes == model.n_internal + len(model.leaves()) > 1
    assert audit.inherited == _leaves_at(model, 2) > 0
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
    assert audit.nodes == 3 and audit.inherited == 2


@pytest.mark.parametrize("protocol", ["basic", "enhanced"])
def test_derived_rows_over_a_subset_of_the_parents_candidates(
    monkeypatch, small_classification, protocol
):
    """``remove_used_feature``: the children of a split lose its feature,
    so a right child's rows are its parent's, looked up by identifier,
    minus its left sibling's — at depth 1 from the root's rows, at depth 2
    from rows that may themselves be derived.  Every row opens to its
    plaintext statistic."""
    X, y = small_classification
    params = TreeParams(max_depth=3, max_splits=2, remove_used_feature=True)
    _, model, audit = _fit_audited(
        monkeypatch, X, y, "classification", params=params, protocol=protocol
    )
    assert audit.derived_rows[1] and audit.derived_rows[2]
    assert audit.rows == audit.candidates > sum(audit.derived_rows.values())
    assert audit.nodes == model.n_internal + len(model.leaves())


@pytest.mark.parametrize("protocol", ["basic", "enhanced"])
def test_derived_rows_under_min_samples_leaf(
    monkeypatch, small_classification, protocol
):
    """``min_samples_leaf`` > 1 zeroes the SplitStats of invalid splits
    before the gain step, so the rows are checked as the split step gets
    them, converted or derived, with ``remove_used_feature`` at depth 3."""
    X, y = small_classification
    params = TreeParams(
        max_depth=3, max_splits=2, min_samples_leaf=3, remove_used_feature=True
    )
    _, model, audit = _fit_audited(
        monkeypatch, X, y, "classification", params=params, protocol=protocol
    )
    assert audit.candidates == 0  # the SplitStats are masked: not checked
    assert audit.derived_rows[1] and sum(audit.derived_rows.values()) < audit.rows
    assert audit.nodes == model.n_internal + len(model.leaves()) > 3


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
    assert audit.nodes > 2 and audit.inherited > 0


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


def _received_by(ctx, spy, index: int = 1) -> tuple[list, Counter, set]:
    """Replay what party ``index`` sent and received, in order, holding
    what she would hold.

    Every ciphertext she receives as a published vector — a riding [γ]
    or one in a ``split-stats`` request's gammas entries, a
    ``node-split``'s [α_l] (a basic owner's, or the enhanced Eq. 10's from
    the super client), a party's masked groups of split statistics — is
    checked: not the unit (c mod n² == 1, no mask at all), not repeated
    within its message and not raw-equal to anything she already holds
    (sent, received or derived: [α_r] = [α] ⊖ [α_l] and [γ_r] likewise).
    What she publishes herself she only holds.  The root's entry, at the
    head of level 0's first request, must carry its weights as plain ints;
    she forms [α] herself.

    Returns every published label-vector set as ``([α] raws of its node,
    [γ_k] vectors)``, the published ciphertexts per tag (the root entry's
    riding [γ]s under ``root`` and the gammas entries under ``gammas``, not
    under the tag of the request they ride) and the set of every checked
    ciphertext."""
    public_key = ctx.threshold.public_key
    n_squared = public_key.n_squared
    held: set[int] = set()
    nodes: dict[int, tuple[list[int], list[list[int]]]] = {}  # key -> ([α], [γ]s)
    published = []
    carried: Counter = Counter()
    checked: set[int] = set()

    def receive(tag, payload) -> list[int]:
        raws = _raws(payload)
        if not own:
            assert 1 not in raws and len(set(raws)) == len(raws)
            assert held.isdisjoint(raws)
            carried[tag] += len(raws)
            checked.update(raws)
        held.update(raws)
        return raws

    def minus(a, b):
        return [x * pow(y, -1, n_squared) % n_squared for x, y in zip(a, b)]

    for sender, receiver, tag, payload in spy:
        own = sender == index
        if own:
            held.update(_raws(payload))
        elif receiver not in (index, None):
            continue
        op = payload.op if isinstance(payload, Request) else None
        body = list(payload.body) if op else []
        if op == "split-stats":
            # [header, the super client's masked groups, gammas entries,
            # (root entry), nodes...]
            _, groups, gamma_entries, *body = body
            root, body = split_root_entry(body)
            if root is not None:
                weights, root_gammas = root
                assert all(type(w) is int for w in weights)  # no root ciphertext
                alpha = [public_key.raw_encrypt(w) for w in weights]
                held.update(alpha)
                nodes[1] = (alpha, [receive("root", g) for g in root_gammas])
                if root_gammas and not own:
                    published.append((alpha, root_gammas))
            receive(tag, groups)
            for key, gammas in level_entries(list(gamma_entries), 2):
                for g in gammas:
                    receive("gammas", g)
                if not own:
                    published.append((nodes[key][0], gammas))
        if op == "node-split":
            for key, _, alpha_left, gam_left in level_entries(body, 4):
                if not alpha_left:
                    continue
                alpha, gammas = nodes.pop(key)
                left = (receive(tag, alpha_left), [receive(tag, g) for g in gam_left])
                right = (
                    minus(alpha, left[0]),
                    [minus(g, g_left) for g, g_left in zip(gammas, left[1])],
                )
                held.update(right[0], *right[1])
                nodes[2 * key], nodes[2 * key + 1] = left, right
                if gam_left and not own:
                    published.append((left[0], gam_left))
        elif op == "level-groups":
            receive(tag, body)  # another non-super party's masked groups
        elif tag == "split-stats" and op is None:
            receive(tag, payload)  # a reply
    return published, carried, checked


def _labels_recovered(ctx, betas, task, published) -> int:
    """The attack the label column was once lost to: γ_kj == α_j iff
    β_kj = 1 (and, for regression, a dictionary test on the known power),
    tried on every published [γ] against its node's [α]."""
    public_key = ctx.threshold.public_key
    recovered = 0
    for alpha, gammas in published:
        for beta, gamma in zip(betas, gammas):
            for a_raw, g, b in zip(alpha, gamma, beta):
                if task == "classification":
                    guess = a_raw
                else:
                    power = ctx.encoder.encode(float(b)).encoding % public_key.n
                    guess = pow(a_raw, power, public_key.n_squared)
                recovered += g.ciphertext.raw == guess
    return recovered


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
    spy = spy_on_bus(monkeypatch, ctx.bus)
    trainer = TreeTrainer(ctx)
    model = trainer.fit()
    assert model.n_internal >= 1
    # The enhanced left children: Eq. 10's node-split list, from the super
    # client.  Every other party receives each [α_l] exactly once (the
    # replay refuses a second copy of anything she holds).
    enhanced_lefts = {
        raw
        for _, _, tag, payload in spy
        if tag == "eq10" and isinstance(payload, Request)
        for entry in level_entries(list(payload.body), 4)
        for raw in _raws(entry[2])
    }
    assert bool(enhanced_lefts) == (protocol == "enhanced")
    # Every party, the super client included.  Every party forms each
    # level's masked batch, so each receives the other parties' masked
    # groups of split statistics (the super client's in her request, the
    # replies, the peers' level-groups), each checked above.
    published = []
    for index in range(ctx.n_clients):
        seen, carried, checked = _received_by(ctx, spy, index)
        published += seen
        assert carried["split-stats"]
        if index != ctx.super_client:
            # Basic labels ride with [α]; the enhanced ones are published
            # per node, in the level's split-stats request.
            assert bool(carried["gammas"]) == (protocol == "enhanced")
            assert bool(carried["root"]) == (protocol == "basic")
            assert enhanced_lefts <= checked
    assert published
    assert _labels_recovered(ctx, trainer.provider.betas, task, published) == 0


@pytest.mark.parametrize(
    "estimator, pool_masks", [("tree", 114), ("forest", 228), ("gbdt", 231)]
)
def test_basic_labels_ride_once_per_built_split(
    monkeypatch, small_classification, small_regression, estimator, pool_masks
):
    """Basic protocol: the super client encrypts the root's [γ] once, in
    the root's entry next to the public weights, at the head of level 0's
    ``split-stats`` request; from there each split owner masks [γ_l] with
    [α_l].  No ``node-gammas``, no ``label-vectors`` bytes, no root
    ciphertext; every [γ_l] is fresh.  The pool masks per fit are pinned
    (n = 30, m = 3, S = 8 candidate splits per node): (c − 1)·n at each
    root, m per packed group converted (every party's mask encryption of
    each group, which in a level's ``split-stats`` reply also
    re-randomises her statistics), c·n per built split (c = 3 for
    regression: n, y, y²), and for GBDT n more for its encrypted labels.
    A tree level's statistics are packed together, level 0's after the
    root's c − 1 label totals, and of the two open children at depth 1
    only the left one converts (the right one's rows are the root's minus
    the left's): at 256 bits a class count of W = 30 has a
    5 + 40 + 2 = 47-bit slot, five to a ciphertext, so the tree's
    ⌈(1 + 16)/5⌉ + ⌈16/5⌉ = 8 groups give 30 + 3·8 + 60 = 114 (with both
    children converting, ⌈32/5⌉ = 7 groups at depth 1 gave 123), and the
    forest's two trees 228 (was 246).  (Regression declares fx.k: 82-bit
    slots, three to a ciphertext, so GBDT's level 0 of 2 + 24 values
    fills ⌈26/3⌉ = 9 groups and depth 1's 24 values ⌈24/3⌉ = 8 (was
    ⌈48/3⌉ = 16): 60 + 3·17 + 90 + 30 = 231, was 255.)"""
    task = "regression" if estimator == "gbdt" else "classification"
    X, y = small_regression if estimator == "gbdt" else small_classification
    X, y = X[:30], y[:30]
    ctx = make_context(X, y, task, seed=3)
    spy = spy_on_bus(monkeypatch, ctx.bus)
    before = ctx.batch.pool.generated
    if estimator == "tree":
        trees = 1
        TreeTrainer(ctx).fit()
    elif estimator == "forest":
        trees = 2
        ForestTrainer(ctx, n_trees=trees, seed=3).fit()
    else:
        trees = 1
        GBDTTrainer(ctx, n_rounds=1).fit()
    assert ctx.batch.pool.generated - before == pool_masks
    requests = [p for *_, p in spy if isinstance(p, Request)]
    assert not any(r.op == "node-gammas" for r in requests)
    assert "label-vectors" not in ctx.bus.snapshot()["by_tag"]
    roots = [
        split_root_entry(list(r.body)[3:])[0]
        for r in requests
        if r.op == "split-stats"
    ]
    assert len([root for root in roots if root is not None]) == trees
    public_key = ctx.threshold.public_key
    on_the_wire = {raw for *_, payload in spy for raw in _raws(payload)}
    assert on_the_wire.isdisjoint(public_key.raw_encrypt(w) for w in (0, 1))
    published, _, _ = _received_by(ctx, spy)
    splits = [
        entry
        for r in requests
        if r.op == "node-split"
        for entry in level_entries(r.body, 4)
        if entry[3]
    ]
    assert splits and len(published) == trees + len(splits)
    betas = PlaintextLabelProvider(ctx, y, task).betas
    assert _labels_recovered(ctx, betas, task, published) == 0


# -- model update -------------------------------------------------------------


def _internal_keys(model) -> dict[int, int]:
    """Heap key -> depth of every internal node; the root is key 1."""
    pending, keyed = [(1, model.root)], {}
    while pending:
        key, node = pending.pop()
        if not node.is_leaf:
            keyed[key] = node.depth
            pending += [(2 * key, node.left), (2 * key + 1, node.right)]
    return keyed


@pytest.mark.parametrize(
    "protocol, rounds", [("basic", 1), ("enhanced", 1), ("basic", 2)]
)
def test_children_get_a_mask_vector_only_where_it_is_read(
    monkeypatch, small_classification, small_regression, protocol, rounds
):
    """A split builds its children's [α] only below the depth limit; the
    leaves under a last-level split inherit their statistics and never read
    one.  Basic: the owner masks [α_l] (and a riding [γ_l]) and nothing
    else — n pool masks per vector per split whose children are built —
    and no ciphertext of [α_r] or [γ_r] is ever sent, because every party
    derives them.  A last-level ``node-split`` carries the threshold and
    empty vectors; an enhanced level whose children are built ends its
    Eq. 10 in one ``node-split`` list from the super client, an [α_l] per
    split and no threshold, and a last-level enhanced split sends no
    ``eq10`` traffic.  ``rounds`` 2 is a GBDT fit whose second tree
    carries riding [γ]s."""
    from repro.federation.party import PartyRuntime

    if rounds == 1:
        X, y = small_classification
        X, y, task = X[:30], y[:30], "classification"
    else:
        X, y = small_regression
        X, y, task = X[:16], y[:16], "regression"
    max_depth = 2
    ctx = make_context(
        X, y, task, protocol=protocol,
        params=TreeParams(max_depth=max_depth, max_splits=2),
    )
    spy = spy_on_bus(monkeypatch, ctx.bus)
    riding: list[int] = []  # per fitted tree: [γ] vectors riding with [α]
    starts: list[tuple[int, int, int]] = []  # (tree, depth, spy position)
    masks = [0]  # pool masks drawn inside apply_split
    derived: set[int] = set()  # raws of every right child a party stored
    real_fit = TreeTrainer.fit
    real_grow = TreeTrainer._grow_level
    real_apply = PartyRuntime.apply_split
    real_store = PartyRuntime.store_split

    def fit(trainer, *args, **kwargs):
        provider = trainer.provider
        riding.append(provider.n_vectors if provider.rides_with_alpha else 0)
        return real_fit(trainer, *args, **kwargs)

    def grow_level(trainer, nodes, depth, tree):
        starts.append((len(riding) - 1, depth, len(spy)))
        return real_grow(trainer, nodes, depth, tree)

    def apply_split(runtime, *args):
        before = runtime.engine.pool.generated
        try:
            return real_apply(runtime, *args)
        finally:
            masks[0] += runtime.engine.pool.generated - before

    def store_split(runtime, body):
        real_store(runtime, body)
        right = runtime.nodes.get(2 * body[0] + 1)
        if right is not None:
            derived.update(_raws([right[0], right[1] or []]))

    monkeypatch.setattr(TreeTrainer, "fit", fit)
    monkeypatch.setattr(TreeTrainer, "_grow_level", grow_level)
    monkeypatch.setattr(PartyRuntime, "apply_split", apply_split)
    monkeypatch.setattr(PartyRuntime, "store_split", store_split)
    if rounds == 1:
        models = [TreeTrainer(ctx).fit()]
    else:
        models = GBDTTrainer(ctx, n_rounds=rounds).fit().models
    assert len(models) == len(riding) == rounds

    # A level's traffic runs from its _grow_level call to the next one.
    ends = [position for _, _, position in starts[1:]] + [len(spy)]
    traffic = {
        (tree, depth): spy[start:end] for (tree, depth, start), end in zip(starts, ends)
    }
    n = len(y)
    built_vectors = last = 0
    for tree, model in enumerate(models):
        by_depth: dict[int, list[int]] = {}
        for key, depth in _internal_keys(model).items():
            by_depth.setdefault(depth, []).append(key)
        for depth, keys in by_depth.items():
            children_built = depth + 1 < max_depth
            level = traffic[(tree, depth)]
            requests = [
                (payload.op, list(payload.body)) for *_, payload in level
                if isinstance(payload, Request)
            ]
            if protocol == "basic":
                entries = {
                    entry[0]: entry
                    for op, body in requests if op == "node-split"
                    for entry in level_entries(body, 4)
                }
                assert sorted(entries) == sorted(keys)
                for body in entries.values():
                    lengths = [len(body[2])] + [len(g) for g in body[3]]
                    assert lengths == (
                        [n] * (1 + riding[tree]) if children_built else [0]
                    )
            else:
                eq10 = [entry for entry in level if entry[2] == "eq10"]
                lefts = [
                    entry
                    for op, body in requests if op == "node-split"
                    for entry in level_entries(body, 4)
                ]
                assert bool(eq10) == children_built
                assert sorted(entry[0] for entry in lefts) == (
                    sorted(keys) if children_built else []
                )
                assert all(entry[1] == [] and len(entry[2]) == n for entry in lefts)
            if children_built:
                built_vectors += len(keys) * (1 + riding[tree])
            else:
                last += len(keys)
    assert built_vectors and last
    if protocol == "basic":
        assert masks[0] == n * built_vectors
        assert derived  # both children of the root, at least
        on_the_wire = {raw for *_, payload in spy for raw in _raws(payload)}
        assert derived.isdisjoint(on_the_wire)
    else:
        assert masks[0] == 0  # the enhanced update never calls apply_split


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
    spy = spy_on_bus(monkeypatch, ctx.bus)
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
    spy = spy_on_bus(monkeypatch, ctx.bus)
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
    spy = spy_on_bus(monkeypatch, ctx.bus)
    trainer = GBDTTrainer(ctx, n_rounds=3).fit()
    calls = _round_robins(spy, ctx.n_clients)
    assert len(calls) == 2  # the last round's tree predicts nothing
    for model, call in zip(trainer.models, calls):
        _assert_hops_carry_fresh_masks(call, len(y), _travelling(model))
    assert 1 not in _decryption_broadcasts(spy)
    # Every round's root entry carries its riding [γ_1] in level 0's
    # split-stats request; rounds 2 and 3's are the residuals.
    roots = [
        split_root_entry(list(payload.body)[3:])[0]
        for *_, payload in spy
        if isinstance(payload, Request) and payload.op == "split-stats"
    ]
    residuals = [_raws(root[1][0]) for root in roots if root is not None][1:]
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
