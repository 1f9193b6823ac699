"""Enhanced-protocol training and prediction (§5): hidden thresholds/leaf
labels, private split selection, Eq. 10 mask update, shared-model
prediction."""

import numpy as np
import pytest

from repro.analysis import opcount
from repro.core import TreeTrainer, run_predict_batch
from repro.mpc.sharing import SharedValue
from repro.tree import TreeParams

from tests.core.conftest import converted_per_depth, make_context



@pytest.fixture(scope="module")
def enhanced_setup(request):
    from repro.data import make_classification

    X, y = make_classification(30, 4, n_classes=2, seed=1)
    params = TreeParams(max_depth=2, max_splits=2)
    ctx = make_context(
        X, y, "classification", protocol="enhanced", params=params,
    )
    model = TreeTrainer(ctx).fit()
    basic_ctx = make_context(X, y, "classification", params=params)
    basic_model = TreeTrainer(basic_ctx).fit()
    return X, y, ctx, model, basic_ctx, basic_model


def test_thresholds_and_labels_hidden(enhanced_setup):
    """The hidden payload holds shares only: what §5.2 prediction reads."""
    _, _, _, model, _, _ = enhanced_setup
    for node in model.internal_nodes():
        assert node.threshold is None
        assert set(node.hidden) == {"threshold_share"}
        assert isinstance(node.hidden["threshold_share"], SharedValue)
    for leaf in model.leaves():
        assert leaf.prediction is None
        assert set(leaf.hidden) == {"label_share"}
        assert isinstance(leaf.hidden["label_share"], SharedValue)


@pytest.mark.parametrize("max_depth", [2, 3])
def test_selection_vector_is_converted_only_where_eq10_reads_it(
    monkeypatch, max_depth
):
    """One ``share_to_cipher`` call per tree level with a split whose
    children are built — every such split's whole [λ] in one batch — and
    none for a leaf."""
    from repro.data import make_classification
    from repro.federation import federation as federation_module

    X, y = make_classification(30, 4, n_classes=2, seed=1)
    params = TreeParams(max_depth=max_depth, max_splits=2)
    ctx = make_context(X, y, "classification", protocol="enhanced", params=params)
    calls = []
    real = federation_module.share_to_cipher

    def counted(values, *args, **kwargs):
        calls.append((len(values), kwargs.get("exponent")))
        return real(values, *args, **kwargs)

    monkeypatch.setattr(federation_module, "share_to_cipher", counted)
    model = TreeTrainer(ctx).fit()
    # Four features, two used at most: every split below the depth limit
    # has a candidate left, so its children are built.
    built = [node.depth for node in model.internal_nodes() if node.depth + 1 < max_depth]
    assert len(built) == {2: 1, 3: 3}[max_depth]
    # max_splits thresholds per built split, raw bits, one call per level.
    assert calls == [(2 * built.count(depth), 0) for depth in sorted(set(built))]
    assert ctx.conversions.to_cipher == 2 * len(built)  # values converted


def test_split_features_match_basic(enhanced_setup):
    """§5.2 releases (i*, j*) but hides s*: the feature skeleton equals the
    basic protocol's tree."""
    _, _, _, model, _, basic_model = enhanced_setup
    enhanced = [(n.owner, n.feature) for n in model.internal_nodes()]
    basic = [(n.owner, n.feature) for n in basic_model.internal_nodes()]
    assert enhanced == basic


def test_hidden_thresholds_decode_to_basic_values(enhanced_setup):
    _, _, ctx, model, _, basic_model = enhanced_setup
    for enhanced_node, basic_node in zip(
        model.internal_nodes(), basic_model.internal_nodes()
    ):
        (decoded,) = ctx.fx.open([enhanced_node.hidden["threshold_share"]])
        assert decoded == pytest.approx(basic_node.threshold, abs=1e-3)


def test_hidden_leaf_labels_decode_to_basic_values(enhanced_setup):
    _, _, ctx, model, _, basic_model = enhanced_setup
    for enhanced_leaf, basic_leaf in zip(model.leaves(), basic_model.leaves()):
        (decoded,) = ctx.fx.open([enhanced_leaf.hidden["label_share"]])
        assert round(decoded) == basic_leaf.prediction


def test_enhanced_prediction_matches_basic(enhanced_setup):
    X, _, ctx, model, basic_ctx, basic_model = enhanced_setup
    secure = [run_predict_batch(model, ctx, row, "enhanced")[0] for row in X[:8]]
    plain = list(run_predict_batch(basic_model, basic_ctx, X[:8]))
    assert secure == plain


def test_enhanced_prediction_costs_table2_per_row(enhanced_setup):
    """Table 2's O(t)·(Cs + Cc), exactly: t comparisons, and 2t field
    multiplications (t − 1 markers below the root, whose marker is the
    public 1, and t + 1 leaves) — the comparisons' bit-compare runs on
    XOR-shared words and is no Cs.  The t compares share one packed word,
    so a call takes ⌈log₂ 40⌉ AND triples however many nodes."""
    X, _, ctx, model, _, _ = enhanced_setup
    t = model.n_internal
    dealer0 = ctx.cost_snapshot()["dealer"]
    with opcount.counting() as ops:
        run_predict_batch(model, ctx, X[0], "enhanced")
    assert (ops["cs"], ops["cc"]) == (2 * t, t)
    dealer = ctx.cost_snapshot()["dealer"]
    assert dealer["triples"] - dealer0["triples"] == ops["cs"]
    assert dealer["dabits"] - dealer0["dabits"] == t
    assert dealer["prandm"] - dealer0["prandm"] == t
    assert dealer["and_triples"] - dealer0["and_triples"] == 6  # ⌈log₂ 40⌉ per call


def test_enhanced_model_rejects_plaintext_prediction(enhanced_setup):
    X, _, ctx, model, _, _ = enhanced_setup
    with pytest.raises(ValueError):
        model.predict(X[:1])
    with pytest.raises(ValueError):
        run_predict_batch(model, ctx, X[0])


def test_transcript_hides_split_values(enhanced_setup):
    """The enhanced run must never log a best-split identifier with s*, a
    leaf label, or a raw threshold."""
    _, _, ctx, _, _, _ = enhanced_setup
    tags = [tag for tag, _ in ctx.revealed]
    assert any(tag.startswith("best-feature") for tag in tags)
    assert not any(tag.startswith("best-split") for tag in tags)
    assert not any(tag.startswith("leaf-label") for tag in tags)


def test_enhanced_regression():
    from repro.data import make_regression

    X, y = make_regression(24, 4, seed=5)
    params = TreeParams(max_depth=1, max_splits=2)
    ctx = make_context(
        X, y, "regression", protocol="enhanced", params=params,
    )
    model = TreeTrainer(ctx).fit()
    basic_ctx = make_context(X, y, "regression", params=params)
    basic_model = TreeTrainer(basic_ctx).fit()
    secure = list(run_predict_batch(model, ctx, X[:5], "enhanced"))
    plain = [basic_model.predict_row(row) for row in X[:5]]
    for s, p in zip(secure, plain):
        assert s == pytest.approx(p, abs=5e-2 * max(1.0, abs(p)))


def test_depth_keysize_guard():
    """There is no guard left to trip: plaintexts stay bounded at every
    level, so enhanced h = 4 fits under the 512-bit key basic uses (the
    wrap needed (h + 1)·127 + 128 = 763 bits) and predicts what basic
    predicts."""
    from repro.data import make_classification

    X, y = make_classification(48, 4, n_classes=2, seed=3)
    params = TreeParams(max_depth=4, max_splits=2)
    ctx = make_context(
        X, y, "classification", keysize=512, protocol="enhanced", params=params
    )
    model = TreeTrainer(ctx).fit()
    basic_ctx = make_context(X, y, "classification", keysize=512, params=params)
    basic_model = TreeTrainer(basic_ctx).fit()
    assert basic_model.max_depth >= 3
    assert [(n.owner, n.feature) for n in model.internal_nodes()] == [
        (n.owner, n.feature) for n in basic_model.internal_nodes()
    ]
    secure = list(run_predict_batch(model, ctx, X[:12], "enhanced"))
    assert secure == list(run_predict_batch(basic_model, basic_ctx, X[:12]))


# -- sibling by subtraction, packed Eq. 10, bounded openings --------------------


def _node_keys(model):
    """(heap key, node) for every internal node; the root is key 1."""
    pending, keyed = [(1, model.root)], []
    while pending:
        key, node = pending.pop()
        if not node.is_leaf:
            keyed.append((key, node))
            pending += [(2 * key, node.left), (2 * key + 1, node.right)]
    return sorted(keyed, key=lambda item: item[0])


def _raw(ctx, vector):
    """The signed integer plaintexts of an encrypted vector."""
    return ctx.threshold.joint_decrypt_batch([v.ciphertext for v in vector])


def _record_splits(runtime) -> dict:
    """Every split ``runtime`` stores from a ``node-split`` entry, by the
    parent's heap key: the parent's, the left and the right child's
    ``[alpha, gammas]`` as stored (the store pops the parent)."""
    stored = {}
    real = runtime.store_split

    def store_split(body):
        key = body[0]
        parent = runtime.nodes.get(key)
        real(body)
        if body[2]:
            stored[key] = (parent, runtime.nodes[2 * key], runtime.nodes[2 * key + 1])

    runtime.store_split = store_split
    return stored


def _split_by_children(model, stored, max_depth):
    """Internal nodes' heap keys: those whose children got mask vectors,
    after checking that they are exactly the splits the store recorded
    (leaves at the depth limit store none)."""
    keyed = _node_keys(model)
    built = [key for key, node in keyed if node.depth + 1 < max_depth]
    assert built and len(built) < len(keyed), (
        "the fit splits above and at the last level"
    )
    assert sorted(stored) == built
    return built


def test_children_masks_partition_the_parent():
    """Eq. 10 builds [α_l]; [α_r] = [α] ⊖ [α_l].  Both children are exact
    0/1 vectors that add up to the parent's, element by element — where
    the children read them; leaves at the depth limit get none."""
    from repro.data import make_classification

    X, y = make_classification(30, 4, n_classes=2, seed=1)
    ctx = make_context(
        X, y, "classification", protocol="enhanced",
        params=TreeParams(max_depth=2, max_splits=2),
    )
    stored = _record_splits(ctx.runtimes[ctx.super_client])
    model = TreeTrainer(ctx).fit()
    for key in _split_by_children(model, stored, max_depth=2):
        parent, left, right = (_raw(ctx, node[0]) for node in stored[key])
        assert set(parent) | set(left) | set(right) <= {0, 1}
        assert [a + b for a, b in zip(left, right)] == parent
        assert 0 < sum(left) < sum(parent)


def test_riding_gammas_partition_with_the_mask():
    """GBDT round 2 (encrypted labels): the [γ_k] ride with [α] through
    Eq. 10 and the subtraction, at one exponent, exact to the last bit."""
    from repro.core.ensemble import GBDTTrainer
    from repro.data import make_regression

    X, y = make_regression(20, 4, noise=0.05, seed=8)
    params = TreeParams(max_depth=2, max_splits=2)
    ctx = make_context(
        X, y, "regression", protocol="enhanced", params=params, seed=5
    )
    stored = _record_splits(ctx.runtimes[ctx.super_client])
    gbdt = GBDTTrainer(ctx, n_rounds=2, learning_rate=0.8)
    real_fit = TreeTrainer.fit

    def fit(trainer, *args, **kwargs):
        stored.clear()  # keep the last tree's splits
        return real_fit(trainer, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TreeTrainer, "fit", fit)
        gbdt.fit()
    for key in _split_by_children(gbdt.models[-1], stored, max_depth=2):
        alphas = [_raw(ctx, node[0]) for node in stored[key]]
        assert set().union(*alphas) <= {0, 1}
        assert [a + b for a, b in zip(alphas[1], alphas[2])] == alphas[0]
        for which in range(2):
            parent, left, right = (node[1][which] for node in stored[key])
            assert {v.exponent for v in parent + left + right} == {
                parent[0].exponent
            }
            raw_parent, raw_left, raw_right = (
                _raw(ctx, g) for g in (parent, left, right)
            )
            assert [a + b for a, b in zip(raw_left, raw_right)] == raw_parent
            # Rows outside the left child carry an exact zero there.
            assert all(
                g == 0 for g, a in zip(raw_left, alphas[1]) if a == 0
            )


def _check_threshold_decryptions_by_formula(protocol):
    """Cd of a fit at a 512-bit key, m = 3: per tree level
    ⌈(V₀ + Σ S·(1 + V)) / slots⌉ over the level's converted nodes, a slot
    being bitlen(W) + κ + bitlen(m) bits for W = Σ root weights, plus
    eleven Eq. 10 elements per decrypted ciphertext.  The root's own
    statistics are its V₀ = c − 1 class totals (its count is the public
    W), in level 0's batch; a converted node converts the left child's n_l
    and c − 1 class counts per split (plus, under the enhanced protocol,
    Eq. 10 for one child where the children are built: not at the last
    level); a leaf converts nothing, and of two open siblings only the
    left one converts (the right one's rows are the parent's minus the
    left's).  Here the root and one of its two internal children convert:
    ⌈(1 + 16)/10⌉ + ⌈16/10⌉ = 4, plus ⌈30/11⌉ = 3 for Eq. 10 under the
    enhanced protocol (was ⌈32/10⌉ = 4 at depth 1, with both children)."""
    from repro.data import make_classification

    n, classes = 30, 2
    X, y = make_classification(n, 4, n_classes=classes, seed=1)
    params = TreeParams(max_depth=2, max_splits=2)
    ctx = make_context(
        X, y, "classification", keysize=512, protocol=protocol, params=params
    )
    model = TreeTrainer(ctx).fit()
    splits = len(ctx.split_identifiers([list(range(c.n_features)) for c in ctx.clients]))
    slot = n.bit_length() + ctx.engine.kappa + ctx.n_clients.bit_length()
    per_stat, per_alpha = 511 // slot, 11
    assert per_stat == 10
    converted = converted_per_depth(model)
    assert converted == {0: 1, 1: 1} and splits == 8
    split_stats = sum(
        -(-((classes - 1) * (depth == 0) + count * splits * classes) // per_stat)
        for depth, count in converted.items()
    )
    eq10 = -(-n // per_alpha) if protocol == "enhanced" else 0
    built = sum(
        node.depth + 1 < params.max_depth for node in model.internal_nodes()
    )
    assert model.n_internal == 3 and built == 1
    assert ctx.conversions.threshold_decryptions == split_stats + built * eq10


def test_threshold_decryptions_per_node_by_formula():
    _check_threshold_decryptions_by_formula("enhanced")


def test_threshold_decryptions_per_node_by_formula_basic():
    _check_threshold_decryptions_by_formula("basic")


class _OpeningLog:
    """Every value a party sees in the clear under a mask during a fit:
    the per-value e_j of Algorithm 2 and Eq. 10 (both read their decrypted
    plaintexts through ``SlotLayout.unpack``) and the e of
    ``share_to_cipher``'s opening, each with the β it was masked for."""

    def __init__(self, monkeypatch, ctx):
        from repro.federation import federation as federation_module
        from repro.crypto.packing import SlotLayout

        self.ctx = ctx
        self.entries: list[tuple[str, int, int]] = []  # (flow, e + 2^β, β)
        real_unpack = SlotLayout.unpack
        real_to_cipher = federation_module.share_to_cipher
        real_open_many = ctx.engine.open_many
        converting = []

        def unpack(layout, plaintexts, magnitude_bits, public_key):
            values = real_unpack(layout, plaintexts, magnitude_bits, public_key)
            for value, beta in zip(values, magnitude_bits):
                self.entries.append(("unpack", value + (1 << beta), beta))
            return values

        def open_many(values):
            opened = real_open_many(values)
            if converting:
                self.entries += [("to-cipher", e, ctx.fx.k) for e in opened]
            return opened

        def to_cipher(*args, **kwargs):
            converting.append(True)
            try:
                return real_to_cipher(*args, **kwargs)
            finally:
                converting.pop()

        monkeypatch.setattr(SlotLayout, "unpack", unpack)
        monkeypatch.setattr(ctx.engine, "open_many", open_many)
        monkeypatch.setattr(federation_module, "share_to_cipher", to_cipher)

    def assert_all_below_their_mask_bound(self):
        ctx = self.ctx
        carry = ctx.n_clients.bit_length() + 1
        for flow, shifted, beta in self.entries:
            assert 0 <= shifted < 1 << (beta + ctx.engine.kappa + carry), (
                f"{flow}: a {shifted.bit_length()}-bit opening under "
                f"{beta + ctx.engine.kappa}-bit masks"
            )
        assert {flow for flow, _, _ in self.entries} == {"unpack", "to-cipher"}


def test_no_opening_is_wider_than_its_mask_classification(monkeypatch):
    """Depth 2, so the depth-1 nodes convert what Eq. 10 produced: with a
    q-wrap in the plaintext those openings were 127-129 bits under 80-bit
    masks for the rows of a non-empty indicator row, and told them apart."""
    from repro.data import make_classification

    X, y = make_classification(12, 4, n_classes=2, seed=7173)
    params = TreeParams(max_depth=2, max_splits=2)
    ctx = make_context(
        X, y, "classification", protocol="enhanced", params=params
    )
    log = _OpeningLog(monkeypatch, ctx)
    model = TreeTrainer(ctx).fit()
    assert model.max_depth == 2
    log.assert_all_below_their_mask_bound()
    assert min(beta for _, _, beta in log.entries) == 1  # Eq. 10 on [α]


def test_no_opening_is_wider_than_its_mask_gbdt_round_two(monkeypatch):
    """Round 2's riding [γ] sits at exponent -2F: Eq. 10 masks it with
    fx.k + F + κ bits (a flat fx.k + κ left the top F bits bare)."""
    from repro.core.ensemble import GBDTTrainer
    from repro.data import make_regression

    X, y = make_regression(16, 4, noise=0.05, seed=8)
    params = TreeParams(max_depth=2, max_splits=2)
    ctx = make_context(
        X, y, "regression", protocol="enhanced", params=params, seed=5
    )
    log = _OpeningLog(monkeypatch, ctx)
    gbdt = GBDTTrainer(ctx, n_rounds=2, learning_rate=0.8).fit()
    assert gbdt.models[-1].n_internal >= 1
    log.assert_all_below_their_mask_bound()
    assert max(beta for _, _, beta in log.entries) == ctx.fx.k + ctx.fx.f


def test_an_out_of_bound_element_raises_at_the_eq10_opening():
    """A declared 0/1 element that is not: the opening is refused."""
    from repro.crypto.packing import PackingError
    from repro.mpc.conversion import MaskBoundError

    X = np.arange(24, dtype=float).reshape(6, 4)
    y = np.array([0, 1, 0, 1, 0, 1])
    ctx = make_context(X, y, "classification", protocol="enhanced")
    trainer = TreeTrainer(ctx)
    ones = ctx.encrypt_indicator(np.ones(6, dtype=np.int64))
    wide = ctx.batch.encrypt_vector([1 << 60] * 6, exponent=0)
    with pytest.raises((MaskBoundError, PackingError)):
        trainer._masked_elementwise_product([], ones, [wide], bound_bits=1)
    ctx.bus.assert_drained()
    gamma = ctx.batch.encrypt_vector([1 << 100] * 6, exponent=-ctx.fx.f)
    with pytest.raises(MaskBoundError):
        trainer._masked_elementwise_product([], ones, [gamma])
    ctx.bus.assert_drained()
