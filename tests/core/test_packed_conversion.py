"""Slot-packed Algorithm 2 against the one-ciphertext-per-value path.

Declaring a bound may change how many ciphertexts are decrypted, never
what the shares open to — on the reactive bus flow and on the bus-less
central path, with plain and with authenticated (SPDZ-MAC) sharing.
"""

import pytest

from repro.analysis import opcount
from repro.crypto import PaillierEncoder
from repro.crypto.packing import PackingError
from repro.mpc import FixedPointOps, MPCEngine
from repro.mpc.conversion import ConversionCounters, ciphers_to_shares
from repro.network.wire import Request

from tests.core.conftest import converted_per_depth, make_context

#: Statistics as the trainer produces them: counts at exponent 0, label
#: sums at -F, a product at -2F (truncated after conversion), both signs.
PLAINS = [37.0, -12.0, 0.0, 3.25, -0.5, 1023.0, 2.0, -7.75, 40.0]


def _statistics(encoder):
    values = [encoder.encrypt(int(v)) for v in PLAINS[:3]]
    values += [encoder.encrypt(v) for v in PLAINS[3:8]]
    values.append(encoder.encrypt(16.0) * 2.5)
    assert values[-1].exponent == -2 * encoder.frac_bits
    return values


@pytest.mark.parametrize("authenticated", [False, True])
def test_declared_bounds_open_to_the_same_values(
    small_classification, authenticated
):
    X, y = small_classification
    ctx = make_context(X, y, "classification", authenticated_mpc=authenticated)
    values = _statistics(ctx.encoder)
    slots = (ctx.threshold.public_key.n.bit_length() - 1) // (
        ctx.fx.k + ctx.engine.kappa + ctx.n_clients.bit_length()
    )
    assert slots == 3  # 256-bit test key

    def convert(bound_bits):
        before = ctx.conversions.snapshot()
        bytes_before = ctx.bus.snapshot()["bytes_measured"]
        with opcount.counting() as ops:
            shares = ctx.to_shares(values, bound_bits=bound_bits)
        after = ctx.conversions.snapshot()
        ctx.bus.assert_drained()
        return (
            ctx.fx.open(shares),
            {key: after[key] - before[key] for key in after},
            ops["cd"],
            ctx.bus.snapshot()["bytes_measured"] - bytes_before,
        )

    single, single_counts, single_cd, single_bytes = convert(None)
    packed, packed_counts, packed_cd, packed_bytes = convert(ctx.fx.k)
    # Exact for the values that need no truncation; the -2F product goes
    # through probabilistic truncation on both paths (one ulp each way).
    assert packed[:8] == single[:8] == PLAINS[:8]
    assert packed[8] == pytest.approx(single[8], abs=2.0**-15)
    # Cd counts packed ciphertexts (3 + 3 + 2 slots of 82 bits; the -2F
    # value's 98-bit slot opens a fourth); to_shares still counts values.
    assert single_counts["threshold_decryptions"] == single_cd == len(values)
    assert packed_counts["threshold_decryptions"] == packed_cd == 4
    assert packed_counts["to_shares"] == single_counts["to_shares"] == len(values)
    assert packed_bytes < single_bytes


@pytest.mark.parametrize("authenticated", [False, True])
def test_central_path_packs_the_same_way(threshold3, authenticated):
    fx = FixedPointOps(MPCEngine(3, authenticated=authenticated, seed=11))
    values = _statistics(PaillierEncoder(threshold3.public_key))
    single_counters, packed_counters = ConversionCounters(), ConversionCounters()
    single = ciphers_to_shares(values, threshold3, fx, single_counters)
    packed = ciphers_to_shares(
        values, threshold3, fx, packed_counters, bound_bits=fx.k
    )
    assert fx.open(packed[:8]) == PLAINS[:8]
    assert fx.open(single[:8]) == PLAINS[:8]
    assert fx.open(packed[8:9]) == [pytest.approx(40.0, abs=2.0**-15)]
    assert single_counters.threshold_decryptions == 9
    assert packed_counters.threshold_decryptions == 4
    assert packed_counters.to_shares == 9


def test_value_beyond_its_declared_bound_is_caught_at_the_top_slot(threshold3):
    """A false declaration is the caller's bug; the one place it is visible
    — bits above a ciphertext's top slot — raises instead of opening."""
    fx = FixedPointOps(MPCEngine(3, seed=5))
    encoder = PaillierEncoder(threshold3.public_key)
    liar = encoder.encrypt(2.0**70, exponent=-fx.f)
    with pytest.raises(PackingError, match="overflowed"):
        ciphers_to_shares([encoder.encrypt(1.0), liar], threshold3, fx, bound_bits=fx.k)


@pytest.mark.parametrize("op", ["convert-masks", "convert-masks-packed"])
@pytest.mark.parametrize("widths", [[80, 10**9], [0], [80, -1]])
def test_hostile_mask_widths_are_refused_before_sampling(
    small_classification, monkeypatch, op, widths
):
    """ROADMAP 5b: a peer-chosen width must not size an allocation."""
    import secrets

    X, y = small_classification
    ctx = make_context(X, y, "classification")

    def no_sampling(bits):
        raise AssertionError(f"sampled a {bits}-bit mask from a refused request")

    monkeypatch.setattr(secrets, "randbits", no_sampling)
    with pytest.raises(PackingError):
        ctx.runtimes[1].handle(0, "mpc-convert", Request(op, widths))
    ctx.bus.assert_drained()


def _party_with_a_root(ctx, party):
    """Party ``party``'s runtime with a root node stored, and the number
    of split statistics she holds for it (n_l and one class count per
    candidate split)."""
    runtime = ctx.runtimes[party]
    alpha = runtime.engine.encrypt_vector([1] * ctx.n_samples, exponent=0)
    runtime.store_node(1, alpha, [alpha])
    client = ctx.clients[party]
    count = 2 * sum(client.n_splits(f) for f in range(client.n_features))
    return runtime, count


@pytest.mark.parametrize(
    "case", ["overrun", "negative-start", "starts-short", "flag", "width-0",
             "width-negative", "width-over-capacity", "width-huge",
             "total-huge"],
)
def test_hostile_split_stats_layout_is_refused_before_anything_is_computed(
    small_classification, monkeypatch, case
):
    """A peer's ``split-stats`` header must not size, sample or encrypt
    anything: a segment that overruns the batch, a width that is not
    positive or does not fit the plaintext space, or a total whose reply
    (a mask ciphertext per group, a share per value) would not fit one
    frame, raises first."""
    import secrets

    X, y = small_classification
    ctx = make_context(X, y, "classification")
    runtime, count = _party_with_a_root(ctx, 1)
    starts = [0, 1, 1 + count]
    layout = {
        "overrun": [1, 48, count, *starts],
        "negative-start": [1, 48, 10 * count, 0, -1, count],
        "starts-short": [1, 48, 10 * count, 0, 1],
        "flag": [2, 48, 10 * count, *starts],
        "width-0": [1, 0, 10 * count, *starts],
        "width-negative": [1, -3, 10 * count, *starts],
        "width-over-capacity": [1, 254, 10 * count, *starts],
        "width-huge": [1, 10**9, 10 * count, *starts],
        "total-huge": [1, 48, 10**9, *starts],
    }[case]

    def refuse(*args, **kwargs):
        raise AssertionError("computed, sampled or encrypted for a refused header")

    monkeypatch.setattr(secrets, "randbits", refuse)
    for name in ("batch_dot_products", "mask_vector", "encrypt_ciphertexts"):
        monkeypatch.setattr(runtime.engine, name, refuse)
    monkeypatch.setattr(runtime.engine.pool, "take_many", refuse)
    everything = [list(range(c.n_features)) for c in ctx.clients]
    with pytest.raises(ValueError, match="layout|slot"):
        runtime.handle(
            0, "split-stats", Request("split-stats", [layout, [], [], 1, everything])
        )
    ctx.bus.assert_drained()


def test_a_reply_of_the_wrong_length_names_its_sender(
    small_classification, monkeypatch
):
    """Every party's reply — one ciphertext per group of the level, one
    share per value — is checked before anything is multiplied, by the
    trainer and, for the groups, by every party they reach: one group too
    many, or one share too many, is refused by name."""
    from repro.core import TreeTrainer
    from repro.network.wire import ShareVector

    X, y = small_classification
    for part in ("groups", "shares"):
        ctx = make_context(X, y, "classification")
        honest = ctx.runtimes[2].split_statistics

        def one_too_many(*args, part=part, honest=honest):
            groups, shares = honest(*args)
            if part == "groups":
                return [groups + groups[:1], shares]
            return [groups, ShareVector(shares.values + shares.values[:1])]

        monkeypatch.setattr(ctx.runtimes[2], "split_statistics", one_too_many)
        with pytest.raises(ValueError, match="from party 2"):
            TreeTrainer(ctx).fit()


def test_trainer_declares_a_bound_only_where_it_is_true(
    small_classification, small_regression
):
    """Plaintext labels under either protocol: a class count is a sum of
    mask entries, at most the root weight sum W, so it declares bitlen(W)
    at exponent 0; a regression label sum declares fx.k (the enhanced [α]
    is exact).  A riding encrypted-label [γ] has no written-down width: no
    declaration, one ciphertext per value.  A basic classification fit
    decrypts, per level, ⌈(V₀ + Σ S·(1 + V)) / slots⌉ ciphertexts over the
    level's converted nodes (the root, then one of each pair of open
    siblings: the right one's rows are the parent's minus the left's),
    V₀ = c − 1 (the root's label totals) at level 0 and 0 below, with
    slots = ⌊(|n| − 1) / (bitlen(W) + κ + bitlen(m))⌋: here
    ⌈(1 + 2·S)/5⌉ + ⌈2·S/5⌉ = 4 + 4 = 8 at S = 8 (was 4 + ⌈4·S/5⌉ = 11,
    both depth-1 nodes converting)."""
    from repro.core import TreeTrainer
    from repro.core.labels import EncryptedLabelProvider
    from repro.tree import TreeParams

    X, y = small_regression
    basic = make_context(X, y, "regression")
    weight_sum = len(y)
    assert TreeTrainer(basic)._stat_bound(weight_sum) == basic.fx.k
    gamma = basic.batch.encrypt_vector([0.0] * len(y))
    riding = EncryptedLabelProvider(basic, gamma, gamma)
    assert TreeTrainer(basic, riding)._stat_bound(weight_sum) is None
    enhanced = make_context(
        X, y, "regression", protocol="enhanced",
        params=TreeParams(max_depth=1, max_splits=2),
    )
    assert TreeTrainer(enhanced)._stat_bound(weight_sum) == enhanced.fx.k
    assert TreeTrainer(enhanced, riding)._stat_bound(weight_sum) is None

    X, y = small_classification
    ctx = make_context(X, y, "classification")
    trainer = TreeTrainer(ctx)
    before = ctx.conversions.snapshot()["threshold_decryptions"]
    model = trainer.fit()
    decrypted = ctx.conversions.snapshot()["threshold_decryptions"] - before
    assert trainer._stat_bound_bits == len(y).bit_length() == 6
    bagged = TreeTrainer(ctx)
    bagged.fit(initial_mask=[2] * len(y))
    assert bagged._stat_bound_bits == (2 * len(y)).bit_length()
    slot = len(y).bit_length() + ctx.engine.kappa + ctx.n_clients.bit_length()
    slots = (ctx.threshold.public_key.n.bit_length() - 1) // slot
    assert slots == 5  # 48-bit slots, 256-bit test key
    splits = len(ctx.split_identifiers([list(range(c.n_features)) for c in ctx.clients]))
    stride = model.n_classes  # n_l and c − 1 class counts
    per_level = sum(
        -(-((model.n_classes - 1) * (depth == 0) + count * splits * stride) // slots)
        for depth, count in converted_per_depth(model).items()
    )
    assert splits == 8 and converted_per_depth(model) == {0: 1, 1: 1}
    assert decrypted == per_level == 8
