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

from tests.core.conftest import make_context

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
            [ctx.fx.open(s) for s in shares],
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
    assert [fx.open(s) for s in packed[:8]] == PLAINS[:8]
    assert [fx.open(s) for s in single[:8]] == PLAINS[:8]
    assert fx.open(packed[8]) == pytest.approx(40.0, abs=2.0**-15)
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


def test_trainer_declares_a_bound_only_where_it_is_true(small_regression):
    """Plaintext labels under either protocol: sums of 0/1 masks times
    labels, fx.k bits (the enhanced [α] is exact).  A riding
    encrypted-label [γ] has no written-down width: no declaration, one
    ciphertext per value."""
    from repro.core import TreeTrainer
    from repro.core.labels import EncryptedLabelProvider
    from repro.tree import TreeParams

    X, y = small_regression
    basic = make_context(X, y, "regression")
    assert TreeTrainer(basic)._stat_bound_bits == basic.fx.k
    gamma = basic.batch.encrypt_vector([0.0] * len(y))
    riding = EncryptedLabelProvider(basic, gamma, gamma)
    assert TreeTrainer(basic, riding)._stat_bound_bits is None
    enhanced = make_context(
        X, y, "regression", protocol="enhanced",
        params=TreeParams(max_depth=1, max_splits=2),
    )
    assert TreeTrainer(enhanced)._stat_bound_bits == enhanced.fx.k
    assert TreeTrainer(enhanced, riding)._stat_bound_bits is None
    before = basic.conversions.snapshot()
    TreeTrainer(basic).fit()
    after = basic.conversions.snapshot()
    converted = after["to_shares"] - before["to_shares"]
    decrypted = after["threshold_decryptions"] - before["threshold_decryptions"]
    assert decrypted < converted / 2
