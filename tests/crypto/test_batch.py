"""Tests for the batched Paillier engine.

CRT decryption equals classic decryption, vector round-trips, batched dot
products equal the serial primitive, the obfuscator pool never reuses a
mask, and the Ce/Cd op-count tallies equal the value-at-a-time operators'.
"""

import secrets

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import opcount
from repro.crypto import PaillierEncoder, generate_keypair
from repro.crypto.batch import BatchCryptoEngine, ObfuscatorPool
from repro.crypto.encoding import encrypted_dot_product
from repro.crypto.paillier import dot_product

VALUES = st.integers(min_value=-(2**60), max_value=2**60)


@pytest.fixture(scope="module")
def engine3(threshold3):
    return BatchCryptoEngine(threshold3.public_key, threshold=threshold3)


# -- CRT decryption ------------------------------------------------------


def test_private_key_retains_factors(keypair):
    _, sk = keypair
    assert sk.p is not None and sk.q is not None
    assert sk.p * sk.q == sk.public_key.n


@settings(deadline=None, max_examples=50)
@given(x=VALUES)
def test_crt_decrypt_equals_classic(keypair, x):
    pk, sk = keypair
    ct = pk.encrypt(x)
    assert sk.raw_decrypt(ct.raw) == sk.raw_decrypt_classic(ct.raw)
    assert sk.decrypt(ct) == x


def test_crt_decrypt_random_raws(keypair):
    """Equality on arbitrary group elements, not just valid encryptions."""
    pk, sk = keypair
    for _ in range(20):
        raw = secrets.randbelow(pk.n_squared - 1) + 1
        assert sk.raw_decrypt(raw) == sk.raw_decrypt_classic(raw)


def test_key_without_factors_still_decrypts(keypair):
    from repro.crypto.paillier import PaillierPrivateKey

    pk, sk = keypair
    classic = PaillierPrivateKey(sk.public_key, sk.lam, sk.mu)
    assert classic._crt is None
    ct = pk.encrypt(12345)
    assert classic.decrypt(ct) == 12345


def test_mismatched_factors_rejected(keypair):
    from repro.crypto.paillier import PaillierPrivateKey

    _, sk = keypair
    with pytest.raises(ValueError):
        PaillierPrivateKey(sk.public_key, sk.lam, sk.mu, p=sk.p, q=sk.p)
    with pytest.raises(ValueError):
        PaillierPrivateKey(sk.public_key, sk.lam, sk.mu, p=sk.p)


# -- vector encrypt / decrypt --------------------------------------------


def test_vector_roundtrip_private_key():
    pk, sk = generate_keypair(256)
    engine = BatchCryptoEngine(pk)
    values = [0, 1, -1, 3.25, -12345.5, 2**30]
    numbers = engine.encrypt_vector(values)
    decrypted = [sk.decrypt(n.ciphertext) * 2.0**n.exponent for n in numbers]
    assert decrypted == [float(v) for v in values]


def test_vector_roundtrip_threshold(threshold3, engine3):
    values = [0.5, -2.0, 7, -1]
    numbers = engine3.encrypt_vector(values)
    assert engine3.joint_decrypt_vector(numbers) == [float(v) for v in values]


def test_encrypt_vector_is_probabilistic(engine3):
    a, b = engine3.encrypt_vector([5, 5])
    assert a.ciphertext.raw != b.ciphertext.raw


def test_encrypt_vector_matches_serial_encrypt(threshold3, engine3):
    serial = PaillierEncoder(threshold3.public_key).encrypt(9.75)
    batched = engine3.encrypt_vector([9.75])[0]
    assert batched.exponent == serial.exponent
    assert threshold3.joint_decrypt(batched.ciphertext) == threshold3.joint_decrypt(
        serial.ciphertext
    )


def test_integer_vector_encrypts_at_exponent_zero(engine3):
    numbers = engine3.encrypt_vector([1, 0, 1], exponent=0)
    assert all(number.exponent == 0 for number in numbers)


# -- batched homomorphic operators ---------------------------------------


def test_sum_ciphertexts_equals_serial_fold(threshold3, engine3):
    values = [1.5, -2.25, 3.0, 10.0, -0.5]
    numbers = engine3.encrypt_vector(values)
    total = engine3.sum_ciphertexts(numbers)
    serial = numbers[0]
    for number in numbers[1:]:
        serial = serial + number
    assert total.exponent == serial.exponent
    assert threshold3.joint_decrypt(total.ciphertext) == threshold3.joint_decrypt(
        serial.ciphertext
    )


def test_sum_ciphertexts_rejects_empty(engine3):
    with pytest.raises(ValueError):
        engine3.sum_ciphertexts([])


@settings(deadline=None, max_examples=10)
@given(
    xs=st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=6),
    data=st.data(),
)
def test_batch_dot_products_equal_serial(keypair, xs, data):
    pk, sk = keypair
    coeffs = data.draw(
        st.lists(
            st.integers(min_value=-20, max_value=20),
            min_size=len(xs),
            max_size=len(xs),
        )
    )
    engine = BatchCryptoEngine(pk)
    numbers = engine.encrypt_vector(xs, exponent=0)
    serial_ct = dot_product(coeffs, [v.ciphertext for v in numbers])
    (batched,) = engine.batch_dot_products([(coeffs, numbers)])
    assert sk.decrypt(batched.ciphertext) == sk.decrypt(serial_ct)
    assert sk.decrypt(batched.ciphertext) == sum(
        a * x for a, x in zip(coeffs, xs)
    )


def test_batch_dot_products_validation(engine3):
    numbers = engine3.encrypt_vector([1, 2], exponent=0)
    with pytest.raises(ValueError):
        engine3.batch_dot_products([([1], numbers)])
    with pytest.raises(ValueError):
        engine3.batch_dot_products([([], [])])
    mixed = [numbers[0], engine3.encrypt_vector([1.0])[0]]
    with pytest.raises(ValueError):
        engine3.batch_dot_products([([1, 1], mixed)])


def test_scale_vector_matches_serial(threshold3, engine3):
    numbers = engine3.encrypt_vector([1, 0, 1, 1], exponent=0)
    scalars = [3, 7, 0, -2]
    batched = engine3.scale_vector(numbers, scalars)
    serial = [v * s for v, s in zip(numbers, scalars)]
    for b, s in zip(batched, serial):
        assert b.exponent == s.exponent
        assert threshold3.joint_decrypt(b.ciphertext) == threshold3.joint_decrypt(
            s.ciphertext
        )


def test_subtract_vectors_equals_serial(threshold3, engine3):
    """One batch inversion gives the same raws as per-element ``a - b``,
    at one Ce per element, and refuses what ``a - b`` would align."""
    minuends = engine3.encrypt_vector([1.5, -2.0, 0.0, 7.25, 3.0])
    subtrahends = engine3.encrypt_vector([0.5, 4.0, -1.0, 7.25, 0.0])
    with opcount.counting() as serial_ops:
        serial = [a - b for a, b in zip(minuends, subtrahends)]
    with opcount.counting() as batched_ops:
        batched = engine3.subtract_vectors(minuends, subtrahends)
    assert [v.ciphertext.raw for v in batched] == [v.ciphertext.raw for v in serial]
    assert [v.exponent for v in batched] == [v.exponent for v in serial]
    assert serial_ops == batched_ops and batched_ops["ce"] == len(minuends)
    decrypted = engine3.joint_decrypt_vector(batched)
    assert decrypted == [1.0, -6.0, 1.0, 0.0, 3.0]
    assert engine3.subtract_vectors([], []) == []
    with pytest.raises(ValueError, match="length"):
        engine3.subtract_vectors(minuends, subtrahends[:-1])
    integers = engine3.encrypt_vector([1, 2, 3, 4, 5], exponent=0)
    with pytest.raises(ValueError, match="exponent"):
        engine3.subtract_vectors(minuends, integers)


def test_mask_vector_masks_and_rerandomises(threshold3, engine3):
    numbers = engine3.encrypt_vector([4, 5, 6], exponent=0)
    masked = engine3.mask_vector(numbers, [1, 0, 1])
    assert [threshold3.joint_decrypt(v.ciphertext) for v in masked] == [4, 0, 6]
    # Re-randomised: kept slots must not be linkable to their inputs.
    assert all(
        m.ciphertext.raw != v.ciphertext.raw for m, v in zip(masked, numbers)
    )
    with pytest.raises(ValueError):
        engine3.mask_vector(numbers, [1, 2, 0])


def test_joint_decrypt_batch_fast_equals_simulated(threshold3):
    """Combining the m share vectors (the single-process "simulated"
    joint decryption) recovers what the dealer's own fast CRT key decrypts
    (d = 1 mod n, d = 0 mod lambda) — the key the package never reads."""
    pk = threshold3.public_key
    cts = [threshold3.encrypt(x) for x in (-5, 0, 123456)]
    reference = [
        pk.to_signed(threshold3._private_key.raw_decrypt(ct.raw)) for ct in cts
    ]
    assert threshold3.joint_decrypt_batch(cts) == reference == [-5, 0, 123456]


def test_partial_decrypt_batch(threshold3):
    from repro.crypto.threshold import combine_partial_decryptions

    cts = [threshold3.encrypt(x) for x in (11, -22)]
    per_share = [share.partial_decrypt_batch(cts) for share in threshold3.shares]
    for index, expected in enumerate((11, -22)):
        partials = [batch[index] for batch in per_share]
        assert (
            combine_partial_decryptions(threshold3.public_key, partials, 3)
            == expected
        )


# -- obfuscator pool ------------------------------------------------------


def test_pool_never_reuses_a_mask(keypair):
    pk, _ = keypair
    pool = ObfuscatorPool(pk)
    masks = [pool.take() for _ in range(50)]
    assert len(set(masks)) == len(masks)


def test_pool_take_many_drains_and_refills(keypair):
    pk, _ = keypair
    pool = ObfuscatorPool(pk)
    pool.precompute(8)
    first = pool.take_many(20)
    second = pool.take_many(5)
    assert len(set(first + second)) == 25


def test_pool_makes_exactly_what_is_taken(keypair):
    """A take generates its shortfall and nothing more: the pool is empty
    after it, whatever the count and whatever a warm-up left behind."""
    pk, _ = keypair
    pool = ObfuscatorPool(pk)
    pool.take_many(7)
    pool.take()
    assert (pool.generated, len(pool)) == (8, 0)
    pool.precompute(5)
    pool.take_many(3)
    assert (pool.generated, len(pool)) == (13, 2)
    pool.take_many(6)
    assert (pool.generated, len(pool)) == (17, 0)
    pool.precompute(0)
    pool.precompute(-4)
    assert pool.take_many(0) == [] and pool.generated == 17


# -- op-count parity ------------------------------------------------------


def _serial_workload(pk, threshold):
    """The seed's serial idiom for encrypt + sum + dot + decrypt."""
    encoder = PaillierEncoder(pk)
    numbers = [encoder.encrypt(v) for v in (1, 0, 1, 1)]
    total = numbers[0]
    for number in numbers[1:]:
        total = total + number
    dot = encrypted_dot_product([1, 2, 3, 4], numbers)
    return [
        threshold.joint_decrypt(total.ciphertext),
        threshold.joint_decrypt(dot.ciphertext),
    ]


def _batched_workload(pk, threshold):
    engine = BatchCryptoEngine(pk, threshold=threshold)
    numbers = engine.encrypt_vector([1, 0, 1, 1])
    total = engine.sum_ciphertexts(numbers)
    (dot,) = engine.batch_dot_products([([1, 2, 3, 4], numbers)])
    return threshold.joint_decrypt_batch([total.ciphertext, dot.ciphertext])


def test_opcount_parity_serial_vs_batched(threshold3):
    pk = threshold3.public_key
    with opcount.counting() as serial_ops:
        serial_out = _serial_workload(pk, threshold3)
    with opcount.counting() as batched_ops:
        batched_out = _batched_workload(pk, threshold3)
    assert serial_out == batched_out
    assert serial_ops == batched_ops
    assert batched_ops["ce"] > 0 and batched_ops["cd"] == 2


def test_sum_ciphertexts_opcount_parity_mixed_exponents(threshold3, engine3):
    """The Ce tally must replay the serial fold even for mixed exponents."""
    for exps in ([0, -16], [0, 0, -16], [-16, 0, 0], [0, -8, -16]):
        numbers = [
            engine3.encrypt_vector([3], exponent=e)[0] for e in exps
        ]
        with opcount.counting() as serial_ops:
            serial = numbers[0]
            for number in numbers[1:]:
                serial = serial + number
        with opcount.counting() as batched_ops:
            total = engine3.sum_ciphertexts(numbers)
        assert serial_ops == batched_ops, exps
        assert total.exponent == serial.exponent
        assert threshold3.joint_decrypt(
            total.ciphertext
        ) == threshold3.joint_decrypt(serial.ciphertext)
