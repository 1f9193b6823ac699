from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.primes import is_probable_prime, random_prime, random_prime_pair

KNOWN_PRIMES = [2, 3, 5, 7, 11, 101, 257, 7919, 104729, 2**31 - 1, 2**61 - 1]
KNOWN_COMPOSITES = [0, 1, 4, 9, 100, 561, 1105, 6601, 2**31, 7919 * 104729]
# Carmichael numbers (561, 1105, 6601) specifically stress Fermat-style tests.


def test_known_primes_accepted():
    for p in KNOWN_PRIMES:
        assert is_probable_prime(p), p


def test_known_composites_rejected():
    for c in KNOWN_COMPOSITES:
        assert not is_probable_prime(c), c


def test_negative_and_small():
    assert not is_probable_prime(-7)
    assert not is_probable_prime(1)


@given(st.integers(min_value=2, max_value=100_000))
def test_matches_trial_division(n):
    by_trial = n >= 2 and all(n % k for k in range(2, int(n**0.5) + 1))
    assert is_probable_prime(n) == by_trial


def test_random_prime_bit_length():
    for bits in (16, 32, 64, 128):
        p = random_prime(bits)
        assert p.bit_length() == bits
        assert is_probable_prime(p)


def test_random_prime_rejects_tiny():
    import pytest

    with pytest.raises(ValueError):
        random_prime(1)


@settings(deadline=None)
@given(st.integers(min_value=32, max_value=96).filter(lambda b: b % 2 == 0))
def test_prime_pair_distinct(bits):
    p, q = random_prime_pair(bits)
    assert p != q
    assert p.bit_length() == bits // 2
    assert q.bit_length() == bits // 2
    # The DJN obfuscator's key condition (see repro.crypto.paillier).
    assert p % 4 == q % 4 == 3
    assert is_probable_prime(p) and is_probable_prime(q)
