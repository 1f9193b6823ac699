"""Probabilistic prime generation for Paillier key generation.

The paper's implementation uses GMP for big-integer arithmetic and libhcs
for the threshold Paillier scheme; both rely on Miller--Rabin probabilistic
primality testing.  This module provides the same substrate on top of
CPython big integers: a Miller--Rabin test with deterministic witness sets
for small inputs, and generators for random primes of a given bit length.
"""

from __future__ import annotations

import random
import secrets

__all__ = [
    "is_probable_prime",
    "random_prime",
    "random_prime_pair",
]

# Small primes used for fast trial division before Miller-Rabin.
_SMALL_PRIMES: tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251,
)

# Below this bound the fixed witness set makes Miller-Rabin deterministic
# (Sorenson & Webster, 2015).
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _miller_rabin_round(n: int, d: int, r: int, witness: int) -> bool:
    """One Miller-Rabin round; True means 'n may be prime'."""
    x = pow(witness, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int, rounds: int = 40) -> bool:
    """Miller-Rabin primality test.

    Deterministic for ``n`` below ~3.3e24, otherwise probabilistic with
    error probability at most ``4**-rounds``.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False

    # Write n - 1 as d * 2^r with d odd.
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1

    if n < _DETERMINISTIC_BOUND:
        witnesses: tuple[int, ...] | list[int] = _DETERMINISTIC_WITNESSES
    else:
        witnesses = [secrets.randbelow(n - 3) + 2 for _ in range(rounds)]
    return all(_miller_rabin_round(n, d, r, w) for w in witnesses)


def random_prime(bits: int, rng=None) -> int:
    """Return a random prime of exactly ``bits`` bits (top bit set).

    ``rng`` may be a seeded :class:`random.Random` (anything with
    ``getrandbits``) for deterministic keygen transcripts — the
    distributed key generation protocol needs every party's candidate
    stream to be reproducible from her seed; the default draws from the
    OS entropy pool.
    """
    if bits < 2:
        raise ValueError(f"bits must be >= 2, got {bits}")
    return _random_prime(bits, rng, low_bits=1)


def _random_prime(bits: int, rng: random.Random | None, low_bits: int) -> int:
    draw = rng.getrandbits if rng is not None else secrets.randbits
    while True:
        # Force the top bit (exact length) and the low bits (1: odd;
        # 3: congruent to 3 mod 4).
        candidate = draw(bits) | (1 << (bits - 1)) | low_bits
        if is_probable_prime(candidate):
            return candidate


def random_prime_pair(bits: int, rng=None) -> tuple[int, int]:
    """Return two distinct primes of ``bits // 2`` bits each, both
    congruent to 3 mod 4.

    The pair is suitable for a Paillier modulus n = p * q of roughly
    ``bits`` bits: p != q guarantees gcd(pq, (p-1)(q-1)) = 1 for primes of
    equal bit length, which standard Paillier requires, and p = q = 3
    (mod 4) is the key condition of the Damgard-Jurik-Nielsen obfuscator
    (:meth:`repro.crypto.paillier.PaillierPublicKey.random_obfuscator`):
    -1 is then a non-residue with Jacobi symbol +1 mod n.
    """
    half = bits // 2
    p = _random_prime(half, rng, low_bits=3)
    while True:
        q = _random_prime(half, rng, low_bits=3)
        if q != p:
            return p, q
