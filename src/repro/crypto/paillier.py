"""The Paillier partially homomorphic cryptosystem (paper §2.1).

Implements the three algorithms (Gen, Enc, Dec) of the Paillier scheme
[Paillier, EUROCRYPT'99] with the standard g = n + 1 simplification
[Damgard-Jurik, PKC'01], plus the three homomorphic properties the paper
uses:

* homomorphic addition        (Eq. 1):  [x1] (+) [x2]  = [x1 + x2]
* homomorphic multiplication  (Eq. 2):  x1  (*) [x2]   = [x1 * x2]
* homomorphic dot product     (Eq. 3):  x  (.) [v]     = [x . v]

Plaintexts live in Z_n.  Signed values are represented in the upper half
of Z_n (two's-complement style); :mod:`repro.crypto.encoding` builds the
fixed-point layer on top.

The implementation intentionally mirrors a production Paillier library
(e.g. python-phe / libhcs used by the paper): ciphertexts are objects
carrying their public key, operations check key compatibility, and
encryption is probabilistic with an explicit obfuscation step so that
deterministic "raw" encryptions (used internally for efficiency) can be
re-randomised before leaving a party.

**The obfuscator.**  A mask is an encryption of zero, i.e. an n-th
residue mod n^2.  Textbook Paillier draws it as r^n for a fresh r in
Z_n^*: a random base under an |n|-bit exponent, ~1.2|n| modular
multiplications (2 ms at 512 bits, which made mask generation 32-73 % of
every traced workload).  This module instead uses the
Damgard-Jurik-Nielsen form [DJN, Int. J. Inf. Secur. 2010, §4.2 — the
scheme HEU and IPCL ship]: one public base

    h_s = (-x^2)^n mod n^2,

and a mask h_s^a for a fresh a of ceil(|n|/2) random bits.  x is derived
from n by hashing (:func:`_mask_seed`), so h_s is a function of the
public key alone: no key field, no keygen message and no wire format
changes, and two processes holding the same n derive the same base.
Because the base is fixed, h_s^a is evaluated by fixed-base windowing
over a table of h_s^(j * 2^(w*i)) — ceil(|n|/2w) multiplications and no
squarings (52 at 512 bits, w = 5; ~0.2 ms).  The table is built on the
first mask (:attr:`PaillierPublicKey._mask_table`, ~6 ms and ~0.3 MB at
512 bits), never at key construction, and never pickled: a worker
process rebuilds its own from n.  Every mask still uses fresh randomness
and is used once; semantic security stays under the DCR assumption for
moduli with p = q = 3 (mod 4).

**What each key generation path guarantees about n.**
:func:`generate_keypair` and
:func:`repro.crypto.threshold.generate_threshold_keypair` draw the
factors from :func:`repro.crypto.primes.random_prime_pair`: distinct,
equal length, p = q = 3 (mod 4).  DJN's further cyclicity condition
gcd(p-1, q-1) = 2 is not enforced.  Factors supplied by the caller
(``p=``, ``q=``; tests) are used as given: masks are correct encryptions
of zero for any n, but the security argument needs the congruence.
Distributed key generation (:mod:`repro.crypto.distkeygen`) builds n
from Blum prime shares by construction.  :meth:`encrypt_with_r` keeps
the r^n form with caller-chosen r (ZKPs, distributed keygen).
"""

from __future__ import annotations

import hashlib
import math
import secrets
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from repro.analysis import opcount
from repro.crypto import primes

__all__ = [
    "PaillierPublicKey",
    "PaillierPrivateKey",
    "Ciphertext",
    "centred",
    "dot_product",
    "generate_keypair",
    "power_product",
]


#: Window width w of the fixed-base mask table: 2^w - 1 entries per w
#: exponent bits.  5 minimises per-mask multiplications (52 at 512 bits)
#: while the table stays ~0.3 MB; 6 saves 9 more for twice the memory.
_MASK_WINDOW_BITS = 5


def _mask_seed(n: int) -> int:
    """The x in Z_n^* behind the mask base, a function of n alone.

    SHAKE-256 of n, 128 bits wider than n so the reduction mod n is
    statistically uniform; the counter only moves for toy moduli where a
    draw can share a factor with n.
    """
    width = (n.bit_length() + 7) // 8
    encoded = n.to_bytes(width, "big")
    counter = 0
    while True:
        digest = hashlib.shake_256(
            b"pivot-djn-mask-base:" + counter.to_bytes(4, "big") + encoded
        ).digest(width + 16)
        x = int.from_bytes(digest, "big") % n
        if math.gcd(x, n) == 1:
            return x
        counter += 1


class PaillierPublicKey:
    """Public key: modulus n, generator g = n + 1."""

    def __init__(self, n: int):
        self.n = n
        self.n_squared = n * n
        self.g = n + 1
        # Values with |x| <= max_int are considered "signed" plaintexts.
        self.max_int = n // 3
        #: Bits of the fresh exponent a in a mask h_s^a: ceil(|n| / 2).
        self.mask_bits = (n.bit_length() + 1) // 2

    def __reduce__(self) -> tuple[type, tuple[int]]:
        # Pickle as n alone: the mask table is derived state (~0.3 MB at
        # 512 bits) that a worker process rebuilds on its own first mask.
        return (PaillierPublicKey, (self.n,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PaillierPublicKey) and self.n == other.n

    def __hash__(self) -> int:
        return hash(("PaillierPublicKey", self.n))

    def __repr__(self) -> str:
        return f"PaillierPublicKey(n~2^{self.n.bit_length()})"

    # -- encryption ------------------------------------------------------

    def raw_encrypt(self, plaintext: int) -> int:
        """Deterministic encryption of ``plaintext`` (no random mask).

        (n+1)^m = 1 + n*m (mod n^2), so raw encryption is a single mulmod.
        The result MUST be obfuscated (multiplied by a fresh
        :meth:`random_obfuscator`) before being revealed to any other party.
        """
        m = plaintext % self.n
        return (1 + self.n * m) % self.n_squared

    @cached_property
    def mask_base(self) -> int:
        """h_s = (-x^2)^n mod n^2, the public base of every mask."""
        x = _mask_seed(self.n)
        return pow(-(x * x) % self.n, self.n, self.n_squared)

    @cached_property
    def _mask_table(self) -> tuple[tuple[int, ...], ...]:
        """Row i, entry j: h_s^(j * 2^(w*i)) mod n^2, built on first use."""
        n_squared = self.n_squared
        base = self.mask_base
        rows = []
        for _ in range(-(-self.mask_bits // _MASK_WINDOW_BITS)):
            row = [1, base]
            for _ in range(2, 1 << _MASK_WINDOW_BITS):
                row.append(row[-1] * base % n_squared)
            rows.append(tuple(row))
            base = row[-1] * base % n_squared  # base^(2^w) opens the next row
        return tuple(rows)

    def _mask_power(self, exponent: int) -> int:
        """h_s^exponent mod n^2 for 0 <= exponent < 2^mask_bits: one table
        entry per non-zero w-bit digit of the exponent."""
        n_squared = self.n_squared
        digit_mask = (1 << _MASK_WINDOW_BITS) - 1
        acc = 1
        for row in self._mask_table:
            digit = exponent & digit_mask
            if digit:
                acc = acc * row[digit] % n_squared
            exponent >>= _MASK_WINDOW_BITS
        return acc

    def random_obfuscator(self) -> int:
        """A fresh encryption of zero: h_s^a mod n^2, a of mask_bits
        random bits (see the module docstring)."""
        return self._mask_power(secrets.randbits(self.mask_bits))

    def invert(self, raw: int) -> int:
        """raw^-1 mod n^2, i.e. [x] -> [-x]: the inverse mod n (an extended
        Euclid at half the width, ~2.4x cheaper than one mod n^2) lifted by
        one Newton step, y(2 - raw*y) = raw^-1 (1 - (1 - raw*y)^2)."""
        y = pow(raw, -1, self.n)
        return y * (2 - raw * y) % self.n_squared

    def encrypt(self, plaintext: int, obfuscate: bool = True) -> "Ciphertext":
        """Encrypt a (signed) integer plaintext."""
        opcount.GLOBAL.ce += 1
        raw = self.raw_encrypt(plaintext)
        if obfuscate:
            raw = (raw * self.random_obfuscator()) % self.n_squared
        return Ciphertext(self, raw)

    def encrypt_with_r(self, plaintext: int, r: int) -> "Ciphertext":
        """Encrypt with caller-chosen randomness (needed by the ZKPs)."""
        raw = self.raw_encrypt(plaintext)
        raw = (raw * pow(r, self.n, self.n_squared)) % self.n_squared
        return Ciphertext(self, raw)

    # -- signed representative ------------------------------------------

    def to_signed(self, m: int) -> int:
        """Map a Z_n representative to a signed integer."""
        if m > self.n - self.max_int:
            return m - self.n
        if m > self.max_int:
            raise OverflowError(
                "decrypted plaintext outside the signed range; fixed-point "
                "overflow or wrong key"
            )
        return m


@dataclass(frozen=True)
class _CrtParams:
    """Precomputed constants for CRT decryption mod p^2 / q^2."""

    p: int = field(repr=False)
    q: int = field(repr=False)
    p_squared: int
    q_squared: int
    hp: int  # L_p(g^{p-1} mod p^2)^-1 mod p
    hq: int  # L_q(g^{q-1} mod q^2)^-1 mod q
    p_inverse: int  # p^-1 mod q, for Garner recombination


@dataclass(frozen=True)
class PaillierPrivateKey:
    """Non-threshold private key (lambda, mu); used by tests and the dealer.

    When the prime factors ``p``/``q`` are retained, :meth:`raw_decrypt`
    uses the standard CRT acceleration (exponentiate mod p^2 and q^2 with
    half-size exponents, recombine with Garner's formula) — roughly 3-4x
    faster than the textbook single exponentiation mod n^2, with identical
    results.  Keys built without the factors fall back to the classic path.
    """

    public_key: PaillierPublicKey
    lam: int = field(repr=False)  # lambda(n) = lcm(p-1, q-1)
    mu: int = field(repr=False)  # (L(g^lambda mod n^2))^-1 mod n
    p: int | None = field(default=None, repr=False)
    q: int | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if (self.p is None) != (self.q is None):
            raise ValueError("supply both prime factors or neither")
        if self.p is not None and self.p * self.q != self.public_key.n:
            raise ValueError("p * q does not match the public modulus")

    @cached_property
    def _crt(self) -> _CrtParams | None:
        if self.p is None or self.q is None:
            return None
        p, q = self.p, self.q
        p_squared, q_squared = p * p, q * q
        g = self.public_key.g
        hp = pow(_l_function(pow(g, p - 1, p_squared), p), -1, p)
        hq = pow(_l_function(pow(g, q - 1, q_squared), q), -1, q)
        return _CrtParams(p, q, p_squared, q_squared, hp, hq, pow(p, -1, q))

    def raw_decrypt(self, raw_ciphertext: int) -> int:
        crt = self._crt
        if crt is None:
            return self.raw_decrypt_classic(raw_ciphertext)
        mp = (
            _l_function(pow(raw_ciphertext, crt.p - 1, crt.p_squared), crt.p)
            * crt.hp
            % crt.p
        )
        mq = (
            _l_function(pow(raw_ciphertext, crt.q - 1, crt.q_squared), crt.q)
            * crt.hq
            % crt.q
        )
        # Garner: m = mp + p * ((mq - mp) * p^-1 mod q)  in [0, n).
        return mp + crt.p * ((mq - mp) * crt.p_inverse % crt.q)

    def raw_decrypt_classic(self, raw_ciphertext: int) -> int:
        """Textbook decryption via one exponentiation mod n^2 (the seed
        path); kept for CRT equivalence tests and benchmarks."""
        pk = self.public_key
        u = pow(raw_ciphertext, self.lam, pk.n_squared)
        l_of_u = (u - 1) // pk.n
        # pivotlint: disable=PL002 -- L(c^lambda) * mu mod n IS the decrypted
        # plaintext, the function's contract; the key material itself (lam,
        # mu) is not recoverable from it.
        return (l_of_u * self.mu) % pk.n

    def decrypt(self, ciphertext: "Ciphertext") -> int:
        if ciphertext.public_key != self.public_key:
            raise ValueError("ciphertext was encrypted under a different key")
        return self.public_key.to_signed(self.raw_decrypt(ciphertext.raw))


def _l_function(x: int, p: int) -> int:
    """L_p(x) = (x - 1) / p for x = 1 (mod p)."""
    return (x - 1) // p


class Ciphertext:
    """A Paillier ciphertext [x] supporting the homomorphic operators.

    Supported operations (c, d ciphertexts; k a plain integer):

    * ``c + d``  -> [x + y]        (Eq. 1)
    * ``c + k``  -> [x + k]
    * ``c - d``, ``c - k``, ``-c``
    * ``k * c``, ``c * k``  -> [k x]   (Eq. 2)

    Dot products (Eq. 3) are provided by :func:`dot_product`.  Both it and
    ``*`` evaluate through :func:`power_product`, which skips zero
    coefficients, turns unit ones into a multiplication — the dominant
    case in Pivot, where the plaintext vectors are 0/1 indicators — and
    raises a negative one to its short magnitude before one inversion.
    """

    __slots__ = ("public_key", "raw")

    def __init__(self, public_key: PaillierPublicKey, raw: int):
        self.public_key = public_key
        self.raw = raw

    # -- helpers ---------------------------------------------------------

    def _check_key(self, other: "Ciphertext") -> None:
        if self.public_key != other.public_key:
            raise ValueError("ciphertexts under different public keys")

    def obfuscate(self) -> "Ciphertext":
        """Re-randomise so the ciphertext is unlinkable to its history."""
        pk = self.public_key
        return Ciphertext(pk, (self.raw * pk.random_obfuscator()) % pk.n_squared)

    # -- homomorphic operators -------------------------------------------

    def __add__(self, other: "Ciphertext | int") -> "Ciphertext":
        opcount.GLOBAL.ce += 1
        pk = self.public_key
        if isinstance(other, Ciphertext):
            self._check_key(other)
            return Ciphertext(pk, (self.raw * other.raw) % pk.n_squared)
        return Ciphertext(pk, (self.raw * pk.raw_encrypt(other)) % pk.n_squared)

    __radd__ = __add__

    def __neg__(self) -> "Ciphertext":
        # [x]^-1 = [-x]: one modular inverse, not the |n|-bit power n - 1.
        pk = self.public_key
        return Ciphertext(pk, pk.invert(self.raw))

    def __sub__(self, other: "Ciphertext | int") -> "Ciphertext":
        return self + (-other)

    def __rsub__(self, other: int) -> "Ciphertext":
        return (-self) + other

    def __mul__(self, scalar: int) -> "Ciphertext":
        """Homomorphic scalar multiplication [k * x] (Eq. 2).

        Scalars 0 and 1 take :func:`power_product`'s shortcuts: ``c * 0`` is
        the *deterministic* encryption of zero (raw 1, no random mask) and
        ``c * 1`` returns a ciphertext with the same raw value as ``c``.
        Like :meth:`PaillierPublicKey.raw_encrypt`, these shortcut
        ciphertexts are deterministic/linkable and MUST be re-randomised
        with :meth:`obfuscate` before leaving a party; inside a party they
        are safe and save an exponentiation (the dominant case in Pivot,
        whose coefficient vectors are 0/1 indicators).
        """
        if not isinstance(scalar, int):
            return NotImplemented
        opcount.GLOBAL.ce += 1
        pk = self.public_key
        return Ciphertext(pk, power_product((scalar,), (self.raw,), pk))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Ciphertext({hex(self.raw)[:12]}...)"


def centred(x: int, n: int) -> int:
    """``x mod n`` as its representative in (-n/2, n/2].

    How every homomorphic power reads a scalar (:func:`power_product`), and
    therefore the integer the proofs of :mod:`repro.crypto.zkp` are about.
    """
    x %= n
    return x - n if x > n >> 1 else x


def power_product(
    coefficients: Iterable[int], raws: Iterable[int], public_key: PaillierPublicKey
) -> int:
    """prod_j raws_j^(x_j) mod n^2: the raw kernel of Eq. 2 and Eq. 3.

    Every coefficient is read as :func:`centred` reads it.  Zero ones are
    skipped and unit ones are a single mulmod.  One in the upper half of
    Z_n is a negative number: its factor is raised to the short magnitude
    n - x, and the product of all such factors is inverted once — where
    the exponent x itself has |n| bits (-1 is n - 1: 200 such terms took
    400 ms at 512 bits against 0.8 ms for +1).  The result encrypts the
    same plaintext as the long power would but is not the same ciphertext
    (c^n is an n-th residue, not 1).

    Deterministic in its inputs, shortcuts included: the output stays with
    the party that computed it until she re-masks it.
    """
    n, n_squared = public_key.n, public_key.n_squared
    half = n >> 1
    kept = inverted = 1
    for x, raw in zip(coefficients, raws):
        x = int(x) % n  # int() guards against numpy scalar overflow
        if x == 0:
            continue
        if x == 1:
            kept = kept * raw % n_squared
        elif x <= half:
            kept = kept * pow(raw, x, n_squared) % n_squared
        elif x == n - 1:
            inverted = inverted * raw % n_squared
        else:
            inverted = inverted * pow(raw, n - x, n_squared) % n_squared
    if inverted != 1:
        kept = kept * public_key.invert(inverted) % n_squared
    return kept


def dot_product(coefficients: list[int], ciphertexts: list[Ciphertext]) -> Ciphertext:
    """Homomorphic dot product x (.) [v] = [x . v] (paper Eq. 3).

    ``coefficients`` are plaintext integers, ``ciphertexts`` the encrypted
    vector; one Ce per element, evaluated by :func:`power_product`.
    """
    if len(coefficients) != len(ciphertexts):
        raise ValueError(
            f"length mismatch: {len(coefficients)} coefficients vs "
            f"{len(ciphertexts)} ciphertexts"
        )
    if not ciphertexts:
        raise ValueError("dot product of empty vectors")
    opcount.GLOBAL.ce += len(ciphertexts)
    pk = ciphertexts[0].public_key
    return Ciphertext(pk, power_product(coefficients, (c.raw for c in ciphertexts), pk))


def _lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b


def generate_keypair(
    keysize: int = 1024, p: int | None = None, q: int | None = None
) -> tuple[PaillierPublicKey, PaillierPrivateKey]:
    """(sk, pk) = Gen(keysize): generate a Paillier key pair.

    ``p`` and ``q`` may be supplied for deterministic tests.
    """
    if p is None or q is None:
        p, q = primes.random_prime_pair(keysize)
    n = p * q
    public_key = PaillierPublicKey(n)
    lam = _lcm(p - 1, q - 1)
    # mu = L(g^lambda mod n^2)^-1 mod n; with g = n+1, g^lambda = 1 + n*lambda,
    # so L(g^lambda) = lambda and mu = lambda^-1 mod n.
    mu = pow(lam, -1, n)
    # Retaining p and q enables CRT-accelerated decryption (see
    # PaillierPrivateKey); the factors never leave the private key.
    return public_key, PaillierPrivateKey(public_key, lam, mu, p=p, q=q)
