"""Prime field arithmetic for the additive secret sharing scheme (paper §2.2).

SPDZ shares values in Z_q for a public prime q.  We use the Mersenne prime
q = 2^127 - 1, which comfortably holds the fixed-point format of
:mod:`repro.mpc.fixed` (K = 40 value bits, F = 16 fractional bits,
statistical security κ = 40: the largest intermediate, a 2K-bit product
plus a κ-bit statistical mask, stays below q).
"""

from __future__ import annotations

import secrets

__all__ = ["PrimeField", "MERSENNE_127"]


class PrimeField:
    """Arithmetic in Z_q with signed-representative helpers.

    Values are plain Python ints in [0, q); "signed" views map the upper
    half of the field to negative integers, matching the two's-complement
    convention the comparison protocols rely on.
    """

    def __init__(self, modulus: int):
        if modulus < 3:
            raise ValueError(f"modulus must be an odd prime >= 3, got {modulus}")
        self.q = modulus
        self.half = modulus // 2

    # -- representatives --------------------------------------------------

    def from_signed(self, value: int) -> int:
        return value % self.q

    def to_signed(self, element: int) -> int:
        element %= self.q
        return element - self.q if element > self.half else element

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.q

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(a, -1, self.q)

    def pow2_inv(self, m: int) -> int:
        """Inverse of 2^m, used by the truncation protocols."""
        return pow(pow(2, m, self.q), -1, self.q)

    def random(self) -> int:
        return secrets.randbelow(self.q)

    def random_below(self, bound: int) -> int:
        if bound > self.q:
            raise ValueError("bound exceeds the field size")
        return secrets.randbelow(bound)

    # -- sharing helpers ----------------------------------------------------

    def additive_split(self, value: int, n_parties: int) -> list[int]:
        """Split ``value`` into ``n_parties`` uniformly random summands."""
        shares = [self.random() for _ in range(n_parties - 1)]
        shares.append((value - sum(shares)) % self.q)
        return shares

    def __repr__(self) -> str:
        return f"PrimeField(q~2^{self.q.bit_length()})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and self.q == other.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))


#: The default field used by all Pivot protocols.
MERSENNE_127 = PrimeField(2**127 - 1)
