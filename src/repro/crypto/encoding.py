"""Fixed-point encoding of real values for Paillier ciphertexts.

The paper (§8): "Since the cryptographic primitives only support big
integer computations, we convert the floating point datasets into
fixed-point integer representation."

Encoding follows the python-phe / libhcs convention: a real value v is
represented as ``encoding * 2**exponent`` where ``encoding`` is a signed
integer embedded in Z_n (negatives in the upper half).  Exponents are
tracked per value so that homomorphic scalar multiplications (which add
exponents) stay exact; additions align exponents first by scaling the
coarser operand down (multiplying its encoding by a power of two), which
is lossless.

:class:`EncryptedNumber` wraps a raw :class:`~repro.crypto.paillier.Ciphertext`
together with its exponent and provides +, -, and scalar * so protocol code
reads like arithmetic.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro.crypto.paillier import Ciphertext, PaillierPublicKey, dot_product

__all__ = ["EncodedNumber", "PaillierEncoder", "EncryptedNumber"]

#: Default number of fractional bits; matches the MPC fixed-point layer so
#: ciphertext <-> secret-share conversions are exact.
DEFAULT_FRAC_BITS = 16


@dataclass(frozen=True)
class EncodedNumber:
    """A signed fixed-point integer: value = encoding * 2**exponent."""

    encoding: int
    exponent: int

    def decrease_exponent_to(self, exponent: int) -> "EncodedNumber":
        if exponent > self.exponent:
            raise ValueError(
                f"cannot increase exponent losslessly: {self.exponent} -> {exponent}"
            )
        factor = 1 << (self.exponent - exponent)
        return EncodedNumber(self.encoding * factor, exponent)

    def to_fraction(self) -> Fraction:
        if self.exponent >= 0:
            return Fraction(self.encoding * (1 << self.exponent))
        return Fraction(self.encoding, 1 << (-self.exponent))

    def to_float(self) -> float:
        return float(self.to_fraction())


class PaillierEncoder:
    """Encode/decode real values to fixed point, encrypt/decrypt vectors."""

    def __init__(self, public_key: PaillierPublicKey, frac_bits: int = DEFAULT_FRAC_BITS):
        self.public_key = public_key
        self.frac_bits = frac_bits

    # -- encode / decode -------------------------------------------------

    def encode(self, value: float | int, exponent: int | None = None) -> EncodedNumber:
        """Encode ``value``; integer-valued types get exponent 0 unless
        overridden.

        Inputs are normalised first so the exponent choice is type-robust:
        ``bool``/``np.bool_`` and numpy integer scalars encode exactly at
        exponent 0 (the seed used ``isinstance(value, int)``, silently
        giving ``np.int64`` a fractional-bit encoding), and numpy floats
        become Python floats (``Fraction`` rejects e.g. ``np.float32``).
        """
        value = _normalize_scalar(value)
        if exponent is None:
            exponent = 0 if isinstance(value, int) else -self.frac_bits
        scaled = Fraction(value) * (Fraction(2) ** (-exponent))
        encoding = round(scaled)
        if abs(encoding) > self.public_key.max_int:
            # The value itself stays out of the message: encode() runs on
            # secret inputs (shares, labels) and exception text reaches logs.
            raise OverflowError(
                f"encoded value needs more than the plaintext space's "
                f"~2^{self.public_key.max_int.bit_length()} range at "
                f"exponent {exponent}"
            )
        return EncodedNumber(encoding, exponent)

    def decode(self, encoded: EncodedNumber) -> float:
        return encoded.to_float()

    # -- encrypt / wrap ---------------------------------------------------

    def encrypt(
        self, value: float | int, exponent: int | None = None, obfuscate: bool = True
    ) -> "EncryptedNumber":
        encoded = self.encode(value, exponent)
        ct = self.public_key.encrypt(encoded.encoding, obfuscate=obfuscate)
        return EncryptedNumber(self, ct, encoded.exponent)

    def encrypt_vector(
        self, values: list[float | int], exponent: int | None = None, obfuscate: bool = True
    ) -> list["EncryptedNumber"]:
        return [self.encrypt(v, exponent, obfuscate) for v in values]

    def wrap(self, ciphertext: Ciphertext, exponent: int = 0) -> "EncryptedNumber":
        return EncryptedNumber(self, ciphertext, exponent)

    def zero(self, exponent: int = 0) -> "EncryptedNumber":
        return self.encrypt(0, exponent=exponent, obfuscate=False)


def _normalize_scalar(value: float | int) -> float | int:
    """Collapse bool and numpy scalar types onto Python int/float."""
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


class EncryptedNumber:
    """A Paillier ciphertext with fixed-point exponent tracking."""

    __slots__ = ("encoder", "ciphertext", "exponent")

    def __init__(self, encoder: PaillierEncoder, ciphertext: Ciphertext, exponent: int):
        self.encoder = encoder
        self.ciphertext = ciphertext
        self.exponent = exponent

    # -- exponent management ----------------------------------------------

    def decrease_exponent_to(self, exponent: int) -> "EncryptedNumber":
        if exponent > self.exponent:
            raise ValueError(
                f"cannot increase exponent losslessly: {self.exponent} -> {exponent}"
            )
        if exponent == self.exponent:
            return self
        factor = 1 << (self.exponent - exponent)
        return EncryptedNumber(self.encoder, self.ciphertext * factor, exponent)

    @staticmethod
    def align(a: "EncryptedNumber", b: "EncryptedNumber") -> tuple[
        "EncryptedNumber", "EncryptedNumber"
    ]:
        exponent = min(a.exponent, b.exponent)
        return a.decrease_exponent_to(exponent), b.decrease_exponent_to(exponent)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "EncryptedNumber | int | float") -> "EncryptedNumber":
        if isinstance(other, EncryptedNumber):
            a, b = EncryptedNumber.align(self, other)
            return EncryptedNumber(a.encoder, a.ciphertext + b.ciphertext, a.exponent)
        encoded = self.encoder.encode(other, exponent=None)
        if encoded.exponent < self.exponent:
            return self.decrease_exponent_to(encoded.exponent) + _as_encrypted(
                self.encoder, encoded
            )
        aligned = encoded.decrease_exponent_to(self.exponent)
        return EncryptedNumber(
            self.encoder, self.ciphertext + aligned.encoding, self.exponent
        )

    __radd__ = __add__

    def __neg__(self) -> "EncryptedNumber":
        return EncryptedNumber(self.encoder, -self.ciphertext, self.exponent)

    def __sub__(self, other: "EncryptedNumber | int | float") -> "EncryptedNumber":
        return self + (-other)

    def __rsub__(self, other: int | float) -> "EncryptedNumber":
        return (-self) + other

    def __mul__(self, scalar: "int | float | EncodedNumber") -> "EncryptedNumber":
        if isinstance(scalar, EncodedNumber):
            encoded = scalar
        else:
            scalar = _normalize_scalar(scalar)
            if isinstance(scalar, int):
                encoded = EncodedNumber(scalar, 0)
            elif isinstance(scalar, float):
                encoded = self.encoder.encode(scalar)
            else:
                return NotImplemented
        return EncryptedNumber(
            self.encoder,
            self.ciphertext * encoded.encoding,
            self.exponent + encoded.exponent,
        )

    __rmul__ = __mul__

    def obfuscate(self) -> "EncryptedNumber":
        return EncryptedNumber(self.encoder, self.ciphertext.obfuscate(), self.exponent)

    def __repr__(self) -> str:
        return f"EncryptedNumber(exponent={self.exponent})"


def _as_encrypted(encoder: PaillierEncoder, encoded: EncodedNumber) -> EncryptedNumber:
    ct = encoder.public_key.encrypt(encoded.encoding, obfuscate=False)
    return EncryptedNumber(encoder, ct, encoded.exponent)


def encrypted_dot_product(
    coefficients: list[int], values: list[EncryptedNumber]
) -> EncryptedNumber:
    """Homomorphic dot product of an integer vector with encrypted numbers.

    All encrypted values must share one exponent (callers align first); the
    result keeps that exponent.  This is Eq. (3) lifted to fixed point.
    """
    if not values:
        raise ValueError("dot product of empty vectors")
    exponent = values[0].exponent
    if any(v.exponent != exponent for v in values):
        raise ValueError("encrypted vector has mixed exponents; align first")
    ct = dot_product(coefficients, [v.ciphertext for v in values])
    return EncryptedNumber(values[0].encoder, ct, exponent)


def fixed_point_dot(
    encoder: PaillierEncoder, values: Iterable[float], weights: list[EncryptedNumber]
) -> EncryptedNumber:
    """[Σ_j x_j · θ_j] for plaintext reals x and encrypted weights [θ] of
    one exponent.  Each x is encoded at 2^-F, so the sum's plaintext sits
    F fractional bits deeper than the weights' and is labelled there: the
    value it decodes to is x·θ itself, not 2^F times it."""
    coefficients = [encoder.encode(float(v)) for v in values]
    total = encrypted_dot_product([c.encoding for c in coefficients], weights)
    return encoder.wrap(total.ciphertext, total.exponent + coefficients[0].exponent)
