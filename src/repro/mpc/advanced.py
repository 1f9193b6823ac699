"""Fixed-point secure arithmetic: division, exponential, softmax (§2.2, §7.2).

The paper uses SPDZ's fixed-point support: "other primitives including
secure division and secure exponential can be approximated, which are also
supported in SPDZ [18, 28, 5]".  This module implements those primitives
the way MP-SPDZ does:

* ``FixedPointOps.div``  — Goldschmidt iteration with the AppRcr initial
  approximation and Norm (MSB normalisation via bit decomposition),
  following Catrina–Saxena [18].  The work splits by operand: Norm,
  AppRcr, ``x = 1 - b·w`` and the θ squarings of ``x`` depend on the
  denominator alone (86 of a division's 92 Beaver multiplications at
  K = 40), so ``div`` takes a list of numerators over one denominator and
  runs them once; each numerator pays its own ``a·w`` and θ + 1
  multiply-truncates.
* ``FixedPointOps.exp``  — e^x via 2^(x·log2 e): the integer part is an
  oblivious power-of-two product over its bits, the fractional part a
  Taylor polynomial, the input clamped to a public range.
* ``FixedPointOps.softmax`` — secure softmax (secure exp + division), used
  by GBDT classification (§7.2).

Values are field elements representing v·2^F in two's-complement; K bounds
the total bit length.  Products (2K bits) stay below the field modulus with
κ bits of statistical masking headroom.
"""

from __future__ import annotations

import math
from typing import overload

from repro.mpc import comparison
from repro.mpc.engine import MPCEngine
from repro.mpc.sharing import SharedValue

__all__ = ["FixedPointOps", "DEFAULT_K", "DEFAULT_F"]

DEFAULT_K = 40
DEFAULT_F = 16

#: Clamp range for the secure exponential (exp(±6) covers softmax needs).
EXP_CLAMP = 6.0
#: Shift making the base-2 exponent positive: x·log2(e) + EXP_SHIFT >= 0.
EXP_SHIFT = 9

# Taylor coefficients of 2^x = sum (x ln 2)^j / j! on [0, 1], degree 6
# (max error ~1.5e-5, below the 2^-16 fixed-point resolution).
_EXP2_COEFFS = [math.log(2) ** j / math.factorial(j) for j in range(7)]

# Degree-6 least-squares fit of log2(x) on [0.5, 1] (max error ~5e-6),
# ascending powers; used by the secure logarithm (DP Laplace sampling §9.2).
_LOG2_COEFFS = [
    -4.0283996614, 12.1322901677, -21.0584178804, 25.7539064323,
    -19.751145125, 8.5408663253, -1.5891038898,
]


class FixedPointOps:
    """Secure fixed-point calculator bound to one MPC engine."""

    def __init__(self, engine: MPCEngine, k: int = DEFAULT_K, f: int = DEFAULT_F):
        if 2 * k + engine.kappa + 1 >= engine.field.q.bit_length():
            raise ValueError(
                f"fixed-point K={k} too large for field "
                f"(needs 2K + kappa + 1 < {engine.field.q.bit_length()})"
            )
        self.engine = engine
        self.k = k
        self.f = f
        self.theta = max(1, math.ceil(math.log2(k / 3.5)))  # Goldschmidt iters

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------

    def encode(self, value: float | int) -> int:
        """Public real value -> field representative of v·2^F."""
        scaled = round(value * (1 << self.f))
        if abs(scaled) >= 1 << (self.k - 1):
            # Keep the value out of the message: encode() runs on secret
            # inputs and exception text reaches logs/tracebacks.
            raise OverflowError(f"value outside the K={self.k} fixed-point range")
        return scaled % self.engine.field.q

    def decode(self, element: int) -> float:
        return self.engine.field.to_signed(element) / (1 << self.f)

    def share(self, value: float | int) -> SharedValue:
        return self.engine.share_public(self.encode(value))

    def open(self, value: SharedValue) -> float:
        return self.decode(self.engine.open(value))

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def mul(self, a: SharedValue, b: SharedValue) -> SharedValue:
        """Fixed-point product: field multiply then rescale by 2^F."""
        return comparison.trunc_pr(self.engine, self.engine.mul(a, b), 2 * self.k, self.f)

    def mul_public(self, a: SharedValue, scalar: float) -> SharedValue:
        return comparison.trunc_pr(
            self.engine, a * self.encode(scalar), 2 * self.k, self.f
        )

    # ------------------------------------------------------------------
    # division (Goldschmidt, MP-SPDZ FPDiv)
    # ------------------------------------------------------------------

    def norm(
        self, b: SharedValue, b_bits: int | None = None
    ) -> tuple[SharedValue, SharedValue]:
        """Normalise b in (0, 2^(K-1)) to c = b·v in [2^(K-1), 2^K).

        Returns (⟨c⟩, ⟨v⟩) with v the power of two 2^(K-1-msb(b)).
        For b = 0 both outputs are ⟨0⟩ (callers mask invalid divisions).
        ``b_bits`` declares b < 2^b_bits: only that many bits are
        decomposed and prefix-ORed (see :meth:`div` for the contract).
        """
        engine = self.engine
        width = self.k if b_bits is None else b_bits
        if not 0 < width <= self.k:
            raise ValueError(f"b_bits must be in 1..K={self.k}, got {b_bits}")
        bits = comparison.bit_dec(engine, b, width)
        prefix = comparison.prefix_or_msb_first(engine, list(reversed(bits)))
        v = engine.share_public(0)
        previous = engine.share_public(0)
        for msb_index, p in enumerate(prefix):
            z = p - previous  # 1 exactly at the most significant set bit
            previous = p
            v = v + z * (1 << (self.k - width + msb_index))
        c = engine.mul(b, v)
        return c, v

    def app_rcr(self, b: SharedValue, b_bits: int | None = None) -> SharedValue:
        """Approximate reciprocal w ≈ 2^(2F)/b (relative error < 0.08)."""
        engine = self.engine
        alpha = int(2.9142 * (1 << self.k))
        c, v = self.norm(b, b_bits)
        d = engine.add_public(c * (-2), alpha)
        w = engine.mul(d, v)
        return comparison.trunc_pr(engine, w, 2 * self.k, 2 * (self.k - self.f))

    def _mul_rescale(
        self, pairs: list[tuple[SharedValue, SharedValue]], shift: int
    ) -> list[SharedValue]:
        """Products of all pairs (one round), each truncated by ``shift``."""
        return [
            comparison.trunc_pr(self.engine, product, 2 * self.k, shift)
            for product in self.engine.mul_many(pairs)
        ]

    @overload
    def div(
        self, a: SharedValue, b: SharedValue, b_bits: int | None = None
    ) -> SharedValue: ...

    @overload
    def div(
        self, a: list[SharedValue], b: SharedValue, b_bits: int | None = None
    ) -> list[SharedValue]: ...

    def div(
        self,
        a: SharedValue | list[SharedValue],
        b: SharedValue,
        b_bits: int | None = None,
    ) -> SharedValue | list[SharedValue]:
        """⟨a / b⟩ for b > 0 (Goldschmidt with theta iterations).

        ``a`` is one numerator or a list of numerators over the same
        denominator; the result has the same shape.  Everything that
        depends on b alone — Norm, AppRcr, x = 1 - b·w and its θ
        squarings — runs once per call, so t fractions over one
        denominator cost one normalisation plus t·(θ + 2) multiplications
        instead of t normalisations.

        b must be positive and nonzero for a meaningful result, and below
        2^(2F-1) raw so that w ≈ 2^(2F)/b does not truncate to 0; b = 0
        yields ⟨0⟩ (degenerate-split masking relies on this).

        ``b_bits`` is the caller's declaration that b < 2^b_bits (raw
        fixed-point units): Norm then bit-decomposes and prefix-ORs
        b_bits bits instead of K.  A larger b mis-decomposes *silently* —
        its high bits are simply not looked at and the quotient is wrong —
        so declare only a public structural bound (a sample count cannot
        exceed the number of samples), never a data-dependent guess.
        Undeclared callers get the full K bits.
        """
        engine = self.engine
        single = isinstance(a, SharedValue)
        numerators = [a] if single else list(a)
        two_f = 2 * self.f
        alpha = 1 << two_f
        w = self.app_rcr(b, b_bits)
        bw, *raw = engine.mul_many([(b, w)] + [(num, w) for num in numerators])
        x = engine.add_public(-bw, alpha)  # alpha*(1 - b*w/2^2F)
        ys = [comparison.trunc_pr(engine, y, 2 * self.k, self.f) for y in raw]
        for _ in range(self.theta):
            factor = engine.add_public(x, alpha)
            *ys, x = self._mul_rescale([(y, factor) for y in ys] + [(x, x)], two_f)
        factor = engine.add_public(x, alpha)
        ys = self._mul_rescale([(y, factor) for y in ys], two_f)
        return ys[0] if single else ys

    # ------------------------------------------------------------------
    # exponential / softmax
    # ------------------------------------------------------------------

    def clamp(self, a: SharedValue, low: float, high: float) -> SharedValue:
        engine = self.engine
        lo = self.share(low)
        hi = self.share(high)
        below = comparison.lt(engine, a, lo, self.k)
        a = comparison.select(engine, below, lo, a)
        above = comparison.gt(engine, a, hi, self.k)
        return comparison.select(engine, above, hi, a)

    def exp(self, a: SharedValue) -> SharedValue:
        """⟨e^a⟩ with a clamped to [-EXP_CLAMP, EXP_CLAMP]."""
        engine = self.engine
        a = self.clamp(a, -EXP_CLAMP, EXP_CLAMP)
        # y = a*log2(e) + SHIFT in [0, ~2*SHIFT); exp(a) = 2^(y - SHIFT).
        y = self.mul_public(a, math.log2(math.e))
        y = y + self.share(EXP_SHIFT)
        integer = comparison.trunc(engine, y, self.k, self.f)
        fraction = y - integer * (1 << self.f)
        # 2^integer: oblivious product over the 5 bits of the integer part.
        bits = comparison.bit_dec(engine, integer, 5)
        power = engine.share_public(1)
        for j, bit in enumerate(bits):
            factor = engine.add_public(bit * ((1 << (1 << j)) - 1), 1)
            power = engine.mul(power, factor)
        # 2^fraction via the Taylor polynomial (Horner).
        acc = self.share(_EXP2_COEFFS[-1])
        for coeff in reversed(_EXP2_COEFFS[:-1]):
            acc = self.mul(acc, fraction) + self.share(coeff)
        # Combine and shift back: (2^int * 2^frac) / 2^SHIFT.
        combined = engine.mul(power, acc)  # scale F (power is scale 0)
        return comparison.trunc_pr(engine, combined, 2 * self.k, EXP_SHIFT)

    def softmax(self, scores: list[SharedValue]) -> list[SharedValue]:
        """Secure softmax over shared scores (§7.2 GBDT classification)."""
        exps = [self.exp(s) for s in scores]
        return self.div(exps, self.engine.sum_values(exps))

    # ------------------------------------------------------------------
    # logarithm (needed by the secure Laplace sampler, §9.2 Algorithm 5)
    # ------------------------------------------------------------------

    def log2(self, a: SharedValue) -> SharedValue:
        """⟨log2 a⟩ for a > 0: normalise to [0.5, 1), polynomial, re-shift.

        Uses the same bit-decomposition machinery as Norm: with p = msb(a)
        (of the raw fixed-point integer), a = c_norm · 2^(p+1-F) for
        c_norm in [0.5, 1), so log2 a = log2(c_norm) + p + 1 - F.
        """
        engine = self.engine
        bits = comparison.bit_dec(engine, a, self.k)
        prefix = comparison.prefix_or_msb_first(engine, list(reversed(bits)))
        v = engine.share_public(0)
        msb = engine.share_public(0)
        previous = engine.share_public(0)
        for msb_index, pref in enumerate(prefix):
            z = pref - previous
            previous = pref
            position = self.k - 1 - msb_index
            v = v + z * (1 << (self.k - 1 - position))
            msb = msb + z * position
        c = engine.mul(a, v)  # in [2^(K-1), 2^K)
        c_norm = comparison.trunc_pr(engine, c, self.k + 1, self.k - self.f)
        acc = self.share(_LOG2_COEFFS[-1])
        for coeff in reversed(_LOG2_COEFFS[:-1]):
            acc = self.mul(acc, c_norm) + self.share(coeff)
        shift = msb * (1 << self.f) + self.share(1 - self.f)
        return acc + shift

    def ln(self, a: SharedValue) -> SharedValue:
        """⟨ln a⟩ = ln(2) · ⟨log2 a⟩."""
        return self.mul_public(self.log2(a), math.log(2.0))

    def uniform_fraction(self) -> SharedValue:
        """⟨U⟩ uniform on the 2^-F grid of [0, 1) from dealer random bits."""
        bits = [self.engine.dealer.random_bit() for _ in range(self.f)]
        total = self.engine.share_public(0)
        for i, bit in enumerate(bits):
            total = total + bit * (1 << i)
        return total

    # ------------------------------------------------------------------
    # comparisons at this format's bit width
    # ------------------------------------------------------------------

    def lt(self, a: SharedValue, b: SharedValue) -> SharedValue:
        return comparison.lt(self.engine, a, b, self.k)

    def gt(self, a: SharedValue, b: SharedValue) -> SharedValue:
        return comparison.gt(self.engine, a, b, self.k)

    def ltz(self, a: SharedValue) -> SharedValue:
        return comparison.ltz(self.engine, a, self.k)

    def eqz(self, a: SharedValue) -> SharedValue:
        return comparison.eqz(self.engine, a, self.k)

    def argmax(
        self, values: list[SharedValue], slack: int = 0
    ) -> tuple[SharedValue, SharedValue, list[SharedValue]]:
        """:func:`comparison.argmax` at this format's width; ``slack`` is
        in raw units (ulps of 2^-F)."""
        return comparison.argmax(self.engine, values, self.k, slack)
