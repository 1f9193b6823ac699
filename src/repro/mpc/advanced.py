"""Fixed-point secure arithmetic: division, exponential, softmax (§2.2, §7.2).

The paper uses SPDZ's fixed-point support: "other primitives including
secure division and secure exponential can be approximated, which are also
supported in SPDZ [18, 28, 5]".  This module implements those primitives
the way MP-SPDZ does:

* ``FixedPointOps.div``  — Goldschmidt iteration with the AppRcr initial
  approximation and Norm (MSB normalisation), following Catrina–Saxena
  [18].  Norm works in the binary domain on every denominator of the call
  at once: all of them are bit-decomposed into one packed XOR-shared word
  (K lanes each), a blockwise prefix-OR finds each top bit, reversing each
  block's lanes turns that mark into v = 2^(K-1-msb), and one edaBit per
  denominator brings v back to Z_q (:mod:`repro.mpc.comparison`; 23
  rounds at K = 40 however many denominators, no field multiplication
  but c = b·v).  The rest splits by operand: AppRcr, ``x = 1 - b·w``
  and the θ squarings of ``x`` depend on the denominator alone, each a
  single multiplication round across all denominators; each numerator
  pays its own ``a·w`` and θ + 1 multiply-truncates.  A node's whole gain
  step is one ``div`` call.
* ``FixedPointOps.exp``  — e^x via 2^(x·log2 e): the integer part is an
  oblivious power-of-two product over its bits, the fractional part a
  Taylor polynomial, the input clamped to a public range.
* ``FixedPointOps.softmax`` — secure softmax (secure exp + division) of
  every row, used by GBDT classification training (§7.2).
* ``FixedPointOps.log2`` / ``ln`` — Norm's normalisation plus the msb
  itself, whose bits are local parities of the one-hot word, lifted by
  daBits (the secure Laplace sampler, §9.2).
* ``FixedPointOps.argmax`` — the secure maximum of every row at this
  format's width (:func:`repro.mpc.comparison.argmax`).

Like the primitives under them, each takes a batch (``softmax`` and
``argmax`` a list of rows) and costs one value's rounds at any length, so
no caller loops over rows.  The scalar shapes left, ``div(a, b)`` and
``lt``, serve the end-to-end benchmark's probes.

Values are field elements representing v·2^F in two's-complement; K bounds
the total bit length.  Products (2K bits) stay below the field modulus with
κ bits of statistical masking headroom.

What a division opens: Beaver's d = x − a and e = y − b (uniform triple
masks); each ``trunc_pr``'s a + r (κ bits of statistical slack); Norm's
c = b − r + 2^(K+κ) (an edaBit's r, κ bits of slack), its word-ANDs'
x ⊕ a, y ⊕ b (AND-triple masks), s = v + r' mod 2^K (an edaBit's r',
uniform) and each carry XOR a daBit's bit (uniform).  Nothing else.
"""

from __future__ import annotations

import math
from typing import cast, overload

from repro.mpc import comparison
from repro.mpc.binary import BinaryWord, block_mask, concat
from repro.mpc.engine import MPCEngine, Rows
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

    def open(self, values: list[SharedValue]) -> list[float]:
        return [self.decode(v) for v in self.engine.open_many(values)]

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def mul(self, pairs: list[tuple[SharedValue, SharedValue]]) -> list[SharedValue]:
        """Fixed-point products: field multiply then rescale by 2^F."""
        return self._mul_rescale(pairs, self.f)

    def mul_public(self, values: list[SharedValue], scalar: float) -> list[SharedValue]:
        """Every value times the public ``scalar``, rescaled by 2^F."""
        factor = self.encode(scalar)
        return comparison.trunc_pr(
            self.engine, [a * factor for a in values], 2 * self.k, self.f
        )

    # ------------------------------------------------------------------
    # division (Goldschmidt, MP-SPDZ FPDiv)
    # ------------------------------------------------------------------

    def _normalise(self, bs: list[SharedValue]) -> tuple[BinaryWord, list[SharedValue]]:
        """(one-hot msb word, ⟨v_j⟩ = 2^(K-1-msb(b_j))) for every b_j, in
        one packed word of len(bs)·K lanes; v_j = 0 for b_j = 0."""
        engine, k = self.engine, self.k
        top = comparison.top_bits(engine, comparison.decompose(engine, bs, k), k)
        # Reversing each block's lanes (local) turns the mark at msb into
        # one at K-1-msb: the block, read as an integer, is v.
        return top, comparison.to_arithmetic(engine, top.reverse_blocks(k), k)

    def norm(self, bs: list[SharedValue]) -> tuple[list[SharedValue], list[SharedValue]]:
        """Normalise every b in [0, 2^K) to c = b·v in [2^(K-1), 2^K).

        Returns (⟨c_j⟩, ⟨v_j⟩) with v the power of two 2^(K-1-msb(b)).
        For b = 0 both outputs are ⟨0⟩ (callers mask invalid divisions).
        All K bits of every denominator are decomposed, and the
        denominators share one packed word, so a batch costs the rounds
        of one (see :mod:`repro.mpc.comparison`) and one multiplication
        per denominator.
        """
        _, vs = self._normalise(bs)
        return self.engine.mul_many(list(zip(bs, vs))), vs

    def app_rcr(self, bs: list[SharedValue]) -> list[SharedValue]:
        """Approximate reciprocals w ≈ 2^(2F)/b (relative error < 0.08)."""
        engine = self.engine
        alpha = int(2.9142 * (1 << self.k))
        cs, vs = self.norm(bs)
        ds = [engine.add_public(c * (-2), alpha) for c in cs]
        return self._mul_rescale(list(zip(ds, vs)), 2 * (self.k - self.f))

    def _mul_rescale(
        self, pairs: list[tuple[SharedValue, SharedValue]], shift: int
    ) -> list[SharedValue]:
        """Products of all pairs, each truncated by ``shift`` (two rounds)."""
        return comparison.trunc_pr(
            self.engine, self.engine.mul_many(pairs), 2 * self.k, shift
        )

    def _mul_rescale_rows(self, xs: Rows, ys: Rows, shift: int) -> Rows:
        """:meth:`_mul_rescale` of the columns of two row batches, as rows."""
        return comparison._trunc_pr(self.engine, self.engine._mul(xs, ys), 2 * self.k, shift)

    @overload
    def div(self, a: SharedValue, b: SharedValue) -> SharedValue: ...

    @overload
    def div(self, a: list[SharedValue], b: SharedValue) -> list[SharedValue]: ...

    @overload
    def div(
        self, a: list[list[SharedValue]], b: list[SharedValue]
    ) -> list[list[SharedValue]]: ...

    def div(
        self,
        a: SharedValue | list[SharedValue] | list[list[SharedValue]],
        b: SharedValue | list[SharedValue],
    ) -> SharedValue | list[SharedValue] | list[list[SharedValue]]:
        """⟨a / b⟩ for b > 0 (Goldschmidt with theta iterations).

        Three shapes: one numerator over one denominator; a list of
        numerators over one denominator; or a list of numerator lists, one
        per denominator in the list ``b``.  The result has the shape of
        ``a``.  Norm runs once for every denominator of the call, and
        AppRcr, x = 1 - b·w and each of its θ squarings are one
        multiplication round across all of them, so a node's whole gain
        step is one normalisation plus, per denominator, 3 + θ
        multiplications and, per numerator, θ + 2.

        b must be positive and nonzero for a meaningful result, and below
        2^(2F-1) raw so that w ≈ 2^(2F)/b does not truncate to 0 (a count
        of n samples is n·2^F raw: n < 2^(F-1), which ``TreeTrainer``
        checks); b = 0 yields ⟨0⟩ (degenerate-split masking relies on
        this).  Every one of b's K bits is decomposed: there is no width
        to declare and none to get wrong.
        """
        if isinstance(b, SharedValue):
            if isinstance(a, SharedValue):
                return self._divide([[a]], [b])[0][0]
            return self._divide([cast(list[SharedValue], a)], [b])[0]
        return self._divide(cast(list[list[SharedValue]], a), b)

    def _divide(
        self, groups: list[list[SharedValue]], bs: list[SharedValue]
    ) -> list[list[SharedValue]]:
        """Numerator group j over denominator j, for every j at once, on
        rows (:mod:`repro.mpc.engine`) from AppRcr to the quotients."""
        if not bs:
            return []
        engine = self.engine
        q, unit = engine.field.q, engine.unit
        two_f = 2 * self.f
        alpha = 1 << two_f
        denominators = engine._rows(bs)
        ws = engine._rows(self.app_rcr(bs))
        owner = [j for j, group in enumerate(groups) for _ in group]
        numerators = engine._rows([num for group in groups for num in group])

        def per_numerator(rows: Rows, shift: int = 0) -> list[list[int]]:
            # Denominator j's row entry (+ the public shift) for each of its numerators.
            return [[(row[j] + one * shift) % q for j in owner] for row, one in zip(rows, unit)]

        count = len(bs)
        products = engine._mul(
            [(*b, *a) for b, a in zip(denominators, numerators)],
            [(*w, *wn) for w, wn in zip(ws, per_numerator(ws))],
        )
        # x = alpha*(1 - b*w/2^2F) per denominator
        xs: Rows = [
            [(one * alpha - bw) % q for bw in row[:count]] for row, one in zip(products, unit)
        ]
        ys = comparison._trunc_pr(engine, [row[count:] for row in products], 2 * self.k, self.f)
        for _ in range(self.theta):
            rescaled = self._mul_rescale_rows(
                [(*y, *x) for y, x in zip(ys, xs)],
                [(*f, *x) for f, x in zip(per_numerator(xs, alpha), xs)],
                two_f,
            )
            ys = [row[: len(owner)] for row in rescaled]
            xs = [row[len(owner) :] for row in rescaled]
        quotients = iter(
            engine._values(self._mul_rescale_rows(ys, per_numerator(xs, alpha), two_f))
        )
        return [[next(quotients) for _ in group] for group in groups]

    # ------------------------------------------------------------------
    # exponential / softmax
    # ------------------------------------------------------------------

    def clamp(self, values: list[SharedValue], low: float, high: float) -> list[SharedValue]:
        """Every value limited to [low, high]: a < low and a > high are one
        compare, and, for low < high, exclusive, so both selects are one
        multiplication round."""
        engine = self.engine
        lo = self.share(low)
        hi = self.share(high)
        count = len(values)
        bits = comparison.lt(
            engine, values + [hi] * count, [lo] * count + values, self.k
        )
        moved = comparison.select(
            engine, bits, [lo] * count + [hi] * count, values + values
        )
        return [to_low + to_high - a for a, to_low, to_high in zip(values, moved, moved[count:])]

    def exp(self, values: list[SharedValue]) -> list[SharedValue]:
        """⟨e^a⟩ for every a, each clamped to [-EXP_CLAMP, EXP_CLAMP]."""
        if not values:
            return []
        engine = self.engine
        values = self.clamp(values, -EXP_CLAMP, EXP_CLAMP)
        # y = a*log2(e) + SHIFT in [0, ~2*SHIFT); exp(a) = 2^(y - SHIFT).
        shift = self.share(EXP_SHIFT)
        ys = [y + shift for y in self.mul_public(values, math.log2(math.e))]
        integers = comparison.trunc(engine, ys, self.k, self.f)
        fractions = [y - integer * (1 << self.f) for y, integer in zip(ys, integers)]
        # 2^integer: oblivious product over the 5 bits of each integer part
        # (value j's bits are lanes 5j .. 5j + 4).
        bits = comparison.lift(engine, comparison.decompose(engine, integers, 5))
        powers = [engine.share_public(1) for _ in values]
        for j in range(5):
            factors = [
                engine.add_public(bit * ((1 << (1 << j)) - 1), 1) for bit in bits[j::5]
            ]
            powers = engine.mul_many(list(zip(powers, factors)))
        # 2^fraction via the Taylor polynomial (Horner).
        accs = [self.share(_EXP2_COEFFS[-1]) for _ in values]
        for coeff in reversed(_EXP2_COEFFS[:-1]):
            term = self.share(coeff)
            accs = [acc + term for acc in self.mul(list(zip(accs, fractions)))]
        # Combine and shift back: (2^int * 2^frac) / 2^SHIFT, at scale F
        # (power is scale 0).
        return self._mul_rescale(list(zip(powers, accs)), EXP_SHIFT)

    def softmax(self, rows: list[list[SharedValue]]) -> list[list[SharedValue]]:
        """Secure softmax of every row of shared scores (§7.2 GBDT
        classification): one ``exp`` over all of them, one ``div`` with a
        denominator per row."""
        exps = iter(self.exp([score for row in rows for score in row]))
        groups = [[next(exps) for _ in row] for row in rows]
        return self.div(groups, [self.engine.sum_values(group) for group in groups])

    # ------------------------------------------------------------------
    # logarithm (needed by the secure Laplace sampler, §9.2 Algorithm 5)
    # ------------------------------------------------------------------

    def log2(self, values: list[SharedValue]) -> list[SharedValue]:
        """⟨log2 a⟩ for every a > 0: normalise to [0.5, 1), polynomial,
        re-shift.

        Norm's machinery: with p = msb(a) (of the raw fixed-point integer),
        a = c_norm · 2^(p+1-F) for c_norm in [0.5, 1), so
        log2 a = log2(c_norm) + p + 1 - F.  Bit i of p is the parity of
        a's block of the one-hot msb word over the lanes whose index has
        bit i set — local — and one daBit per bit lifts p into Z_q.
        """
        if not values:
            return []
        engine, k = self.engine, self.k
        count = len(values)
        top, vs = self._normalise(values)
        # Lanes i·count .. (i + 1)·count - 1: bit i of every value's msb.
        selects = [
            block_mask(top.width, k, sum(1 << lane for lane in range(k) if lane >> i & 1))
            for i in range((k - 1).bit_length())
        ]
        position_bits = concat([(top & select).parity(k) for select in selects])
        lifted = comparison.lift(engine, position_bits)
        msbs = [
            engine.sum_values([bit * (1 << i) for i, bit in enumerate(lifted[j::count])])
            for j in range(count)
        ]
        cs = engine.mul_many(list(zip(values, vs)))  # in [2^(K-1), 2^K)
        c_norms = comparison.trunc_pr(engine, cs, self.k + 1, self.k - self.f)
        accs = [self.share(_LOG2_COEFFS[-1]) for _ in values]
        for coeff in reversed(_LOG2_COEFFS[:-1]):
            term = self.share(coeff)
            accs = [acc + term for acc in self.mul(list(zip(accs, c_norms)))]
        offset = self.share(1 - self.f)
        return [acc + msb * (1 << self.f) + offset for acc, msb in zip(accs, msbs)]

    def ln(self, values: list[SharedValue]) -> list[SharedValue]:
        """⟨ln a⟩ = ln(2) · ⟨log2 a⟩ for every a."""
        return self.mul_public(self.log2(values), math.log(2.0))

    def uniform_fraction(self, count: int) -> list[SharedValue]:
        """``count`` values ⟨U⟩, each uniform on the 2^-F grid of [0, 1),
        from F dealer random bits apiece."""
        engine, f = self.engine, self.f
        q = engine.field.q
        rows = engine.dealer.random_bits(count * f)
        return engine._values(
            [
                [
                    sum(bit << i for i, bit in enumerate(row[j : j + f])) % q
                    for j in range(0, len(row), f)
                ]
                for row in rows
            ]
        )

    # ------------------------------------------------------------------
    # comparisons at this format's bit width
    # ------------------------------------------------------------------

    def lt(self, a: SharedValue, b: SharedValue) -> SharedValue:
        # Kept for benchmarks/e2e/probes.py's ``_lt_ms``; src/ calls gt.
        return comparison.lt(self.engine, [a], [b], self.k)[0]

    def gt(self, a: list[SharedValue], b: list[SharedValue]) -> list[SharedValue]:
        return comparison.gt(self.engine, a, b, self.k)

    def ltz(self, values: list[SharedValue]) -> list[SharedValue]:
        return comparison.ltz(self.engine, values, self.k)

    def eqz(self, values: list[SharedValue]) -> list[SharedValue]:
        return comparison.eqz(self.engine, values, self.k)

    def argmax(
        self, rows: list[list[SharedValue]], slack: int = 0
    ) -> list[tuple[SharedValue, SharedValue, list[SharedValue]]]:
        """:func:`comparison.argmax` of every row at this format's width;
        ``slack`` is in raw units (ulps of 2^-F)."""
        return comparison.argmax(self.engine, rows, self.k, slack)
