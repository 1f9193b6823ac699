"""Secure comparison and bit-level protocols (paper §2.2, refs [17, 18]).

Implements the Catrina–de Hoogh suite on top of the engine and dealer:

* ``bit_lt_public``  — compare a public value against an XOR-shared word
* ``mod2m``          — ⟨a mod 2^m⟩ (exact)
* ``trunc``          — ⟨⌊a / 2^m⌋⟩ (exact, floor for signed a)
* ``trunc_pr``       — probabilistic truncation (±1 ulp, no bit-compare)
* ``ltz / lt / gt``  — sign extraction / comparisons, shared 0/1 result
* ``eqz / eq``       — equality tests
* ``bit_dec``        — bit decomposition of a non-negative shared value
* ``argmax``         — secure maximum with one-hot index (used for the best
                       split, paper §4.1 "secure maximum computation")

Mod2m's bit-compare runs in the binary domain (:mod:`repro.mpc.binary`), the
way SPDZ implementations do it with edaBits/daBits: the dealer hands out
the bits of the mask r1 as one packed XOR-shared word, the compare is
⌈log₂ m⌉ word-wide ANDs, and one daBit lifts the result bit back to Z_q.
Cost per call at m compared bits — rounds (= openings), field
multiplications (Cs), binary material from the dealer:

    =========  =====================  ==  ============================
    primitive  rounds                 Cs  binary material
    =========  =====================  ==  ============================
    trunc_pr   1                      0   —
    mod2m      2 + ⌈log₂ m⌉           0   ⌈log₂ m⌉ AND triples, 1 daBit
    trunc      as mod2m               0   as mod2m
    ltz        mod2m at m = k − 1     0   as mod2m; 1 Cc
    lt/gt/le   ltz at k + 1 bits      0   as ltz; 1 Cc
    eqz / eq   two ltz                0   two ltz; 2 Cc
    bit_dec    1 + k                  k   — (arithmetic bits)
    =========  =====================  ==  ============================

so ``ltz`` at k = 40 is 2 openings (the masked value, the daBit-masked
result bit) + 6 word-ANDs + 1 daBit: 8 rounds and no field multiplication.
``bit_dec`` and the Norm built on it keep arithmetic bits: their callers
consume every bit in Z_q.

All protocols follow the paper's convention: inputs are secretly shared
values in a k-bit signed range, outputs are secretly shared values; nothing
is revealed except explicitly opened masked values.  The arithmetic
openings are masked by dealer randomness with κ bits of statistical
slack.  Every opened binary word is XORed with a uniform dealer word of
its width — an AND triple's a and b, a daBit's bit — drawn from the
dealer's seeded stream and used once, so binary openings hide perfectly.
"""

from __future__ import annotations

from repro.analysis import opcount
from repro.mpc.binary import BinaryWord
from repro.mpc.engine import MPCEngine
from repro.mpc.sharing import SharedValue

__all__ = [
    "bit_lt_public",
    "mod2m",
    "trunc",
    "trunc_pr",
    "ltz",
    "lt",
    "gt",
    "le",
    "eqz",
    "eq",
    "bit_dec",
    "prefix_or_msb_first",
    "argmax",
    "select",
]


def bit_lt_public(
    engine: MPCEngine, public: int, shared_bits: BinaryWord
) -> SharedValue:
    """⟨1⟩ if ``public`` < r else ⟨0⟩, for r's bits XOR-shared in one word.

    Most-significant-difference scan on packed lanes (lane i = bit i; only
    the low ``width`` bits of ``public`` are compared).  d = r ⊕ public is
    local; a log-depth prefix-OR from the top lane down,
    p ← p ∨ (p ≫ s) for s = 1, 2, 4, …, costs one word-AND per step
    (x ∨ y = x ⊕ y ⊕ x∧y); p ⊕ (p ≫ 1) then marks the most significant
    differing lane.  There r differs from ``public``, so r's bit is 1
    exactly where ``public``'s is 0: the answer is the parity of the mark
    over the lanes where ``public`` has a 0 — local again.  One daBit
    carries that bit into Z_q: open v = bit ⊕ ρ, ⟨bit⟩ = v + ⟨ρ⟩ − 2v⟨ρ⟩.
    """
    width = shared_bits.width
    lanes = (1 << width) - 1
    public &= lanes
    prefix = shared_bits ^ public
    step = 1
    while step < width:
        shifted = prefix >> step
        prefix = prefix ^ shifted ^ engine.and_words(prefix, shifted)
        step *= 2
    first_difference = prefix ^ (prefix >> 1)
    bit = (first_difference & (public ^ lanes)).parity()  # lanes where public is 0
    mask_word, mask = engine.dealer.dabit()
    (opened,) = engine.open_words([bit ^ mask_word])
    return 1 - mask if opened else mask


def prefix_or_msb_first(
    engine: MPCEngine, bits_msb_first: list[SharedValue]
) -> list[SharedValue]:
    """Running OR over shared bits, given and returned MSB-first."""
    prefix: list[SharedValue] = []
    acc: SharedValue | None = None
    for bit in bits_msb_first:
        if acc is None:
            acc = bit
        else:
            # OR(a, b) = a + b - a*b
            acc = acc + bit - engine.mul(acc, bit)
        prefix.append(acc)
    return prefix


def mod2m(engine: MPCEngine, a: SharedValue, k: int, m: int) -> SharedValue:
    """⟨a mod 2^m⟩ for a in the k-bit signed range, 0 <= m <= k-1."""
    if m == 0:
        return engine.share_public(0)
    if m >= k:
        raise ValueError(f"mod2m requires m < k, got m={m}, k={k}")
    tup = engine.dealer.prandm(k, m)
    masked = a + (tup.r2 * (1 << m)) + tup.r1
    masked = engine.add_public(masked, 1 << (k - 1))
    c = engine.open(masked)
    c_prime = c % (1 << m)
    u = bit_lt_public(engine, c_prime, tup.r1_bits)
    return engine.add_public(-tup.r1 + u * (1 << m), c_prime)


def trunc(engine: MPCEngine, a: SharedValue, k: int, m: int) -> SharedValue:
    """⟨⌊a / 2^m⌋⟩ exactly (arithmetic shift for negative a)."""
    if m == 0:
        return a
    remainder = mod2m(engine, a, k, m)
    return (a - remainder) * engine.field.pow2_inv(m)


def trunc_pr(engine: MPCEngine, a: SharedValue, k: int, m: int) -> SharedValue:
    """Probabilistic truncation: ⌊a / 2^m⌋ + u with a (data-dependent) bit u.

    One round and no bit-comparison; the ±1-ulp error is the standard SPDZ
    trade-off for fixed-point multiplication rescaling.
    """
    if m == 0:
        return a
    tup = engine.dealer.prandm(k, m, with_bits=False)
    masked = a + (tup.r2 * (1 << m)) + tup.r1
    masked = engine.add_public(masked, 1 << (k - 1))
    c = engine.open(masked)
    c_prime = c % (1 << m)
    remainder = engine.add_public(-tup.r1, c_prime)  # a mod 2^m - u*2^m
    return (a - remainder) * engine.field.pow2_inv(m)


def ltz(engine: MPCEngine, a: SharedValue, k: int) -> SharedValue:
    """⟨1⟩ if a < 0 else ⟨0⟩ (a in k-bit signed range)."""
    opcount.GLOBAL.cc += 1
    return -trunc(engine, a, k, k - 1)


def lt(engine: MPCEngine, a: SharedValue, b: SharedValue, k: int) -> SharedValue:
    """⟨1⟩ if a < b.  Uses k+1 bits internally so a - b cannot overflow."""
    return ltz(engine, a - b, k + 1)


def gt(engine: MPCEngine, a: SharedValue, b: SharedValue, k: int) -> SharedValue:
    return lt(engine, b, a, k)


def le(engine: MPCEngine, a: SharedValue, b: SharedValue, k: int) -> SharedValue:
    return 1 - gt(engine, a, b, k)


def eqz(engine: MPCEngine, a: SharedValue, k: int) -> SharedValue:
    """⟨1⟩ if a == 0 else ⟨0⟩: neither negative nor positive."""
    negative = ltz(engine, a, k)
    positive = ltz(engine, -a, k)
    return 1 - negative - positive


def eq(engine: MPCEngine, a: SharedValue, b: SharedValue, k: int) -> SharedValue:
    return eqz(engine, a - b, k + 1)


def bit_dec(engine: MPCEngine, a: SharedValue, k: int) -> list[SharedValue]:
    """Bits (little-endian, k shared bits) of a, for a in [0, 2^k).

    Opens c = 2^(k+κ) + a - r for a bitwise-shared random r, then runs a
    binary ripple-carry addition of the public c with the shared bits of r;
    the low k sum bits are exactly the bits of a.
    """
    kappa = engine.kappa
    bw = engine.dealer.bitwise_random(k + kappa, low_bits=k)
    masked = engine.add_public(a - bw.r, 1 << (k + kappa))
    c = engine.open(masked)
    carry = engine.share_public(0)
    bits: list[SharedValue] = []
    for i in range(k):
        r_i = bw.bits[i]
        c_i = (c >> i) & 1
        t = engine.mul(r_i, carry)
        xor = r_i + carry - t * 2  # r_i XOR carry
        if c_i == 0:
            bits.append(xor)
            carry = t
        else:
            bits.append(engine.add_public(-xor, 1))  # 1 XOR (r_i XOR carry)
            carry = r_i + carry - t  # OR when the public bit is 1
    return bits


def select(
    engine: MPCEngine, condition: SharedValue, if_true: SharedValue, if_false: SharedValue
) -> SharedValue:
    """⟨condition ? if_true : if_false⟩ for a shared 0/1 condition (1 mul)."""
    return if_false + engine.mul(condition, if_true - if_false)


def argmax(
    engine: MPCEngine, values: list[SharedValue], k: int, slack: int = 0
) -> tuple[SharedValue, SharedValue, list[SharedValue]]:
    """Secure maximum with secret index (paper §4.1).

    Returns (⟨index⟩, ⟨max⟩, one-hot ⟨λ⟩) where λ_t = 1 iff t is the argmax.
    The one-hot form is what the enhanced protocol's private split selection
    consumes (§5.2).  A later value replaces the running maximum only if it
    exceeds it by more than ``slack`` (raw field units), so ties resolve to
    the earliest index, matching the plaintext CART implementation: exact
    ties at ``slack = 0``, and values that are equal up to ``slack`` of
    accumulated ``trunc_pr`` noise otherwise.
    """
    if not values:
        raise ValueError("argmax of an empty list")
    current_max = values[0]
    onehot = [engine.share_public(1)] + [
        engine.share_public(0) for _ in values[1:]
    ]
    for i in range(1, len(values)):
        is_greater = gt(engine, values[i] - slack, current_max, k)
        current_max = select(engine, is_greater, values[i], current_max)
        keep = engine.add_public(-is_greater, 1)  # 1 - b
        updates = engine.mul_many([(onehot[j], keep) for j in range(i)])
        for j in range(i):
            onehot[j] = updates[j]
        onehot[i] = is_greater
    index = engine.share_public(0)
    for t, flag in enumerate(onehot):
        index = index + flag * t
    return index, current_max, onehot
