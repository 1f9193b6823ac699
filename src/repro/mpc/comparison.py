"""Secure comparison and bit-level protocols (paper §2.2, refs [17, 18]).

Implements the Catrina–de Hoogh suite on top of the engine and dealer:

* ``mod2m``          — ⟨a mod 2^m⟩ (exact)
* ``trunc``          — ⟨⌊a / 2^m⌋⟩ (exact, floor for signed a)
* ``trunc_pr``       — probabilistic truncation (±1 ulp, no bit-compare)
* ``ltz``            — sign extraction, shared 0/1 result
* ``lt / gt / le``   — pairwise comparisons, shared 0/1 result
* ``eqz``            — equality with zero
* ``select``         — oblivious choice by a shared 0/1 condition
* ``decompose``      — the bits of many non-negative shared values, as one
                       packed XOR-shared word
* ``top_bits``       — one-hot of each packed value's most significant bit
* ``to_arithmetic``  — packed values back to Z_q (one edaBit each)
* ``lift``           — the lanes of a word as shared bits in Z_q (daBits)
* ``argmax``         — secure maximum with one-hot index, per row (used for
                       the best split, paper §4.1 "secure maximum
                       computation", and the ensembles' votes, §7)

Each of them takes a batch — a list of N values, a word of packed lanes,
or (``argmax``) N rows of one length — and costs the rounds of one value
or one row (see :mod:`repro.mpc.engine`).

Every bit-level step runs in the binary domain (:mod:`repro.mpc.binary`),
the way SPDZ implementations do it with edaBits/daBits: the dealer hands
out the bits of a mask as packed XOR-shared words, a carry chain or
prefix-OR is ⌈log₂ m⌉ word-wide ANDs however many values share the word,
and daBits lift result bits back to Z_q.  Cost of one call over N values
at m bits per value — rounds (= openings), field multiplications (Cs),
binary material from the dealer; the N values' bits sit side by side in
one word, so the rounds and AND triples are one value's:

    =============  ================  ==  =================================
    primitive      rounds            Cs  binary material
    =============  ================  ==  =================================
    trunc_pr       1                 0   N PRandM (no bits)
    mod2m          2 + ⌈log₂ m⌉      0   ⌈log₂ m⌉ AND triples (N·m
                                         lanes), N PRandM, N daBits
    trunc          as mod2m          0   as mod2m
    ltz            mod2m at k − 1    0   as mod2m; N Cc
    lt/gt/le       ltz at k + 1      0   as ltz
    eqz            ltz over 2N       0   as ltz over [a, −a]; 2N Cc
    select         1                 N   —
    decompose      1 + ⌈log₂ m⌉      0   1 edaBit per value,
                                         ⌈log₂ m⌉ AND triples per word
    top_bits       ⌈log₂ m⌉          0   ⌈log₂ m⌉ AND triples per word
    to_arithmetic  3 + ⌈log₂ m⌉      0   1 edaBit + 1 daBit per value,
                                         1 + ⌈log₂ m⌉ AND triples per word
    lift           1                 0   1 daBit per lane
    argmax         (S − 1)·(gt + 1)  ∗   as gt over N values, S − 1 times
    =============  ================  ==  =================================

∗ ``argmax`` over N rows of S values is a scan of S − 1 dependent steps;
step i is one ``gt`` over the N rows and one multiplication round of
N·(i + 1) products (the running maximum's select and the one-hot
update), so N·(S − 1)(S + 2)/2 Cs in all.

so ``ltz`` at k = 40 is 2 openings (the masked values, the daBit-masked
result bits) + 6 word-ANDs: 8 rounds, 6 AND triples and no field
multiplication for any number of values (enhanced prediction compares
every row at every node in one); ``eqz`` is the same 8 rounds; and the
Norm of any number of 40-bit denominators
(:meth:`repro.mpc.advanced.FixedPointOps.norm`) is 23 rounds and one field
multiplication per denominator.

What each opening shows, and under which mask:

* an arithmetic opening (``mod2m``, ``trunc_pr``, ``decompose``) shows
  a + r for a dealer r with κ bits more than a: statistically hidden,
  distance 2^-κ;
* a word-AND opens x ⊕ a and y ⊕ b for the AND triple's uniform a, b;
* ``to_arithmetic`` opens each value plus an edaBit's r mod 2^m, and
  ``lift`` (so every compare bit of ``mod2m``) each bit XOR a daBit's
  bit: uniform whatever the secret, perfect hiding.

A batch opens exactly what its values would open one by one, each under
its own mask: packing changes how many messages carry the openings, not
what they show.

Every mask is drawn from the dealer's seeded stream and used once.

Inside a call the values travel as rows — party i's shares of every value
in row i, MAC rows beside them (:mod:`repro.mpc.engine`): ``mod2m`` masks
whole rows and opens them through the engine's one opening routine, its
compare runs on one packed word, and only the values a primitive returns
become ``SharedValue`` objects.  A primitive
built on another (``ltz`` on ``trunc`` on ``mod2m``, ``eqz`` and ``lt`` on
``ltz``, ``to_arithmetic`` on ``lift``) hands rows down, not values.
All protocols follow the paper's convention: inputs are secretly shared
values in a k-bit signed range, outputs are secretly shared values; nothing
is revealed except these masked openings.
"""

from __future__ import annotations

from operator import sub

from repro.analysis import opcount
from repro.mpc.binary import BinaryWord, block_mask, concat, pack
from repro.mpc.engine import MPCEngine, Rows
from repro.mpc.sharing import SharedValue

__all__ = [
    "mod2m",
    "trunc",
    "trunc_pr",
    "ltz",
    "lt",
    "gt",
    "le",
    "eqz",
    "decompose",
    "top_bits",
    "to_arithmetic",
    "lift",
    "argmax",
    "select",
]



def _lift(engine: MPCEngine, word: BinaryWord) -> Rows:
    """:func:`lift`, as rows."""
    mask_word, masks = engine.dealer.dabits(word.width)
    (opened,) = engine.open_words([word ^ mask_word])
    q = engine.field.q
    flipped = [opened >> i & 1 for i in range(word.width)]
    return [
        [(unit - r) % q if bit else r for r, bit in zip(row, flipped)]
        for row, unit in zip(masks, engine.unit)
    ]


def lift(engine: MPCEngine, word: BinaryWord) -> list[SharedValue]:
    """Every lane of ``word`` as a shared bit in Z_q, lane 0 first.

    One daBit per lane: open e = x ⊕ ρ (uniform), then
    ⟨x⟩ = e + ⟨ρ⟩ − 2e⟨ρ⟩ — ⟨ρ⟩ or 1 − ⟨ρ⟩, local for public e.
    """
    return engine._values(_lift(engine, word))


def _carries(
    engine: MPCEngine, generate: BinaryWord, propagate: BinaryWord, block: int
) -> BinaryWord:
    """Lane i: the carry out of lane i of a blockwise addition, given each
    lane's generate (x ∧ y) and propagate (x ⊕ y) bits.

    Kogge–Stone: at shift s every lane combines its group with the one s
    lanes below, G ← G ⊕ P∧(G ≪ s) and P ← P∧(P ≪ s) (G and P∧G' never
    overlap, so ⊕ is ∨).  G and P travel side by side in one word of twice
    the lanes, so both ANDs are one word-AND: [P | P] ∧ ([G | P] ≪ s).  The
    public mask of each shift zeroes the lanes that would read across a
    block boundary (P's half starts on one), so no carry enters a block.
    ⌈log₂ block⌉ rounds.
    """
    width = generate.width
    low = (1 << width) - 1
    both = concat([generate, propagate])
    step = 1
    while step < block:
        above = block_mask(2 * width, block, ((1 << block) - 1) ^ ((1 << step) - 1))
        doubled = (both >> width) ^ (both & (low << width))  # [P | P]
        both = (both & low) ^ engine.and_words(doubled, (both << step) & above)
        step *= 2
    return both.narrow(width)


def _add(
    engine: MPCEngine, generate: BinaryWord, propagate: BinaryWord, block: int
) -> tuple[BinaryWord, BinaryWord]:
    """(x + y mod 2^block per block, the carry out of every lane)."""
    carries = _carries(engine, generate, propagate, block)
    above_bottom = block_mask(carries.width, block, (1 << block) - 2)
    return propagate ^ ((carries << 1) & above_bottom), carries


def decompose(engine: MPCEngine, values: list[SharedValue], width: int) -> BinaryWord:
    """The bits of each value in [0, 2^width), value j in lanes
    [j·width, (j + 1)·width) of one XOR-shared word.

    One edaBit per value: open every c_j = a_j − r_j + 2^(width+κ) in one
    round (r_j has κ bits of slack above a_j), then add the public c_j to
    r_j's shared low bits; the low ``width`` sum bits are a_j's.
    """
    kappa = engine.kappa
    rows = engine._rows(values)
    masks, mask_bits = engine.dealer.edabits(len(values), width, kappa)
    offset = 1 << (width + kappa)
    opened = engine._open(
        [
            [a - r + shift for a, r in zip(row, mask_row)]
            for row, mask_row, shift in zip(rows, masks, (offset * u for u in engine.unit))
        ]
    )
    low = (1 << width) - 1
    public = pack([c & low for c in opened], width)
    total, _ = _add(engine, mask_bits & public, mask_bits ^ public, width)
    return total


def top_bits(engine: MPCEngine, word: BinaryWord, block: int) -> BinaryWord:
    """One-hot of the most significant set lane of every ``block``-lane
    block (an all-zero block stays zero).

    Log-depth prefix-OR from each block's top lane down,
    p ← p ∨ (p ≫ s) for s = 1, 2, 4, … (x ∨ y = x ⊕ y ⊕ x∧y, one word-AND
    per step, masked so no lane reads the block above — a word of one block
    needs no mask: ≫ already empties its top lanes); then p ⊕ (p ≫ 1).
    """
    width = word.width

    def down(value: BinaryWord, step: int) -> BinaryWord:
        shifted = value >> step
        if width == block:
            return shifted
        return shifted & block_mask(width, block, (1 << (block - step)) - 1)

    prefix = word
    step = 1
    while step < block:
        shifted = down(prefix, step)
        prefix = prefix ^ shifted ^ engine.and_words(prefix, shifted)
        step *= 2
    return prefix ^ down(prefix, 1)


def to_arithmetic(engine: MPCEngine, word: BinaryWord, block: int) -> list[SharedValue]:
    """Every ``block``-lane block of ``word`` as a shared value in Z_q.

    One edaBit per block: add r's shared bits to the block in binary,
    open s = x + r mod 2^block (uniform), lift the carry out of the block
    with one daBit, and ⟨x⟩ = s − ⟨r⟩ + 2^block·⟨carry⟩.
    """
    count = word.width // block
    masks, mask_bits = engine.dealer.edabits(count, block)
    total, carries = _add(engine, engine.and_words(word, mask_bits), word ^ mask_bits, block)
    (opened,) = engine.open_words([total])
    # Each block's top carry moved to its lane 0, alone in its block: the
    # blockwise parity gathers them, block j's into lane j.
    tops = (carries >> (block - 1)) & block_mask(carries.width, block, 1)
    lifted = _lift(engine, tops.parity(block))
    q, scale = engine.field.q, 1 << block
    sums = [opened >> (j * block) & (scale - 1) for j in range(count)]
    return engine._values(
        [
            [(carry * scale - r + s * unit) % q for r, carry, s in zip(mask_row, row, sums)]
            for mask_row, row, unit in zip(masks, lifted, engine.unit)
        ]
    )


def _open_masked(
    engine: MPCEngine, rows: Rows, k: int, m: int, with_bits: bool
) -> tuple[Rows, BinaryWord | None, list[int]]:
    """One PRandM tuple per column: open c = a + 2^m·r2 + r1 + 2^(k-1) in
    one round; returns (r1's rows, r1's bits if asked for, c mod 2^m)."""
    r2s, r1s, r1_bits = engine.dealer.prandms(len(rows[0]), k, m, with_bits)
    scale, offset = 1 << m, 1 << (k - 1)
    opened = engine._open(
        [
            [a + r2 * scale + r1 + shift for a, r2, r1 in zip(row, r2_row, r1_row)]
            for row, r2_row, r1_row, shift in zip(rows, r2s, r1s, (offset * u for u in engine.unit))
        ]
    )
    return r1s, r1_bits, [c & (scale - 1) for c in opened]


def _mod2m(engine: MPCEngine, rows: Rows, k: int, m: int) -> Rows:
    """:func:`mod2m` of the columns of ``rows``, as rows."""
    count = len(rows[0])
    if m == 0:
        return [[0] * count for _ in rows]
    if m >= k:
        raise ValueError(f"mod2m requires m < k, got m={m}, k={k}")
    if not count:
        return rows
    r1s, r1_bits, publics = _open_masked(engine, rows, k, m, with_bits=True)
    assert r1_bits is not None
    public = pack(publics, m)
    first_difference = top_bits(engine, r1_bits ^ public, m)
    zeros = public ^ ((1 << r1_bits.width) - 1)  # lanes where c' is 0
    below = _lift(engine, (first_difference & zeros).parity(m))
    q, scale = engine.field.q, 1 << m
    return [
        [(u * scale - r1 + c * one) % q for r1, u, c in zip(r1_row, row, publics)]
        for r1_row, row, one in zip(r1s, below, engine.unit)
    ]


def mod2m(
    engine: MPCEngine, values: list[SharedValue], k: int, m: int
) -> list[SharedValue]:
    """⟨a mod 2^m⟩ for every a in the k-bit signed range, 0 <= m <= k-1.

    One PRandM tuple (r2, r1 < 2^m and r1's bits) per value: open every
    c = a + 2^m·r2 + r1 + 2^(k-1) in one round; with c' = c mod 2^m,
    a mod 2^m = c' − r1 + 2^m·[c' < r1].  The bit [c' < r1] is a
    most-significant-difference scan: r1's bits of every value sit side by
    side in one word, block j = value j; d = r1 ⊕ c' is local, and
    :func:`top_bits` marks each block's most significant set lane.  There
    r1 differs from c', so r1's bit is 1 exactly where c''s is 0: the
    answer is the parity of the mark over the lanes where c' has a 0 —
    local again, per block — and one :func:`lift` brings every block's bit
    into Z_q.  So the rounds are those of one value however many there are.
    """
    return engine._values(_mod2m(engine, engine._rows(values), k, m))


def _trunc(engine: MPCEngine, rows: Rows, k: int, m: int, sign: int = 1) -> Rows:
    """``sign``·⌊a / 2^m⌋ of the columns of ``rows``, as rows."""
    q = engine.field.q
    factor = sign * engine.field.pow2_inv(m)
    return [
        [(a - r) * factor % q for a, r in zip(row, rem)]
        for row, rem in zip(rows, _mod2m(engine, rows, k, m))
    ]


def trunc(
    engine: MPCEngine, values: list[SharedValue], k: int, m: int
) -> list[SharedValue]:
    """⟨⌊a / 2^m⌋⟩ of every value exactly (arithmetic shift for negative a)."""
    if m == 0:
        return list(values)
    return engine._values(_trunc(engine, engine._rows(values), k, m))


def _trunc_pr(engine: MPCEngine, rows: Rows, k: int, m: int) -> Rows:
    """:func:`trunc_pr` of the columns of ``rows``, as rows."""
    if m == 0 or not rows[0]:
        return rows
    r1s, _, cuts = _open_masked(engine, rows, k, m, with_bits=False)
    q, inverse = engine.field.q, engine.field.pow2_inv(m)
    return [
        [(a + r1 - c * one) * inverse % q for a, r1, c in zip(row, r1_row, cuts)]
        for row, r1_row, one in zip(rows, r1s, engine.unit)
    ]


def trunc_pr(
    engine: MPCEngine, values: list[SharedValue], k: int, m: int
) -> list[SharedValue]:
    """Probabilistic truncation: ⌊a / 2^m⌋ + u with a (data-dependent) bit
    u, for every value, their masked openings in one round.

    No bit-comparison; the ±1-ulp error is the standard SPDZ trade-off for
    fixed-point multiplication rescaling.  With PRandM's r1 < 2^m and r2:
    open c = a + r1 + 2^m·r2 + 2^(k-1); then a + r1 − (c mod 2^m) is a
    multiple of 2^m, divided out exactly.
    """
    if m == 0:
        return list(values)
    return engine._values(_trunc_pr(engine, engine._rows(values), k, m))


def _ltz(engine: MPCEngine, rows: Rows, k: int) -> Rows:
    """:func:`ltz` of the columns of ``rows``, as rows: −⌊a / 2^(k−1)⌋."""
    opcount.GLOBAL.cc += len(rows[0])
    return _trunc(engine, rows, k, k - 1, sign=-1)


def ltz(engine: MPCEngine, values: list[SharedValue], k: int) -> list[SharedValue]:
    """⟨1⟩ if a < 0 else ⟨0⟩ for every a in the k-bit signed range:
    −⌊a / 2^(k−1)⌋, one :func:`mod2m`."""
    return engine._values(_ltz(engine, engine._rows(values), k))


def _lt(engine: MPCEngine, a: Rows, b: Rows, k: int) -> Rows:
    """:func:`lt` of the columns of two row batches, as rows."""
    # Unreduced: the masked opening sums mod q, the result is reduced.
    return _ltz(engine, [list(map(sub, x_row, y_row)) for x_row, y_row in zip(a, b)], k + 1)


def lt(
    engine: MPCEngine, a: list[SharedValue], b: list[SharedValue], k: int
) -> list[SharedValue]:
    """⟨1⟩ if a_i < b_i, pairwise.  Uses k+1 bits internally so a - b
    cannot overflow."""
    if len(a) != len(b):
        raise ValueError("comparison length mismatch")
    return engine._values(_lt(engine, engine._rows(a), engine._rows(b), k))


def gt(
    engine: MPCEngine, a: list[SharedValue], b: list[SharedValue], k: int
) -> list[SharedValue]:
    return lt(engine, b, a, k)


def le(
    engine: MPCEngine, a: list[SharedValue], b: list[SharedValue], k: int
) -> list[SharedValue]:
    return [1 - bit for bit in gt(engine, a, b, k)]


def eqz(engine: MPCEngine, values: list[SharedValue], k: int) -> list[SharedValue]:
    """⟨1⟩ if a == 0 else ⟨0⟩, for every a: neither negative nor positive,
    one :func:`ltz` over [a..., −a...]."""
    q = engine.field.q
    rows = engine._rows(values)
    signs = _ltz(engine, [[*row, *(-a for a in row)] for row in rows], k)
    count = len(values)
    return engine._values(
        [
            [(one - negative - positive) % q for negative, positive in zip(row, row[count:])]
            for row, one in zip(signs, engine.unit)
        ]
    )


def select(
    engine: MPCEngine,
    conditions: list[SharedValue],
    if_true: list[SharedValue],
    if_false: list[SharedValue],
) -> list[SharedValue]:
    """⟨c_i ? t_i : f_i⟩ for shared 0/1 conditions (one multiplication each)."""
    if not conditions:
        return []
    q = engine.field.q
    falses = engine._rows(if_false)
    trues = engine._rows(if_true)
    differences = [list(map(sub, t_row, f_row)) for t_row, f_row in zip(trues, falses)]
    products = engine._mul(engine._rows(conditions), differences)
    return engine._values(
        [[(f + p) % q for f, p in zip(f_row, p_row)] for f_row, p_row in zip(falses, products)]
    )


def argmax(
    engine: MPCEngine, rows: list[list[SharedValue]], k: int, slack: int = 0
) -> list[tuple[SharedValue, SharedValue, list[SharedValue]]]:
    """Secure maximum with secret index (paper §4.1), for every row.

    Returns one (⟨index⟩, ⟨max⟩, one-hot ⟨λ⟩) per row, where λ_t = 1 iff
    t is the row's argmax.  The one-hot form is what the enhanced
    protocol's private split selection consumes (§5.2).  A later value
    replaces the running maximum only if it exceeds it by more than
    ``slack`` (raw field units), so ties resolve to the earliest index,
    matching the plaintext CART implementation: exact ties at
    ``slack = 0``, and values that are equal up to ``slack`` of
    accumulated ``trunc_pr`` noise otherwise.

    The rows have one length S; the scan takes S − 1 steps, each one
    :func:`gt` and one ``mul_many`` over every row, so a call costs the
    rounds of one row however many rows it has.  The running maxima and
    one-hots stay rows (:mod:`repro.mpc.engine`) from step to step.
    """
    if not rows:
        return []
    width = len(rows[0])
    if not width:
        raise ValueError("argmax of an empty list")
    if any(len(row) != width for row in rows):
        raise ValueError("argmax rows differ in length")
    q, unit, count = engine.field.q, engine.unit, len(rows)
    columns = [engine._rows([row[i] for row in rows]) for i in range(width)]
    maxima = columns[0]
    # Each party's one-hot entries, row after row: i of them per row at step i.
    onehots: Rows = [[one] * count for one in unit]  # position 0: the public 1
    for i in range(1, width):
        shifted = [[(x - slack * one) % q for x in row] for row, one in zip(columns[i], unit)]
        greater = _lt(engine, maxima, shifted, k)
        # Each row's running maximum select and one-hot update wait on
        # this compare alone: one multiplication round for all of them,
        # row after row [bit·(x_i − max), λ_0·(1 − bit), …, λ_(i−1)·(1 − bit)].
        xs = [
            [v for r, bit in enumerate(bits) for v in (bit, *onehot[r * i : r * i + i])]
            for bits, onehot in zip(greater, onehots)
        ]
        ys = [
            [
                v
                for x, m, bit in zip(x_row, m_row, bits)
                for v in ((x - m) % q, *[(one - bit) % q] * i)
            ]
            for x_row, m_row, bits, one in zip(columns[i], maxima, greater, unit)
        ]
        products = engine._mul(xs, ys)
        step = i + 1
        maxima = [
            [(m + p) % q for m, p in zip(m_row, row[0::step])]
            for m_row, row in zip(maxima, products)
        ]
        onehots = [
            [v for r, bit in enumerate(bits) for v in (*row[r * step + 1 : r * step + step], bit)]
            for row, bits in zip(products, greater)
        ]
    index = [
        [
            sum(t * flag for t, flag in enumerate(row[r * width : r * width + width])) % q
            for r in range(count)
        ]
        for row in onehots
    ]
    flags = iter(engine._values(onehots))
    return [
        (position, current, [next(flags) for _ in range(width)])
        for position, current in zip(engine._values(index), engine._values(maxima))
    ]
