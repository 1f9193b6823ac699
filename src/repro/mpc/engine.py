"""The online phase of the SPDZ-style MPC engine (paper §2.2).

Provides the secure computation primitives the paper builds on:

* secure addition and public scaling (local),
* secure multiplication via Beaver triples,
* inner products,
* inputs and openings (reconstruction) with optional MAC checking,
* the same two interactive steps for XOR-shared words
  (:mod:`repro.mpc.binary`): ``and_words`` (one binary triple) and
  ``open_words``, MAC-checked under a GF(2) key.

All m parties run in one process; communication is *accounted* rather than
performed: every opening increments round/byte counters which the cost
model (repro.analysis) converts into modeled network time.

**One call is one batch.**  Every interactive primitive takes a batch —
a list of values (``input_many``, ``open_many``, ``mul_many``,
``inner_product``, ``open_words``, and the protocols of
:mod:`repro.mpc.comparison` and :class:`~repro.mpc.advanced.FixedPointOps`
built on them), or a word of packed lanes (``and_words``) — and its rounds
do not depend on the batch's length, exactly as a real SPDZ implementation
merges parallel openings into one message exchange.  An empty batch costs
no round and no dealer material.  Independent work goes into one call;
only a dependent chain is a sequence of calls.

**Kernels run on rows.**  Inside a batch the engine holds no
:class:`SharedValue` per value: a batch is a list of *rows*, row i being
party i's share of every value — exactly what she would hold — and, in an
authenticated engine, row n + i her MAC shares beside them.  Authenticated
and semi-honest engines run the same kernels; a public constant c enters
row i as c·u_i for the engine's unit vector u = (1, 0, …, 0 | Δ_1, …, Δ_n),
so party 0 adds it to her share and every party Δ_i·c to her MAC.  The
dealer hands its material over as rows too (:mod:`repro.mpc.dealer`).
``SharedValue`` / ``BinaryWord`` objects are built only where a primitive
returns them.  Every opening — ``open_many``, ``open_words`` and each
kernel's masked values — goes through one routine, :meth:`MPCEngine._open`,
which checks the MACs of an authenticated engine and charges one round.
"""

from __future__ import annotations

import random
import secrets
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
from operator import sub, xor

from repro.analysis import opcount
from repro.mpc.binary import BinaryWord, spread
from repro.mpc.dealer import TrustedDealer
from repro.mpc.field import MERSENNE_127, PrimeField
from repro.mpc.sharing import MacCheckError, SharedValue

__all__ = ["MPCEngine", "CommStats"]

#: A batch as rows: row i holds party i's share of every value, and in an
#: authenticated engine row n + i her MAC shares.
Rows = Sequence[Sequence[int]]

#: Statistical security parameter κ (bits) used by masking and truncation.
DEFAULT_KAPPA = 40


@dataclass
class CommStats:
    """Online communication counters (per engine)."""

    rounds: int = 0
    messages: int = 0
    bytes: int = 0
    opened_values: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "rounds": self.rounds,
            "messages": self.messages,
            "bytes": self.bytes,
            "opened_values": self.opened_values,
        }


class MPCEngine:
    """An m-party SPDZ-style engine over a prime field.

    Parameters
    ----------
    n_parties:
        Number of clients m.
    field:
        The prime field Z_q (default: Mersenne 2^127 - 1).
    authenticated:
        If True, every share carries SPDZ MAC shares and every opening
        verifies them (malicious model, §9.1.1); if False, plain additive
        shares (semi-honest model, §2.2).
    seed:
        Seeds the dealer and the engine's own sharing randomness: at one
        seed the shares and the dealer's material repeat.  The MAC keys Δ
        and Δ₂ do not: they come from ``secrets`` at any seed, so an
        authenticated engine's MAC shares differ between runs.  (ROADMAP
        item 13a moves the shares and the dealer to ``secrets`` too.)
    """

    def __init__(
        self,
        n_parties: int,
        field: PrimeField = MERSENNE_127,
        authenticated: bool = False,
        kappa: int = DEFAULT_KAPPA,
        seed: int | None = None,
    ):
        if n_parties < 2:
            raise ValueError(f"MPC needs >= 2 parties, got {n_parties}")
        self.n_parties = n_parties
        self.field = field
        self.authenticated = authenticated
        self.kappa = kappa
        self.rng = random.Random(seed)
        # Global MAC key Delta = sum of per-party key shares.
        self.mac_key_shares = tuple(field.random() for _ in range(n_parties))
        self.mac_key = sum(self.mac_key_shares) % field.q
        # Its GF(2) counterpart Delta_2 (kappa bits, XOR-shared) for binary words.
        self.binary_key_shares = tuple(secrets.randbits(kappa) for _ in range(n_parties))
        self.binary_key = reduce(xor, self.binary_key_shares)
        #: Rows of a batch: the n share rows, then (authenticated) n MAC rows.
        self.row_count = 2 * n_parties if authenticated else n_parties
        #: Random draws per fresh sharing: n − 1 shares (and n − 1 MAC shares).
        self.share_draws = self.row_count - self.row_count // n_parties
        #: The public 1 as rows: party 0's share, every party's MAC key share.
        self.unit = ((1,) + (0,) * (n_parties - 1)) + (
            self.mac_key_shares if authenticated else ()
        )
        self.dealer = TrustedDealer(self, seed=None if seed is None else seed + 1)
        self.stats = CommStats()
        self._q_bits = field.q.bit_length()
        self._element_bytes = (self._q_bits + 7) // 8

    # ------------------------------------------------------------------
    # sharing: values <-> rows
    # ------------------------------------------------------------------

    def _field_draws(self, rng: random.Random, count: int) -> list[int]:
        """``count`` draws of ``rng.randrange(q)``'s stream: q-bit draws,
        each one at or above q left out and drawn past (``randrange``'s
        rejection loop, for a whole batch at once)."""
        getrandbits, bits, q = rng.getrandbits, self._q_bits, self.field.q
        draws = [getrandbits(bits) for _ in range(count)]
        while draws and max(draws) >= q:
            draws = [r for r in draws if r < q]
            draws += [getrandbits(bits) for _ in range(count - len(draws))]
        return draws

    def _share(self, values: list[int], columns: list[list[int]]) -> list[list[int]]:
        """The rows of a sharing of every value (field representatives)
        whose random summands are ``columns``: n − 1 columns of shares,
        then (authenticated) n − 1 of MAC shares of value·Δ; the last
        party's share of each is the remainder."""
        q, last = self.field.q, self.n_parties - 1
        rows = columns[:last]
        rows.append([(v - sum(parts)) % q for v, parts in zip(values, zip(*rows))])
        if self.authenticated:
            key, macs = self.mac_key, columns[last:]
            macs.append([(v * key - sum(parts)) % q for v, parts in zip(values, zip(*macs))])
            rows += macs
        return rows

    def _share_values(self, values: list[int], rng: random.Random) -> list[list[int]]:
        """The rows of a fresh sharing of every value: for each in turn,
        its n − 1 random shares, then its n − 1 random MAC shares, from
        ``rng.randrange(q)``'s stream."""
        stride = self.share_draws
        draws = self._field_draws(rng, len(values) * stride)
        return self._share(values, [draws[t::stride] for t in range(stride)])

    def _make_shared(self, value: int, rng: random.Random | None = None) -> SharedValue:
        """Split ``value`` (field representative) into authenticated shares."""
        return self._values(self._share_values([value % self.field.q], rng or self.rng))[0]

    def _binary_widths(self, width: int) -> tuple[int, ...]:
        """Bit widths of the random draws that XOR-share a ``width``-lane
        word: n − 1 party words, then (authenticated) n − 1 lane-MAC words."""
        n = self.n_parties
        return (width,) * (n - 1) + (width * self.kappa,) * (self.share_draws - n + 1)

    def _xor_word(self, secret: int, width: int, draws: Sequence[int]) -> BinaryWord:
        """The XOR sharing of the ``width``-lane ``secret`` whose random
        summands are ``draws`` (:meth:`_binary_widths`); the last party's
        word and lane MACs are the remainders."""
        last = self.n_parties - 1
        shares, macs = draws[:last], draws[last:]
        return BinaryWord(
            self,
            width,
            (*shares, reduce(xor, shares, secret)),
            (*macs, reduce(xor, macs, spread(secret, self.kappa) * self.binary_key))
            if self.authenticated
            else None,
        )

    def _make_binary(
        self, word: int, width: int, rng: random.Random | None = None
    ) -> BinaryWord:
        """XOR-share the ``width``-bit ``word`` (with lane MACs if authenticated)."""
        if word >> width:
            raise ValueError(f"word does not fit {width} lanes")
        getrandbits = (rng or self.rng).getrandbits
        return self._xor_word(word, width, [getrandbits(w) for w in self._binary_widths(width)])

    def _rows(self, values: Sequence[SharedValue]) -> Rows:
        """The rows of a batch of shared values (shares, then MAC shares)."""
        authenticated = self.authenticated
        for sv in values:
            if sv.engine is not self:
                raise ValueError("shared value belongs to a different engine")
            if authenticated and sv.macs is None:
                raise MacCheckError("authenticated engine received unauthenticated share")
        if not values:
            return [()] * self.row_count
        return list(zip(*[sv.shares + (sv.macs or ()) for sv in values]))

    def _values(self, rows: Rows) -> list[SharedValue]:
        """One :class:`SharedValue` per column of ``rows``."""
        if not self.authenticated:
            return [SharedValue(self, column) for column in zip(*rows)]
        n = self.n_parties
        return [SharedValue(self, column[:n], column[n:]) for column in zip(*rows)]

    def _word_rows(self, words: list[BinaryWord]) -> Rows:
        """The rows of a list of words: column j holds word j's party
        words, then (authenticated) its lane MACs."""
        for word in words:
            if word.engine is not self:
                raise ValueError("binary word belongs to a different engine")
            if self.authenticated and word.macs is None:
                raise MacCheckError("authenticated engine received unauthenticated word")
        return list(zip(*[word.shares + (word.macs or ()) for word in words]))

    def share_public(self, value: int) -> SharedValue:
        """⟨value⟩ for a publicly known value (no communication needed)."""
        q = self.field.q
        value %= q
        return self._values([[value * u % q] for u in self.unit])[0]

    def input_many(self, values: list[int], owner: int = 0) -> list[SharedValue]:
        """Party ``owner`` secret-shares her private inputs in one round:
        she sends every other party one share of each."""
        if not 0 <= owner < self.n_parties:
            raise ValueError(f"owner index {owner} out of range")
        if not values:
            return []
        self._record_round(messages=self.n_parties - 1, values=len(values))
        q = self.field.q
        return self._values(self._share_values([v % q for v in values], self.rng))

    # ------------------------------------------------------------------
    # opening
    # ------------------------------------------------------------------

    def _open(self, rows: Rows, widths: list[int] | None = None) -> list[int]:
        """Open every column of ``rows`` in one round: the one opening
        routine.  Field values (the default) are the share sum mod q, and in
        an authenticated engine the MAC rows must sum to Δ times it; with
        ``widths`` (one per column) the columns are XOR-shared words,
        MAC-checked under Δ₂ and accounted at their real size, ⌈lanes / 8⌉
        bytes a message.
        """
        if not rows or not rows[0]:
            return []
        n = self.n_parties
        if widths is None:
            q = self.field.q
            opened = [total % q for total in map(sum, zip(*rows[:n]))]
            if self.authenticated:
                # Each party i commits σ_i = mac_i − Δ_i·x; the sums must
                # vanish.  (Computed directly; a real run adds a commit
                # round, counted in _record_round for openings.)
                key = self.mac_key
                macs = map(sum, zip(*rows[n:]))
                if any((mac - key * value) % q for mac, value in zip(macs, opened)):
                    raise MacCheckError("MAC check failed: shares were tampered with")
            message_bytes = None
        else:
            opened = [reduce(xor, column) for column in zip(*rows[:n])]
            if self.authenticated:
                key, kappa = self.binary_key, self.kappa
                for column, value in zip(zip(*rows[n:]), opened):
                    if reduce(xor, column) != spread(value, kappa) * key:
                        raise MacCheckError(
                            "MAC check failed: binary shares were tampered with"
                        )
            message_bytes = (sum(widths) + 7) // 8
        self._record_round(
            messages=n * (n - 1), values=len(opened), message_bytes=message_bytes
        )
        return opened

    def open_many(self, values: list[SharedValue]) -> list[int]:
        """Open a batch in a single communication round, with MAC checks."""
        return self._open(self._rows(values))

    def open_words(self, words: list[BinaryWord]) -> list[int]:
        """Open XOR-shared words in one round, at their real size in bits."""
        if not words:
            return []
        return self._open(self._word_rows(words), [word.width for word in words])

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def add_public(self, a: SharedValue, constant: int) -> SharedValue:
        """⟨a + c⟩ for public c: party 0 adjusts her share, MACs locally."""
        q = self.field.q
        c = constant % q
        shares = list(a.shares)
        shares[0] = (shares[0] + c) % q
        macs = None
        if a.macs is not None:
            macs = tuple(
                (m + dk * c) % q for m, dk in zip(a.macs, self.mac_key_shares)
            )
        return SharedValue(self, tuple(shares), macs)

    def mul(self, a: SharedValue, b: SharedValue) -> SharedValue:
        # Kept for benchmarks/e2e/probes.py's ``_mul_us``; src/ calls mul_many.
        return self.mul_many([(a, b)])[0]

    def _mul(self, xs: Rows, ys: Rows) -> Rows:
        """Beaver products of the columns of two row batches, in one round.

        Opens d = x − a and e = y − b (the triple's uniform masks), then
        z = c + d·b + e·a + d·e, the public d·e entering through the unit.
        """
        count = len(xs[0])
        if not count:
            return xs
        opcount.GLOBAL.cs += count
        q = self.field.q
        a_rows, b_rows, c_rows = self.dealer.triples(count)
        # Opened values need no reduction: the opening sums mod q.
        opened = self._open(
            [list(map(sub, (*x, *y), (*a, *b))) for x, y, a, b in zip(xs, ys, a_rows, b_rows)]
        )
        ds, es = opened[:count], opened[count:]
        des = [d * e for d, e in zip(ds, es)]
        return [
            [
                (c + d * b + e * a + one * de) % q
                for a, b, c, d, e, de in zip(a_row, b_row, c_row, ds, es, des)
            ]
            for a_row, b_row, c_row, one in zip(a_rows, b_rows, c_rows, self.unit)
        ]

    def mul_many(self, pairs: list[tuple[SharedValue, SharedValue]]) -> list[SharedValue]:
        """Beaver multiplication of many pairs in one communication round."""
        if not pairs:
            return []
        xs, ys = zip(*pairs)
        return self._values(self._mul(self._rows(xs), self._rows(ys)))

    def and_words(self, x: BinaryWord, y: BinaryWord) -> BinaryWord:
        """Lane-wise AND of two shared words: one binary triple, one round.

        Beaver's trick mod 2: open e = x ⊕ a and f = y ⊕ b (uniform, since
        the triple's a, b are), then x∧y = c ⊕ e∧y ⊕ f∧a.  Not a field
        multiplication: it does not count towards Cs.
        """
        width = x.width
        if y.width != width:
            raise ValueError(f"binary words of different widths: {width} and {y.width}")
        rows = self._word_rows([x, y, *self.dealer.and_triple(width)])
        e, f = self._open([(xi ^ a, yi ^ b) for xi, yi, a, b, _ in rows], [width, width])
        keep = [(e, f)] * self.n_parties
        if self.authenticated:  # the MAC rows keep whole κ-bit lanes
            lane = (1 << self.kappa) - 1
            keep += [(spread(e, self.kappa) * lane, spread(f, self.kappa) * lane)] * len(keep)
        z = [c ^ (yi & ke) ^ (a & kf) for (_, yi, a, _, c), (ke, kf) in zip(rows, keep)]
        n = self.n_parties
        return BinaryWord(self, width, tuple(z[:n]), tuple(z[n:]) or None)

    def _sum(self, rows: Rows) -> SharedValue:
        """The sum of a batch's columns: one sum per row."""
        q = self.field.q
        return self._values([[sum(row) % q] for row in rows])[0]

    def inner_product(
        self, xs: list[SharedValue], ys: list[SharedValue]
    ) -> SharedValue:
        """⟨Σ x_i y_i⟩ in one round (masked openings are batched)."""
        if len(xs) != len(ys):
            raise ValueError("inner product length mismatch")
        if not xs:
            return self.share_public(0)
        return self._sum(self._mul(self._rows(xs), self._rows(ys)))

    def sum_values(self, values: list[SharedValue]) -> SharedValue:
        if not values:
            return self.share_public(0)
        return self._sum(self._rows(values))

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def _record_round(
        self, messages: int, values: int, message_bytes: int | None = None
    ) -> None:
        """One round of ``messages`` messages carrying ``values`` values each:
        field elements unless ``message_bytes`` gives a message's real size."""
        if message_bytes is None:
            message_bytes = values * self._element_bytes
        self.stats.rounds += 1
        self.stats.messages += messages
        self.stats.bytes += messages * message_bytes
        self.stats.opened_values += values

    def reset_stats(self) -> None:
        self.stats = CommStats()
