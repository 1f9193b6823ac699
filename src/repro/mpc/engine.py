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
"""

from __future__ import annotations

import random
import secrets
from dataclasses import dataclass
from functools import reduce
from operator import xor

from repro.analysis import opcount
from repro.mpc.binary import BinaryWord, spread
from repro.mpc.dealer import TrustedDealer
from repro.mpc.field import MERSENNE_127, PrimeField
from repro.mpc.sharing import MacCheckError, SharedValue

__all__ = ["MPCEngine", "CommStats"]

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
        Seeds the dealer and the engine's own sharing randomness, making
        protocol runs reproducible.
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
        self.dealer = TrustedDealer(self, seed=None if seed is None else seed + 1)
        self.stats = CommStats()
        self._q_bits = field.q.bit_length()
        self._element_bytes = (self._q_bits + 7) // 8

    # ------------------------------------------------------------------
    # sharing / opening
    # ------------------------------------------------------------------

    def _split(self, value: int, rng: random.Random) -> tuple[int, ...]:
        """``value`` as n_parties uniformly random summands mod q.

        The summands are ``rng.randrange(q)``'s seeded stream: its
        rejection loop over ``getrandbits``, inlined here because this is
        the innermost loop of every MPC primitive.
        """
        q, bits, getrandbits = self.field.q, self._q_bits, rng.getrandbits
        shares = []
        for _ in range(self.n_parties - 1):
            r = getrandbits(bits)
            while r >= q:
                r = getrandbits(bits)
            shares.append(r)
        shares.append((value - sum(shares)) % q)
        return tuple(shares)

    def _make_shared(self, value: int, rng: random.Random | None = None) -> SharedValue:
        """Split ``value`` (field representative) into authenticated shares."""
        q = self.field.q
        value %= q
        rand = rng or self.rng
        shares = self._split(value, rand)
        macs = self._split(value * self.mac_key % q, rand) if self.authenticated else None
        return SharedValue(self, shares, macs)

    def _split_binary(self, word: int, bits: int, rng: random.Random) -> tuple[int, ...]:
        """``word`` as n_parties uniformly random ``bits``-bit XOR summands."""
        getrandbits = rng.getrandbits
        shares = []
        for _ in range(self.n_parties - 1):
            r = getrandbits(bits)
            word ^= r
            shares.append(r)
        shares.append(word)
        return tuple(shares)

    def _make_binary(
        self, word: int, width: int, rng: random.Random | None = None
    ) -> BinaryWord:
        """XOR-share the ``width``-bit ``word`` (with lane MACs if authenticated)."""
        if word >> width:
            raise ValueError(f"word does not fit {width} lanes")
        rand = rng or self.rng
        shares = self._split_binary(word, width, rand)
        macs = None
        if self.authenticated:
            lane_macs = spread(word, self.kappa) * self.binary_key
            macs = self._split_binary(lane_macs, width * self.kappa, rand)
        return BinaryWord(self, width, shares, macs)

    def share_public(self, value: int) -> SharedValue:
        """⟨value⟩ for a publicly known value (no communication needed)."""
        q = self.field.q
        value %= q
        shares = tuple([value] + [0] * (self.n_parties - 1))
        macs = None
        if self.authenticated:
            macs = tuple(value * dk % q for dk in self.mac_key_shares)
        return SharedValue(self, shares, macs)

    def input_many(self, values: list[int], owner: int = 0) -> list[SharedValue]:
        """Party ``owner`` secret-shares her private inputs in one round:
        she sends every other party one share of each."""
        if not 0 <= owner < self.n_parties:
            raise ValueError(f"owner index {owner} out of range")
        if not values:
            return []
        self._record_round(messages=self.n_parties - 1, values=len(values))
        return [self._make_shared(v % self.field.q) for v in values]

    def open_many(self, values: list[SharedValue]) -> list[int]:
        """Open a batch in a single communication round, with MAC checks."""
        if not values:
            return []
        q = self.field.q
        results = []
        for sv in values:
            if sv.engine is not self:
                raise ValueError("shared value belongs to a different engine")
            opened = sum(sv.shares) % q
            if self.authenticated:
                self._check_mac(sv, opened)
            results.append(opened)
        self._record_round(
            messages=self.n_parties * (self.n_parties - 1), values=len(values)
        )
        return results

    def open_words(self, words: list[BinaryWord]) -> list[int]:
        """Open XOR-shared words in one round, at their real size in bits."""
        if not words:
            return []
        results = []
        for word in words:
            if word.engine is not self:
                raise ValueError("binary word belongs to a different engine")
            opened = reduce(xor, word.shares)
            if self.authenticated:
                self._check_word_mac(word, opened)
            results.append(opened)
        lanes = sum(word.width for word in words)
        self._record_round(
            messages=self.n_parties * (self.n_parties - 1),
            values=len(words),
            message_bytes=(lanes + 7) // 8,
        )
        return results

    def _check_mac(self, sv: SharedValue, opened: int) -> None:
        q = self.field.q
        if sv.macs is None:
            raise MacCheckError("authenticated engine received unauthenticated share")
        # Each party i commits sigma_i = mac_i - Delta_i * opened; the sums
        # must vanish.  (We compute it directly; a real run adds a commit
        # round, counted in _record_round for openings.)
        total = sum(
            (m - dk * opened) % q for m, dk in zip(sv.macs, self.mac_key_shares)
        )
        if total % q != 0:
            raise MacCheckError("MAC check failed: shares were tampered with")

    def _check_word_mac(self, word: BinaryWord, opened: int) -> None:
        """:meth:`_check_mac` over GF(2): per lane, ⊕ᵢ (macᵢ ⊕ bit·Δ₂ᵢ) = 0."""
        if word.macs is None:
            raise MacCheckError("authenticated engine received unauthenticated word")
        lanes = spread(opened, self.kappa)
        total = 0
        for mac, key in zip(word.macs, self.binary_key_shares):
            total ^= mac ^ lanes * key
        if total:
            raise MacCheckError("MAC check failed: binary shares were tampered with")

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

    def mul_many(self, pairs: list[tuple[SharedValue, SharedValue]]) -> list[SharedValue]:
        """Beaver multiplication of many pairs in one communication round."""
        if not pairs:
            return []
        opcount.GLOBAL.cs += len(pairs)
        triples = [self.dealer.triple() for _ in pairs]
        masked = []
        for (x, y), (ta, tb, _) in zip(pairs, triples):
            masked.append(x - ta)
            masked.append(y - tb)
        opened = self.open_many(masked)
        q = self.field.q
        results = []
        for idx, (ta, tb, tc) in enumerate(triples):
            e = opened[2 * idx]
            f = opened[2 * idx + 1]
            # z = c + e·b + f·a + e·f, the public e·f added by party 0 (and
            # by every party into her MAC share, times her key share).
            shares = [
                (c + e * b + f * a) % q
                for a, b, c in zip(ta.shares, tb.shares, tc.shares)
            ]
            shares[0] = (shares[0] + e * f) % q
            macs = None
            if ta.macs is not None and tb.macs is not None and tc.macs is not None:
                ef = e * f % q
                macs = tuple(
                    (c + e * b + f * a + ef * dk) % q
                    for a, b, c, dk in zip(ta.macs, tb.macs, tc.macs, self.mac_key_shares)
                )
            results.append(SharedValue(self, tuple(shares), macs))
        return results

    def and_words(self, x: BinaryWord, y: BinaryWord) -> BinaryWord:
        """Lane-wise AND of two shared words: one binary triple, one round.

        Beaver's trick mod 2: open e = x ⊕ a and f = y ⊕ b (uniform, since
        the triple's a, b are), then x∧y = c ⊕ e∧y ⊕ f∧a.  Not a field
        multiplication: it does not count towards Cs.
        """
        a, b, c = self.dealer.and_triple(x.width)
        # Masking with this engine's triple also rejects a foreign or
        # differently wide x or y.
        e, f = self.open_words([x ^ a, y ^ b])
        shares = tuple(
            sc ^ (sy & e) ^ (sa & f) for sa, sy, sc in zip(a.shares, y.shares, c.shares)
        )
        macs = None
        if a.macs is not None and y.macs is not None and c.macs is not None:
            lane = (1 << self.kappa) - 1
            keep_e, keep_f = spread(e, self.kappa) * lane, spread(f, self.kappa) * lane
            macs = tuple(
                mc ^ (my & keep_e) ^ (ma & keep_f)
                for ma, my, mc in zip(a.macs, y.macs, c.macs)
            )
        return BinaryWord(self, x.width, shares, macs)

    def inner_product(
        self, xs: list[SharedValue], ys: list[SharedValue]
    ) -> SharedValue:
        """⟨Σ x_i y_i⟩ in one round (masked openings are batched)."""
        if len(xs) != len(ys):
            raise ValueError("inner product length mismatch")
        if not xs:
            return self.share_public(0)
        products = self.mul_many(list(zip(xs, ys)))
        total = products[0]
        for p in products[1:]:
            total = total + p
        return total

    def sum_values(self, values: list[SharedValue]) -> SharedValue:
        if not values:
            return self.share_public(0)
        total = values[0]
        for v in values[1:]:
            total = total + v
        return total

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
