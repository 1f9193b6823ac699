"""Secure impurity-gain computation over secret-shared statistics (§4.1-4.2).

Given the shared split statistics ⟨n_l⟩, ⟨n_r⟩, ⟨g_{l,k}⟩, ⟨g_{r,k}⟩
(classification) or ⟨n⟩, ⟨Σy⟩, ⟨Σy²⟩ per side (regression), computes the
shared gain of every candidate split with the SPDZ primitives.

**Which statistics are converted, which derived.**  Of the 2 + 2c
statistics of a classification split only c ever cross the
ciphertext→share boundary (Algorithm 2): ⟨n_l⟩ and ⟨g_{l,k}⟩ for the
c − 1 published label vectors.  The rest are linear in those and in the
node's own :class:`NodeStats`, so the trainer derives them by local share
subtraction: ⟨g_{l,c−1}⟩ = ⟨n_l⟩ − Σ_{k<c−1} ⟨g_{l,k}⟩ (every sample has
exactly one class) and the right child ``node − left``.  Regression
converts ⟨n_l⟩, ⟨Σ_l y⟩, ⟨Σ_l y²⟩ and derives the right side the same
way.  A node's own statistics are converted once, at the root; every
other node inherits the winning split's child statistics from its parent.

Two modes (DESIGN.md §5):

* ``paper`` — Eq. (5)/(6) verbatim: fractions via secure division (Eq. 8),
  weights w_l, w_r, squared fractions, weighted sums.
* ``reduced`` — the ranking-equivalent statistic Σ_k g²/n per side, two
  divisions per split; gains are then relative to the parent's statistic.

Both return values on a common scale such that (gain - leaf_threshold) > 0
iff the plaintext CART gain exceeds ``min_gain``.

**One normalisation per denominator.**  Eq. (5)/(8) name 2c + 1 fractions
per split (c classes) and c for the parent, but only three distinct
denominators per split — n, n_l, n_r — and n is the same for the whole
node.  Most of a secure division depends on the denominator alone
(:meth:`~repro.mpc.advanced.FixedPointOps.div`), so the fractions are
grouped: one ``div`` over ⟨n⟩ for the parent's fractions *and every
split's* w_l, one over each ⟨n_l⟩, one over each ⟨n_r⟩ — 2S + 1
normalisations for S splits instead of (2c + 1)S + c.

``count_bits`` is the caller's declaration that every count (n, n_l, n_r)
is below 2^count_bits in raw fixed-point units; it is handed to ``div`` as
``b_bits``, whose contract applies: a count can be bounded by the public
number of samples, and by nothing that depends on the data.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mpc.advanced import FixedPointOps
from repro.mpc.sharing import SharedValue

__all__ = ["SplitStats", "NodeStats", "secure_split_gains"]


@dataclass
class SplitStats:
    """Shared statistics of one candidate split (left/right children).

    The left side is converted (its last class count derived), the right
    side is the node minus the left — see the module docstring.
    """

    n_left: SharedValue
    n_right: SharedValue
    left: list[SharedValue]  # per class counts, or [Σy, Σy²]
    right: list[SharedValue]


@dataclass
class NodeStats:
    """Shared statistics of one node: converted at the root, inherited
    from the parent's winning split everywhere else."""

    n: SharedValue
    totals: list[SharedValue]  # per class counts, or [Σy, Σy²]

    def __sub__(self, other: "NodeStats") -> "NodeStats":
        """The sibling by subtraction: this node minus one of its children."""
        return NodeStats(
            self.n - other.n,
            [total - part for total, part in zip(self.totals, other.totals)],
        )


def secure_split_gains(
    fx: FixedPointOps,
    task: str,
    node: NodeStats,
    splits: list[SplitStats],
    gain_mode: str,
    min_gain: float,
    count_bits: int | None = None,
) -> tuple[list[SharedValue], SharedValue]:
    """Shared gains for all splits plus the shared leaf threshold.

    The caller declares the node a leaf iff  max(gains) <= threshold,
    and otherwise picks argmax(gains); both comparisons happen on shares.
    """
    if gain_mode == "paper":
        return _paper_gains(fx, task, node, splits, min_gain, count_bits)
    return _reduced_gains(fx, task, node, splits, min_gain, count_bits)


def _paper_gains(
    fx: FixedPointOps,
    task: str,
    node: NodeStats,
    splits: list[SplitStats],
    min_gain: float,
    count_bits: int | None,
) -> tuple[list[SharedValue], SharedValue]:
    """gain = w_l P(D_l) + w_r P(D_r) - P(D) for the purity P of the task.

    Classification (Eq. 5): P = Σ_k p_k².  Regression (Eq. 6): P = -IV =
    (Σy/n)² - Σy²/n, so the same expression is IV(D) - w_l IV(D_l) -
    w_r IV(D_r).
    """
    purity = _sum_of_squares if task == "classification" else _negated_variance
    n_totals = len(node.totals)
    over_n = fx.div(
        node.totals + [split.n_left for split in splits], node.n, count_bits
    )
    parent = purity(fx, over_n[:n_totals])
    one = fx.share(1.0)
    gains = []
    for split, w_left in zip(splits, over_n[n_totals:]):
        left = purity(fx, fx.div(split.left, split.n_left, count_bits))
        right = purity(fx, fx.div(split.right, split.n_right, count_bits))
        gains.append(fx.mul(w_left, left) + fx.mul(one - w_left, right) - parent)
    return gains, fx.share(min_gain)


def _reduced_gains(
    fx: FixedPointOps,
    task: str,
    node: NodeStats,
    splits: list[SplitStats],
    min_gain: float,
    count_bits: int | None,
) -> tuple[list[SharedValue], SharedValue]:
    """Σ_k g_{l,k}²/n_l + Σ_k g_{r,k}²/n_r, compared against the parent's
    Σ_k g_k²/n + n·min_gain (the n-scaled form of Eq. 5); for regression
    the one statistic is Σy: (Σ_l y)²/n_l + (Σ_r y)²/n_r vs (Σy)²/n."""
    used = None if task == "classification" else 1

    def statistic(values: list[SharedValue], n: SharedValue) -> SharedValue:
        return fx.div(_sum_of_squares(fx, values[:used]), n, count_bits)

    gains = [
        statistic(split.left, split.n_left) + statistic(split.right, split.n_right)
        for split in splits
    ]
    threshold = statistic(node.totals, node.n)
    if min_gain:
        threshold = threshold + fx.mul_public(node.n, min_gain)
    return gains, threshold


def _sum_of_squares(fx: FixedPointOps, values: list[SharedValue]) -> SharedValue:
    return fx.engine.sum_values([fx.mul(v, v) for v in values])


def _negated_variance(fx: FixedPointOps, means: list[SharedValue]) -> SharedValue:
    """-IV = (Σy/n)² - Σy²/n from the fractions [Σy/n, Σy²/n]  (Eq. 6)."""
    mean, mean_sq = means
    return fx.mul(mean, mean) - mean_sq
