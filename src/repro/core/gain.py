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

The gain is Eq. (5)/(6) verbatim: fractions via secure division (Eq. 8),
weights w_l, w_r, squared fractions, weighted sums.  A split is worth
taking iff (gain - leaf_threshold) > 0, the threshold being ``min_gain``.

**One division per level.**  Eq. (5)/(8) name 2c + 1 fractions per split
(c classes) and c for the parent, but only three distinct denominators per
split — n, n_l, n_r — and n is the same for the whole node.  Most of a
secure division depends on the denominator alone
(:meth:`~repro.mpc.advanced.FixedPointOps.div`), so the fractions are
grouped by denominator — the parent's fractions *and every split's* w_l
over ⟨n⟩, the left fractions over each ⟨n_l⟩, the right over each ⟨n_r⟩
— and the 2S + 1 groups of every node of a tree level go to ``div`` in
one call, which normalises all of their denominators together.
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
    nodes: list[NodeStats],
    splits: list[list[SplitStats]],
    min_gain: float,
) -> tuple[list[list[SharedValue]], list[SharedValue]]:
    """Shared gains of every node's splits plus each node's shared leaf
    threshold, for a whole tree level in one call: ``splits[i]`` are the
    candidate splits of ``nodes[i]``.

    The caller declares node i a leaf iff  max(gains[i]) <= threshold[i],
    and otherwise picks argmax(gains[i]); both comparisons happen on
    shares.  The level's divisions are one :meth:`FixedPointOps.div` call
    and its multiplications one round per step, so the MPC rounds are
    those of one node however many the level has.

    gain = w_l P(D_l) + w_r P(D_r) - P(D) for the purity P of the task.
    Classification (Eq. 5): P = Σ_k p_k².  Regression (Eq. 6): P = -IV =
    (Σy/n)² - Σy²/n, so the same expression is IV(D) - w_l IV(D_l) -
    w_r IV(D_r).
    """
    # Per node: its own fractions and every split's w_l over ⟨n⟩, then
    # each split's left and right fractions over ⟨n_l⟩ and ⟨n_r⟩.
    groups: list[list[SharedValue]] = []
    denominators: list[SharedValue] = []
    for node, node_splits in zip(nodes, splits):
        groups.append(node.totals + [split.n_left for split in node_splits])
        groups += [side for split in node_splits for side in (split.left, split.right)]
        denominators.append(node.n)
        denominators += [n for split in node_splits for n in (split.n_left, split.n_right)]
    quotients = iter(fx.div(groups, denominators))
    fractions: list[list[SharedValue]] = []
    weights: list[list[SharedValue]] = []
    for node, node_splits in zip(nodes, splits):
        over_n = next(quotients)
        n_totals = len(node.totals)
        fractions.append(over_n[:n_totals])
        fractions += [next(quotients) for _ in range(2 * len(node_splits))]
        weights.append(over_n[n_totals:])
    # Two multiplication rounds for the whole level: every purity's
    # squares, then every weight.
    purities = iter(_purities(fx, task, fractions))
    one = fx.share(1.0)
    parents: list[SharedValue] = []
    pairs: list[tuple[SharedValue, SharedValue]] = []
    for node_weights in weights:
        parents.append(next(purities))
        for w_left in node_weights:
            left, right = next(purities), next(purities)
            pairs += [(w_left, left), (one - w_left, right)]
    weighted = iter(fx.mul(pairs))
    gains = [
        [next(weighted) + next(weighted) - parent for _ in node_weights]
        for parent, node_weights in zip(parents, weights)
    ]
    return gains, [fx.share(min_gain) for _ in nodes]


def _sums_of_squares(
    fx: FixedPointOps, groups: list[list[SharedValue]]
) -> list[SharedValue]:
    """Σ v² over each group, every square in one multiplication round."""
    squares = iter(fx.mul([(v, v) for group in groups for v in group]))
    return [fx.engine.sum_values([next(squares) for _ in group]) for group in groups]


def _purities(
    fx: FixedPointOps, task: str, fractions: list[list[SharedValue]]
) -> list[SharedValue]:
    """The purity P of every group of fractions, in one multiplication
    round.  Classification (Eq. 5): P = Σ_k p_k².  Regression (Eq. 6), from
    the fractions [Σy/n, Σy²/n]: P = -IV = (Σy/n)² - Σy²/n."""
    if task == "classification":
        return _sums_of_squares(fx, fractions)
    squares = fx.mul([(mean, mean) for mean, _ in fractions])
    return [square - mean_sq for square, (_, mean_sq) in zip(squares, fractions)]
