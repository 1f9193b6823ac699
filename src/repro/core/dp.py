"""Differential privacy inside MPC (paper §9.2, Algorithms 5 and 6).

* :meth:`DPMechanisms.laplace_noise` — Algorithm 5: sample ⟨X⟩ ~ Lap(μ, b)
  by inverse-transform sampling computed entirely on shares:
  X = μ - b·sign(U)·ln(1 - 2|U|) for U uniform on (-1/2, 1/2).  The secure
  ln comes from :meth:`repro.mpc.advanced.FixedPointOps.ln`; one call
  draws every noise term a node needs.
* :meth:`DPMechanisms.exponential_mechanism` — Algorithm 6: select an index
  with probability ∝ exp(ε·score / 2Δ), again fully on shares: secure
  exponentials, shared cumulative sums, a shared uniform draw scaled by the
  total (avoiding per-score divisions, distribution-equivalent to the
  paper's explicit normalisation), and comparisons locating the sampled
  interval.

The training integration (noisy pruning counts, exponential-mechanism split
selection, noisy leaf statistics, budget B = 2ε(h+1)) lives in
:mod:`repro.core.trainer`.
"""

from __future__ import annotations

from repro.core.config import DPConfig
from repro.mpc.advanced import FixedPointOps
from repro.mpc.sharing import SharedValue

__all__ = ["DPMechanisms"]

#: Gini-gain sensitivity for the exponential mechanism (Friedman & Schuster).
GAIN_SENSITIVITY = 2.0


class DPMechanisms:
    """Shared-value DP primitives bound to one fixed-point calculator."""

    def __init__(self, fx: FixedPointOps, config: DPConfig):
        if config.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.fx = fx
        self.config = config

    # ------------------------------------------------------------------
    # Algorithm 5
    # ------------------------------------------------------------------

    def laplace_sample(
        self, mean: float, scale: float, count: int
    ) -> list[SharedValue]:
        """``count`` draws ⟨X⟩ ~ Lap(mean, scale), nobody learns the noise
        (Algorithm 5), every step one call over all of them."""
        fx = self.fx
        engine = fx.engine
        # Line 1: uniform ⟨U⟩ in (-1/2, 1/2).
        half = fx.share(0.5)
        us = [u01 - half for u01 in fx.uniform_fraction(count)]
        # Lines 2-8: sign and absolute value (branch-free: the paper's
        # three-way case split is sign extraction).
        signs = [
            engine.add_public(negative * (-2), 1)  # 1 - 2·[U < 0] = ±1
            for negative in fx.ltz(us)
        ]
        magnitudes = engine.mul_many(list(zip(signs, us)))  # |U|
        # Line 9: X = mean - b·sign·ln(1 - 2|U|); the 2^-F nudge keeps the
        # argument strictly positive on the sampling grid.
        one_and_ulp = fx.share(1.0) + fx.share(2.0**-fx.f)
        log_terms = fx.ln([one_and_ulp - magnitude * 2 for magnitude in magnitudes])
        noises = fx.mul_public(engine.mul_many(list(zip(signs, log_terms))), scale)
        centre = fx.share(mean)
        return [centre - noise for noise in noises]

    def laplace_noise(self, sensitivity: float, count: int) -> list[SharedValue]:
        """``count`` draws ⟨Lap(Δ/ε)⟩ for this budget's per-query ε."""
        return self.laplace_sample(0.0, sensitivity / self.config.epsilon, count)

    # ------------------------------------------------------------------
    # Algorithm 6
    # ------------------------------------------------------------------

    def exponential_mechanism(
        self,
        rows: list[list[SharedValue]],
        sensitivity: float = GAIN_SENSITIVITY,
    ) -> list[tuple[SharedValue, list[SharedValue]]]:
        """Select ⟨index⟩ with Pr[r] ∝ exp(ε·score_r / 2Δ) in every row of
        scores (Algorithm 6), each step one call over all rows (a tree
        level's nodes); the rows may differ in length.

        Returns (⟨index⟩, one-hot ⟨λ⟩) per row — the interface of the
        secure argmax, so the trainer can swap mechanisms transparently.
        """
        if any(not row for row in rows):
            raise ValueError("exponential mechanism needs at least one score per row")
        if not rows:
            return []
        fx = self.fx
        engine = fx.engine
        factor = self.config.epsilon / (2.0 * sensitivity)
        # Lines 1-2: ⟨prob_r⟩ = exp(ε·score_r / 2Δ).
        probs = iter(fx.exp(fx.mul_public([s for row in rows for s in row], factor)))
        # Lines 3-7: cumulative sums; sampling U uniform on (0, P) instead
        # of normalising each F_r is the same distribution, R fewer
        # divisions.
        cumulatives: list[list[SharedValue]] = []
        for row in rows:
            running = engine.share_public(0)
            cumulative = []
            for _ in row:
                running = running + next(probs)
                cumulative.append(running)
            cumulatives.append(cumulative)
        us = fx.mul(  # uniform on (0, P) per row
            [
                (u01, cumulative[-1])
                for u01, cumulative in zip(fx.uniform_fraction(len(rows)), cumulatives)
            ]
        )
        # Lines 9-14: locate the interval: index = #{r < R-1 : C_r < U},
        # every C_r < U of every row in one compare.
        above = iter(
            fx.gt(
                [u for u, cumulative in zip(us, cumulatives) for _ in cumulative[:-1]],
                [c for cumulative in cumulatives for c in cumulative[:-1]],
            )
        )
        results = []
        for cumulative in cumulatives:
            bits = [next(above) for _ in cumulative[:-1]]
            index = engine.share_public(0)
            for bit in bits:
                index = index + bit
            # One-hot from consecutive indicator differences.
            onehot: list[SharedValue] = []
            previous = engine.share_public(1)
            for bit in bits:
                onehot.append(previous - bit)
                previous = bit
            onehot.append(previous)
            results.append((index, onehot))
        return results
