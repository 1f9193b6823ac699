"""The paper's Table 2 cost model, executable (§6).

Predicts training/prediction cost from the workload parameters
(n, m, d, b, h, c) and calibrated primitive costs, and converts measured
operation counts into modeled time.  Benchmarks use both directions:
predicted-vs-measured op counts validate the Table 2 formulas, and modeled
time (op costs + LAN round/byte model) reconstructs the paper's timing
shapes on hardware-independent footing (DESIGN.md §4.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.calibration import PrimitiveCosts
from repro.network.bus import NetworkModel

__all__ = ["Workload", "table2_training_counts", "table2_prediction_counts",
           "predicted_time", "modeled_time"]


@dataclass(frozen=True)
class Workload:
    """The evaluation parameters of Table 4."""

    n: int  # samples
    m: int  # clients
    d_bar: int  # features per client
    b: int  # max splits per feature
    h: int  # max tree depth
    c: int = 2  # classes

    @property
    def d(self) -> int:
        return self.m * self.d_bar

    @property
    def t(self) -> int:
        """Internal nodes of a full binary tree of depth h (§8.3.1)."""
        return 2**self.h - 1


def table2_training_counts(w: Workload, protocol: str) -> dict[str, float]:
    """Operation counts from Table 2 (up to the O(·) constants).

    Basic:    O(n c d̄ b t)·Ce + O(c d b t)·(Cd + Cs) + O(d b t)·Cc
    Enhanced: adds O(n t)·Cd and O(n b t)·Ce for the private split
              selection + Eq. 10 mask update.

    These are the paper's terms, one Cd per converted statistic.  The
    *measured* Cd is that term over the slot count, under both protocols:
    the trainer's conversions are slot-packed (:mod:`repro.crypto.packing`),
    ⌊(|n| − 1) / (k + κ + bitlen(m))⌋ statistics per decrypted ciphertext
    (6 at a 512-bit key), and likewise one Cd per ~12 predicted rows
    instead of :func:`table2_prediction_counts`'s one per row.  The
    enhanced protocol's O(n t)·Cd term is measured at ⌈n / slots⌉ per
    internal node, not 2n: Eq. 10 runs for one child (the sibling is a
    homomorphic subtraction) and packs ⌊(|n| − 1) / (1 + κ + bitlen(m))⌋
    elements of the 0/1 mask vector per decrypted ciphertext (11 at 512
    bits); a riding encrypted-label [γ] (GBDT rounds >= 2) still pays n
    per vector per node.

    The *measured* Cs of one internal node's gain step (paper mode, S = d·b
    candidate splits, W-bit counts, θ = 4 Goldschmidt iterations at K = 40)
    is (2S + 1)·(2W + 2 + θ) + (θ + 2)·(c + S + 2cS) + c + S·(2c + 2): one
    normalisation per distinct denominator (:mod:`repro.core.gain`), θ + 2
    multiplications per fraction, then the squares and weighted sums —
    still O(c d b t) in total, at 54 + 6·(fractions per denominator)
    multiplications per denominator instead of 92 per fraction (W = 24).
    The node's comparisons (S − 1 in the argmax, the prune checks) add
    nothing to that formula: a comparison is a Cc, and its bit-compare
    runs on XOR-shared words (:mod:`repro.mpc.comparison`), not as field
    multiplications.
    """
    counts = {
        "ce": w.n * w.c * w.d_bar * w.b * w.t,
        "cd": w.c * w.d * w.b * w.t,
        "cs": w.c * w.d * w.b * w.t,
        "cc": w.d * w.b * w.t,
    }
    if protocol == "enhanced":
        counts["cd"] += w.n * w.t
        counts["ce"] += w.n * w.b * w.t
    elif protocol != "basic":
        raise ValueError(f"unknown protocol {protocol!r}")
    return counts


def table2_prediction_counts(w: Workload, protocol: str) -> dict[str, float]:
    """Per-sample prediction counts from Table 2.

    Basic:    O(m t)·Ce + O(1)·Cd;   Enhanced: O(t)·(Cs + Cc).

    The *measured* enhanced prediction has exactly this shape: per row,
    t Cc (one comparison per internal node) and 2t + 1 Cs (t marker
    products and the (t + 1)-leaf inner product with the hidden labels).
    """
    if protocol == "basic":
        return {"ce": w.m * w.t, "cd": 1, "cs": 0, "cc": 0}
    if protocol == "enhanced":
        return {"ce": 0, "cd": 0, "cs": w.t, "cc": w.t}
    raise ValueError(f"unknown protocol {protocol!r}")


def predicted_time(
    counts: dict[str, float], costs: PrimitiveCosts
) -> float:
    """Σ counts · unit costs (compute part of the model)."""
    unit = costs.as_dict()
    return sum(counts[k] * unit[k] for k in ("ce", "cd", "cs", "cc"))


def modeled_time(
    op_counts: dict[str, int],
    costs: PrimitiveCosts,
    rounds: int = 0,
    n_bytes: int = 0,
    network: NetworkModel | None = None,
) -> float:
    """Measured op counts + LAN model -> modeled wall time in seconds."""
    compute = predicted_time(op_counts, costs)
    network = network or NetworkModel()
    return compute + network.time(rounds, n_bytes)
