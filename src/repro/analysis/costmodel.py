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

    These are the paper's terms: 2 + 2c converted statistics per candidate
    split and 1 + c per node, one Cd each.  The trainer converts fewer, and
    packs what it converts.  *Fewer*: every statistic crosses the
    ciphertext→share boundary at most once — per split only the left
    child's n_l and c − 1 class counts (c statistics; the last class and
    the right child are share subtractions, :mod:`repro.core.gain`), per
    node nothing but the root's own 1 + (c − 1) (a child inherits the
    winning split's shares).  *Packed*: ⌊(|n| − 1) / (k + κ + bitlen(m))⌋
    statistics per decrypted ciphertext (:mod:`repro.crypto.packing`; 6 at
    a 512-bit key); predicted rows pack too, at label width (see
    :func:`table2_prediction_counts`).  So the *measured* Cd
    of a fit over S = d·b candidate splits per node is

        ⌈c / slots⌉  +  t · ⌈S·c / slots⌉        (leaves: none)

    under the basic protocol (regression: 3 in place of c), plus
    t · ⌈n / slots'⌉ under the enhanced one: its O(n t)·Cd term runs Eq. 10
    for one child (the sibling is a homomorphic subtraction) and packs
    ⌊(|n| − 1) / (1 + κ + bitlen(m))⌋ elements of the 0/1 mask vector per
    decrypted ciphertext (11 at 512 bits); a riding encrypted-label [γ]
    (GBDT rounds >= 2) declares no bound, so it pays 3 whole ciphertexts
    per split and n per vector per node for Eq. 10.

    The *measured* Ce of one internal node is n·c·S (the dot products of
    Eq. 7, left child only) + n·(c − 1) (re-randomising the published
    label vectors) + c·S (one pool mask per statistic before it leaves its
    party) + 2n (the model update's two child mask vectors), plus
    m·⌈S·c / slots⌉ conversion-mask encryptions and the packing folds; a
    basic-protocol leaf costs no Ce at all.

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
    multiplications.  Completing the last class and the right child is
    local share arithmetic (no Cs); the enhanced protocol adds S·c
    multiplications per internal node to select the children's statistics
    through the hidden one-hot vector.
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

    The *measured* basic prediction (:mod:`repro.core.prediction`) runs
    Algorithm 4 once per call.  Per row it costs (m − 1)·L pool-mask Ce —
    u_m's encryption and one re-mask per middle party of each of the L
    leaves that can change the answer (L ≤ (t + 1) / 2 for binary labels;
    t + 1 when a forest asks for every leaf) — plus L cheap dot-product
    terms at u_1, and 1 / ⌊(|n| − 1) / (β + 1)⌋ Cd for β-bit leaf labels
    (255 binary-labelled rows share a decrypted ciphertext at 512 bits).
    Per call it takes m + 1 bus rounds (m − 1 hops, two for the
    decryption flow) and one more mask per packed ciphertext.  Still
    linear in m and t, with Table 2's O(1)·Cd amortised over the batch.

    The *measured* enhanced prediction has exactly Table 2's shape: per
    row, t Cc (one comparison per internal node) and 2t + 1 Cs (t marker
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
