"""The paper's Table 2 cost model, executable (§6).

Predicts training/prediction cost from the workload parameters
(n, m, d, b, h, c) and calibrated primitive costs, and converts measured
operation counts into modeled time.  Benchmarks use both directions:
predicted-vs-measured op counts validate the Table 2 formulas, and modeled
time (op costs + LAN round/byte model) reconstructs the paper's timing
shapes on hardware-independent footing (ROADMAP item 19 weighs what that
model does and does not explain).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.calibration import PrimitiveCosts

__all__ = ["NetworkModel", "Workload", "table2_training_counts",
           "table2_prediction_counts", "predicted_time", "modeled_time"]


@dataclass(frozen=True)
class NetworkModel:
    """A simple LAN cost model (defaults match a 1 GbE cluster): the bus
    counts rounds and bytes, and this prices them."""

    latency_seconds: float = 0.5e-3
    bandwidth_bytes_per_second: float = 125e6  # 1 Gbit/s

    def time(self, rounds: int, n_bytes: int) -> float:
        return rounds * self.latency_seconds + n_bytes / self.bandwidth_bytes_per_second


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
    node nothing but the root's own c − 1 class totals (its count is the
    public root weight sum W; a child inherits the winning split's
    shares).  *Packed*: ⌊(|n| − 1) / (bitlen(W) + κ + bitlen(m))⌋ class
    counts per decrypted ciphertext (:mod:`repro.crypto.packing`; 10 at a
    512-bit key for W < 64; regression sums at k bits, 6); predicted rows
    pack too, at label width (see :func:`table2_prediction_counts`).  A
    tree level's statistics pack together, so the *measured* Cd of a fit
    over S = d·b candidate splits per node, t_ℓ internal nodes at level ℓ,
    is

        Σ_ℓ ⌈(c₀ + t_ℓ·S·c) / slots⌉        (leaves: none)

    under the basic protocol, c₀ = c − 1 (the root's totals) at level 0
    (regression: 2 and 3 in place of c − 1 and c), plus
    t' · ⌈n / slots'⌉ under the enhanced one: its O(n t)·Cd term runs
    Eq. 10 for one child (the sibling is a homomorphic subtraction) and
    packs ⌊(|n| − 1) / (1 + κ + bitlen(m))⌋ elements of the 0/1 mask
    vector per decrypted ciphertext (11 at 512 bits); a riding
    encrypted-label [γ] (GBDT rounds >= 2) declares no bound, so it pays 3
    whole ciphertexts per split and n per vector per node for Eq. 10.
    t' ≤ t counts the splits whose children are *built*: below the depth
    limit, with a candidate split left.  A split above leaves at the depth
    limit builds no child mask vector, since those leaves take their
    labels from inherited statistics — in a full tree t' = (t − 1) / 2.

    The *measured* Ce of one internal node is n·c·S (the dot products of
    Eq. 7, left child only) plus the packing folds and m·⌈S·c / slots⌉
    conversion-mask encryptions (each party packs her own statistics into
    her mask encryptions of the level's groups before they leave her).
    The root's [α] takes no pool mask under either
    protocol: it is the deterministic encryption of the public root
    weights, n Ce at each of the m parties.  The label vectors depend on
    the protocol.  Under the basic one they ride with [α] (§7.2's
    optimisation, applied to plaintext labels): the super client encrypts
    (c − 1)·n once at the root, and a split whose children are built adds
    c·n (the owner's pool-masked [α_l] and [γ_l]) + m·c·n (each party's
    own [α] ⊖ [α_l] and [γ] ⊖ [γ_l], one Ce per element).  The enhanced
    owner cannot mask [γ_l] in plaintext, so that protocol still
    re-randomises (c − 1)·n label elements per internal node, and Eq. 10
    re-masks each built split's n [α_l] products.  A basic-protocol leaf
    costs no Ce at all.  Of those Ce, a basic fit's *pool masks* — the
    expensive ones — number

        (c − 1)·n  +  m·Cd  +  t'·c·n

    (``bench_primitives.py --smoke`` holds a fit at n = 60, h = 2 to it).

    The *measured* Cs of one internal node's gain step (paper mode, S = d·b
    candidate splits, θ = 4 Goldschmidt iterations at K = 40) is
    (2S + 1)·(3 + θ) + (θ + 2)·(c + S + 2cS) + c + S·(2c + 2): one
    ``div`` call over the node's 2S + 1 distinct denominators
    (:mod:`repro.core.gain`), whose Norm bit-decomposes them all in the
    binary domain and costs one multiplication each (c = b·v), then
    AppRcr, b·w and θ squarings per denominator, θ + 2 multiplications
    per fraction, then the squares and weighted sums — still O(c d b t)
    in total, at 7 + 6·(fractions per denominator) multiplications per
    denominator instead of 13 per fraction.
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
    row, t Cc (one comparison per internal node) and 2t Cs (t − 1 marker
    products below the root, whose marker is the public 1, and the
    (t + 1)-leaf inner product with the hidden labels).
    It too runs once per call: its MPC rounds are one row's however many
    rows the call has.
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
