"""Configuration objects for the Pivot protocols."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tree.cart import TreeParams

__all__ = ["PivotConfig", "DPConfig"]


@dataclass(frozen=True)
class DPConfig:
    """Differential-privacy settings (§9.2).

    ``epsilon`` is the per-query budget; a tree of maximum depth h consumes
    B = 2·epsilon·(h + 1) in total (each node runs the pruning-condition
    query plus either the non-leaf or the leaf query; same-depth nodes
    compose in parallel).
    """

    epsilon: float = 1.0

    def total_budget(self, max_depth: int) -> float:
        return 2.0 * self.epsilon * (max_depth + 1)


@dataclass(frozen=True)
class PivotConfig:
    """End-to-end protocol parameters (paper §8.1 defaults, scaled).

    ``keysize`` is the threshold-Paillier modulus size.  Both protocols
    run at any depth under the same key: every plaintext either of them
    produces stays within the fixed-point width plus a conversion mask
    (``mpc_k`` + exponent slack + ``kappa`` + a few carry bits), whatever
    the tree level.

    How the key is made is not configuration but follows the topology
    (§3.4): the in-process ``Federation`` takes a trusted dealer's, a
    multi-process ``RuntimeFederation`` runs distributed keygen (seeded
    from ``seed``, as is the MPC engine).
    """

    keysize: int = 512
    frac_bits: int = 16
    mpc_k: int = 40
    kappa: int = 40
    tree: TreeParams = field(default_factory=TreeParams)
    protocol: str = "basic"  # "basic" | "enhanced"
    dp: DPConfig | None = None
    authenticated_mpc: bool = False  # SPDZ MACs + verified conversions (§9.1)
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.protocol not in ("basic", "enhanced"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.keysize < 128:
            raise ValueError("keysize must be at least 128 bits")
        self.tree.validate()
