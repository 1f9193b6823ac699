"""Configuration objects for the Pivot protocols."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.federation.locality import strict_locality_default
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
    """

    keysize: int = 512
    frac_bits: int = 16
    mpc_k: int = 40
    kappa: int = 40
    tree: TreeParams = field(default_factory=TreeParams)
    gain_mode: str = "paper"  # "paper" (Eq. 5/6 verbatim) | "reduced"
    protocol: str = "basic"  # "basic" | "enhanced"
    dp: DPConfig | None = None
    authenticated_mpc: bool = False  # SPDZ MACs + verified conversions (§9.1)
    seed: int | None = None
    #: How the threshold-Paillier key material comes into existence.
    #: ``"dealer"`` is the legacy trusted setup: one process samples p, q
    #: and deals the d_i shares (then optionally scrubs itself).
    #: ``"distributed"`` runs the m-party keygen protocol
    #: (repro.crypto.distkeygen) as bus flows — every party samples her own
    #: p_i/q_i shares, the RSA modulus is biprimality-tested jointly, and
    #: no process ever materializes lambda, mu, p or q.
    keygen: str = "dealer"
    #: Enforce the party boundary: every raw feature/label read must happen
    #: inside the owning party's scope (repro.federation.locality), so a
    #: cross-party array read that doesn't travel on the bus raises a
    #: LocalityError.  Tri-state: ``None`` (the default unless the
    #: PIVOT_STRICT_LOCALITY environment variable — the CI locality leg —
    #: is set) means *unset*, which the Federation API resolves to True
    #: and a bare PivotContext resolves to the legacy unguarded behaviour.
    #: Only an explicit False turns enforcement off for a federation.
    strict_locality: bool | None = field(default_factory=strict_locality_default)

    def __post_init__(self) -> None:
        if self.gain_mode not in ("paper", "reduced"):
            raise ValueError(f"unknown gain_mode {self.gain_mode!r}")
        if self.protocol not in ("basic", "enhanced"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.keysize < 128:
            raise ValueError("keysize must be at least 128 bits")
        if self.keygen not in ("dealer", "distributed"):
            raise ValueError(
                f"keygen must be 'dealer' or 'distributed', got {self.keygen!r}"
            )
        self.tree.validate()
