"""Micro-calibration of the primitive operation costs Ce, Cd, Cs, Cc (§6).

The paper's Table 2 expresses protocol cost as counts of four primitive
operation classes.  This module measures each class's unit cost on the
current machine/key size, yielding the constants that turn op counts into
modeled time (:mod:`repro.analysis.costmodel`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.crypto.threshold import generate_threshold_keypair
from repro.mpc import comparison
from repro.mpc.advanced import FixedPointOps
from repro.mpc.engine import MPCEngine

__all__ = ["PrimitiveCosts", "calibrate"]


@dataclass(frozen=True)
class PrimitiveCosts:
    """Seconds per primitive operation (the paper's Ce, Cd, Cs, Cc)."""

    ce: float  # one homomorphic operation on a ciphertext
    cd: float  # one threshold decryption (m partials + combine)
    cs: float  # one secure (Beaver) multiplication
    cc: float  # one secure comparison
    keysize: int
    n_parties: int

    def as_dict(self) -> dict[str, float]:
        return {"ce": self.ce, "cd": self.cd, "cs": self.cs, "cc": self.cc}


def _timeit(fn, repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def calibrate(
    n_parties: int = 3, keysize: int = 512, repeats: int = 30
) -> PrimitiveCosts:
    """Measure the four primitive costs for a given deployment shape."""
    bundle = generate_threshold_keypair(n_parties, keysize)
    pk = bundle.public_key
    ct = pk.encrypt(123456)

    ce = _timeit(lambda: ct * 37, repeats)
    cd = _timeit(lambda: bundle.joint_decrypt(ct), max(5, repeats // 3))

    engine = MPCEngine(n_parties, seed=0)
    fx = FixedPointOps(engine)
    a = fx.share(1.5)
    b = fx.share(2.5)
    cs = _timeit(lambda: engine.mul_many([(a, b)]), repeats)
    cc = _timeit(lambda: comparison.ltz(engine, [a], fx.k), max(5, repeats // 3))
    return PrimitiveCosts(
        ce=ce, cd=cd, cs=cs, cc=cc, keysize=keysize, n_parties=n_parties
    )
