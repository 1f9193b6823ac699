"""Additive (and SPDZ-authenticated) secret shares (paper §2.2, §9.1.1).

A :class:`SharedValue` ⟨a⟩ = (⟨a⟩_1, ..., ⟨a⟩_m) carries one field element
per party; the secret is the sum mod q.  In authenticated mode every value
additionally carries MAC shares (⟨δ⟩_1, ..., ⟨δ⟩_m) with δ = a·Δ for the
global MAC key Δ = Σ ⟨Δ⟩_i, which is what lets SPDZ detect share tampering
at opening time (§9.1.1, "SPDZ authenticated shares").

Linear operations (addition, public scaling, public addition) are local —
each party combines her own shares — and are implemented here.  Anything
interactive (multiplication, opening, comparison) lives on
:class:`repro.mpc.engine.MPCEngine`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.mpc.engine import MPCEngine

__all__ = ["SharedValue", "MacCheckError"]


class MacCheckError(Exception):
    """An opened value failed its SPDZ MAC check (malicious tampering)."""


class SharedValue:
    """An additively secret-shared field element ⟨a⟩.

    Operators:

    * ``a + b``, ``a - b``  — local share-wise combination (SharedValue or
      public int, which must already be a field representative).
    * ``a * k`` for int k  — local public scaling.

    ``a * b`` for a SharedValue b raises :class:`TypeError`: a product of
    two shared values is interactive, and goes into a batch with
    :meth:`~repro.mpc.engine.MPCEngine.mul_many`.
    """

    __slots__ = ("engine", "shares", "macs")

    def __init__(
        self,
        engine: "MPCEngine",
        shares: tuple[int, ...],
        macs: tuple[int, ...] | None = None,
    ):
        self.engine = engine
        self.shares = shares
        self.macs = macs

    # -- internals ---------------------------------------------------------

    def _require_compatible(self, other: "SharedValue") -> None:
        if self.engine is not other.engine:
            raise ValueError("shared values belong to different MPC engines")

    @property
    def n_parties(self) -> int:
        return len(self.shares)

    # -- linear (local) operations ------------------------------------------

    def __add__(self, other: "SharedValue | int") -> "SharedValue":
        q = self.engine.field.q
        if isinstance(other, SharedValue):
            self._require_compatible(other)
            shares = tuple(
                (a + b) % q for a, b in zip(self.shares, other.shares)
            )
            macs = None
            if self.macs is not None and other.macs is not None:
                macs = tuple((a + b) % q for a, b in zip(self.macs, other.macs))
            return SharedValue(self.engine, shares, macs)
        if isinstance(other, int):
            return self.engine.add_public(self, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "SharedValue":
        q = self.engine.field.q
        macs = None if self.macs is None else tuple((-m) % q for m in self.macs)
        return SharedValue(self.engine, tuple((-s) % q for s in self.shares), macs)

    def __sub__(self, other: "SharedValue | int") -> "SharedValue":
        if isinstance(other, SharedValue):
            self._require_compatible(other)
            q = self.engine.field.q
            shares = tuple((a - b) % q for a, b in zip(self.shares, other.shares))
            macs = None
            if self.macs is not None and other.macs is not None:
                macs = tuple((a - b) % q for a, b in zip(self.macs, other.macs))
            return SharedValue(self.engine, shares, macs)
        if isinstance(other, int):
            return self.engine.add_public(self, -other)
        return NotImplemented

    def __rsub__(self, other: int) -> "SharedValue":
        return (-self) + other

    def __mul__(self, other: "SharedValue | int") -> "SharedValue":
        if isinstance(other, SharedValue):
            raise TypeError("a product of shared values is interactive: use mul_many")
        if isinstance(other, int):
            q = self.engine.field.q
            k = other % q
            shares = tuple((s * k) % q for s in self.shares)
            macs = (
                None
                if self.macs is None
                else tuple((m * k) % q for m in self.macs)
            )
            return SharedValue(self.engine, shares, macs)
        return NotImplemented

    def __rmul__(self, other: int) -> "SharedValue":
        return self.__mul__(other)

    def __repr__(self) -> str:
        kind = "auth" if self.macs is not None else "semi"
        return f"SharedValue({kind}, m={len(self.shares)})"
