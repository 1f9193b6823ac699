"""Party-locality enforcement: who may read which raw arrays (paper §3.1).

Pivot's security model says each client u_i sees exactly (a) her own
feature columns, (b) the protocol messages addressed to her, and (c) the
jointly revealed outputs.  The simulation runs every party in one process,
so nothing *physically* stops cross-party array reads — this module makes
them *fail loudly* instead:

* :func:`as_party` marks a block of code as "executing at party i" (the
  simulation's stand-in for process separation).  Every sanctioned local
  computation in the core protocols — indicator vectors, label encoding,
  logistic partial sums, per-sample prediction slices — runs inside the
  owning party's scope.
* :class:`LocalView` wraps one party's backing array (features or labels).
  Every data access checks that the current scope belongs to the owner
  and raises :class:`LocalityError` otherwise.  Shape/dtype metadata stays
  readable (feature *counts* are public protocol parameters; values are
  not).

There is no switch that turns the checks off: every view any federation
builds guards its data.  The enforcement is cooperative — a scope is a
claim that the enclosed computation belongs to that party — but it is not
cosmetic: the whole test suite runs against guarded views, so *no* core
training/prediction path reads another party's columns outside the
owner's scope, and an unscoped cross-party read raises.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

__all__ = [
    "LocalityError",
    "LocalView",
    "as_party",
    "current_party",
]


class LocalityError(RuntimeError):
    """A raw cross-party array read that did not go through the bus."""


class _Scope(threading.local):
    def __init__(self) -> None:
        self.stack: list[int] = []


_SCOPE = _Scope()


def current_party() -> int | None:
    """The party whose local computation is currently executing, if any."""
    return _SCOPE.stack[-1] if _SCOPE.stack else None


@contextmanager
def as_party(index: int) -> Iterator[None]:
    """Execute a block as party ``index`` (innermost scope wins).

    Nesting the same party is a no-op; nesting a *different* party is
    allowed because protocol steps legitimately interleave local
    computations of several parties — each :class:`LocalView` access checks
    the innermost scope only.
    """
    if index < 0:
        raise ValueError(f"party index must be non-negative, got {index}")
    _SCOPE.stack.append(index)
    try:
        yield
    finally:
        _SCOPE.stack.pop()


class LocalView:
    """Read guard over one party's backing array (features or labels).

    The view exposes shape metadata freely but gates every *data* access
    (``read``, ``__getitem__``, ``__array__``) behind the owner's party
    scope.  The backing array is never copied; the guard is an API
    boundary, not an isolation mechanism — the
    :class:`~repro.data.partition.VerticalPartition` keeps the raw arrays
    for out-of-protocol tooling (leakage attacks, plaintext baselines).
    """

    __slots__ = ("_array", "owner", "name")

    def __init__(
        self, array: np.ndarray, owner: int, *, name: str = "features"
    ) -> None:
        self._array = np.asarray(array)
        self.owner = owner
        self.name = name

    # -- metadata (public protocol parameters) -----------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self._array.shape

    @property
    def ndim(self) -> int:
        return self._array.ndim

    @property
    def dtype(self) -> np.dtype:
        return self._array.dtype

    def __len__(self) -> int:
        return len(self._array)

    def __repr__(self) -> str:
        return f"LocalView({self.name} of party {self.owner}, shape={self.shape})"

    # -- guarded data access ----------------------------------------------

    def _check(self) -> None:
        scope = current_party()
        if scope != self.owner:
            where = "outside any party scope" if scope is None else f"at party {scope}"
            raise LocalityError(
                f"cross-party read of party {self.owner}'s {self.name} "
                f"{where}: raw columns only travel as protocol messages "
                f"on the bus (wrap the owner's local computation in "
                f"as_party({self.owner}))"
            )

    def read(self) -> np.ndarray:
        """The backing array; raises unless executing at the owner."""
        self._check()
        return self._array

    def __getitem__(self, key: Any) -> Any:
        self._check()
        return self._array[key]

    def __array__(
        self, dtype: Any = None, copy: bool | None = None
    ) -> np.ndarray:
        self._check()
        if copy is False:
            # An explicit no-copy request aliases the backing store — the
            # same contract as read(), valid only inside the owner's scope.
            if dtype is not None and np.dtype(dtype) != self._array.dtype:
                raise ValueError(
                    "cannot honor copy=False: dtype conversion requires a copy"
                )
            return self._array
        # Default to copying so np.array/np.asarray callers cannot mutate
        # the party's stored columns through the returned array.
        return np.array(self._array, dtype=dtype, copy=True)
