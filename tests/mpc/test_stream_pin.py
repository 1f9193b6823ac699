"""One digest over everything a seeded MPC battery deals, computes and counts.

Every share and MAC that the battery's primitives return, the dealer's
``DealerUsage``, the engine's ``CommStats`` and the state both seeded
streams end in go into one SHA-256, on a semi-honest and on an
authenticated engine.  A change that only makes the MPC layer faster must
leave both digests as they are: the same dealer draws in the same order,
the same share of every value for every party, the same openings.

The MAC keys come from ``secrets``; they are fixed here while the engine
is built, so the MAC shares are reproducible too.
"""

from __future__ import annotations

import hashlib
import random
import secrets

import pytest

from repro.mpc import FixedPointOps, MPCEngine
from repro.mpc import comparison as cmp
from repro.mpc.binary import BinaryWord
from repro.mpc.sharing import SharedValue

DIGESTS = {
    False: "aa400e5675387c29a6638d745556deab59f5f658b296c0ea6b761427a9e3e167",
    True: "72da23163743a22dad184a3eb06c613fc87336d78935435b228530797c0d6bfd",
}


def _engine(monkeypatch, authenticated: bool) -> MPCEngine:
    keys = random.Random(2024)
    with monkeypatch.context() as patch:
        patch.setattr(secrets, "randbelow", lambda bound: keys.randrange(bound))
        patch.setattr(secrets, "randbits", keys.getrandbits)
        return MPCEngine(3, authenticated=authenticated, seed=17)


def _feed(digest, item) -> None:
    if isinstance(item, (SharedValue, BinaryWord)):
        digest.update(repr((item.shares, item.macs)).encode())
    elif isinstance(item, (list, tuple)):
        digest.update(b"[")
        for part in item:
            _feed(digest, part)
        digest.update(b"]")
    else:
        digest.update(repr(item).encode())


def _battery(engine: MPCEngine) -> list:
    fx = FixedPointOps(engine)
    k = fx.k
    raw = [0, 1, -1, 5, -7, 3 << 16, -(9 << 16), (1 << 30) + 12345, -(1 << 37), 77 << 10]
    xs = engine.input_many([engine.field.from_signed(v) for v in raw], owner=1)
    ys = engine.input_many([engine.field.from_signed(3 * v - 11) for v in raw], owner=2)
    positives = fx.engine.input_many([fx.encode(v) for v in (0.5, 3.0, 40.0, 1000.25)])
    out: list = []
    out.append(engine.mul_many(list(zip(xs, ys))))
    out.append(cmp.trunc_pr(engine, out[-1], 2 * k, fx.f))
    out.append(cmp.mod2m(engine, xs, k, 17))
    out.append(cmp.trunc(engine, xs, k, 5))
    out.append(cmp.ltz(engine, xs, k))
    out.append(cmp.gt(engine, xs, ys, k))
    out.append(cmp.le(engine, xs, ys, k))
    out.append(cmp.eqz(engine, xs, k))
    out.append(cmp.select(engine, out[4], xs, ys))
    out.append(engine.inner_product(xs, ys))
    out.append(engine.sum_values(xs))
    out.append(fx.norm(positives))
    out.append(fx.div([[x] for x in xs[:4]], positives))
    out.append(fx.div(xs[5], positives[2]))
    out.append(fx.argmax([xs[:5], ys[:5], xs[5:]]))
    out.append(fx.exp([fx.share(v) for v in (-7.0, -0.5, 0.0, 1.25, 5.5)]))
    out.append(fx.log2(positives))
    out.append(fx.uniform_fraction(6))
    out.append(engine.dealer.usage.snapshot())
    out.append(engine.stats.snapshot())
    out.append(engine.dealer.rng.getstate())
    out.append(engine.rng.getstate())
    return out


@pytest.mark.parametrize("authenticated", [False, True], ids=["semi-honest", "authenticated"])
def test_seeded_battery_digest_is_pinned(monkeypatch, authenticated):
    engine = _engine(monkeypatch, authenticated)
    digest = hashlib.sha256()
    _feed(digest, _battery(engine))
    assert digest.hexdigest() == DIGESTS[authenticated]


def test_battery_is_deterministic(monkeypatch):
    """The pin means something only if two runs agree."""
    digests = []
    for _ in range(2):
        digest = hashlib.sha256()
        _feed(digest, _battery(_engine(monkeypatch, True)))
        digests.append(digest.hexdigest())
    assert digests[0] == digests[1]
