"""Micro-probes: one public primitive each, at the workloads' key size.

Every probe is a median of at least ``CALLS`` timed calls.  A probe whose
target no longer imports is listed as absent and reads 0; no end-to-end
metric depends on a probe.
"""

from __future__ import annotations

import importlib
import secrets
import statistics
from functools import cached_property
from time import perf_counter
from typing import Any, Callable

from workloads import KEYSIZE, N_PARTIES

CALLS = 30
#: Ciphertexts per call of the batch primitives; they report per ciphertext.
BATCH = 8
#: Ciphertexts in the vector the codec probes serialize.
CODEC_VECTOR = 256


def _median_seconds(call: Callable[[], Any], calls: int = CALLS) -> float:
    samples = []
    for _ in range(calls):
        started = perf_counter()
        call()
        samples.append(perf_counter() - started)
    return statistics.median(samples)


class _Fixtures:
    """Key material and operands shared by the probes, built on first use."""

    @cached_property
    def threshold(self) -> Any:
        return importlib.import_module("repro.crypto.threshold")

    @cached_property
    def bundle(self) -> Any:
        return self.threshold.generate_threshold_keypair(N_PARTIES, KEYSIZE)

    @cached_property
    def batch(self) -> list[Any]:
        return [self.bundle.encrypt(1000 + k) for k in range(BATCH)]

    @cached_property
    def fixed_point(self) -> Any:
        mpc = importlib.import_module("repro.mpc")
        return mpc.FixedPointOps(mpc.MPCEngine(N_PARTIES, seed=0))

    @cached_property
    def codec_case(self) -> tuple[Any, list[Any], bytes]:
        wire = importlib.import_module("repro.network.wire")
        pk = self.bundle.public_key
        codec = wire.WireCodec(pk, share_modulus=self.fixed_point.engine.field.q)
        # The codec moves widths, not randomness: skip the obfuscation pow.
        vector = [pk.encrypt(k, obfuscate=False) for k in range(CODEC_VECTOR)]
        return codec, vector, codec.serialize(vector)


def _pow_us(fx: _Fixtures) -> float:
    pk = fx.bundle.public_key
    base = secrets.randbelow(pk.n - 2) + 2
    return _median_seconds(lambda: pow(base, pk.n, pk.n_squared)) * 1e6


def _encrypt_ms(fx: _Fixtures) -> float:
    bundle = fx.bundle
    return _median_seconds(lambda: bundle.encrypt(12345)) * 1e3


def _partial_decrypt_ms(fx: _Fixtures) -> float:
    share, batch = fx.bundle.shares[0], fx.batch
    return _median_seconds(lambda: share.partial_decrypt_batch(batch)) * 1e3 / BATCH


def _combine_ms(fx: _Fixtures) -> float:
    wire = importlib.import_module("repro.network.wire")
    bundle = fx.bundle
    vectors = [
        wire.PartialDecryptionVector(
            share.party_index,
            tuple(p.value for p in share.partial_decrypt_batch(fx.batch)),
        )
        for share in bundle.shares
    ]
    combine = fx.threshold.combine_partial_vectors
    pk, theta = bundle.public_key, getattr(bundle, "theta", 1)
    seconds = _median_seconds(lambda: combine(pk, vectors, N_PARTIES, theta=theta))
    return seconds * 1e3 / BATCH


def _crt_decrypt_ms(fx: _Fixtures) -> float:
    paillier = importlib.import_module("repro.crypto.paillier")
    public, private = paillier.generate_keypair(KEYSIZE)
    raw = public.encrypt(12345).raw
    return _median_seconds(lambda: private.raw_decrypt(raw)) * 1e3


def _div_ms(fx: _Fixtures) -> float:
    ops = fx.fixed_point
    a, b = ops.share(3.25), ops.share(7.5)
    return _median_seconds(lambda: ops.div(a, b)) * 1e3


def _lt_ms(fx: _Fixtures) -> float:
    ops = fx.fixed_point
    a, b = ops.share(3.25), ops.share(7.5)
    return _median_seconds(lambda: ops.lt(a, b)) * 1e3


def _mul_us(fx: _Fixtures) -> float:
    ops = fx.fixed_point
    a, b = ops.share(3.25), ops.share(7.5)
    return _median_seconds(lambda: ops.engine.mul(a, b), calls=10 * CALLS) * 1e6


def _serialize_mb_s(fx: _Fixtures) -> float:
    codec, vector, data = fx.codec_case
    return len(data) / 1e6 / _median_seconds(lambda: codec.serialize(vector))


def _deserialize_mb_s(fx: _Fixtures) -> float:
    codec, _vector, data = fx.codec_case
    return len(data) / 1e6 / _median_seconds(lambda: codec.deserialize(data))


PROBES: dict[str, Callable[[_Fixtures], float]] = {
    "crypto.pow_us": _pow_us,
    "crypto.encrypt_ms": _encrypt_ms,
    "crypto.partial_decrypt_ms": _partial_decrypt_ms,
    "crypto.combine_ms": _combine_ms,
    "crypto.crt_decrypt_ms": _crt_decrypt_ms,
    "mpc.div_ms": _div_ms,
    "mpc.lt_ms": _lt_ms,
    "mpc.mul_us": _mul_us,
    "network.serialize_mb_s": _serialize_mb_s,
    "network.deserialize_mb_s": _deserialize_mb_s,
}


def run_probes() -> tuple[dict[str, float], list[str]]:
    """Every probe metric, plus the names of those whose target is gone."""
    fixtures = _Fixtures()
    values: dict[str, float] = {}
    absent: list[str] = []
    for name, probe in PROBES.items():
        try:
            values[name] = probe(fixtures)
        except (ImportError, AttributeError, TypeError) as error:
            print(f"probe {name} absent: {error!r}")
            values[name] = 0.0
            absent.append(name)
    return values, absent
