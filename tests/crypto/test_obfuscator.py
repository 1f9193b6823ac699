"""The fixed-base Damgard-Jurik-Nielsen obfuscator h_s^a mod n^2.

The windowed table must compute exactly ``pow(h_s, a, n^2)``; every mask
must be an encryption of zero; h_s must be a function of n alone (so any
two holders of the public key, and any worker process, agree on it); and
the table must be lazy, per-process state that never rides a pickle.
"""

import pickle
import random
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Federation, Party
from repro.core.config import PivotConfig
from repro.crypto import PaillierEncoder
from repro.crypto.batch import BatchCryptoEngine
from repro.crypto.paillier import PaillierPublicKey
from repro.crypto.primes import random_prime


@lru_cache(maxsize=None)
def _public_key_of_length(bits: int) -> PaillierPublicKey:
    """A public key whose modulus has exactly ``bits`` bits (seeded, so a
    failing example replays)."""
    rng = random.Random(bits)
    while True:
        n = random_prime((bits + 1) // 2, rng) * random_prime(bits // 2, rng)
        if n.bit_length() == bits:
            return PaillierPublicKey(n)


@settings(deadline=None, max_examples=20)
@given(
    bits=st.integers(min_value=128, max_value=1024),
    draw=st.integers(min_value=0, max_value=2**512 - 1),
)
@example(bits=128, draw=0)
@example(bits=255, draw=1)
@example(bits=513, draw=2**512 - 1)
@example(bits=1024, draw=2**512 - 1)
def test_table_evaluation_equals_pow(bits, draw):
    pk = _public_key_of_length(bits)
    assert pk.mask_bits == (bits + 1) // 2
    a = draw & ((1 << pk.mask_bits) - 1)
    assert pk._mask_power(a) == pow(pk.mask_base, a, pk.n_squared)


def test_every_mask_encrypts_zero(keypair):
    pk, sk = keypair
    masks = [pk.random_obfuscator() for _ in range(50)]
    assert all(sk.raw_decrypt(mask) == 0 for mask in masks)
    assert len(set(masks)) == len(masks)


def test_masked_encryptions_round_trip(threshold3):
    pk = threshold3.public_key
    engine = BatchCryptoEngine(pk, threshold=threshold3)
    values = [-(2**40), -1, 0, 1, 12345]
    assert threshold3.joint_decrypt_batch([pk.encrypt(v) for v in values]) == values
    assert threshold3.joint_decrypt_batch(engine.encrypt_ciphertexts(values)) == values
    numbers = PaillierEncoder(pk).encrypt
    kept = engine.mask_vector([numbers(v) for v in values], [1, 0, 1, 0, 1])
    assert engine.joint_decrypt_vector(kept) == [-(2.0**40), 0.0, 0.0, 0.0, 12345.0]


def test_mask_base_is_a_function_of_n(keypair):
    pk, _ = keypair
    twin = PaillierPublicKey(pk.n)
    copy = pickle.loads(pickle.dumps(pk))
    assert twin.mask_base == copy.mask_base == pk.mask_base
    assert copy == pk and hash(copy) == hash(pk)


def test_table_is_lazy_and_never_pickled(keypair):
    pk = PaillierPublicKey(keypair[0].n)
    assert "_mask_table" not in vars(pk)
    pk.encrypt(1, obfuscate=False)
    assert "_mask_table" not in vars(pk)
    pk.random_obfuscator()
    assert "_mask_table" in vars(pk)
    wire = pickle.dumps(pk)
    assert len(wire) < 2 * (pk.n.bit_length() // 8) + 128
    assert "_mask_table" not in vars(pickle.loads(wire))


def test_federation_setup_builds_no_table():
    """setup_s pays for keys, not for masks: the table waits for the fit."""
    X = np.random.default_rng(0).normal(size=(12, 4))
    parties = [Party(X[:, :2], labels=(X[:, 0] > 0).astype(int)), Party(X[:, 2:])]
    with Federation(parties, config=PivotConfig(keysize=256)) as fed:
        public_key = fed.threshold.public_key
        assert not {"mask_base", "_mask_table"} & vars(public_key).keys()


def _mask_in_worker(pk: PaillierPublicKey) -> tuple[bool, int]:
    return "_mask_table" in vars(pk), pk.random_obfuscator()


def test_worker_process_rebuilds_its_own_table(keypair):
    pk, sk = keypair
    pk.random_obfuscator()  # the parent's table exists and must stay behind
    with ProcessPoolExecutor(max_workers=1) as executor:
        arrived_with_table, mask = executor.submit(_mask_in_worker, pk).result(
            timeout=60
        )
    assert not arrived_with_table
    assert sk.raw_decrypt(mask) == 0
