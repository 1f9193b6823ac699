from repro.analysis import opcount
from repro.crypto.paillier import dot_product, generate_keypair


def test_counter_snapshot_and_reset():
    counter = opcount.OpCounter()
    counter.ce += 3
    counter.cd += 1
    assert counter.snapshot() == {"ce": 3, "cd": 1, "cs": 0, "cc": 0}
    counter.reset()
    assert counter.snapshot() == {"ce": 0, "cd": 0, "cs": 0, "cc": 0}


def test_diff():
    before = {"ce": 1, "cd": 0, "cs": 0, "cc": 0}
    after = {"ce": 5, "cd": 2, "cs": 0, "cc": 1}
    assert opcount.diff(before, after) == {"ce": 4, "cd": 2, "cs": 0, "cc": 1}


def test_counting_context_tracks_paillier_ops():
    pk, _ = generate_keypair(256)
    with opcount.counting() as ops:
        a = pk.encrypt(1)
        b = pk.encrypt(2)
        _ = a + b
        _ = a * 5
    assert ops["ce"] == 4  # 2 encryptions + 1 add + 1 scalar mult


def test_counting_tracks_dot_products():
    pk, _ = generate_keypair(256)
    cts = [pk.encrypt(i, obfuscate=False) for i in range(4)]
    with opcount.counting() as ops:
        dot_product([1, 2, 3, 4], cts)
    assert ops["ce"] == 4  # one op per vector element


def test_counting_tracks_threshold_decryptions(threshold3):
    ct = threshold3.encrypt(7)
    with opcount.counting() as ops:
        threshold3.joint_decrypt(ct)
    assert ops["cd"] == 1


def test_counting_tracks_mpc_ops():
    from repro.mpc import FixedPointOps, MPCEngine
    from repro.mpc import comparison

    engine = MPCEngine(2, seed=0)
    fx = FixedPointOps(engine)
    a, b = fx.share(1.0), fx.share(2.0)
    with opcount.counting() as ops:
        engine.mul_many([(a, b)])
    assert ops["cs"] == 1
    with opcount.counting() as ops:
        comparison.ltz(engine, [a], fx.k)
    assert ops["cc"] == 1
