"""Malicious-model extension (§9.1): honest runs succeed and match the
semi-honest protocol; deviations are detected and abort."""

import pytest

from repro.core import CheatingClient, MaliciousTreeTrainer, TreeTrainer
from repro.core.malicious import CommittedVector
from repro.crypto.zkp import ProofError
from repro.mpc.sharing import MacCheckError
from repro.tree import TreeParams

from tests.core.conftest import make_context

PARAMS = TreeParams(max_depth=2, max_splits=2)


@pytest.fixture(scope="module")
def tiny_data():
    from repro.data import make_classification

    return make_classification(16, 3, n_classes=2, seed=9)


def test_requires_authenticated_engine(tiny_data):
    X, y = tiny_data
    ctx = make_context(X, y, "classification", params=PARAMS)
    with pytest.raises(ValueError):
        MaliciousTreeTrainer(ctx)


def test_honest_run_matches_semi_honest(tiny_data):
    X, y = tiny_data
    mal_ctx = make_context(
        X, y, "classification", params=PARAMS, seed=2, authenticated_mpc=True
    )
    honest = MaliciousTreeTrainer(mal_ctx).fit()
    basic_ctx = make_context(X, y, "classification", params=PARAMS, seed=2)
    basic = TreeTrainer(basic_ctx).fit()
    assert honest.structure_signature() == basic.structure_signature()


def test_cheating_in_stats_detected(tiny_data):
    X, y = tiny_data
    ctx = make_context(
        X, y, "classification", params=PARAMS, seed=3, authenticated_mpc=True
    )
    with pytest.raises(ProofError):
        CheatingClient("stats").train(ctx)


def test_cheating_in_model_update_detected(tiny_data):
    """The cheat lands on the first [α_l] proven: the root's, whose
    children are built at max_depth >= 2.  At max_depth 1 the root's
    children are leaves at the depth limit — nothing is built or proven,
    so there is nothing to cheat on."""
    X, y = tiny_data
    assert PARAMS.max_depth >= 2
    ctx = make_context(
        X, y, "classification", params=PARAMS, seed=4, authenticated_mpc=True
    )
    with pytest.raises(ProofError):
        CheatingClient("update").train(ctx)
    assert [tag for tag, _ in ctx.revealed if tag.startswith("best-split")] == [
        "best-split-d0"
    ]
    shallow = make_context(
        X, y, "classification", params=TreeParams(max_depth=1, max_splits=2),
        seed=4, authenticated_mpc=True,
    )
    model = CheatingClient("update").train(shallow)
    assert not model.root.is_leaf


def test_unknown_cheat_step_rejected():
    with pytest.raises(ValueError):
        CheatingClient("keygen")


def test_mac_layer_detects_share_tampering(tiny_data):
    X, y = tiny_data
    ctx = make_context(
        X, y, "classification", params=PARAMS, seed=5, authenticated_mpc=True
    )
    sv = ctx.fx.share(1.0)
    from repro.mpc.sharing import SharedValue

    bad = list(sv.shares)
    bad[0] = (bad[0] + 1) % ctx.engine.field.q
    with pytest.raises(MacCheckError):
        ctx.engine.open_many([SharedValue(ctx.engine, tuple(bad), sv.macs)])


# -- CommittedVector unit behaviour -------------------------------------------


@pytest.fixture(scope="module")
def pk(tiny_data):
    X, y = tiny_data
    ctx = make_context(X, y, "classification", params=PARAMS, seed=6)
    return ctx, ctx.threshold.public_key


def test_commitment_verifies(pk):
    _, public_key = pk
    vector = CommittedVector(public_key, [1, 0, 1])
    vector.verify_commitment()  # no exception


def test_commitment_dot_product_proof(pk):
    ctx, public_key = pk
    vector = CommittedVector(public_key, [1, 0, 1, 1])
    encrypted = [ctx.encoder.encrypt(v) for v in (5, 7, 9, 2)]
    out, proof = vector.prove_dot_product(encrypted)
    vector.verify_dot_product(encrypted, out, proof)
    assert ctx.threshold.joint_decrypt(out) == 16


def test_tampered_dot_product_rejected(pk):
    ctx, public_key = pk
    vector = CommittedVector(public_key, [1, 1])
    encrypted = [ctx.encoder.encrypt(v) for v in (3, 4)]
    out, proof = vector.prove_dot_product(encrypted)
    bad = out + public_key.encrypt(1)
    with pytest.raises(ProofError):
        vector.verify_dot_product(encrypted, bad, proof)


def test_elementwise_product_proof(pk):
    ctx, public_key = pk
    vector = CommittedVector(public_key, [0, 1, 1])
    encrypted = [ctx.encoder.encrypt(v) for v in (10, 20, 30)]
    outputs, proofs = vector.prove_elementwise_product(encrypted)
    vector.verify_elementwise_product(encrypted, outputs, proofs)
    decrypted = [ctx.threshold.joint_decrypt(o) for o in outputs]
    assert decrypted == [0, 20, 30]
