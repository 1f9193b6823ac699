"""Unit tests for the dealerless m-party Paillier key generation.

The protocol (repro.crypto.distkeygen) replaces the trusted dealer: every
party samples her own p_i/q_i shares, the candidate modulus is
biprimality-tested jointly, and each party walks away with *her* d_i alone.
These tests drive the real state machines over an in-memory bus and pin
the three properties everything downstream leans on: the produced key
actually encrypts/decrypts through share combination, the run is
deterministic under a seed, and no party's state machine ever holds the
full private key.
"""

import pytest

from repro.crypto.distkeygen import KeygenParty
from repro.crypto.threshold import ThresholdPaillier
from repro.mpc.field import MERSENNE_127
from repro.network.bus import MessageBus
from repro.network.flows import run_distributed_keygen
from repro.network.wire import Request, WireCodec

KEYSIZE = 256


def _keygen(m: int, seed: int | None = 7, keysize: int = KEYSIZE):
    bus = MessageBus(
        m, codec=WireCodec(None, share_modulus=MERSENNE_127.q)
    )
    machines = {
        i: KeygenParty(i, m, keysize, seed=seed, kappa=40) for i in range(m)
    }
    results = run_distributed_keygen(bus, machines)
    return bus, machines, results


@pytest.fixture(scope="module", params=[2, 3])
def keygen_run(request):
    return _keygen(request.param)


def test_all_parties_agree_on_the_public_key(keygen_run):
    _, _, results = keygen_run
    moduli = {r.public_key.n for r in results.values()}
    thetas = {r.theta for r in results.values()}
    rounds = {r.rounds for r in results.values()}
    assert len(moduli) == 1 and len(thetas) == 1 and len(rounds) == 1
    sample = next(iter(results.values()))
    assert sample.public_key.n.bit_length() >= KEYSIZE - 1


def test_combined_shares_decrypt(keygen_run):
    """The d_i really sum to a working decryption key: encrypt under the
    joint public key, decrypt only by combining the m share values."""
    _, _, results = keygen_run
    m = len(results)
    sample = results[0]
    shares = [results[i].share for i in range(m)]
    threshold = ThresholdPaillier(
        sample.public_key,
        shares,
        theta=sample.theta,
    )
    for value in (0, 1, -42, 123456789):
        assert threshold.joint_decrypt(threshold.encrypt(value)) == value


def test_each_share_is_useless_alone(keygen_run):
    _, _, results = keygen_run
    m = len(results)
    sample = results[0]
    crippled = [results[0].share] + [None] * (m - 1)
    threshold = ThresholdPaillier(
        sample.public_key,
        crippled,
        theta=sample.theta,
    )
    with pytest.raises(Exception):
        threshold.joint_decrypt(threshold.encrypt(5))


def test_no_machine_holds_the_full_private_key(keygen_run):
    _, machines, _ = keygen_run
    for machine in machines.values():
        summary = machine.secret_summary()
        assert summary["full_private_key"] is False
        assert summary["d_share"] is True


def test_seeded_runs_are_deterministic():
    _, _, first = _keygen(2, seed=11)
    _, _, second = _keygen(2, seed=11)
    assert first[0].public_key.n == second[0].public_key.n
    assert first[0].theta == second[0].theta
    for i in range(2):
        assert first[i].share.d_share == second[i].share.d_share


def test_keygen_traffic_is_accounted_and_drained():
    """Keygen runs as real counted bus flows: kg-* tags carry bytes, the
    round tally is applied, and nothing is left in any inbox."""
    bus, _, results = _keygen(2)
    assert bus.rounds == results[0].rounds > 0
    kg_bytes = sum(n for tag, n in bus.by_tag.items() if tag.startswith("kg-"))
    assert kg_bytes == bus.bytes > 0
    bus.assert_drained()


def test_keygen_leaves_foreign_frames_for_the_serve_loop():
    """The driver consumes only kg-* frames.  A control frame racing into
    a party's inbox mid-keygen (the orchestrator finishes her waves first
    and opens the control plane immediately) used to be swallowed by the
    tag-agnostic pump/drain — the done machine discarded it and the
    party's serve loop then hung on a request that no longer existed.  It
    must come out the other side intact: same sender, same tag, queued for
    whoever pops the inbox after keygen."""
    bus = MessageBus(2, codec=WireCodec(None, share_modulus=MERSENNE_127.q))
    machines = {
        i: KeygenParty(i, 2, KEYSIZE, seed=11, kappa=40) for i in range(2)
    }
    # Delivered before the first wave: sits at the *head* of party 1's
    # inbox, so the pump meets it before any kg-* frame.
    bus.send_control(0, 1, Request("ctl-snapshot", []), tag="ctl-snapshot")
    results = run_distributed_keygen(bus, machines)
    assert results[0].public_key.n == results[1].public_key.n
    assert bus.pending(1) == 1
    sender, tag, payload = bus.receive_control(1)
    assert (sender, tag) == (0, "ctl-snapshot")
    assert payload.op == "ctl-snapshot"
    # The detour never touched the protocol books.
    bus.assert_drained()
