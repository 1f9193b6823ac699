"""The standalone party runtime: configs, fault tolerance, restart/resume.

Parity of the runtime topology is pinned in ``test_deployment_parity``;
these tests cover the deployment mechanics around it — the TOML config
surface, what happens when a real party process dies mid-protocol (a loud
error at the next synchronization barrier, never a hang), and the
restart-and-resume path through the persisted per-party key state.
"""

import json
import time
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from repro.federation import PivotClassifier
from repro.federation.runtime import (
    RuntimeConfig,
    RuntimeFederation,
    StandalonePartyRuntime,
    free_addresses,
    load_runtime_config,
    run_orchestrator,
    write_party_configs,
)
from repro.mpc.field import MERSENNE_127
from repro.network.bus import MessageBus
from repro.network.wire import WireCodec

from tests.federation.conftest import PartySubprocess

ADDRESSES = (("127.0.0.1", 9500), ("127.0.0.1", 9501))


# -- configuration surface ----------------------------------------------------


def test_config_round_trips_through_toml(tmp_path):
    paths = write_party_configs(
        tmp_path, n_parties=3, key_state=True, n_samples=32, n_features=6
    )
    assert [p.name for p in paths] == ["party0.toml", "party1.toml", "party2.toml"]
    configs = [load_runtime_config(p) for p in paths]
    for i, cfg in enumerate(configs):
        assert cfg.index == i
        assert cfg.n_parties == 3
        assert cfg.addresses == configs[0].addresses
        assert cfg.n_samples == 32 and cfg.n_features == 6
        assert cfg.key_state and cfg.key_state.endswith(f"party{i}.key.json")
    assert configs[0].is_orchestrator
    assert not configs[1].is_orchestrator
    # Every party derives the *same* dataset from the shared [data] spec.
    X0, y0 = configs[0].make_dataset()
    X2, y2 = configs[2].make_dataset()
    assert np.array_equal(X0, X2) and np.array_equal(y0, y2)


def test_every_field_round_trips_through_toml(tmp_path):
    """write_party_configs -> load_runtime_config is the identity with
    every field off its default (``seed=None`` is the omitted-key path).
    Two fields admit only their default: ``super_client`` and
    ``protocol``."""
    addresses = (*ADDRESSES, ("10.0.0.3", 9502))
    off_default = dict(
        timeout=7.5, connect_timeout=12.5, max_idle=42.0,
        data_kind="regression", n_samples=30, n_features=5, n_classes=3,
        data_seed=17, keysize=320, seed=None, kappa=30, frac_bits=12,
        max_depth=3, max_splits=4, run_fit=False, predict_rows=9,
    )
    paths = write_party_configs(
        tmp_path, addresses=list(addresses), key_state=True, **off_default
    )
    for i, path in enumerate(paths):
        expected = RuntimeConfig(
            index=i,
            addresses=addresses,
            key_state=str(tmp_path / f"party{i}.key.json"),
            **off_default,
        )
        assert load_runtime_config(path) == expected
    for f in fields(RuntimeConfig):
        if f.name not in ("index", "super_client", "protocol"):
            assert getattr(expected, f.name) != f.default, f.name


def test_config_rejects_bad_deployments():
    with pytest.raises(ValueError, match="at least 2"):
        RuntimeConfig(index=0, addresses=(("127.0.0.1", 9500),))
    with pytest.raises(ValueError, match="out of range"):
        RuntimeConfig(index=5, addresses=ADDRESSES)
    with pytest.raises(ValueError, match="super client"):
        RuntimeConfig(index=0, addresses=ADDRESSES, super_client=1)
    with pytest.raises(ValueError, match="enhanced"):
        RuntimeConfig(index=0, addresses=ADDRESSES, protocol="enhanced")
    with pytest.raises(ValueError, match="data kind"):
        RuntimeConfig(index=0, addresses=ADDRESSES, data_kind="images")


def test_pivot_config_is_dealerless_and_really_combines():
    """The runtime's PivotConfig carries the TOML's [pivot] values and no
    way to ask for a dealer: how keys are made follows the topology, and
    a RuntimeFederation always runs distributed keygen."""
    runtime = RuntimeConfig(
        index=0, addresses=ADDRESSES, keysize=320, seed=9, kappa=30,
        frac_bits=12, max_depth=3, max_splits=4,
    )
    cfg = runtime.pivot_config()
    assert (cfg.keysize, cfg.seed, cfg.kappa, cfg.frac_bits) == (320, 9, 30, 12)
    assert (cfg.tree.max_depth, cfg.tree.max_splits) == (3, 4)
    assert cfg.protocol == "basic"
    assert not hasattr(cfg, "keygen")


def test_role_constructors_enforce_the_index():
    config = RuntimeConfig(index=0, addresses=ADDRESSES)
    with pytest.raises(ValueError, match="RuntimeFederation"):
        StandalonePartyRuntime(config, config.make_dataset()[0][:, 3:])
    with pytest.raises(ValueError, match="party 1"):
        run_orchestrator(RuntimeConfig(index=1, addresses=ADDRESSES))
    # A transport that hosts anyone but party 0 is refused.
    addresses = tuple(free_addresses(2))
    config = RuntimeConfig(index=1, addresses=addresses)
    with pytest.raises(ValueError, match="hosts party 1"):
        RuntimeFederation(
            config.partition(), config.pivot_config(), config.make_transport()
        )


def _bare_orchestrator(states):
    """A RuntimeFederation's drain check over an in-memory bus, with party
    1's control-plane reports replayed from ``states`` (the last repeats)."""
    fed = RuntimeFederation.__new__(RuntimeFederation)
    fed.partition = SimpleNamespace(super_client=0)
    fed.bus = MessageBus(2, codec=WireCodec(None, share_modulus=MERSENNE_127.q))
    fed._remote = (1,)
    replies = iter(states)
    last = {}

    def pull(party):
        last.update(next(replies, last))
        return dict(last)

    fed._pull_state = pull
    return fed


def test_drain_needs_every_sent_message_consumed():
    """A party's reply proves only that she has reacted to this process's
    frames: 0 pending but fewer messages consumed than sent deployment-wide
    is a frame still in flight (or lost), not a drained deployment."""
    in_flight = {"messages": 3, "consumed": 2, "pending": 0}
    with pytest.raises(AssertionError, match="party 1 sent 3 consumed 2"):
        _bare_orchestrator([in_flight]).assert_drained()
    with pytest.raises(AssertionError, match="pending 1"):
        _bare_orchestrator(
            [{"messages": 3, "consumed": 2, "pending": 1}]
        ).assert_drained()
    _bare_orchestrator(
        [{"messages": 3, "consumed": 3, "pending": 0}]
    ).assert_drained()


def test_drain_repulls_until_the_in_flight_frame_lands():
    fed = _bare_orchestrator([
        {"messages": 3, "consumed": 2, "pending": 0},
        {"messages": 3, "consumed": 3, "pending": 0},
    ])
    fed.bus.transport.timeout = 5.0
    fed.assert_drained()


def test_free_addresses_are_distinct():
    addresses = free_addresses(4)
    assert len({port for _, port in addresses}) == 4


# -- a live 2-party deployment ------------------------------------------------


def _deploy(directory, **overrides):
    """Write configs, launch party 1 as an OS process, build the
    orchestrator.  Returns (configs' paths, party process, federation)."""
    paths = write_party_configs(
        directory,
        n_parties=2,
        n_samples=16,
        n_features=4,
        max_depth=1,
        predict_rows=4,
        **overrides,
    )
    party = PartySubprocess(paths[1])
    try:
        config = load_runtime_config(paths[0])
        fed = RuntimeFederation(
            config.partition(), config.pivot_config(), config.make_transport()
        )
    except BaseException:
        party.ensure_dead()
        raise
    return paths, party, fed


def test_killed_party_fails_the_next_barrier_loudly(tmp_path):
    """Kill the standalone party after keygen, then fit: the orchestrator
    must surface a timeout/empty-inbox error at the next synchronization
    barrier within the transport's bounds — not hang, not train a tree."""
    paths, party, fed = _deploy(tmp_path, timeout=30.0, connect_timeout=30.0)
    try:
        # Boot (subprocess spawn + distributed keygen + state pull) gets the
        # generous bounds above; the loud-failure property under test only
        # concerns the *post-kill* barrier, so tighten the orchestrator's
        # transport bounds now — SocketTransport reads them per call.
        transport = fed.bus.transport
        transport.timeout = 3.0
        transport.connect_timeout = 5.0
        party.kill()
        start = time.monotonic()
        with pytest.raises((LookupError, OSError, RuntimeError)):
            PivotClassifier(protocol="basic").fit(fed)
        assert time.monotonic() - start < 60.0
    finally:
        party.ensure_dead()
        fed.close()  # best-effort shutdown of a dead peer must not hang


def test_party_restart_resumes_prediction(tmp_path):
    """A party killed after training comes back from her persisted key
    state — (n, i, d_i, theta), her own disk, never the bus — and serves
    predictions for the already-trained model without rerunning keygen."""
    paths, party, fed = _deploy(tmp_path, key_state=True, timeout=30.0)
    X, _ = load_runtime_config(paths[0]).make_dataset()
    try:
        clf = PivotClassifier(protocol="basic")
        clf.fit(fed)
        before = list(clf.predict(X[:4]))

        fed.shutdown_parties()
        assert party.wait(timeout=30.0) == 0
        state = json.loads((tmp_path / "party1.key.json").read_text())
        assert state["party_index"] == 1 and state["n_parties"] == 2

        party = PartySubprocess(paths[1])  # resumes, no keygen peer
        after = list(clf.predict(X[:4]))
        assert after == before
        # The restarted party's fresh counters were re-baselined (boot
        # marker), merged accounting stayed monotonic, inboxes drained.
        fed.assert_drained()
        assert fed.cost_snapshot()["bus"]["pending"] == 0
    finally:
        fed.close()
        assert party.wait(timeout=30.0) == 0
        party.ensure_dead()


def test_key_state_refuses_a_foreign_party(tmp_path):
    """Resuming from another party's key file is a hard error."""
    paths, party, fed = _deploy(tmp_path, key_state=True, timeout=30.0)
    try:
        fed.shutdown_parties()
        assert party.wait(timeout=30.0) == 0
    finally:
        party.ensure_dead()
        started = time.monotonic()
        fed.close()
    # close() must not re-contact a party that already acknowledged her
    # shutdown (it used to wait out the 30 s transport timeout for her).
    assert time.monotonic() - started < 2.0
    state_path = tmp_path / "party1.key.json"
    state = json.loads(state_path.read_text())
    state["party_index"] = 0
    state_path.write_text(json.dumps(state))
    config = load_runtime_config(paths[1])
    with pytest.raises(ValueError, match="belongs to party 0"):
        StandalonePartyRuntime(config, config.make_dataset()[0][:, 2:])
