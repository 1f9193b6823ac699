"""The standalone party runtime: configs, fault tolerance, restart/resume.

Parity of the runtime topology is pinned in ``test_deployment_parity``;
these tests cover the deployment mechanics around it — the TOML config
surface, what happens when a real party process dies mid-protocol (a loud
error at the next synchronization barrier, never a hang), and the
restart-and-resume path through the persisted per-party key state.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.data import make_classification
from repro.federation import PivotClassifier
from repro.federation.runtime import (
    RuntimeConfig,
    RuntimeFederation,
    StandalonePartyRuntime,
    free_addresses,
    load_runtime_config,
    write_party_configs,
)

from tests.federation.conftest import StandalonePartyProcess

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
    cfg = RuntimeConfig(index=0, addresses=ADDRESSES).pivot_config()
    assert cfg.keygen == "distributed"


def test_role_constructors_enforce_the_index():
    with pytest.raises(ValueError, match="RuntimeFederation"):
        StandalonePartyRuntime(RuntimeConfig(index=0, addresses=ADDRESSES))
    with pytest.raises(ValueError, match="party 1"):
        RuntimeFederation(RuntimeConfig(index=1, addresses=ADDRESSES))


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
    party = StandalonePartyProcess(paths[1])
    try:
        fed = RuntimeFederation(load_runtime_config(paths[0]))
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
        transport = fed.context.bus.transport
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

        party = StandalonePartyProcess(paths[1])  # resumes, no keygen peer
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
        StandalonePartyRuntime(config)
