"""The deployment acceptance bar: changing the physical deployment changes
*nothing* observable about the protocol.

Three parity levels, all against the single-process in-memory baseline
(which hosts every party and so takes the trusted dealer's key):

1. **Socket transport** — ``Federation(parties, transport="asyncio")``
   routes every protocol payload over real local TCP sockets.
2. **Standalone runtimes** — ``RuntimeFederation`` retires the
   orchestrator-as-scheduler entirely: each non-super party is a separate
   ``python -m repro.federation.runtime`` OS process that joins
   *distributed* keygen and reacts to protocol frames on her own socket.
3. **Per-party processes** — ``DeployedFederation`` launches the same
   party processes from a party list, handing each her own block, and is
   the super client's ``RuntimeFederation``.

Keys follow the topology, so the rows are compared over the fit/predict
window (deltas of ``cost_snapshot()``): ``PivotClassifier.fit``/``predict``
must produce bit-identical models and predictions with identical measured
and estimated bytes (total and per tag), rounds, conversions, MPC and
dealer usage, and Ce/Cd/Cs/Cc operation counts.  Each multi-process row's
construction traffic is pinned separately, against distributed keygen
replayed on an in-memory bus with the same (m, keysize, seed, kappa).
"""

import numpy as np
import pytest

from repro.analysis import opcount
from repro.core import PivotConfig
from repro.crypto.distkeygen import KEYGEN_TAG_PREFIX, KeygenParty
from repro.data import make_classification, vertical_partition
from repro.federation import (
    Federation,
    Party,
    PivotClassifier,
    PivotGBDTClassifier,
)
from repro.federation.deployment import DeployedFederation
from repro.federation.runtime import (
    RuntimeFederation,
    free_addresses,
    load_runtime_config,
    write_party_configs,
)
from repro.mpc.field import MERSENNE_127
from repro.network.bus import MessageBus
from repro.network.flows import run_distributed_keygen
from repro.network.transport import SocketTransport
from repro.network.wire import WireCodec
from repro.tree import TreeParams

from tests.core.conftest import plaintext_logistic_proba
from tests.federation.conftest import PartySubprocess

CONFIG = PivotConfig(
    keysize=256, tree=TreeParams(max_depth=2, max_splits=2), seed=3
)

#: The bus counters a fit/predict window is compared on.
_BUS_KEYS = ("bytes_measured", "bytes_estimated", "rounds", "by_tag")


@pytest.fixture(scope="module")
def data():
    return make_classification(24, 4, n_classes=2, seed=11)


def _parties(X, y):
    return [Party(X[:, :2], labels=y, name="super"), Party(X[:, 2:])]


def _delta(after, before):
    """``after - before`` on every integer count, dicts recursively (a key
    new in ``after`` counts from 0); floats and strings are not counts."""
    out = {}
    for key, value in after.items():
        if isinstance(value, dict):
            out[key] = _delta(value, before.get(key, {}))
        elif isinstance(value, int) and not isinstance(value, bool):
            out[key] = value - before.get(key, 0)
    return out


def _window(fed, body):
    """Run ``body(fed)`` under op counting; returns its result, the op
    counts, the cost delta over the window and the snapshots around it."""
    before = fed.cost_snapshot()
    with opcount.counting() as ops:
        result = body(fed)
    fed.assert_drained()
    after = fed.cost_snapshot()
    delta = _delta(after, before)
    bus = {key: delta["bus"][key] for key in _BUS_KEYS}
    bus["by_tag"] = {tag: n for tag, n in bus["by_tag"].items() if n}
    window = {
        "bus": bus,
        "conversions": delta["conversions"],
        "mpc": delta["mpc"],
        "dealer": delta["dealer"],
    }
    return result, dict(ops), window, before, after


def _run(federation, rows):
    """fit + predict as one window; close the federation afterwards."""

    def fit_predict(fed):
        clf = PivotClassifier(protocol="basic")
        clf.fit(fed)
        return clf.model_.structure_signature(), list(clf.predict(rows))

    with federation as fed:
        (signature, predictions), ops, window, before, after = _window(
            fed, fit_predict
        )
        return {
            "signature": signature,
            "predictions": predictions,
            "ops": ops,
            "window": window,
            "construction": before["bus"],
            "transport": after["bus"]["transport"],
            "pending": after["bus"]["pending"],
        }


@pytest.fixture(scope="module")
def baseline(data):
    X, y = data
    return _run(Federation(_parties(X, y), config=CONFIG), X[:6])


def _assert_parity(result, baseline):
    assert result["signature"] == baseline["signature"]
    assert result["predictions"] == baseline["predictions"]
    assert result["ops"] == baseline["ops"]
    assert result["window"] == baseline["window"]


def _assert_row_parity(run, baseline):
    """A multi-process row: over the fit/predict window bit-identical to
    the dealer-keyed in-process run, drained everywhere, every party
    process exited cleanly on ctl-shutdown."""
    result = run["result"]
    assert result["transport"]["kind"] == "SocketTransport"
    _assert_parity(result, baseline)
    assert result["pending"] == 0
    assert run["party_rc"] == 0


def test_dealer_baseline_sends_nothing_to_make_its_key(baseline):
    """The in-process federation's key comes from the dealer: its
    construction put nothing on the bus."""
    assert baseline["construction"]["messages"] == 0
    assert baseline["construction"]["bytes"] == 0


def test_asyncio_transport_parity(data, baseline):
    X, y = data
    result = _run(
        Federation(_parties(X, y), config=CONFIG, transport="asyncio"), X[:6]
    )
    assert result["transport"]["kind"] == "SocketTransport"
    assert result["transport"]["dropped"] == 0
    _assert_parity(result, baseline)


def test_federation_refuses_a_transport_hosting_a_subset():
    """A Federation holds every party's d_i, so a transport that hosts
    fewer than all m parties — party 1's runtime would live nowhere — is
    refused before anything is sent."""
    X, y = make_classification(8, 4, n_classes=2, seed=1)
    transport = SocketTransport(2, hosted=(0,), addresses=free_addresses(2))
    try:
        with pytest.raises(ValueError, match="transport hosts party 0"):
            Federation(_parties(X, y), config=CONFIG, transport=transport)
        assert transport.delivered == 0
    finally:
        transport.close()


# -- the multi-process rows --------------------------------------------------
#
# RuntimeFederation's TOML path derives the dataset from the shared [data]
# spec, so the runtime configs below describe exactly the `data` fixture
# (24 x 4, 2 classes, seed 11) split over 2 parties, and exactly CONFIG's
# pivot parameters — the write_party_configs defaults mirror both on
# purpose.  DeployedFederation takes the fixture's parties directly.


@pytest.fixture(scope="module")
def runtime_configs(tmp_path_factory):
    """The runtime row's partyN.toml files (2 parties)."""
    return write_party_configs(
        tmp_path_factory.mktemp("runtime-parity"),
        n_parties=2,
        timeout=60.0,
        n_samples=24,
        n_features=4,
    )


def _replay_keygen(m, keysize, seed, kappa):
    """Distributed keygen with all m machines on one in-memory bus."""
    bus = MessageBus(m, codec=WireCodec(None, share_modulus=MERSENNE_127.q))
    machines = {
        i: KeygenParty(i, m, keysize, seed=seed, kappa=kappa) for i in range(m)
    }
    results = run_distributed_keygen(bus, machines)
    return {"bus": bus.snapshot(), "n": results[0].public_key.n}


@pytest.fixture(scope="module")
def keygen_replay(runtime_configs):
    """An outsider's replay of the deployment's keygen, from nothing but
    party 0's TOML.  Both rows key with CONFIG's parameters, which the
    TOML carries too."""
    config = load_runtime_config(runtime_configs[0])
    assert (config.keysize, config.seed, config.kappa) == (
        CONFIG.keysize, CONFIG.seed, CONFIG.kappa,
    )
    return _replay_keygen(
        config.n_parties, config.keysize, config.seed, config.kappa
    )


def _facts(fed):
    """What the live deployment shows before its fit."""
    facts = {
        "threshold": fed.threshold,
        "key_report": fed.key_report(),
        "stub": fed.clients[1],
        "remote_poisoned": bool(np.isnan(fed.parties[1]._raw_features).all()),
    }
    try:
        fed.context_for(protocol="enhanced")
        facts["enhanced_error"] = None
    except NotImplementedError as exc:
        facts["enhanced_error"] = str(exc)
    return facts


@pytest.fixture(scope="module")
def runtime_run(data, runtime_configs):
    """One full standalone-runtime deployment: party 1 is a real OS
    process launched from her TOML config; the orchestrator is a
    RuntimeFederation built from party 0's.  Facts are captured while the
    deployment is live; the fit/predict result closes it."""
    X, y = data
    paths = runtime_configs
    party = PartySubprocess(paths[1])
    try:
        config = load_runtime_config(paths[0])
        fed = RuntimeFederation(
            config.partition(), config.pivot_config(), config.make_transport()
        )
        facts = _facts(fed)
        facts["result"] = _run(fed, X[:6])  # closes fed -> ctl-shutdown
        facts["party_rc"] = party.wait(timeout=30.0)
    finally:
        party.ensure_dead()
    return facts


#: What the deployed row refuses: each needs a remote party's plaintext in
#: this process (Eq. 10 and hidden splits, verified conversions, training
#: rows for the boosting residuals).
REFUSED = {
    "enhanced": lambda: PivotClassifier(protocol="enhanced"),
    "malicious": lambda: PivotClassifier(malicious=True),
    "gbdt": lambda: PivotGBDTClassifier(n_rounds=2),
}


@pytest.fixture(scope="module")
def deployed_run(data):
    """One DeployedFederation over the fixture's parties: party 1 is a
    spawned standalone runtime holding her own block.  Before the fit,
    every estimator in REFUSED is tried and the deployment-wide message
    count is read around it; the fit/predict result then closes it."""
    X, y = data
    parties = _parties(X, y)
    fed = DeployedFederation(parties, config=CONFIG)
    process = fed.processes[1]
    facts = _facts(fed)
    facts["parties"] = parties
    facts["fed"] = fed
    facts["refused"] = {}
    for name, make in REFUSED.items():
        before = fed.cost_snapshot()["bus"]["messages"]
        try:
            make().fit(fed)
            error = None
        except NotImplementedError as exc:
            error = exc
        after = fed.cost_snapshot()["bus"]["messages"]
        facts["refused"][name] = (error, after - before)
    facts["result"] = _run(fed, X[:6])  # closes fed -> ctl-shutdown
    facts["party_rc"] = process.exitcode
    return facts


@pytest.fixture(params=["runtime", "deployed"])
def row_run(request):
    return request.getfixturevalue(f"{request.param}_run")


def test_standalone_runtime_parity(runtime_run, baseline):
    _assert_row_parity(runtime_run, baseline)


def test_per_party_process_parity(deployed_run, baseline):
    _assert_row_parity(deployed_run, baseline)


def test_construction_traffic_is_distributed_keygen(row_run, keygen_replay):
    """Everything a multi-process row sent before its first fit is
    distributed keygen: the same bytes, rounds and per-tag bytes as the
    in-memory replay with the same (m, keysize, seed, kappa)."""
    ours = row_run["result"]["construction"]
    replay = keygen_replay["bus"]
    for key in ("bytes", "bytes_measured", "rounds", "by_tag"):
        assert ours[key] == replay[key], key
    assert ours["by_tag"]
    assert all(tag.startswith(KEYGEN_TAG_PREFIX) for tag in ours["by_tag"])


def test_orchestrator_bundle_cannot_decrypt_alone(row_run):
    """The orchestrator's key bundle holds d_0 and nothing else: no private
    key, no remote share, and every local decryption path raises, so only
    the share-combination flow can produce a plaintext."""
    tp = row_run["threshold"]
    assert tp._private_key is None
    assert tp.shares[0] is not None
    assert tp.shares[1] is None
    ct = tp.public_key.encrypt(7)
    for decrypt in (
        lambda: tp.joint_decrypt(ct),
        lambda: tp.joint_decrypt_batch([ct]),
        lambda: tp.share_vectors([ct]),
    ):
        with pytest.raises(RuntimeError, match="owners' processes"):
            decrypt()


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP item 13: every KeygenParty is seeded from the public "
        "[pivot] seed, so the runtime's key replays from any party's TOML"
    ),
)
def test_runtime_key_cannot_be_replayed_from_its_toml(
    runtime_run, keygen_replay
):
    assert keygen_replay["n"] != runtime_run["threshold"].public_key.n


def test_no_process_materializes_the_full_private_key(row_run):
    """The acceptance bar for retiring the dealer: every process — the
    orchestrator included — audits as holding her own share material and
    never the full private key."""
    report = row_run["key_report"]
    assert sorted(report) == [0, 1]
    for summary in report.values():
        assert summary["full_private_key"] is False
        assert summary["d_share"] is True


def test_runtime_stub_refuses_local_reads(row_run):
    """The orchestrator holds no copy of a remote party's columns,
    thresholds, indicators or rows: shape-level facts work, every data
    read or local computation refuses."""
    stub = row_run["stub"]
    assert stub.n_features == 2
    assert stub.n_splits(0) == 2  # fetched over the control plane
    with pytest.raises(RuntimeError, match="standalone runtime"):
        stub.features.read()
    with pytest.raises(RuntimeError, match="standalone runtime"):
        np.asarray(stub.features)
    for refused in (
        lambda: stub.indicator(0, 0),
        lambda: stub.indicator_matrix(0),
        lambda: stub.local_block(),
        lambda: stub.split_values,
    ):
        with pytest.raises(NotImplementedError, match="her own process"):
            refused()
    assert row_run["remote_poisoned"]


def test_runtime_refuses_the_enhanced_protocol(row_run):
    assert row_run["enhanced_error"] is not None
    assert "centrally driven" in row_run["enhanced_error"]


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_deployed_row_refuses_what_needs_plaintext(deployed_run, name):
    """Refused by name before any protocol message is sent; the same
    federation then trains, drains and closes (its parity test)."""
    error, sent = deployed_run["refused"][name]
    assert isinstance(error, NotImplementedError)
    assert sent == 0


# -- the physical locality guarantee -----------------------------------------


def test_remote_columns_do_not_exist_in_orchestrator(deployed_run):
    fed = deployed_run["fed"]
    # The orchestrator-side Party handle holds only NaN poison ...
    assert np.isnan(fed.parties[1]._raw_features).all()
    # ... as does the context's partition slot for the remote party.
    assert np.isnan(fed.partition.local_features[1]).all()
    # The super client's own data stays local and real.
    assert not np.isnan(fed.partition.local_features[0]).any()


def test_poisoned_parties_cannot_be_refederated(deployed_run):
    """DeployedFederation ships a party's columns to her process and
    poisons the local copy — re-federating that Party object must fail
    validation, not silently train on NaN."""
    parties = deployed_run["parties"]
    with pytest.raises(ValueError, match="her own process"):
        Federation(parties, config=CONFIG)
    with pytest.raises(ValueError, match="her own process"):
        DeployedFederation(parties, config=CONFIG)


def test_from_partition_and_from_global_really_deploy(data):
    """The inherited constructors must route through the deploying
    __init__ (the base-class cls.__new__ path would skip the spawn)."""
    X, y = data
    with DeployedFederation.from_global(X, y, 2, config=CONFIG) as fed:
        assert isinstance(fed, DeployedFederation)
        assert sorted(fed.processes) == [1]
        assert fed.bus.transport.snapshot()["kind"] == "SocketTransport"
        assert fed.bus.local_parties == (0,)
        assert np.isnan(fed.parties[1]._raw_features).all()


def test_shuffled_partition_deploys_with_its_columns():
    """A shuffled partition keeps its column assignment when deployed:
    the same ``columns_per_client``, the same per-party slices of global
    rows, and over the fit/predict window the same model, predictions,
    bytes and rounds as in memory."""
    X, y = make_classification(24, 6, n_classes=2, seed=11)
    vp = vertical_partition(X, y, 3, shuffle_columns=True, seed=1)
    assert vp.columns_per_client == ((4, 0), (2, 1), (5, 3))
    rows = X[:8]

    def fit_predict(fed):
        clf = PivotClassifier().fit(fed)
        predictions = list(clf.predict(rows))
        assert predictions == list(clf.model_.predict(rows))
        return clf.model_.structure_signature(), predictions

    runs = []
    for cls in (Federation, DeployedFederation):
        with cls.from_partition(vp, CONFIG) as fed:
            result, ops, window, _, _ = _window(fed, fit_predict)
            runs.append((
                fed.partition.columns_per_client,
                [block.tolist() for block in fed.slices(rows)],
                result,
                ops,
                window,
            ))
    assert runs[0][0] == vp.columns_per_client
    assert runs[1] == runs[0]


def test_a_full_tree_grows_level_by_level_over_process_deployment():
    """The parity fixture's tree splits one node per level.  This one is
    full at depth 3 over three parties: its levels carry two and four
    nodes in one ``split-stats`` request, two remote owners and the super
    client split at once, and one remote owner applies two splits from
    one ``split-apply`` list.  The deployed row equals in-memory over the
    fit/predict window, at 3·3 fit rounds."""
    X, y = make_classification(48, 3, n_classes=2, seed=1)
    cfg = PivotConfig(keysize=256, tree=TreeParams(max_depth=3, max_splits=2), seed=3)

    def parties():
        return [Party(X[:, :1], labels=y), Party(X[:, 1:2]), Party(X[:, 2:])]

    def fit_predict(fed):
        clf = PivotClassifier().fit(fed)
        rounds = fed.bus.rounds
        owners = [(n.depth, n.owner) for n in clf.model_.internal_nodes()]
        rows = [X[:8, :1], X[:8, 1:2], X[:8, 2:]]
        return clf.model_.structure_signature(), owners, rounds, list(clf.predict(rows))

    runs = []
    for make in (Federation, DeployedFederation):
        with make(parties(), config=cfg) as fed:
            start = fed.bus.rounds
            (signature, owners, rounds, predictions), ops, window, _, _ = _window(
                fed, fit_predict
            )
            runs.append((signature, owners, rounds - start, predictions, ops, window))
    assert runs[1] == runs[0]
    _, owners, fit_rounds, *_ = runs[0]
    assert len(owners) == 7 and fit_rounds == 3 * 3
    assert {owner for depth, owner in owners if depth == 2} == {0, 1, 2}


def test_logistic_trains_over_process_deployment(data):
    """LogisticTrainer's per-epoch batch sums and gradient folds run as
    reactions in the party's own process (``lr-batch-sums`` /
    ``lr-update``), so logistic training over a process deployment is
    bit-identical to in-memory over the fit/predict window — including
    the homomorphic op counts her process reports back over the control
    plane."""
    from repro.federation import PivotLogisticClassifier

    X, y = data
    cfg = PivotConfig(keysize=256, seed=5)

    def fit_predict(fed):
        clf = PivotLogisticClassifier(n_epochs=1, batch_size=8).fit(fed)
        return list(clf.predict_proba(X[:5]))

    def run(federation):
        with federation as fed:
            return _window(fed, fit_predict)[:3]

    baseline = run(Federation(_parties(X, y), config=cfg))
    deployed = run(DeployedFederation(_parties(X, y), config=cfg))
    assert deployed == baseline
    # The probabilities themselves are the plaintext model's (party 0 holds
    # columns 0-1, party 1 columns 2-3).
    oracle = plaintext_logistic_proba(X, y, [0, 1, 2, 3], X[:5], n_epochs=1, batch_size=8)
    assert np.abs(np.asarray(baseline[0]) - oracle).max() < 1e-3
