"""The deployment acceptance bar: changing the physical deployment changes
*nothing* observable about the protocol.

Three parity levels, all against single-process in-memory baselines:

1. **Socket transport** — ``Federation(parties, transport="asyncio")``
   routes every protocol payload over real local TCP sockets.
2. **Standalone runtimes** — ``RuntimeFederation`` retires the
   orchestrator-as-scheduler entirely: each non-super party is a separate
   ``python -m repro.federation.runtime`` OS process that joins
   *distributed* keygen and reacts to protocol frames on her own socket.
3. **Per-party processes** — ``DeployedFederation`` launches the same
   party processes from a party list, handing each her own block, and is
   the super client's ``RuntimeFederation``.

Both multi-process rows are pinned bit-identical against an in-memory
federation built with ``keygen="distributed"`` (same seed, same keygen
traffic), and their model/predictions/op counts against the dealer
baseline too.

``PivotClassifier.fit``/``predict`` must produce bit-identical models and
predictions with identical measured bytes (total and per tag), rounds,
and Ce/Cd/Cs/Cc operation counts.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import opcount
from repro.core import PivotConfig
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
    load_runtime_config,
    write_party_configs,
)
from repro.tree import TreeParams

from tests.federation.conftest import PartySubprocess

CONFIG = PivotConfig(
    keysize=256, tree=TreeParams(max_depth=2, max_splits=2), seed=3
)
DISTRIBUTED = replace(CONFIG, keygen="distributed")


@pytest.fixture(scope="module")
def data():
    return make_classification(24, 4, n_classes=2, seed=11)


def _parties(X, y):
    return [Party(X[:, :2], labels=y, name="super"), Party(X[:, 2:])]


def _run(federation, rows):
    """fit + predict under op counting; close the federation afterwards."""
    with federation as fed:
        clf = PivotClassifier(protocol="basic")
        with opcount.counting() as ops:
            clf.fit(fed)
            predictions = clf.predict(rows)
        fed.assert_drained()
        return {
            "signature": clf.model_.structure_signature(),
            "predictions": list(predictions),
            "ops": dict(ops),
            "cost": fed.cost_snapshot(),
        }


@pytest.fixture(scope="module")
def baseline(data):
    X, y = data
    return _run(Federation(_parties(X, y), config=CONFIG), X[:6])


def _assert_parity(result, baseline):
    assert result["signature"] == baseline["signature"]
    assert result["predictions"] == baseline["predictions"]
    assert result["ops"] == baseline["ops"]
    ours, theirs = result["cost"]["bus"], baseline["cost"]["bus"]
    assert ours["bytes_measured"] == theirs["bytes_measured"]
    assert ours["bytes_estimated"] == theirs["bytes_estimated"]
    assert ours["rounds"] == theirs["rounds"]
    assert ours["by_tag"] == theirs["by_tag"]
    assert (
        result["cost"]["conversions"] == baseline["cost"]["conversions"]
    )


def _assert_row_parity(run, distributed_baseline):
    """A multi-process row: bit-identical to the in-memory distributed-keygen
    run, drained everywhere, every party process exited cleanly on
    ctl-shutdown."""
    result = run["result"]
    assert result["cost"]["bus"]["transport"]["kind"] == "SocketTransport"
    _assert_parity(result, distributed_baseline)
    assert result["cost"]["bus"]["pending"] == 0
    assert run["party_rc"] == 0


def _assert_dealer_model(run, baseline):
    """Same model, predictions and homomorphic-op counts as the trusted
    dealer baseline — only the key *provenance* differs (its kg-* traffic
    keeps total bytes/rounds out of full byte parity with the row)."""
    result = run["result"]
    assert result["signature"] == baseline["signature"]
    assert result["predictions"] == baseline["predictions"]
    assert result["ops"] == baseline["ops"]


def test_asyncio_transport_parity(data, baseline):
    X, y = data
    result = _run(
        Federation(_parties(X, y), config=CONFIG, transport="asyncio"), X[:6]
    )
    assert result["cost"]["bus"]["transport"]["kind"] == "SocketTransport"
    assert result["cost"]["bus"]["transport"]["dropped"] == 0
    _assert_parity(result, baseline)


# -- the multi-process rows --------------------------------------------------
#
# RuntimeFederation's TOML path derives the dataset from the shared [data]
# spec, so the runtime configs below describe exactly the `data` fixture
# (24 x 4, 2 classes, seed 11) split over 2 parties, and exactly CONFIG's
# pivot parameters — the write_party_configs defaults mirror both on
# purpose.  DeployedFederation takes the fixture's parties directly.


@pytest.fixture(scope="module")
def distributed_baseline(data):
    """In-memory run with dealerless keygen: the byte-level reference for
    the multi-process rows (keygen traffic rides the same accounted bus)."""
    X, y = data
    return _run(Federation(_parties(X, y), config=DISTRIBUTED), X[:6])


def _facts(fed):
    """What the live deployment shows before its fit."""
    facts = {
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
def runtime_run(data, tmp_path_factory):
    """One full standalone-runtime deployment: party 1 is a real OS
    process launched from her TOML config; the orchestrator is a
    RuntimeFederation built from party 0's.  Facts are captured while the
    deployment is live; the fit/predict result closes it."""
    X, y = data
    directory = tmp_path_factory.mktemp("runtime-parity")
    paths = write_party_configs(
        directory, n_parties=2, timeout=60.0, n_samples=24, n_features=4
    )
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


def test_standalone_runtime_parity(runtime_run, distributed_baseline):
    _assert_row_parity(runtime_run, distributed_baseline)


def test_standalone_runtime_matches_dealer_model(runtime_run, baseline):
    _assert_dealer_model(runtime_run, baseline)


def test_per_party_process_parity(deployed_run, distributed_baseline, baseline):
    _assert_row_parity(deployed_run, distributed_baseline)
    _assert_dealer_model(deployed_run, baseline)
    # config.keygen is not read: the deployed row always runs dealerless.
    fed = deployed_run["fed"]
    assert fed.config.keygen == "distributed"
    assert fed.threshold._private_key is None
    assert fed.threshold.shares[1] is None


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
        lambda: stub.local_row(0),
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
        assert fed.local_parties == (0,)
        assert np.isnan(fed.parties[1]._raw_features).all()


def test_shuffled_partition_deploys_with_its_columns():
    """A shuffled partition keeps its column assignment when deployed:
    the same ``columns_per_client``, the same per-party slices of global
    rows, and the same model, predictions, bytes and rounds as in
    memory."""
    X, y = make_classification(24, 6, n_classes=2, seed=11)
    vp = vertical_partition(X, y, 3, shuffle_columns=True, seed=1)
    assert vp.columns_per_client == ((4, 0), (2, 1), (5, 3))
    rows = X[:8]
    runs = []
    for cls in (Federation, DeployedFederation):
        with cls.from_partition(vp, DISTRIBUTED) as fed:
            clf = PivotClassifier().fit(fed)
            predictions = list(clf.predict(rows))
            assert predictions == list(clf.model_.predict(rows))
            bus = fed.cost_snapshot()["bus"]
            runs.append((
                fed.partition.columns_per_client,
                [block.tolist() for block in fed.slices(rows)],
                clf.model_.structure_signature(),
                predictions,
                bus["bytes_measured"],
                bus["rounds"],
                bus["by_tag"],
            ))
    assert runs[0][0] == vp.columns_per_client
    assert runs[1] == runs[0]


def test_logistic_trains_over_process_deployment(data):
    """LogisticTrainer's per-epoch batch sums and gradient folds run as
    reactions in the party's own process (``lr-batch-sums`` /
    ``lr-update``), so logistic training over a process deployment is
    bit-identical to in-memory — including the homomorphic op counts her
    process reports back over the control plane."""
    from repro.federation import PivotLogisticClassifier

    X, y = data
    cfg = PivotConfig(keysize=256, seed=5, keygen="distributed")

    def run(federation):
        with federation as fed:
            clf = PivotLogisticClassifier(n_epochs=1, batch_size=8)
            with opcount.counting() as ops:
                clf.fit(fed)
                probs = clf.predict_proba(X[:5])
            fed.assert_drained()
            bus = fed.cost_snapshot()["bus"]
            return (
                list(probs),
                dict(ops),
                bus["bytes_measured"],
                bus["rounds"],
                bus["by_tag"],
            )

    baseline = run(Federation(_parties(X, y), config=cfg))
    deployed = run(DeployedFederation(_parties(X, y), config=cfg))
    assert deployed == baseline
