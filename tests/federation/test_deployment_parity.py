"""The deployment acceptance bar: changing the physical deployment changes
*nothing* observable about the protocol.

Three parity levels, all against single-process in-memory baselines:

1. **Socket transport** — ``Federation(parties, transport="asyncio")``
   routes every protocol payload over real local TCP sockets.
2. **Per-party processes** — ``DeployedFederation`` additionally runs each
   non-super party in her own worker process (her columns and key share
   live only there).
3. **Standalone runtimes** — ``RuntimeFederation`` retires the
   orchestrator-as-scheduler entirely: each non-super party is a separate
   ``python -m repro.federation.runtime`` OS process that joins
   *distributed* keygen and reacts to protocol frames on her own socket.
   This row is pinned bit-identical against an in-memory federation built
   with ``keygen="distributed"`` (same seed, same keygen traffic), and its
   model/predictions/op counts against the dealer baseline too.

``PivotClassifier.fit``/``predict`` must produce bit-identical models and
predictions with identical measured bytes (total and per tag), rounds,
and Ce/Cd/Cs/Cc operation counts.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import opcount
from repro.core import PivotConfig
from repro.crypto.threshold import PartialDecryption, combine_partial_decryptions
from repro.data import make_classification, vertical_partition
from repro.federation import Federation, Party, PivotClassifier
from repro.federation.deployment import DeployedFederation, RemoteOpError
from repro.federation.runtime import (
    RuntimeFederation,
    load_runtime_config,
    write_party_configs,
)
from repro.tree import TreeParams

from tests.federation.conftest import StandalonePartyProcess

CONFIG = PivotConfig(
    keysize=256, tree=TreeParams(max_depth=2, max_splits=2), seed=3
)


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


def test_asyncio_transport_parity(data, baseline):
    X, y = data
    result = _run(
        Federation(_parties(X, y), config=CONFIG, transport="asyncio"), X[:6]
    )
    assert result["cost"]["bus"]["transport"]["kind"] == "SocketTransport"
    assert result["cost"]["bus"]["transport"]["dropped"] == 0
    _assert_parity(result, baseline)


def test_per_party_process_parity(data, baseline):
    X, y = data
    result = _run(DeployedFederation(_parties(X, y), config=CONFIG), X[:6])
    assert result["cost"]["bus"]["transport"]["kind"] == "SocketTransport"
    _assert_parity(result, baseline)


# -- the standalone-runtime row ----------------------------------------------
#
# RuntimeFederation derives the dataset from the shared [data] spec, so the
# runtime configs below describe exactly the `data` fixture (24 x 4,
# 2 classes, seed 11) split over 2 parties, and exactly CONFIG's pivot
# parameters — the write_party_configs defaults mirror both on purpose.


@pytest.fixture(scope="module")
def distributed_baseline(data):
    """In-memory run with dealerless keygen: the byte-level reference for
    the runtime row (keygen traffic rides the same accounted bus)."""
    X, y = data
    cfg = replace(CONFIG, keygen="distributed")
    return _run(Federation(_parties(X, y), config=cfg), X[:6])


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
    party = StandalonePartyProcess(paths[1])
    facts = {}
    try:
        fed = RuntimeFederation(load_runtime_config(paths[0]))
        facts["key_report"] = fed.key_report()
        facts["stub"] = fed.clients[1]
        facts["remote_poisoned"] = bool(
            np.isnan(fed.parties[1]._raw_features).all()
        )
        try:
            fed.context_for(protocol="enhanced")
            facts["enhanced_error"] = None
        except NotImplementedError as exc:
            facts["enhanced_error"] = str(exc)
        facts["result"] = _run(fed, X[:6])  # closes fed -> ctl-shutdown
        facts["party_rc"] = party.wait(timeout=30.0)
    finally:
        party.ensure_dead()
    return facts


def test_standalone_runtime_parity(runtime_run, distributed_baseline):
    result = runtime_run["result"]
    assert result["cost"]["bus"]["transport"]["kind"] == "SocketTransport"
    _assert_parity(result, distributed_baseline)
    # The whole deployment drained and every party exited cleanly on the
    # orchestrator's ctl-shutdown.
    assert result["cost"]["bus"]["pending"] == 0
    assert runtime_run["party_rc"] == 0


def test_standalone_runtime_matches_dealer_model(runtime_run, baseline):
    """Same model, predictions and homomorphic-op counts as the trusted
    dealer baseline — only the key *provenance* differs (its kg-* traffic
    keeps total bytes/rounds out of full byte parity with this row)."""
    result = runtime_run["result"]
    assert result["signature"] == baseline["signature"]
    assert result["predictions"] == baseline["predictions"]
    assert result["ops"] == baseline["ops"]


def test_no_process_materializes_the_full_private_key(runtime_run):
    """The acceptance bar for retiring the dealer: every process — the
    orchestrator included — audits as holding her own share material and
    never the full private key."""
    report = runtime_run["key_report"]
    assert sorted(report) == [0, 1]
    for summary in report.values():
        assert summary["full_private_key"] is False
        assert summary["d_share"] is True


def test_runtime_stub_refuses_local_reads(runtime_run):
    """The orchestrator holds no copy of a standalone party's columns:
    shape-level facts work, every data read or local computation refuses."""
    stub = runtime_run["stub"]
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
    assert runtime_run["remote_poisoned"]


def test_runtime_refuses_the_enhanced_protocol(runtime_run):
    assert runtime_run["enhanced_error"] is not None
    assert "centrally driven" in runtime_run["enhanced_error"]


# -- the physical locality guarantee -----------------------------------------


@pytest.fixture()
def deployed(data):
    X, y = data
    fed = DeployedFederation(_parties(X, y), config=CONFIG)
    yield fed
    fed.close()


def test_remote_columns_do_not_exist_in_orchestrator(deployed):
    remote = deployed.clients[1]
    with pytest.raises(RemoteOpError, match="worker process"):
        remote.features.read()
    with pytest.raises(RemoteOpError, match="worker process"):
        np.asarray(remote.features)
    # The orchestrator-side Party handle holds only NaN poison.
    assert np.isnan(deployed.parties[1]._raw_features).all()
    # ... as does the context's partition slot for the remote party.
    assert np.isnan(deployed.partition.local_features[1]).all()
    # The super client's own data stays local and real.
    assert not np.isnan(deployed.partition.local_features[0]).any()


def test_remote_party_local_ops_match_local_computation(data, deployed):
    X, y = data
    remote = deployed.clients[1]
    block = X[:, 2:]
    for feature in range(block.shape[1]):
        for split, threshold in enumerate(remote.split_values[feature]):
            expected = (block[:, feature] <= threshold).astype(np.int64)
            assert np.array_equal(remote.indicator(feature, split), expected)
        matrix = remote.indicator_matrix(feature)
        assert matrix.shape == (len(block), remote.n_splits(feature))
    assert np.array_equal(remote.local_row(5), block[5])


def test_worker_holds_a_working_key_share(deployed):
    """The provisioned share really decrypts: the worker's partial
    decryption combines with the super client's into the plaintext."""
    threshold = deployed.threshold
    ct = threshold.public_key.encrypt(123)
    worker_values = deployed.workers[1].request(
        "partial_decrypt", ciphertexts=[ct]
    )
    partials = [
        threshold.shares[0].partial_decrypt(ct),
        PartialDecryption(1, worker_values[0]),
    ]
    assert (
        combine_partial_decryptions(threshold.public_key, partials, 2) == 123
    )
    # The orchestrator-side Party handle gave up its copy of the share.
    assert deployed.parties[1].key_share is None


def test_worker_failure_is_loud(deployed):
    with pytest.raises(RemoteOpError, match="failed"):
        deployed.workers[1].request("indicator", feature=99, split=0)
    with pytest.raises(RemoteOpError, match="unknown party op"):
        deployed.workers[1].request("exfiltrate")


def test_worker_death_surfaces_as_remote_op_error(deployed):
    worker = deployed.workers[1]
    worker._proc.terminate()
    worker._proc.join(5.0)
    with pytest.raises(RemoteOpError, match="worker"):
        worker.request("info")


def test_poisoned_parties_cannot_be_refederated(data):
    """DeployedFederation ships a party's columns to her worker and
    poisons the local copy — re-federating that Party object must fail
    validation, not silently train on NaN."""
    X, y = data
    parties = _parties(X, y)
    with DeployedFederation(parties, config=CONFIG):
        pass
    with pytest.raises(ValueError, match="worker process"):
        Federation(parties, config=CONFIG)
    with pytest.raises(ValueError, match="worker process"):
        DeployedFederation(parties, config=CONFIG)


def test_from_partition_and_from_global_really_deploy(data):
    """The inherited constructors must route through the deploying
    __init__ (the base-class cls.__new__ path would skip the workers)."""
    X, y = data
    with DeployedFederation.from_global(X, y, 2, config=CONFIG) as fed:
        assert isinstance(fed, DeployedFederation)
        assert sorted(fed.workers) == [1]
        assert fed.bus.transport.snapshot()["kind"] == "SocketTransport"
        assert np.isnan(fed.parties[1]._raw_features).all()


def test_shuffled_partition_deploys_with_its_columns():
    """A shuffled partition keeps its column assignment when deployed:
    the same ``columns_per_client``, the same per-party slices of global
    rows, and the same model and predictions as in memory."""
    X, y = make_classification(24, 6, n_classes=2, seed=11)
    vp = vertical_partition(X, y, 3, shuffle_columns=True, seed=1)
    assert vp.columns_per_client == ((4, 0), (2, 1), (5, 3))
    rows = X[:8]
    runs = []
    for cls in (Federation, DeployedFederation):
        with cls.from_partition(vp, CONFIG) as fed:
            clf = PivotClassifier().fit(fed)
            predictions = list(clf.predict(rows))
            assert predictions == list(clf.model_.predict(rows))
            runs.append((
                fed.partition.columns_per_client,
                [block.tolist() for block in fed.slices(rows)],
                clf.model_.structure_signature(),
                predictions,
            ))
    assert runs[0][0] == vp.columns_per_client
    assert runs[1] == runs[0]


def test_logistic_trains_over_process_deployment(data):
    """LogisticTrainer's per-epoch batch sums and gradient folds run as
    worker-side ops (``batch_sums`` / ``weight_update``), so logistic
    training over a process deployment is bit-identical to in-memory —
    including the homomorphic op counts the workers report back."""
    from repro.federation import PivotLogisticClassifier

    X, y = data
    cfg = PivotConfig(keysize=256, seed=5)

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
