"""Per-party process deployment over a real socket transport.

The paper runs each client on her own machine in a LAN (§8.1).  This
example reproduces that topology on one host: every non-super party is
spawned as her **own standalone runtime process** holding only her raw
feature columns, the parties generate the threshold-Paillier key
together (distributed keygen: each walks away with her own d_i and the
full private key exists nowhere), the super client's process drives the
protocol, and every protocol payload crosses a real local TCP socket
(``SocketTransport``) instead of an in-process queue.

The point of the exercise: the physical deployment changes *nothing*
observable about the protocol.  The model, the predictions, the measured
wire bytes, and the round count are bit-identical to the single-process
in-memory run with the same (distributed) keygen — which this script
verifies at the end.

Run:  python examples/multiprocess_deployment.py
"""

from dataclasses import replace

import numpy as np

from repro import Federation, Party, PivotClassifier, PivotConfig
from repro.data import make_classification
from repro.federation.deployment import DeployedFederation
from repro.tree import TreeParams
from repro.tree.metrics import accuracy


def make_parties(X, y):
    return [
        Party(X[:, :2], labels=y, name="bank"),  # super client: this process
        Party(X[:, 2:4], name="fintech"),  # her own process
        Party(X[:, 4:], name="insurer"),  # her own process
    ]


def main() -> None:
    X, y = make_classification(n_samples=40, n_features=6, n_classes=2, seed=42)
    config = PivotConfig(
        keysize=256, tree=TreeParams(max_depth=2, max_splits=2), seed=7
    )

    # 1. The deployed run: 2 spawned party processes (fintech, insurer),
    #    payloads over local sockets.  Spawning hands each party her own
    #    columns; this process's copies are replaced by NaN poison arrays.
    with DeployedFederation(make_parties(X, y), config=config) as fed:
        print("party processes:", sorted(fed.processes))
        print("socket addresses:", fed.bus.transport.addresses)

        # 2. ... and the key exists in pieces only: every process audits
        #    as holding her own d_i share and never the full private key.
        for index, report in sorted(fed.key_report().items()):
            print(f"party {index} key audit: d_share={report['d_share']}, "
                  f"full_private_key={report['full_private_key']}")
            assert report["full_private_key"] is False

        model = PivotClassifier(protocol="basic").fit(fed)
        predictions = model.predict(fed.slices(X[:20]))
        print("deployed-run accuracy on 20 samples:",
              accuracy(predictions, y[:20]))

        # 3. The locality boundary is physical: this process holds no raw
        #    columns, thresholds or indicators of the remote parties.
        try:
            # pivotlint: disable=PL001 -- deliberate: demonstrates the
            # cross-process guard raising on a foreign party's columns.
            fed.clients[1].features.read()
        except RuntimeError as error:
            print("cross-process read impossible:", str(error).split(";")[0])
        try:
            fed.clients[1].indicator(0, 0)
        except NotImplementedError as error:
            print("remote indicator refused:", str(error).split(";")[0])
        assert np.isnan(fed.parties[1]._raw_features).all()

        deployed_signature = model.model_.structure_signature()
        deployed_cost = fed.cost_snapshot()["bus"]
        deployed_predictions = list(predictions)

    # 4. The single-process in-memory baseline: same data, same config,
    #    the same distributed keygen (so the kg-* traffic matches too).
    distributed = replace(config, keygen="distributed")
    with Federation(make_parties(X, y), config=distributed) as fed:
        baseline = PivotClassifier(protocol="basic").fit(fed)
        baseline_predictions = list(baseline.predict(fed.slices(X[:20])))
        baseline_cost = fed.cost_snapshot()["bus"]
        baseline_signature = baseline.model_.structure_signature()

    # 5. Deployment parity: bit-identical model and byte-identical wire.
    assert deployed_signature == baseline_signature
    assert deployed_predictions == baseline_predictions
    assert deployed_cost["bytes_measured"] == baseline_cost["bytes_measured"]
    assert deployed_cost["rounds"] == baseline_cost["rounds"]
    assert deployed_cost["by_tag"] == baseline_cost["by_tag"]
    print("\nparity: model, predictions, "
          f"{deployed_cost['bytes_measured']} measured bytes and "
          f"{deployed_cost['rounds']} rounds identical across deployments")
    print("deployed transport:", deployed_cost["transport"])
    print("baseline transport:", baseline_cost["transport"])


if __name__ == "__main__":
    main()
