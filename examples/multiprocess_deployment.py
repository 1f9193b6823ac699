"""Per-party process deployment over a real socket transport.

The paper runs each client on her own machine in a LAN (§8.1).  This
example reproduces that topology on one host: every non-super party is
launched in her **own worker process** holding her raw feature columns
and her partial threshold-Paillier key share, the super client's process
orchestrates, and every protocol payload crosses a real local TCP socket
(``SocketTransport``) instead of an in-process queue.

The point of the exercise: the physical deployment changes *nothing*
observable about the protocol.  The model, the predictions, the measured
wire bytes, and the round count are bit-identical to the single-process
in-memory run — which this script verifies at the end.

Run:  python examples/multiprocess_deployment.py
"""

import numpy as np

from repro import Federation, Party, PivotClassifier, PivotConfig
from repro.data import make_classification
from repro.federation.deployment import DeployedFederation, RemoteOpError
from repro.tree import TreeParams
from repro.tree.metrics import accuracy


def make_parties(X, y):
    return [
        Party(X[:, :2], labels=y, name="bank"),  # super client = orchestrator
        Party(X[:, 2:4], name="fintech"),  # worker process
        Party(X[:, 4:], name="insurer"),  # worker process
    ]


def main() -> None:
    X, y = make_classification(n_samples=40, n_features=6, n_classes=2, seed=42)
    config = PivotConfig(
        keysize=256, tree=TreeParams(max_depth=2, max_splits=2), seed=7
    )

    # 1. The deployed run: 2 worker processes (fintech, insurer), payloads
    #    over local sockets.  Spawning hands each party her own columns;
    #    the orchestrator's copies are replaced by NaN poison arrays.
    with DeployedFederation(make_parties(X, y), config=config) as fed:
        print("worker processes:", sorted(fed.workers))
        print("socket addresses:", fed.bus.transport.addresses)

        model = PivotClassifier(protocol="basic").fit(fed)
        predictions = model.predict(fed.slices(X[:20]))
        print("deployed-run accuracy on 20 samples:",
              accuracy(predictions, y[:20]))

        # 2. The locality boundary is physical now: the orchestrator holds
        #    no raw columns of the remote parties at all.
        try:
            # pivotlint: disable=PL001 -- deliberate: demonstrates the
            # cross-process guard raising on a foreign party's columns.
            fed.clients[1].features.read()
        except RemoteOpError as error:
            print("cross-process read impossible:", str(error).split(";")[0])
        assert np.isnan(fed.parties[1]._raw_features).all()

        # 3. ... and so is the threshold structure: after provisioning,
        #    the dealer's private key and the workers' d_share values were
        #    scrubbed from this process.  Every plaintext in the run above
        #    was reconstructed from the 3 share vectors on the wire (the
        #    workers computed theirs with their own key shares).
        threshold = fed.threshold
        print("dealer key scrubbed:", threshold.scrubbed)
        assert threshold._private_key is None
        assert [s is not None for s in threshold.shares] == [True, False, False]
        try:
            threshold.joint_decrypt(threshold.public_key.encrypt(1))
        except RuntimeError as error:
            print("orchestrator cannot decrypt alone:",
                  str(error).split(":")[0])

        deployed_signature = model.model_.structure_signature()
        deployed_cost = fed.cost_snapshot()["bus"]
        deployed_predictions = list(predictions)

    # 4. The single-process in-memory baseline: same data, same config.
    with Federation(make_parties(X, y), config=config) as fed:
        baseline = PivotClassifier(protocol="basic").fit(fed)
        baseline_predictions = list(baseline.predict(fed.slices(X[:20])))
        baseline_cost = fed.cost_snapshot()["bus"]
        baseline_signature = baseline.model_.structure_signature()

    # 5. Deployment parity: bit-identical model and byte-identical wire.
    assert deployed_signature == baseline_signature
    assert deployed_predictions == baseline_predictions
    assert deployed_cost["bytes_measured"] == baseline_cost["bytes_measured"]
    assert deployed_cost["rounds"] == baseline_cost["rounds"]
    print("\nparity: model, predictions, "
          f"{deployed_cost['bytes_measured']} measured bytes and "
          f"{deployed_cost['rounds']} rounds identical across deployments")
    print("deployed transport:", deployed_cost["transport"])
    print("baseline transport:", baseline_cost["transport"])


if __name__ == "__main__":
    main()
