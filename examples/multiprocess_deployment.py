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
observable about the protocol.  Keys follow the topology — the
single-process in-memory run hosts every party and takes a trusted
dealer's key, so only the deployment spends traffic on keygen — but over
the fit/predict window the model, the predictions, the measured wire
bytes (total and per tag), and the round count are bit-identical, which
this script verifies at the end.

Run:  python examples/multiprocess_deployment.py
"""

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


def window(before: dict, after: dict) -> dict:
    """Bus traffic between two ``cost_snapshot()["bus"]`` readings."""
    by_tag = {
        tag: n - before["by_tag"].get(tag, 0)
        for tag, n in after["by_tag"].items()
    }
    return {
        "bytes_measured": after["bytes_measured"] - before["bytes_measured"],
        "rounds": after["rounds"] - before["rounds"],
        "by_tag": {tag: n for tag, n in by_tag.items() if n},
    }


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

        keygen = fed.cost_snapshot()["bus"]
        print(f"distributed keygen: {keygen['bytes_measured']} bytes in "
              f"{keygen['rounds']} rounds")
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
        deployed_cost = window(keygen, fed.cost_snapshot()["bus"])
        deployed_predictions = list(predictions)

    # 4. The single-process in-memory baseline: same data, same config;
    #    it hosts every party, so its key comes from the dealer.
    with Federation(make_parties(X, y), config=config) as fed:
        before = fed.cost_snapshot()["bus"]
        baseline = PivotClassifier(protocol="basic").fit(fed)
        baseline_predictions = list(baseline.predict(fed.slices(X[:20])))
        baseline_cost = window(before, fed.cost_snapshot()["bus"])
        baseline_signature = baseline.model_.structure_signature()

    # 5. Deployment parity over the fit/predict window: bit-identical
    #    model and byte-identical wire.
    assert deployed_signature == baseline_signature
    assert deployed_predictions == baseline_predictions
    assert deployed_cost == baseline_cost
    print("\nparity: model, predictions, "
          f"{deployed_cost['bytes_measured']} measured bytes and "
          f"{deployed_cost['rounds']} rounds identical across deployments")


if __name__ == "__main__":
    main()
