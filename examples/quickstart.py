"""Quickstart: train and use a privacy-preserving vertical decision tree.

Three organisations hold disjoint feature columns for the same users; only
one of them (the "super client") holds the labels.  Each organisation is a
``Party``; a ``Federation`` runs the joint setup (threshold-Paillier keys,
MPC engine) and enforces the party boundary: no party can read another
party's raw columns — cross-party reads raise ``LocalityError``.  They
jointly train a CART classifier without revealing features, labels, or any
intermediate statistic — only the final model is released (Pivot's basic
protocol).

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import Federation, Party, PivotClassifier, PivotConfig
from repro.data import make_classification
from repro.tree import DecisionTree, TreeParams
from repro.tree.metrics import accuracy


def main() -> None:
    # 1. A dataset, split vertically over 3 organisations.  In production
    #    each party constructs her Party from her own database; here we
    #    slice a generated matrix.  Party 0 additionally holds the labels.
    X, y = make_classification(n_samples=60, n_features=6, n_classes=2, seed=42)
    parties = [
        Party(X[:, :2], labels=y, name="bank"),
        Party(X[:, 2:4], name="fintech"),
        Party(X[:, 4:], name="insurer"),
    ]

    # 2. Federation setup: threshold-Paillier keys (every party receives a
    #    partial secret key), MPC engine, candidate splits.  Small key size
    #    keeps the demo fast; see DESIGN.md.  The with-block closes the
    #    message bus's transport on exit.
    config = PivotConfig(
        keysize=256,
        tree=TreeParams(max_depth=3, max_splits=4),
        seed=7,
    )
    with Federation(parties, config=config) as fed:
        # 3. Joint training (Algorithm 3).  No party ever sees another
        #    party's features, the labels, or any plaintext statistic.
        model = PivotClassifier(protocol="basic").fit(fed)
        print("=== released model ===")
        print(model.model_.describe())

        # 4. Joint prediction (Algorithm 4): each party supplies only her
        #    own columns of the query rows.
        predictions = model.predict(fed.slices(X[:20]))
        print("\nsecure prediction accuracy on 20 samples:",
              accuracy(predictions, y[:20]))

        # 5. The enforced boundary: reading another party's raw columns
        #    raises (her own succeed, inside her scope).
        try:
            # pivotlint: disable=PL001 -- deliberate: demonstrates the
            # locality guard raising on a foreign party's columns.
            parties[1].features[0]
        except Exception as error:
            print("cross-party read blocked:", type(error).__name__)

        # 6. Sanity: the same tree a non-private CART would have built.
        grid: list[list[float]] = [[] for _ in range(X.shape[1])]
        for ci, cols in enumerate(fed.context.partition.columns_per_client):
            for local, global_col in enumerate(cols):
                grid[global_col] = fed.context.clients[ci].split_values[local]
        reference = DecisionTree(
            "classification", TreeParams(max_depth=3, max_splits=4)
        ).fit(X, y, split_candidates=grid)
        print("non-private CART accuracy on the same samples:",
              accuracy(reference.predict(X[:20]), y[:20]))

        # 7. What did the protocol cost?
        costs = fed.cost_snapshot()
        print("\nprotocol cost:",
              f"{costs['conversions']['threshold_decryptions']} threshold decryptions,",
              f"{costs['mpc']['rounds']} MPC rounds,",
              f"{costs['bus']['bytes'] / 1024:.0f} KiB on the bus")
        fed.assert_drained()  # every party consumed her whole inbox


if __name__ == "__main__":
    main()
