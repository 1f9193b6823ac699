"""Credit scoring across a bank and two fintechs (the paper's Figure 1).

A bank (super client: account features + ground-truth default labels) and
two fintech companies (transaction features) jointly train a credit model
through the ``Federation`` API.  The example then demonstrates the paper's
§5.1 privacy leakage on the released plaintext model, and shows that the
enhanced protocol (§5.2) — one ``protocol=`` switch on the estimator —
defeats the same attack by hiding thresholds and leaf labels.

Run:  python examples/credit_scoring.py
"""

import numpy as np

from repro import Federation, Party, PivotClassifier, PivotConfig
from repro.core import label_inference_attack
from repro.data import load_credit_card, vertical_partition
from repro.tree import TreeParams
from repro.tree.metrics import accuracy


def main() -> None:
    dataset = load_credit_card(n_samples=400, seed=3).subsample(80, seed=1)
    # Bank = party 0 (labels + demographic columns); fintechs = parties 1-2
    # hold the behavioural columns (repayment status, bills, payments) —
    # reverse the column order so the predictive features sit with the
    # fintechs, the situation in which §5.1's Example 1 bites.
    features = dataset.features[:, ::-1]
    partition = vertical_partition(
        features, dataset.labels, n_clients=3, task="classification"
    )
    params = TreeParams(max_depth=3, max_splits=4)

    def parties() -> list[Party]:
        names = ("bank", "fintech-a", "fintech-b")
        return [
            Party(
                features[:, list(cols)],
                labels=dataset.labels if i == 0 else None,
                name=names[i],
            )
            for i, cols in enumerate(partition.columns_per_client)
        ]

    # --- basic protocol: full model released -----------------------------
    with Federation(
        parties(), config=PivotConfig(keysize=256, tree=params, seed=11)
    ) as fed:
        basic = PivotClassifier(protocol="basic").fit(fed)
        preds = basic.predict(fed.slices(features[:30]))
        print("basic protocol — model released in plaintext")
        print("  train accuracy (30 samples):",
              accuracy(preds, dataset.labels[:30]))

        # The §5.1 attack: the two fintechs collude and recover labels of
        # the bank's users along fully-fintech-owned paths.
        attack = label_inference_attack(basic.model_, partition, colluding={1, 2})
        print(f"  label-inference attack: recovered labels for "
              f"{attack.n_targets}/{attack.n_population} samples "
              f"({attack.coverage:.0%}) with {attack.accuracy:.0%} accuracy")

    # --- enhanced protocol: thresholds + leaf labels hidden ----------------
    with Federation(
        parties(),
        config=PivotConfig(keysize=256, tree=params, protocol="enhanced", seed=11),
    ) as fed:
        enhanced = PivotClassifier(protocol="enhanced").fit(fed)
        attack2 = label_inference_attack(
            enhanced.model_, partition, colluding={1, 2}
        )
        print("\nenhanced protocol — thresholds and leaf labels concealed")
        print(f"  label-inference attack: recovered "
              f"{attack2.n_targets} labels (coverage {attack2.coverage:.0%})")

        # Prediction still works, over the secret-shared model.
        secure_preds = enhanced.predict(fed.slices(features[:10]))
        print("  secure predictions on 10 applications:", list(secure_preds))
        print("  ground truth:                         ",
              list(dataset.labels[:10]))


if __name__ == "__main__":
    main()
