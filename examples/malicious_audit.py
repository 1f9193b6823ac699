"""Malicious-model training with zero-knowledge audits (paper §9.1).

Every party commits to her split-indicator vectors before training and
proves every local computation (POPK/POPCM/POHDP Σ-protocols); the SPDZ
layer runs with information-theoretic MACs.  With the federation API this
is the estimator's uniform ``malicious=`` hook.  The example shows an
honest run (which produces exactly the semi-honest protocol's tree) and
then two cheating parties whose deviations are caught and abort the
protocol.

Run:  python examples/malicious_audit.py
"""

from repro import Federation, Party, PivotClassifier, PivotConfig
from repro.core import CheatingClient
from repro.crypto.zkp import ProofError
from repro.data import make_classification
from repro.tree import TreeParams


def main() -> None:
    X, y = make_classification(16, 3, n_classes=2, seed=9)
    params = TreeParams(max_depth=2, max_splits=2)

    def parties() -> list[Party]:
        return [
            Party(X[:, :1], labels=y),
            Party(X[:, 1:2]),
            Party(X[:, 2:]),
        ]

    print("honest run with full verification...")
    with Federation(
        parties(),
        config=PivotConfig(keysize=256, tree=params, seed=2, authenticated_mpc=True),
    ) as fed:
        verified = PivotClassifier(malicious=True).fit(fed)

    with Federation(
        parties(), config=PivotConfig(keysize=256, tree=params, seed=2)
    ) as fed:
        semi = PivotClassifier().fit(fed)
    same = (
        verified.model_.structure_signature() == semi.model_.structure_signature()
    )
    print(f"  verified tree equals the semi-honest tree: {same}")

    for step in ("stats", "update"):
        print(f"\nadversarial run: a party lies during the {step!r} step...")
        with Federation(
            parties(),
            config=PivotConfig(
                keysize=256, tree=params, seed=3, authenticated_mpc=True
            ),
        ) as cheat_fed:
            try:
                CheatingClient(step).train(cheat_fed)
                print("  !!! deviation went UNDETECTED (this must never print)")
            except ProofError as error:
                print(f"  detected and aborted: {error}")


if __name__ == "__main__":
    main()
