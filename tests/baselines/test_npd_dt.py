"""NPD-DT baseline (§8.1): plaintext-equivalent output, honest accounting."""

import numpy as np
import pytest

from repro.baselines import NpdDecisionTree, npd_predict
from repro.data import make_classification, make_regression, vertical_partition
from repro.tree import DecisionTree, TreeParams
from repro.tree.splits import candidate_splits

PARAMS = TreeParams(max_depth=2, max_splits=2)


def reference_grid(partition, max_splits):
    total = sum(len(c) for c in partition.columns_per_client)
    grid = [[] for _ in range(total)]
    for ci, cols in enumerate(partition.columns_per_client):
        for local, global_col in enumerate(cols):
            grid[global_col] = candidate_splits(
                partition.local_features[ci][:, local], max_splits
            )
    return grid


@pytest.fixture(scope="module")
def trained():
    X, y = make_classification(40, 4, n_classes=2, seed=1)
    vp = vertical_partition(X, y, 3, task="classification")
    npd = NpdDecisionTree(vp, PARAMS)
    model = npd.fit()
    return X, y, vp, npd, model


def test_matches_centralized_cart(trained):
    X, y, vp, _, model = trained
    plain = DecisionTree("classification", PARAMS).fit(
        X, y, split_candidates=reference_grid(vp, 2)
    )
    assert [
        (vp.global_feature_of(n.owner, n.feature), round(n.threshold, 8))
        for n in model.internal_nodes()
    ] == [(n.feature, round(n.threshold, 8)) for n in plain.internal_nodes()]
    assert [l.prediction for l in model.leaves()] == [
        l.prediction for l in plain.leaves()
    ]


def test_labels_are_broadcast_in_plaintext(trained):
    """The privacy give-away: labels travel the wire unencrypted."""
    _, _, _, npd, _ = trained
    assert npd.bus.by_tag["plaintext-labels"] > 0


def test_regression_baseline():
    X, y = make_regression(30, 4, seed=2)
    vp = vertical_partition(X, y, 3, task="regression")
    model = NpdDecisionTree(vp, PARAMS).fit()
    plain = DecisionTree("regression", PARAMS).fit(
        X, y, split_candidates=reference_grid(vp, 2)
    )
    for s, p in zip(model.leaves(), plain.leaves()):
        assert s.prediction == pytest.approx(p.prediction, abs=1e-9)


def test_prediction_walks_the_path(trained):
    X, _, vp, npd, model = trained
    for row in X[:5]:
        assert npd_predict(model, vp, row, npd.bus) == model.predict_row(row)


def test_prediction_leaks_path_bits(trained):
    """§4.3: the naive coordinated prediction reveals the path."""
    X, _, vp, npd, model = trained
    before = npd.bus.by_tag.get("branch-bit", 0)
    npd_predict(model, vp, X[0], npd.bus)
    assert npd.bus.by_tag["branch-bit"] >= before  # bits flow when owner != super


def test_communication_is_orders_below_pivot(trained):
    """Fig. 5: NPD-DT is essentially free next to any secure protocol —
    about an order of magnitude fewer bytes than Pivot (8.5x here).  Both
    byte counts are pinned: Pivot's split statistics, with Algorithm 2's
    masks riding in them, every party's masked groups reaching every
    other party and each partial decryption the super client alone, and
    the root's entry and label totals in level 0's; one child's mask
    vector per split, none for leaves at the depth limit.  Of the root's
    two open children only the left one's statistics are computed and
    converted (the right one's are the root's minus the left's), which
    takes (m − 1)·[(m·(1 + |c|) + |c|)·ΔG + |s|·ΔT + e] bytes off
    ``split-stats`` against converting both: ΔG = ⌈32/5⌉ − ⌈16/5⌉ = 3
    packed groups and ΔT = 16 values (S = 8 candidates × n_l and one class
    count) at |c| = 64-byte ciphertexts and |s| = 16-byte shares, and the
    right child's 55-byte ``key, available`` entry:
    2 · (259 · 3 + 16 · 16 + 55) = 2 176, so 25 594 → 23 418.

    NP-DT's are measured payloads, each a ``bytes`` blob behind the
    codec's 5-byte header (tag + length), broadcast to the m − 1 others:

        (m − 1) · [(5 + 8n) + Σ_nodes Σ_clients (5 + 8 s) + Σ_splits (5 + n)]

    over the n labels, each evaluated node's per-client statistics (s
    values: 2c + 2 per candidate split) and each chosen split's partition.
    Here m = 3, n = 40, three nodes evaluated and split, 126 statistics:
    2 · (325 + (9 · 5 + 8 · 126) + 3 · 45) = 3 026.  The NPD-DT fit is a
    fresh one: the fixture's bus also carries the other tests'
    predictions."""
    from repro.core import TreeTrainer
    from tests.core.conftest import make_context

    X, y, vp, _, _ = trained
    npd = NpdDecisionTree(vp, PARAMS)
    npd.fit()
    ctx = make_context(X, y, "classification", params=PARAMS, seed=9)
    TreeTrainer(ctx).fit()
    assert (ctx.bus.bytes, npd.bus.bytes) == (23_418, 3_026)
    assert npd.bus.by_tag == {
        "plaintext-labels": 2 * (5 + 8 * 40),
        "plaintext-stats": 2 * (3 * 3 * 5 + 8 * 126),
        "partition": 2 * 3 * (5 + 40),
    }


def _recorded_fit(partition, monkeypatch):
    """Fit NP-DT and keep every broadcast payload, by tag."""
    npd = NpdDecisionTree(partition, PARAMS)
    sent: dict[str, list[bytes]] = {}
    broadcast = npd.bus.broadcast_payload

    def record(sender, payload, tag="untagged"):
        sent.setdefault(tag, []).append(payload)
        return broadcast(sender, payload, tag=tag)

    monkeypatch.setattr(npd.bus, "broadcast_payload", record)
    return npd, npd.fit(), sent


def test_the_label_payload_is_the_label_vector(trained, monkeypatch):
    _, y, vp, _, _ = trained
    _, _, sent = _recorded_fit(vp, monkeypatch)
    (labels,) = sent["plaintext-labels"]
    np.testing.assert_array_equal(np.frombuffer(labels, dtype=np.int64), y)


def test_classification_statistics_are_each_candidates_counts(trained, monkeypatch):
    """2c + 2 values per candidate split: n_l, n_r, the left and right
    class counts; one message per client per evaluated node."""
    _, _, vp, _, _ = trained
    npd, _, sent = _recorded_fit(vp, monkeypatch)
    c = npd.n_classes
    stats = sent["plaintext-stats"]
    assert len(stats) % vp.n_clients == 0
    for blob in stats:
        rows = np.frombuffer(blob, dtype=np.float64).reshape(-1, 2 * c + 2)
        np.testing.assert_array_equal(rows[:, 0], rows[:, 2 : 2 + c].sum(axis=1))
        np.testing.assert_array_equal(rows[:, 1], rows[:, 2 + c :].sum(axis=1))
        assert len(set(rows[:, 0] + rows[:, 1])) <= 1  # one node per message
    # The root's messages: every sample, on every client's candidates.
    for blob in stats[: vp.n_clients]:
        rows = np.frombuffer(blob, dtype=np.float64).reshape(-1, 2 * c + 2)
        assert len(rows) and set(rows[:, 0] + rows[:, 1]) == {vp.n_samples}


def test_regression_statistics_are_each_candidates_sums(monkeypatch):
    """Six values per candidate split: n, Σy and Σy² of each side."""
    X, y = make_regression(30, 4, seed=2)
    vp = vertical_partition(X, y, 3, task="regression")
    _, _, sent = _recorded_fit(vp, monkeypatch)
    # The root's messages, one per client: each candidate splits all 30.
    for blob in sent["plaintext-stats"][: vp.n_clients]:
        rows = np.frombuffer(blob, dtype=np.float64).reshape(-1, 6)
        assert len(rows)
        np.testing.assert_array_equal(rows[:, 0] + rows[:, 3], 30)
        np.testing.assert_allclose(rows[:, 1] + rows[:, 4], y.sum())
        np.testing.assert_allclose(rows[:, 2] + rows[:, 5], (y**2).sum())


def test_the_partition_payload_is_the_roots_left_mask(trained, monkeypatch):
    X, _, vp, _, _ = trained
    _, model, sent = _recorded_fit(vp, monkeypatch)
    root = model.root
    column = X[:, vp.global_feature_of(root.owner, root.feature)]
    left = np.frombuffer(sent["partition"][0], dtype=bool)
    np.testing.assert_array_equal(left, column <= root.threshold)


def test_a_fit_and_its_predictions_strand_no_message(trained):
    X, _, vp, _, _ = trained
    npd = NpdDecisionTree(vp, PARAMS)
    model = npd.fit()
    for row in X[:5]:
        npd_predict(model, vp, row, npd.bus)
    assert npd.bus.pending_total() == 0
    assert npd.bus.consumed == npd.bus.messages > 0
    npd.bus.assert_drained()


def test_a_branch_bit_per_node_another_client_owns(trained):
    """Each node on the path that the super client does not own costs one
    1-byte payload behind the 5-byte header, sent to her alone."""
    X, _, vp, _, model = trained
    bus = NpdDecisionTree(vp, PARAMS).bus
    for row in X[:8]:
        before = bus.by_tag.get("branch-bit", 0)
        npd_predict(model, vp, row, bus)
        node, foreign = model.root, 0
        while not node.is_leaf:
            foreign += node.owner != vp.super_client
            cols = vp.columns_per_client[node.owner]
            node = node.left if row[cols[node.feature]] <= node.threshold else node.right
        assert bus.by_tag.get("branch-bit", 0) - before == 6 * foreign


def test_the_super_client_walks_on_the_bit_she_receives(trained, monkeypatch):
    """She does not compare the owner's feature herself: flip every bit she
    receives and the walk takes the other branch at every foreign node."""
    X, _, vp, npd, model = trained
    assert model.root.owner != vp.super_client  # the root's bit is sent
    receive = npd.bus.receive

    def flipped(party, tag=None):
        return bytes([1 - receive(party, tag=tag)[0]])

    monkeypatch.setattr(npd.bus, "receive", flipped)
    outcomes = []
    for row in X:
        node = model.root
        while not node.is_leaf:
            cols = vp.columns_per_client[node.owner]
            goes_left = row[cols[node.feature]] <= node.threshold
            if node.owner != vp.super_client:
                goes_left = not goes_left
            node = node.left if goes_left else node.right
        outcomes.append(npd_predict(model, vp, row, npd.bus) == node.prediction)
    assert all(outcomes)
