"""The tree grows one depth at a time, and still equals plaintext CART.

* **Oracle.**  On generated data — samples, features, candidate splits,
  classes, partition and seed all drawn — the basic and the enhanced tree
  have the splits of :class:`repro.tree.DecisionTree` on the federation's
  candidate grid, and the same leaf labels.  A draw is kept only when
  fixed point cannot decide otherwise: every internal node's split beats
  every rival by ``GAIN_MARGIN`` (a rival on the same feature that sends
  the same samples left is no rival: both trainers take the earlier
  threshold), and every node CART leaves for want of gain has no positive
  gain at all.  Class-count ties need no margin: counts are exact on
  shares and both argmaxes take the first maximum.
* **Rounds follow depth.**  A full tree's training bus rounds are
  3h under the basic protocol and 2h + 8(h − 1) under the enhanced
  one: each level pays ``split-stats`` (which carries Algorithm 2's masks
  and the partial decryptions, under the enhanced protocol the label
  vectors, and at level 0 the root's entry and label totals) and the
  model update once however many nodes it has, so a level of two
  nodes and one of four cost the same bus and MPC rounds, and a level
  below the root whose nodes all stop at the pruning checks sends
  nothing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import PivotConfig, TreeTrainer
from repro.data import make_classification, vertical_partition
from repro.federation import Federation
from repro.federation.party import level_entries, split_root_entry
from repro.network.wire import Request
from repro.tree import DecisionTree, TreeParams
from repro.tree.metrics import gini_gain

from tests.core.conftest import (
    TEST_KEYSIZE,
    global_signature,
    global_split_grid,
    opened_signature,
    same_tree,
    spy_on_bus,
)

#: Least lead of a chosen split over zero and over every rival.  The
#: trainer's shared gains are a few ulps of 2^-16 off the true ones, and it
#: stops under 2^-9.
GAIN_MARGIN = 0.005
#: Data seeds tried per drawn example before it is given up.
ATTEMPTS = 32


def _federation(X, y, m, shuffle, seed, params) -> Federation:
    partition = vertical_partition(X, y, m, shuffle_columns=shuffle, seed=seed)
    config = PivotConfig(keysize=TEST_KEYSIZE, tree=params, seed=seed)
    return Federation.from_partition(partition, config)


def _decisive(model, X, y, grid, params, classes) -> bool:
    """Whether the plaintext tree is the only one fixed point can grow."""

    def counts(mask):
        return np.bincount(y[mask], minlength=classes)

    pending = [(model.root, np.ones(len(y), dtype=bool), 0)]
    while pending:
        node, here, depth = pending.pop()
        if (
            depth >= params.max_depth
            or here.sum() < params.min_samples_split
            or len(set(y[here])) <= 1
        ):
            continue
        scored = [
            (gini_gain(counts(left), counts(here & ~left)), column, left.tobytes())
            for column, thresholds in enumerate(grid)
            for left in (here & (X[:, column] <= t) for t in thresholds)
        ]
        best = max(gain for gain, _, _ in scored)
        if node.is_leaf:
            if best > 1e-12:
                return False
            continue
        chosen = here & (X[:, node.feature] <= node.threshold)
        rivals = [
            gain
            for gain, column, left in scored
            if (column, left) != (node.feature, chosen.tobytes())
        ]
        if best < GAIN_MARGIN or (rivals and best - max(rivals) < GAIN_MARGIN):
            return False
        left, right = node.children()
        pending += [(left, chosen, depth + 1), (right, here & ~chosen, depth + 1)]
    return True


@settings(
    deadline=None,
    max_examples=8,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(
    n=st.integers(min_value=20, max_value=40),
    d=st.integers(min_value=2, max_value=4),
    b=st.integers(min_value=1, max_value=3),
    h=st.integers(min_value=1, max_value=3),
    classes=st.sampled_from([2, 3]),
    m=st.sampled_from([2, 3]),
    shuffle=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_basic_and_enhanced_trees_equal_plaintext_cart(
    n, d, b, h, classes, m, shuffle, seed
):
    assume(d >= m)
    params = TreeParams(max_depth=h, max_splits=b)
    for attempt in range(ATTEMPTS):
        X, y = make_classification(n, d, n_classes=classes, seed=seed * ATTEMPTS + attempt)
        fed = _federation(X, y, m, shuffle, seed, params)
        grid = global_split_grid(fed)
        plain = DecisionTree("classification", params).fit(
            X, y, split_candidates=grid, n_classes=classes
        )
        if _decisive(plain, X, y, grid, params, classes):
            break
    else:
        assume(False)
    vp = fed.partition
    expected = global_signature(plain.root, vp)
    basic = TreeTrainer(fed).fit()
    assert global_signature(basic.root, vp) == expected
    enhanced_fed = fed.context_for(protocol="enhanced")
    enhanced = TreeTrainer(enhanced_fed).fit()
    assert same_tree(opened_signature(enhanced_fed, enhanced.root, vp), expected)
    fed.assert_drained()


# -- rounds follow depth ------------------------------------------------------

#: 48 samples over three parties whose plaintext CART tree at depth 3 is
#: full (eight leaves) on the federation's grid.
FULL_TREE = make_classification(48, 3, n_classes=2, seed=1)


def _levels(monkeypatch, fed, params, protocol):
    """Fit one tree; returns the fit's bus rounds and, per level, its node
    count and the bus rounds, bus messages and MPC rounds it took."""
    levels = []
    real = TreeTrainer._grow_level

    def grow_level(trainer, nodes, depth, tree):
        before = (fed.bus.rounds, fed.bus.messages, fed.engine.stats.rounds)
        try:
            return real(trainer, nodes, depth, tree)
        finally:
            after = (fed.bus.rounds, fed.bus.messages, fed.engine.stats.rounds)
            levels.append(
                (len(nodes), *(later - early for later, early in zip(after, before)))
            )

    monkeypatch.setattr(TreeTrainer, "_grow_level", grow_level)
    ctx = fed.context_for(protocol=protocol)
    before = fed.bus.rounds
    model = TreeTrainer(ctx).fit()
    monkeypatch.undo()
    return model, fed.bus.rounds - before, levels


@pytest.mark.parametrize("protocol", ["basic", "enhanced"])
def test_training_rounds_follow_depth(monkeypatch, protocol):
    X, y = FULL_TREE
    expected = {
        "basic": lambda h: 3 * h,
        "enhanced": lambda h: 2 * h + 8 * (h - 1),
    }[protocol]
    per_depth = {}
    for h in (1, 2, 3):
        params = TreeParams(max_depth=h, max_splits=2)
        fed = _federation(X, y, 3, False, 7, params)
        model, rounds, levels = _levels(monkeypatch, fed, params, protocol)
        assert len(model.leaves()) == 2**h  # full
        assert rounds == expected(h)
        per_depth[h] = levels
    assert [nodes for nodes, *_ in per_depth[3]] == [1, 2, 4, 8]
    # The last splitting level of h = 2 has two nodes, of h = 3 four: the
    # same bus and MPC rounds (more owners may send more messages).  So do
    # their leaf levels, which send nothing.
    (_, rounds_2, _, mpc_2), (_, rounds_4, _, mpc_4) = per_depth[2][1], per_depth[3][2]
    assert (rounds_2, mpc_2) == (rounds_4, mpc_4)
    assert per_depth[2][2][1:] == per_depth[3][3][1:]
    assert per_depth[3][3][1:3] == (0, 0)


def test_a_level_pruned_at_the_checks_sends_nothing(monkeypatch):
    """min_samples_split = n: the root splits, both its children stop at
    the sample-count check, and their level opens bits on shares but puts
    nothing on the bus."""
    X, y = FULL_TREE
    params = TreeParams(max_depth=3, max_splits=2, min_samples_split=len(y))
    fed = _federation(X, y, 3, False, 7, params)
    model, rounds, levels = _levels(monkeypatch, fed, params, "basic")
    assert len(model.leaves()) == 2
    (_, root_rounds, _, _), (nodes, level_rounds, messages, mpc_rounds) = levels
    assert nodes == 2 and (level_rounds, messages) == (0, 0) and mpc_rounds > 0
    assert rounds == root_rounds == 3
    assert {tag for tag, _ in fed.revealed if tag.endswith("-d1")} == {
        "prune-count-d1", "leaf-label-d1",
    }


# -- no flow of its own for node state ------------------------------------------


def _spied_fit(monkeypatch, ctx):
    """Fit one tree with the bus spied; returns the model, the fit's bus
    rounds and every request it sent as ``(depth, request)``, the depth
    being that of the level whose growth sent it."""
    spy = spy_on_bus(monkeypatch, ctx.bus)
    starts: list[tuple[int, int]] = []  # (depth, spy position)
    real = TreeTrainer._grow_level

    def grow_level(trainer, nodes, depth, tree):
        starts.append((depth, len(spy)))
        return real(trainer, nodes, depth, tree)

    monkeypatch.setattr(TreeTrainer, "_grow_level", grow_level)
    before = ctx.bus.rounds
    model = TreeTrainer(ctx).fit()
    rounds = ctx.bus.rounds - before
    monkeypatch.undo()
    requests = [
        (max(depth for depth, start in starts if start <= position), payload)
        for position, (*_, payload) in enumerate(spy)
        if isinstance(payload, Request)
    ]
    return model, rounds, requests


def _carries_root(request) -> bool:
    # [header, the super client's groups, gammas entries, (root), nodes...]
    body = list(request.body)
    return request.op == "split-stats" and split_root_entry(body[3:])[0] is not None


@pytest.mark.parametrize("protocol", ["basic", "enhanced"])
def test_node_state_rides_the_level_requests(monkeypatch, protocol):
    """No flow of a fit is the root's or a node state's own: the root's
    entry heads level 0's ``split-stats`` request and its label totals
    convert with level 0's statistics; the enhanced label vectors ride
    each level's ``split-stats`` request and the enhanced children Eq. 10's
    ``node-split``.  A full tree of depth h takes 3h bus rounds (basic),
    2h + 8(h − 1) (enhanced), one ``split-stats`` request per level that
    splits, and no ``node-state``, ``node-gammas`` or ``convert-masks``
    request."""
    X, y = FULL_TREE
    expected = {
        "basic": lambda h: 3 * h,
        "enhanced": lambda h: 2 * h + 8 * (h - 1),
    }[protocol]
    for h in (1, 2, 3):
        params = TreeParams(max_depth=h, max_splits=2)
        fed = _federation(X, y, 3, False, 7, params)
        model, rounds, requests = _spied_fit(
            monkeypatch, fed.context_for(protocol=protocol)
        )
        assert len(model.leaves()) == 2**h
        assert rounds == expected(h)
        ops = {request.op for _, request in requests}
        assert not ops & {
            "node-state", "node-gammas", "convert-masks", "convert-masks-packed"
        }
        assert sorted(
            depth for depth, request in requests if request.op == "split-stats"
        ) == list(range(h))
        rooted = [i for i, (_, request) in enumerate(requests) if _carries_root(request)]
        assert rooted == [0] and requests[0][0] == 0
        fed.assert_drained()


@pytest.mark.parametrize("protocol", ["basic", "enhanced"])
@pytest.mark.parametrize("case", ["max-depth-0", "no-candidate"])
def test_a_root_that_cannot_split_converts_its_totals_alone(
    monkeypatch, protocol, case
):
    """A root at the depth limit, or without a candidate split (constant
    columns), still needs its statistics for its label: one ``split-stats``
    request carrying the root's entry and no node, the peers' groups of
    its totals' batch and their partial decryptions — 2 bus rounds.
    ``TreeParams`` refuses ``max_depth`` 0, so
    that case sets it past the check to drive the trainer's depth limit at
    the root."""
    X, y = FULL_TREE
    if case == "no-candidate":
        X = np.ones_like(X)
    params = TreeParams(max_depth=2, max_splits=2)
    ctx = _federation(X, y, 3, False, 7, params).context_for(protocol=protocol)
    if case == "max-depth-0":
        object.__setattr__(ctx.config.tree, "max_depth", 0)
    model, rounds, requests = _spied_fit(monkeypatch, ctx)
    assert model.root.is_leaf and rounds == 2
    ((depth, request),) = [r for r in requests if r[1].op != "level-groups"]
    assert (depth, request.op) == (0, "split-stats") and _carries_root(request)
    majority = int(np.bincount(y).argmax())
    if protocol == "basic":
        assert model.root.prediction == majority
    else:
        assert ctx.fx.open([model.root.hidden["label_share"]]) == [majority]
    ctx.assert_drained()


# -- sibling subtraction ---------------------------------------------------------

#: 64 samples over three parties, labels drawn at random so that no node
#: goes pure early: the plaintext CART tree at depth 4 with four candidate
#: splits per feature is full (sixteen leaves) on the federation's grid.
FULL_TREE_4 = (
    make_classification(64, 3, n_classes=2, seed=10)[0],
    np.random.default_rng(10).integers(0, 2, 64),
)


@pytest.mark.parametrize("protocol", ["basic", "enhanced"])
def test_one_child_of_each_open_sibling_pair_converts(monkeypatch, protocol):
    """In a full tree both children of every split are open, so each
    ``split-stats`` request below the root names the left children alone
    (keys 2k); the right one's rows are its parent's minus its sibling's.
    An enhanced request carries a gammas entry for exactly the nodes it
    names (a basic one none: the labels ride).  A full tree of depth h
    converts 1 + 1 + 2 + … + 2^(h−2) = 2^(h−1) nodes, not 2^h − 1, and its
    bus rounds are unchanged."""
    X, y = FULL_TREE_4
    expected = {
        "basic": lambda h: 3 * h,
        "enhanced": lambda h: 2 * h + 8 * (h - 1),
    }[protocol]
    for h in (1, 2, 3, 4):
        params = TreeParams(max_depth=h, max_splits=4)
        fed = _federation(X, y, 3, False, 7, params)
        model, rounds, requests = _spied_fit(
            monkeypatch, fed.context_for(protocol=protocol)
        )
        assert len(model.leaves()) == 2**h and rounds == expected(h)
        converted = 0
        for depth, request in requests:
            if request.op != "split-stats":
                continue
            _, _, gammas, *body = request.body
            keys = [key for key, _ in level_entries(split_root_entry(body)[1], 2)]
            # The root at depth 0; below it, every left child (even keys).
            assert keys == list(range(2**depth, 2 ** (depth + 1), 2))
            named = [key for key, _ in level_entries(list(gammas), 2)]
            assert named == (keys if protocol == "enhanced" else [])
            converted += len(keys)
        assert converted == 2 ** (h - 1)
        fed.assert_drained()
