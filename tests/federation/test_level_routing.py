"""Where a decryption's frames go, and what a tree level tolerates.

* **Routing.**  Every partial-decryption vector goes to the party that
  combines it — the holder of its flow — and to nobody else, in the fused
  tree-level exchange (``split-stats``) and in the canonical flow (Eq. 10,
  prediction's ``threshold-decrypt``); no frame of a decryption, or of a
  level's exchange, is drained or sunk unread.
* **Robustness.**  Every non-super party forms the level's masked batch
  from the groups she is sent.  A peer who sends another peer groups that
  differ from those she sends the super client makes the level raise
  :class:`~repro.crypto.threshold.ShareCombinationError`, with every inbox
  empty afterwards; a peer's groups that arrive before the super client's
  request give the same tree.  Both in memory and over ``asyncio``
  sockets.
* **Oracle.**  On generated data at m = 2, 3 and 4 the fused level grows
  plaintext CART's tree under both protocols.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import PivotConfig, TreeTrainer, run_predict_batch
from repro.crypto.threshold import ShareCombinationError
from repro.data import make_classification, vertical_partition
from repro.federation import Federation
from repro.federation.party import DECRYPT_TAGS, PartyRuntime
from repro.network.wire import PartialDecryptionVector, Request
from repro.tree import DecisionTree, TreeParams

from tests.core.conftest import (
    global_signature,
    global_split_grid,
    opened_signature,
    same_tree,
    spy_on_bus,
)
from tests.core.test_levels import ATTEMPTS, _decisive, _federation
from tests.federation.conftest import TEST_KEYSIZE

PARAMS = TreeParams(max_depth=2, max_splits=2)


def _federation_of(m: int, protocol: str = "basic", transport: str = "inmemory"):
    """m parties over 2m columns, the labels with the last one (so the fit's
    holder, the super client, is not prediction's u_1, party 0)."""
    X, y = make_classification(24, 2 * m, n_classes=2, seed=40 + m)
    vp = vertical_partition(X, y, m, task="classification", super_client=m - 1)
    config = PivotConfig(keysize=TEST_KEYSIZE, tree=PARAMS, seed=7, protocol=protocol)
    return X, Federation.from_partition(vp, config=config, transport=transport)


def _spy_on_reads(monkeypatch, bus) -> tuple[list, list]:
    """Every delivered envelope, and every envelope a receive decoded and a
    handler did not take as a sink, as ``(sender, receiver, tag, data)``."""
    delivered: list = []
    read: list = []
    deliver, pop, handle = bus.transport.deliver, bus._pop, PartyRuntime.handle

    def spy_deliver(envelope):
        delivered.append((envelope.sender, envelope.receiver, envelope.tag, envelope.data))
        return deliver(envelope)

    def spy_pop(party, tag=None, counted=True):
        envelope, payload = pop(party, tag, counted)
        read.append((envelope.sender, party, envelope.tag, envelope.data))
        return envelope, payload

    def spy_handle(self, sender, tag, payload):
        kind = handle(self, sender, tag, payload)
        if kind == "sink":
            # The frame was decoded but not used: unread after all.
            frame = next(f for f in reversed(read) if f[:3] == (sender, self.index, tag))
            read.remove(frame)
        return kind

    monkeypatch.setattr(bus.transport, "deliver", spy_deliver)
    monkeypatch.setattr(bus, "_pop", spy_pop)
    monkeypatch.setattr(PartyRuntime, "handle", spy_handle)
    return delivered, read


@pytest.mark.parametrize("protocol", ["basic", "enhanced"])
@pytest.mark.parametrize("m", [3, 4])
def test_every_partial_decryption_goes_to_its_holder(monkeypatch, m, protocol):
    X, fed = _federation_of(m, protocol)
    sup = fed.super_client
    with fed:
        spy = spy_on_bus(monkeypatch, fed.bus)
        delivered, read = _spy_on_reads(monkeypatch, fed.bus)
        model = TreeTrainer(fed).fit()
        fit_frames = len(spy)
        run_predict_batch(model, fed, X[:4], protocol)
        fed.assert_drained()
    # A decryption starts where its holder sends the batch: a level's
    # split-stats request, or a ciphertext batch broadcast under a
    # decryption tag; its vectors follow it, before the next one starts.
    holder, flow, vectors = None, None, Counter()
    for position, (sender, receiver, tag, payload) in enumerate(spy):
        if isinstance(payload, Request) and payload.op == "split-stats":
            holder, flow = sender, tag
        elif receiver is None and tag in DECRYPT_TAGS and isinstance(payload, list):
            holder, flow = sender, tag
        elif isinstance(payload, PartialDecryptionVector):
            assert (receiver, tag) == (holder, flow)
            assert payload.party_index == sender != holder
            vectors[("fit" if position < fit_frames else "predict", holder)] += 1
    expected = {("fit", sup)} | ({("predict", 0)} if protocol == "basic" else set())
    assert set(vectors) == expected
    assert all(count % (m - 1) == 0 for count in vectors.values())
    # Nothing of a decryption or of a level's exchange is left unread, but
    # Eq. 10's accounting-only frames to the super client (its peers' mask
    # ciphertexts and terms: the super client computes them herself; see
    # ROADMAP item 22).
    unread = Counter(delivered) - Counter(read)
    codec = fed.bus.codec
    left = [
        (sender, receiver, tag)
        for sender, receiver, tag, data in unread.elements()
        if tag in DECRYPT_TAGS | {"split-stats"}
        and not (
            tag == "eq10"
            and receiver == sup
            and not isinstance(codec.deserialize(data), (PartialDecryptionVector, Request))
        )
    ]
    assert left == []


# -- robustness ------------------------------------------------------------------


def _fit(fed):
    model = TreeTrainer(fed).fit()
    return model.structure_signature(), fed.bus.rounds, fed.bus.bytes


#: How party 1's first group to party 0 differs from the one she sends the
#: super client, party 2: the same plaintext under fresh randomness, another
#: plaintext under fresh randomness, or another plaintext with none.
TWO_FACES = {
    "rerandomised": lambda pk, group: group + pk.encrypt(0),
    "other-plaintext": lambda pk, group: group + pk.encrypt(1),
    "unit-shift": lambda pk, group: group + 1,
}


@pytest.mark.parametrize("transport", ["inmemory", "asyncio"])
@pytest.mark.parametrize(
    "face",
    [
        "rerandomised",
        "other-plaintext",
        pytest.param(
            "unit-shift",
            marks=pytest.mark.xfail(
                strict=True,
                reason="a deterministic (1 + n)^k factor moves the plaintext "
                "and keeps the shares' product 1 (mod n): the level's "
                "top-slot check raises PackingError instead (CHANGES.md FOUND)",
            ),
        ),
    ],
)
def test_a_peer_two_faced_about_her_groups_fails_the_level(transport, face):
    """Party 1 sends party 0 another first group than she sends the super
    client: party 0's partial decryption is of another batch, and the
    combination refuses it.  It raises; it never gives a tree, and every
    inbox is empty afterwards."""
    _, fed = _federation_of(3, transport=transport)
    with fed:
        pk = fed.threshold.public_key
        endpoint = fed.runtimes[1].endpoint
        send = endpoint.send

        def two_faced(receiver, payload, tag=""):
            if isinstance(payload, Request) and payload.op == "level-groups":
                groups = list(payload.body)
                groups[0] = TWO_FACES[face](pk, groups[0])
                payload = Request("level-groups", groups)
            return send(receiver, payload, tag=tag)

        endpoint.send = two_faced
        try:
            with pytest.raises(ShareCombinationError):
                TreeTrainer(fed).fit()
        finally:
            fed.assert_drained()


@pytest.mark.parametrize("transport", ["inmemory", "asyncio"])
def test_a_peers_groups_before_the_request_give_the_same_tree(monkeypatch, transport):
    """Hold every split-stats request to party 1 until party 0's groups of
    the level have reached her: party 1 keeps the groups until the request
    arrives, and the fit is the one without the hold, frame for frame."""
    _, fed = _federation_of(3, transport=transport)
    with fed:
        expected = _fit(fed)
    _, fed = _federation_of(3, transport=transport)
    with fed:
        transport_ = fed.bus.transport
        deliver, codec = transport_.deliver, fed.bus.codec
        held: list = []
        early = []
        join = PartyRuntime._join_level

        def hold(envelope):
            payload = codec.deserialize(envelope.data)
            op = payload.op if isinstance(payload, Request) else None
            if envelope.receiver == 1 and op == "split-stats":
                held.append(envelope)
                return None
            deliver(envelope)
            if envelope.receiver == 1 and op == "level-groups":
                while held:
                    deliver(held.pop(0))
            return None

        def spy_join(self, party, groups):
            if self.index == 1 and self._level_holder is None and party == 0:
                early.append(party)
            return join(self, party, groups)

        monkeypatch.setattr(transport_, "deliver", hold)
        monkeypatch.setattr(PartyRuntime, "_join_level", spy_join)
        assert _fit(fed) == expected
        assert early and not held
        fed.assert_drained()


# -- the fused level against plaintext CART ----------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4])
@settings(
    deadline=None,
    max_examples=4,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(
    n=st.integers(min_value=20, max_value=36),
    d=st.integers(min_value=4, max_value=5),
    h=st.integers(min_value=1, max_value=3),
    classes=st.sampled_from([2, 3]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_the_fused_level_grows_plaintext_cart_at_any_m(m, n, d, h, classes, seed):
    params = TreeParams(max_depth=h, max_splits=2)
    for attempt in range(ATTEMPTS):
        X, y = make_classification(n, d, n_classes=classes, seed=seed * ATTEMPTS + attempt)
        fed = _federation(X, y, m, False, seed, params)
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
    assert global_signature(TreeTrainer(fed).fit().root, vp) == expected
    enhanced_fed = fed.context_for(protocol="enhanced")
    enhanced = TreeTrainer(enhanced_fed).fit()
    assert same_tree(opened_signature(enhanced_fed, enhanced.root, vp), expected)
    fed.assert_drained()
