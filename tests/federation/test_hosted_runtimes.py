"""Hosted parties answer on their own: the bus serves every in-process
party runtime, and every non-holder's decryption share is her runtime's
answer through ``PartyRuntime.handle``."""

import pytest

from repro.core import LogisticTrainer, PivotConfig, TreeTrainer, run_predict_batch
from repro.federation import Federation, PivotClassifier
from repro.federation.party import PartyRuntime
from repro.network.flows import collect_replies
from repro.network.wire import PartialDecryptionVector, Request

from tests.federation.conftest import PARAMS, TEST_KEYSIZE, make_federation, split_parties


def _spy_on_shares(monkeypatch) -> list[tuple[int, str | None]]:
    """Record every ``decryption_shares`` call as (party, tag): the tag of
    the frame her ``handle`` is answering, ``None`` outside ``handle``."""
    calls: list[tuple[int, str | None]] = []
    answering: dict[int, str] = {}
    handle, shares = PartyRuntime.handle, PartyRuntime.decryption_shares

    def spy_handle(self, sender, tag, payload):
        answering[self.index] = tag
        try:
            return handle(self, sender, tag, payload)
        finally:
            del answering[self.index]

    def spy_shares(self, batch):
        calls.append((self.index, answering.get(self.index)))
        return shares(self, batch)

    monkeypatch.setattr(PartyRuntime, "handle", spy_handle)
    monkeypatch.setattr(PartyRuntime, "decryption_shares", spy_shares)
    return calls


@pytest.mark.parametrize("protocol", ["basic", "enhanced"])
def test_every_peer_share_comes_through_handle(
    monkeypatch, tiny_classification, protocol
):
    X, y = tiny_classification
    with make_federation(X, y, protocol=protocol, blocks=(2, 1, 1)) as fed:
        calls = _spy_on_shares(monkeypatch)
        model = TreeTrainer(fed).fit()
        run_predict_batch(model, fed, X[:4], protocol)
        fed.assert_drained()
    # Every flow here decrypts from party 0 (the super client, and u_1 for
    # prediction), who computes her own vector from the batch in hand.
    holder = [tag for party, tag in calls if party == 0]
    peers = [(party, tag) for party, tag in calls if party != 0]
    assert holder and set(holder) == {None}
    assert len(peers) == 2 * len(holder)
    assert sorted(party for party, _ in peers) == [1] * len(holder) + [2] * len(holder)
    # A tree level's decryption is answered inside its split-stats
    # exchange (the request, or another peer's groups, completes the
    # batch); basic prediction decrypts; enhanced prediction is MPC only,
    # and Eq. 10's decryption is answered like any other.
    last = "threshold-decrypt" if protocol == "basic" else "eq10"
    assert {tag for _, tag in peers} == {"split-stats", last}


def _failing(error):
    def fail(*args, **kwargs):
        raise error

    return fail


@pytest.mark.parametrize("transport", ["inmemory", "asyncio"])
@pytest.mark.parametrize("hook", ["_op_split_stats", "decryption_shares"])
def test_a_failing_handler_fails_the_flow_and_strands_nothing(
    tiny_classification, transport, hook
):
    """A hosted party whose handler raises mid-flow: the flow raises her
    error, at once, and every inbox is empty afterwards."""
    X, y = tiny_classification
    error = RuntimeError(f"party 2 failed in {hook}")
    config = PivotConfig(keysize=TEST_KEYSIZE, tree=PARAMS, seed=7)
    parties = split_parties(X, y, (2, 1, 1))
    with Federation(parties, config=config, transport=transport) as fed:
        setattr(fed.runtimes[2], hook, _failing(error))
        with pytest.raises(RuntimeError) as raised:
            TreeTrainer(fed).fit()
        assert raised.value is error
        fed.assert_drained()


def _answers_twice(runtime, op):
    """``runtime``'s party answers every ``op`` request twice."""
    answer = getattr(runtime, op)

    def twice(sender, body):
        answer(sender, body)
        answer(sender, body)

    setattr(runtime, op, twice)


def _convert(fed):
    fed.to_shares(fed.batch.encrypt_vector([1, 2, 3], exponent=0))


def _fit_logistic(fed):
    LogisticTrainer(fed, n_epochs=1, batch_size=8).fit()


#: Each request whose replies ``collect_replies`` gathers, and a run that
#: makes it.
_EACH_REQUEST = pytest.mark.parametrize(
    ("op", "run"),
    [("_op_convert_masks", _convert), ("_op_lr_batch_sums", _fit_logistic)],
    ids=["convert-masks", "lr-batch-sums"],
)


@pytest.mark.parametrize("transport", ["inmemory", "asyncio"])
@_EACH_REQUEST
@pytest.mark.parametrize("party", [1, 2])
def test_a_peer_that_answers_twice_fails_the_flow_and_strands_nothing(
    tiny_classification, transport, op, run, party
):
    """A peer answers her request twice: the holder's reply collector
    raises, and the flow's scope drains what is left.  Party 2's replies
    land last in the holder's inbox, so her second one comes after every
    expected reply is in."""
    X, y = tiny_classification
    config = PivotConfig(keysize=TEST_KEYSIZE, tree=PARAMS, seed=7)
    parties = split_parties(X, y, (2, 1, 1))
    with Federation(parties, config=config, transport=transport) as fed:
        _answers_twice(fed.runtimes[party], op)
        with pytest.raises(ValueError, match=f"two replies from party {party}"):
            run(fed)
        fed.assert_drained()


def _answers_under_another_tag(runtime, op):
    """``runtime``'s party answers every ``op`` request under a misspelt
    tag."""
    answer = getattr(runtime, op)
    endpoint = runtime.endpoint
    send = endpoint.send

    def misspelt(sender, body):
        endpoint.send = lambda receiver, payload, tag="": send(
            receiver, payload, tag=tag + "-typo"
        )
        try:
            answer(sender, body)
        finally:
            endpoint.send = send

    setattr(runtime, op, misspelt)


@pytest.mark.parametrize("transport", ["inmemory", "asyncio"])
@_EACH_REQUEST
@pytest.mark.parametrize("party", [1, 2])
def test_a_peer_that_answers_under_another_tag_fails_the_flow_and_strands_nothing(
    tiny_classification, transport, op, run, party
):
    """A peer's reply carries a tag other than its request's: the holder's
    reply collector raises instead of reading it as the reply, and the
    flow's scope drains what is left."""
    X, y = tiny_classification
    config = PivotConfig(keysize=TEST_KEYSIZE, tree=PARAMS, seed=7)
    parties = split_parties(X, y, (2, 1, 1))
    with Federation(parties, config=config, transport=transport) as fed:
        _answers_under_another_tag(fed.runtimes[party], op)
        with pytest.raises(ValueError, match=r"pending one is tagged '[a-z-]+-typo'"):
            run(fed)
        fed.assert_drained()


@pytest.mark.parametrize("transport", ["inmemory", "asyncio"])
@pytest.mark.parametrize("party", [1, 2])
def test_a_request_for_an_op_no_runtime_handles_fails_the_flow_and_strands_nothing(
    tiny_classification, transport, party
):
    """A request whose op has no ``_op_*`` handler: the peer's ``handle``
    raises instead of leaving the request unanswered, the flow waiting on
    its reply fails, and the scope drains what is left."""
    X, y = tiny_classification
    config = PivotConfig(keysize=TEST_KEYSIZE, tree=PARAMS, seed=7)
    parties = split_parties(X, y, (2, 1, 1))
    with Federation(parties, config=config, transport=transport) as fed:
        bus = fed.bus
        with pytest.raises(
            ValueError, match=f"party {party}: unknown request op 'convert-maks'"
        ):
            with bus.flow(1):
                bus.send_payload(0, party, Request("convert-maks", [8]), tag="mpc-convert")
                collect_replies(bus, 0, [party], "mpc-convert")
        fed.assert_drained()


def _sends_vectors_twice(runtime):
    """``runtime``'s party sends every partial-decryption vector twice."""
    endpoint = runtime.endpoint
    send = endpoint.send

    def twice(receiver, payload, tag=""):
        sent = send(receiver, payload, tag=tag)
        if isinstance(payload, PartialDecryptionVector):
            send(receiver, payload, tag=tag)
        return sent

    endpoint.send = twice


def _joint_decrypt(fed):
    fed.joint_decrypt_batch(fed.batch.encrypt_vector([1, 2, 3], exponent=0), tag="test")


def _fit_tree(fed):
    PivotClassifier().fit(fed)


@pytest.mark.parametrize("transport", ["inmemory", "asyncio"])
@pytest.mark.parametrize(
    "run", [_joint_decrypt, _fit_tree], ids=["joint-decrypt", "fit"]
)
@pytest.mark.parametrize("party", [1, 2])
def test_a_peer_that_sends_her_vector_twice_fails_the_flow_and_strands_nothing(
    tiny_classification, transport, run, party
):
    """A peer sends her partial-decryption vector twice: the holder's
    vector collector raises, naming the duplicate as such (not as a
    malformed vector), and the flow's scope drains what is left.
    Party 2's vector lands last in the holder's inbox, so her second one
    comes after every expected frame is in.  The fit's vectors are those
    of its fused ``split-stats`` levels."""
    X, y = tiny_classification
    config = PivotConfig(keysize=TEST_KEYSIZE, tree=PARAMS, seed=7)
    parties = split_parties(X, y, (2, 1, 1))
    with Federation(parties, config=config, transport=transport) as fed:
        _sends_vectors_twice(fed.runtimes[party])
        with pytest.raises(
            ValueError,
            match=f"received two partial-decryption vectors .* from party {party}$",
        ):
            run(fed)
        fed.assert_drained()
