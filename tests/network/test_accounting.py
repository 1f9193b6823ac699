"""Regression tests pinning the corrected per-flow byte formulas.

These are the protocol-spec message flows the seed's hand-maintained
estimates had drifted from:

* ``to_shares`` (Algorithm 2) double-applied the (m−1) broadcast fan-out —
  the call site pre-multiplied by (m−1) and ``broadcast`` multiplied again;
* ``joint_decrypt`` accounted one ciphertext broadcast and ignored the
  m − 1 partial-decryption share vectors every threshold decryption moves
  (each to the holder alone, who combines them with her own).

Each test derives the expected byte count from the wire-format framing
constants and the flow's message pattern, and asserts the bus measured
exactly that — so any drift in either the flow or the format fails here.
"""

import numpy as np
import pytest

from repro.network import wire
from repro.network.flows import record_threshold_decrypt

from tests.core.conftest import make_context


@pytest.fixture(scope="module")
def ctx():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(16, 3))
    y = (X[:, 0] > 0).astype(int)
    return make_context(X, y, "classification")


def _sizes(ctx):
    """Per-payload wire sizes from the spec: fixed widths + framing."""
    w = ctx.bus.codec.ciphertext_width
    s_ct = wire.TAG_BYTES + w
    s_en = wire.TAG_BYTES + wire.EXPONENT_BYTES + w
    s_pdv = lambda k: wire.TAG_BYTES + wire.PARTY_BYTES + wire.COUNT_BYTES + k * w
    vec = lambda k, item: wire.TAG_BYTES + wire.COUNT_BYTES + k * item
    return s_ct, s_en, s_pdv, vec


def _delta(bus, fn):
    before = (bus.bytes, bus.bytes_estimated, bus.rounds, bus.messages)
    result = fn()
    after = (bus.bytes, bus.bytes_estimated, bus.rounds, bus.messages)
    deltas = tuple(a - b for a, b in zip(after, before))
    # Every byte is a payload send: measured == estimated byte deltas.
    assert deltas[0] == deltas[1]
    return result, deltas[0], deltas[2], deltas[3]


def test_threshold_decrypt_flow_formula(ctx):
    """k-ciphertext decryption: (m−1) ciphertext-vector messages + (m−1)
    partial-share vectors to the holder, 2 rounds."""
    m = ctx.n_clients
    s_ct, s_en, s_pdv, vec = _sizes(ctx)
    for k in (1, 5):
        cts = [ctx.encoder.encrypt(float(i)) for i in range(k)]
        _, nbytes, rounds, messages = _delta(
            ctx.bus,
            lambda: record_threshold_decrypt(ctx.bus, cts, tag="threshold-decrypt"),
        )
        assert nbytes == (m - 1) * vec(k, s_en) + (m - 1) * s_pdv(k)
        assert rounds == 2
        assert messages == (m - 1) + (m - 1)


def test_joint_decrypt_counts_partial_shares(ctx):
    """The seed counted (m−1)·|ct| total; the flow moves the other m − 1
    parties' partial share vectors to the holder too."""
    m = ctx.n_clients
    s_ct, s_en, s_pdv, vec = _sizes(ctx)
    value = ctx.encoder.encrypt(2.5)
    result, nbytes, rounds, _ = _delta(
        ctx.bus, lambda: ctx.joint_decrypt_batch([value], tag="test")
    )
    assert result == [pytest.approx(2.5)]
    expected = (m - 1) * vec(1, s_ct) + (m - 1) * s_pdv(1)
    assert nbytes == expected
    seed_estimate = (m - 1) * ctx.bus.codec.ciphertext_width  # what the seed recorded
    assert nbytes > seed_estimate


def test_to_shares_formula_no_double_fanout(ctx):
    """Algorithm 2 over k values, request/response flow: one
    ``convert-masks`` request broadcast, (m−1) [mask-cts, negated-shares]
    replies back to the requester, then one k-batch decryption flow.  The
    seed recorded k·(m−1)²·|ct| for the masks alone."""
    m = ctx.n_clients
    s_ct, s_en, s_pdv, vec = _sizes(ctx)
    codec = ctx.bus.codec
    for k in (1, 4):
        values = [ctx.encoder.encrypt(float(i), exponent=-ctx.encoder.frac_bits)
                  for i in range(k)]
        shares, nbytes, rounds, _ = _delta(ctx.bus, lambda: ctx.to_shares(values))
        # Mask bit-widths are small ints (k + kappa + exponent slack), so
        # any one-byte-magnitude stand-in gives the exact request size.
        request = codec.estimate(wire.Request("convert-masks", [100] * k))
        reply = codec.estimate(
            [[values[0].ciphertext] * k, wire.ShareVector((0,) * k)]
        )
        mask_bytes = (m - 1) * (request + reply)
        decrypt_bytes = (m - 1) * vec(k, s_ct) + (m - 1) * s_pdv(k)
        assert nbytes == mask_bytes + decrypt_bytes
        assert rounds == 3
        assert ctx.fx.open(shares) == [pytest.approx(float(i)) for i in range(k)]
        # The (m−1)² double-count is gone: the mask leg is linear in m−1
        # (one request and one reply per non-requesting party).
        assert mask_bytes % (m - 1) == 0


@pytest.mark.parametrize("k", [1, 2, 37])
def test_to_cipher_formula(ctx, k):
    """Reverse conversion of k values, one flow: m−1 mask-ciphertext
    vectors to the requester + the combined vector broadcast, 2 rounds at
    any k; the seed recorded m·(m−1) ciphertexts per value."""
    m = ctx.n_clients
    s_ct, s_en, s_pdv, vec = _sizes(ctx)
    shares = [ctx.fx.share(0.5 * i) for i in range(k)]
    cts, nbytes, rounds, messages = _delta(
        ctx.bus, lambda: ctx.to_cipher(shares)
    )
    assert nbytes == 2 * (m - 1) * vec(k, s_ct)
    assert rounds == 2
    assert messages == 2 * (m - 1)
    seed_bytes = k * m * (m - 1) * ctx.bus.codec.ciphertext_width
    assert nbytes < seed_bytes
    assert ctx.joint_decrypt_batch(cts, tag="check") == [
        pytest.approx(0.5 * i) for i in range(k)
    ]
    ctx.bus.assert_drained()


def test_to_cipher_lists_are_not_decryption_requests(ctx, monkeypatch):
    """Both legs of the reverse conversion carry ciphertext lists; a party
    runtime that pops one (a party in her own process does, from her
    socket) consumes it without answering with her c^{d_i} shares."""
    from repro.federation.party import DECRYPT_TAGS

    sent = []
    for name in ("send_payload", "broadcast_payload"):
        real = getattr(ctx.bus, name)
        monkeypatch.setattr(
            ctx.bus,
            name,
            lambda *a, real=real, **kw: sent.append((kw["tag"], a[-1])) or real(*a, **kw),
        )
    cts = ctx.to_cipher([ctx.fx.share(1.0), ctx.fx.share(-2.0)])
    (tag,) = {t for t, _ in sent}
    assert tag not in DECRYPT_TAGS
    assert all(len(payload) == 2 for _, payload in sent)
    sent.clear()
    for runtime in ctx.runtimes:
        sender = 1 if runtime.index == 0 else 0
        for payload in (cts, [ct.ciphertext for ct in cts]):
            assert runtime.handle(sender, tag, list(payload)) == "sink"
    assert sent == []
    # The same list under Algorithm 2's tag is a decryption request.
    assert ctx.runtimes[1].handle(0, "mpc-convert", list(cts)) == "decrypt"
    assert [type(payload) for _, payload in sent] == [wire.PartialDecryptionVector]
    ctx.bus.drain()


def test_joint_decrypt_batch_is_one_flow(ctx):
    """Batching k decryptions shares one flow: fewer bytes and rounds than
    k serial decryptions, identical values."""
    k = 4
    values = [ctx.encoder.encrypt(float(i)) for i in range(k)]
    batched, batch_bytes, batch_rounds, _ = _delta(
        ctx.bus, lambda: ctx.joint_decrypt_batch(values, tag="batch")
    )
    serial, serial_bytes, serial_rounds, _ = _delta(
        ctx.bus,
        lambda: [ctx.joint_decrypt_batch([v], tag="serial")[0] for v in values],
    )
    assert batched == pytest.approx(serial)
    assert batch_rounds == 2 and serial_rounds == 2 * k
    assert batch_bytes < serial_bytes
