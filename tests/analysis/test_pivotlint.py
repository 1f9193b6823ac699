"""pivotlint: per-rule true-positive/true-negative fixtures, suppression
handling, baseline round-trips, and the meta-test that keeps src/repro/
clean.

Every positive fixture is a violation the *runtime* suite cannot catch —
the offending path is never executed here, only parsed — which is the
point of having a static analyzer at all.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis.pivotlint import (
    Analyzer,
    Baseline,
    BaselineEntry,
    register_wire_type,
)
from repro.analysis.pivotlint.__main__ import main as pivotlint_main
from repro.analysis.pivotlint.rules import WIRE_TYPES

REPO_ROOT = Path(__file__).resolve().parents[2]


def lint(
    tmp_path: Path,
    source: str,
    baseline: Baseline | None = None,
    strict: bool = False,
    filename: str = "sample.py",
):
    """Run the analyzer over one fixture file; returns the Report."""
    target = tmp_path / filename
    target.write_text(textwrap.dedent(source))
    analyzer = Analyzer(baseline=baseline, strict=strict, root=tmp_path)
    return analyzer.run([target])


def lint_files(
    tmp_path: Path,
    sources: dict[str, str],
    strict: bool = False,
):
    """Run the analyzer over a multi-file fixture tree; returns the Report."""
    for name, source in sources.items():
        (tmp_path / name).write_text(textwrap.dedent(source))
    analyzer = Analyzer(strict=strict, root=tmp_path)
    return analyzer.run([tmp_path])


def rules_found(report) -> list[str]:
    return [f.rule for f in report.findings]


# ---------------------------------------------------------------------------
# PL001 — raw-read-outside-scope
# ---------------------------------------------------------------------------


def test_pl001_flags_unscoped_raw_read(tmp_path):
    report = lint(
        tmp_path,
        """
        def peek(partition):
            return partition.local_features[0][:, 2]
        """,
    )
    assert rules_found(report) == ["PL001"]
    (finding,) = report.findings
    assert finding.scope == "peek"
    assert "local_features" in finding.message


def test_pl001_flags_cross_party_scope_mismatch(tmp_path):
    report = lint(
        tmp_path,
        """
        from repro.federation.locality import as_party

        def cross(partition):
            with as_party(1):
                return partition.local_features[0][:, 0]
        """,
    )
    assert rules_found(report) == ["PL001"]
    assert "cross-party scope mismatch" in report.findings[0].message


def test_pl001_flags_alias_read(tmp_path):
    # The read happens through a local alias; line-grep linters miss it.
    report = lint(
        tmp_path,
        """
        def alias(partition):
            labels = partition.labels
            return labels[3]
        """,
    )
    assert rules_found(report) == ["PL001"]


def test_pl001_accepts_scoped_reads_and_metadata(tmp_path):
    report = lint(
        tmp_path,
        """
        from repro.federation.locality import as_party

        def scoped(partition, client):
            n = partition.local_features[0].shape[0]  # metadata only
            with as_party(0):
                block = partition.local_features[0][:, 1]
            with client.local():
                local = client.features.read()
            return n, block, local
        """,
    )
    assert report.findings == []


def test_pl001_mismatched_local_scope(tmp_path):
    report = lint(
        tmp_path,
        """
        def wrong(a, b):
            with a.local():
                return b.features.read()
        """,
    )
    assert rules_found(report) == ["PL001"]


# ---------------------------------------------------------------------------
# PL002 — secret-escape
# ---------------------------------------------------------------------------


def test_pl002_flags_secret_on_the_wire(tmp_path):
    report = lint(
        tmp_path,
        """
        def leak_share(bus, key_share):
            bus.send_payload(0, 1, key_share.d_share, tag="oops")
            bus.round(1)

        def pump(bus):
            # Tag-agnostic consumer: keeps the fixture focused on PL002
            # (without it, the orphan tag would also raise PL006).
            return bus.receive_tagged(0)
        """,
    )
    assert rules_found(report) == ["PL002"]


def test_pl002_flags_secret_in_log_and_fstring(tmp_path):
    report = lint(
        tmp_path,
        """
        def chatty(logger, private_key):
            logger.info(private_key)
            raise ValueError(f"bad key {private_key}")
        """,
    )
    assert rules_found(report).count("PL002") == 2


def test_pl002_flags_secret_dataclass_repr(tmp_path):
    report = lint(
        tmp_path,
        """
        from dataclasses import dataclass

        @dataclass
        class Share:
            party_index: int
            d_share: int
        """,
    )
    assert rules_found(report) == ["PL002"]
    assert "__repr__" in report.findings[0].message


def test_pl002_accepts_repr_false_and_modexp(tmp_path):
    # pow() is the sanitizer: a decryption share c^{d_i} is protocol-public.
    report = lint(
        tmp_path,
        """
        from dataclasses import dataclass, field

        @dataclass
        class Share:
            party_index: int
            d_share: int = field(repr=False)

            def answer(self, bus, raw, n_squared):
                bus.send_payload(0, 1, pow(raw, self.d_share, n_squared))
                bus.round(1)
        """,
    )
    assert report.findings == []


def test_pl002_flags_public_return_of_secret_derivation(tmp_path):
    report = lint(
        tmp_path,
        """
        def derive(private_key):
            weak = private_key % 1000
            return weak
        """,
    )
    assert rules_found(report) == ["PL002"]


def test_pl002_flags_keygen_shares_on_the_wire(tmp_path):
    # Distributed keygen (repro.crypto.distkeygen): the prime shares
    # p_i/q_i and β_i are sampled locally and must NEVER move over the
    # bus — only derived protocol values (N candidates, commitments,
    # decryption shares) travel.
    report = lint(
        tmp_path,
        """
        def broken_keygen_round(bus, p_share, q_share):
            bus.broadcast_payload(0, p_share, tag="kg-p")
            bus.send_payload(0, 1, q_share + 2, tag="kg-q")
            bus.round(1)

        def pump(bus):
            return bus.receive_tagged(0)
        """,
    )
    assert rules_found(report) == ["PL002", "PL002"]


def test_pl002_flags_aux_key_in_log_and_beta_repr(tmp_path):
    report = lint(
        tmp_path,
        """
        from dataclasses import dataclass

        @dataclass
        class KeygenState:
            party_index: int
            beta_share: int

            def report(self, logger, aux_private_key):
                logger.info(f"aux key is {aux_private_key}")
        """,
    )
    assert rules_found(report) == ["PL002", "PL002"]


def test_pl002_accepts_derived_keygen_traffic(tmp_path):
    # The legitimate keygen flow: shares stay local (repr=False), the
    # wire carries modexp-derived commitments/partial values only.
    report = lint(
        tmp_path,
        """
        from dataclasses import dataclass, field

        @dataclass
        class KeygenState:
            party_index: int
            p_share: int = field(repr=False)
            q_share: int = field(repr=False)
            beta_share: int = field(repr=False)

            def commit_round(self, bus, g, modulus):
                commitment = pow(g, self.p_share + self.q_share, modulus)
                bus.broadcast_payload(self.party_index, commitment, tag="kg-c")
                bus.round(1)

        def pump(bus):
            return bus.receive_tagged(0)
        """,
    )
    assert report.findings == []


# ---------------------------------------------------------------------------
# PL002 — interprocedural: taint flowing through calls, cross-module
# ---------------------------------------------------------------------------


def test_pl002_interprocedural_laundered_secret_cross_module(tmp_path):
    # THE fixture the PR 6 per-function engine misses: the secret is
    # extracted in one module and logged in another — no single function
    # ever touches both the secret *name* and the sink.  The project-wide
    # engine resolves `export_share` to its definition, sees its summary
    # says `returns_secret`, and flags the log call.
    report = lint_files(
        tmp_path,
        {
            "helpers.py": """
                def export_share(key_share):
                    return key_share.d_share
            """,
            "debug.py": """
                def dump(logger, key_share):
                    logger.info(f"share={export_share(key_share)}")
            """,
        },
    )
    assert "PL002" in rules_found(report)
    assert any(f.path == "debug.py" for f in report.findings if f.rule == "PL002")


def test_pl002_interprocedural_sink_param_cross_module(tmp_path):
    # Inverse direction: the *sink* lives in the helper.  `ship` sends
    # whatever it is handed; passing it a secret at the call site is the
    # violation, and it is the caller that gets flagged.
    report = lint_files(
        tmp_path,
        {
            "shipper.py": """
                def ship(bus, value):
                    bus.send_payload(0, 1, value, tag="s")
                    bus.round(1)

                def pump(bus):
                    return bus.receive_tagged(0)
            """,
            "caller.py": """
                def leak(bus, key_share):
                    ship(bus, key_share.d_share)
            """,
        },
    )
    assert "PL002" in rules_found(report)
    assert any(f.path == "caller.py" for f in report.findings if f.rule == "PL002")


def test_pl002_interprocedural_sanitized_return_is_clean(tmp_path):
    # A helper that modexp-sanitizes before returning is protocol-public;
    # calling it must not taint the caller.
    report = lint_files(
        tmp_path,
        {
            "helpers.py": """
                def export_commitment(key_share, g, modulus):
                    return pow(g, key_share.d_share, modulus)
            """,
            "debug.py": """
                def dump(logger, key_share, g, modulus):
                    logger.info(f"commit={export_commitment(key_share, g, modulus)}")
            """,
        },
    )
    assert report.findings == []


# ---------------------------------------------------------------------------
# PL003 — unregistered-payload
# ---------------------------------------------------------------------------


def test_pl003_flags_adhoc_payloads(tmp_path):
    report = lint(
        tmp_path,
        """
        def chatter(bus, n):
            bus.send_payload(0, 1, {"stats": 3}, tag="a")
            bus.broadcast_payload(0, f"round {n}", tag="b")
            bus.round(1)

        def pump(bus):
            return bus.receive_tagged(0)
        """,
    )
    assert rules_found(report) == ["PL003", "PL003"]


def test_pl003_tracks_assigned_payloads(tmp_path):
    report = lint(
        tmp_path,
        """
        def indirect(bus):
            payload = {"k": 1}
            bus.send_payload(0, 1, payload, tag="t")
            bus.round(1)

        def pump(bus):
            return bus.receive_tagged(0)
        """,
    )
    assert rules_found(report) == ["PL003"]


def test_pl003_accepts_registered_wire_types(tmp_path):
    report = lint(
        tmp_path,
        """
        def fine(bus, pk, raw, shares):
            bus.send_payload(0, 1, Ciphertext(pk, raw), tag="ct")
            bus.broadcast_payload(0, [Ciphertext(pk, r) for r in raw], tag="v")
            bus.send_payload(0, 1, ShareVector(shares), tag="sv")
            bus.round(1)

        def pump(bus):
            return bus.receive_tagged(0)
        """,
    )
    assert report.findings == []


def test_pl003_accepts_key_independent_scalars(tmp_path):
    """int (0x08) and float (0x0A) are wire types; bool is refused by the
    codec and so by the rule."""
    report = lint(
        tmp_path,
        """
        def scalars(bus, x):
            bus.send_payload(0, 1, 7, tag="i")
            bus.send_payload(0, 1, 2.5, tag="f")
            bus.send_payload(0, 1, int(x), tag="ci")
            bus.broadcast_payload(0, float(x), tag="cf")
            bus.round(1)

        def flags(bus, x):
            bus.send_payload(0, 1, True, tag="b")
            bus.send_payload(0, 1, bool(x), tag="cb")
            bus.round(1)

        def pump(bus):
            return bus.receive_tagged(0)
        """,
    )
    assert rules_found(report) == ["PL003", "PL003"]
    assert all(f.scope.endswith("flags") for f in report.findings)


def test_pl003_registry_is_extensible(tmp_path):
    source = """
    def custom(bus, x):
        bus.send_payload(0, 1, EncryptedHistogram(x), tag="h")
        bus.round(1)

    def pump(bus):
        return bus.receive_tagged(0)
    """
    assert rules_found(lint(tmp_path, source)) == ["PL003"]
    register_wire_type("EncryptedHistogram")
    try:
        assert lint(tmp_path, source).findings == []
    finally:
        WIRE_TYPES.discard("EncryptedHistogram")


# ---------------------------------------------------------------------------
# PL004 — dealer-use-after-scrub
# ---------------------------------------------------------------------------


def test_pl004_flags_dealer_key_use_post_provisioning(tmp_path):
    report = lint(
        tmp_path,
        """
        class Broken(DeployedFederation):
            def fit(self, ciphertext):
                return self.context.threshold._private_key.decrypt(ciphertext)
        """,
    )
    assert "PL004" in rules_found(report)


def test_pl004_flags_direct_threshold_joint_decrypt(tmp_path):
    report = lint(
        tmp_path,
        """
        class Sneaky(DeployedFederation):
            def speed_up(self, batch):
                return self.context.threshold.joint_decrypt_batch(batch)
        """,
    )
    assert rules_found(report) == ["PL004"]


def test_pl004_accepts_pre_scrub_provisioning(tmp_path):
    report = lint(
        tmp_path,
        """
        class Fine(DeployedFederation):
            def __init__(self, shares):
                self.stash = shares

            def fit(self, ctx):
                return ctx.joint_decrypt_vector([1])
        """,
    )
    assert report.findings == []


def test_pl004_ignores_non_deployed_classes(tmp_path):
    report = lint(
        tmp_path,
        """
        class Dealer:
            def simulate(self, ciphertext):
                return self._private_key.decrypt(ciphertext)
        """,
    )
    assert report.findings == []


def test_pl004_covers_runtime_federation_no_dealer_world(tmp_path):
    # RuntimeFederation runs distributed keygen: no dealer key ever
    # exists, so dealer-key decryption and a local joint decryption are
    # not merely scrubbed — they are impossible.  The rule flags both.
    report = lint(
        tmp_path,
        """
        class Hasty(RuntimeFederation):
            def shortcut(self, ciphertext):
                self.context.threshold.joint_decrypt(ciphertext)
                return self.context.threshold.decrypt(ciphertext)
        """,
    )
    assert rules_found(report) == ["PL004", "PL004"]


def test_pl004_runtime_federation_subclass_inherits_the_ban(tmp_path):
    report = lint(
        tmp_path,
        """
        class Base(RuntimeFederation):
            pass

        class Derived(Base):
            def peek(self):
                return self.context.threshold.shares[0]
        """,
    )
    # PL004 (deployed-class share read) plus PL002: the same expression
    # is also a secret-derived public return.
    assert "PL004" in rules_found(report)


def test_pl004_accepts_runtime_federation_combine_flow(tmp_path):
    report = lint(
        tmp_path,
        """
        class Fine(RuntimeFederation):
            def __init__(self, config):
                self.config = config

            def score(self, ctx, vec):
                return ctx.joint_decrypt_vector(vec)
        """,
    )
    assert report.findings == []


# ---------------------------------------------------------------------------
# PL005 — drain-discipline
# ---------------------------------------------------------------------------


def test_pl005_flags_send_without_barrier(tmp_path):
    report = lint(
        tmp_path,
        """
        def fire_and_forget(bus, ct):
            bus.send_payload(0, 1, ct, tag="x")

        def pump(bus):
            return bus.receive_tagged(0)
        """,
    )
    assert rules_found(report) == ["PL005"]


def test_pl005_flags_branch_that_skips_the_barrier(tmp_path):
    report = lint(
        tmp_path,
        """
        def leaky_branch(bus, ct, fast):
            bus.broadcast_payload(0, ct, tag="x")
            if not fast:
                bus.round(1)

        def pump(bus):
            return bus.receive_tagged(0)
        """,
    )
    assert rules_found(report) == ["PL005"]


def test_pl005_accepts_send_then_round(tmp_path):
    report = lint(
        tmp_path,
        """
        def disciplined(bus, ct, fast):
            bus.send_payload(0, 1, ct, tag="x")
            if fast:
                bus.round(1)
            else:
                bus.assert_drained()

        def pump(bus):
            return bus.receive_tagged(0)
        """,
    )
    assert report.findings == []


def test_pl005_accepts_barrier_inside_callee(tmp_path):
    # The PR 6 engine only saw barriers in the same function body; the
    # summary-driven engine credits a callee whose summary has the
    # barrier effect.
    report = lint(
        tmp_path,
        """
        def finish(bus):
            bus.round(1)

        def send_then_delegate(bus, ct):
            bus.send_payload(0, 1, ct, tag="x")
            finish(bus)

        def pump(bus):
            return bus.receive_tagged(0)
        """,
    )
    assert report.findings == []


def test_pl005_exempts_op_dispatch_handlers(tmp_path):
    # `_op_*` methods are reactive reply handlers: the *requesting* flow
    # owns the round barrier, so the reply send is exempt by convention.
    report = lint(
        tmp_path,
        """
        class Handler:
            def _op_apply_split(self, bus, ct):
                bus.send_payload(0, 1, ct, tag="x")

        def pump(bus):
            return bus.receive_tagged(0)
        """,
    )
    assert report.findings == []


# ---------------------------------------------------------------------------
# PL006 — unhandled-protocol-tag
# ---------------------------------------------------------------------------


def test_pl006_flags_typoed_tag_pair(tmp_path):
    # Producer and consumer disagree by one letter: the send can never be
    # received, the receive can never be satisfied.  Both ends flag.
    report = lint(
        tmp_path,
        """
        def produce(bus, ct):
            bus.send_payload(0, 1, ct, tag="histogrm")
            bus.round(1)

        def consume(bus):
            return bus.receive(0, tag="histogram")
        """,
    )
    assert rules_found(report) == ["PL006", "PL006"]


def test_pl006_matched_tags_cross_module_are_clean(tmp_path):
    report = lint_files(
        tmp_path,
        {
            "producer.py": """
                def produce(bus, ct):
                    bus.send_payload(0, 1, ct, tag="histogram")
                    bus.round(1)
            """,
            "consumer.py": """
                def consume(bus):
                    return bus.receive(0, tag="histogram")
            """,
        },
    )
    assert report.findings == []


def test_pl006_pump_suppresses_producer_orphans_only(tmp_path):
    # A tag-agnostic pump (receive_tagged/receive_control) consumes every
    # envelope tag, so producer orphans are fine — but a receive for a tag
    # nobody produces still deadlocks and still flags.
    report = lint(
        tmp_path,
        """
        def produce(bus, ct):
            bus.send_payload(0, 1, ct, tag="anything")
            bus.round(1)

        def pump(bus):
            return bus.receive_tagged(0)

        def stuck(bus):
            return bus.receive(0, tag="never-sent")
        """,
    )
    assert rules_found(report) == ["PL006"]
    assert "never-sent" in report.findings[0].message


def test_pl006_flags_request_op_without_handler(tmp_path):
    # Request ops are dispatch keys, not envelope tags: a pump does not
    # excuse an op no `_op_*` method or comparison ever handles.
    report = lint(
        tmp_path,
        """
        def ask(endpoint):
            return endpoint.request(Request("frobnicate", ()))

        def pump(bus):
            return bus.receive_tagged(0)
        """,
    )
    assert rules_found(report) == ["PL006"]
    assert "frobnicate" in report.findings[0].message


def test_pl006_request_op_with_handler_is_clean(tmp_path):
    report = lint_files(
        tmp_path,
        {
            "client.py": """
                def ask(endpoint):
                    return endpoint.request(Request("frobnicate", ()))
            """,
            "server.py": """
                class Server:
                    def _op_frobnicate(self, body):
                        return body
            """,
        },
    )
    assert report.findings == []


# ---------------------------------------------------------------------------
# PL007 — unbounded-wait
# ---------------------------------------------------------------------------


def test_pl007_flags_unbounded_dial_loop(tmp_path):
    report = lint(
        tmp_path,
        """
        def dial(sock):
            while True:
                chunk = sock.recv(4096)
                if chunk:
                    return chunk
        """,
    )
    assert rules_found(report) == ["PL007"]


def test_pl007_accepts_deadline_bounded_loop(tmp_path):
    report = lint(
        tmp_path,
        """
        def dial(sock, deadline):
            while True:
                if clock() > deadline:
                    raise TimeoutError("dial gave up")
                chunk = sock.recv(4096)
                if chunk:
                    return chunk
        """,
    )
    assert report.findings == []


def test_pl007_accepts_eof_handling_loop(tmp_path):
    # Catching the disconnect exception class inside the loop is bound
    # evidence: a dead peer terminates the wait instead of hanging it.
    report = lint(
        tmp_path,
        """
        def pump_until_closed(sock):
            while True:
                try:
                    chunk = sock.recv(4096)
                except ConnectionResetError:
                    return None
        """,
    )
    assert report.findings == []


# ---------------------------------------------------------------------------
# PL008 — blocking-in-event-loop
# ---------------------------------------------------------------------------


def test_pl008_flags_sync_sleep_and_socket_in_async(tmp_path):
    report = lint(
        tmp_path,
        """
        async def tick(sock):
            time.sleep(0.1)
            return sock.recv(10)
        """,
    )
    assert rules_found(report) == ["PL008", "PL008"]


def test_pl008_accepts_awaited_and_sync_context(tmp_path):
    report = lint(
        tmp_path,
        """
        async def tick():
            await asyncio.sleep(0.1)

        def sync_path(sock):
            time.sleep(0.1)
            return sock.recv(10)
        """,
    )
    assert report.findings == []


# ---------------------------------------------------------------------------
# PL009 — width-parity between estimate() and _write()
# ---------------------------------------------------------------------------

def test_pl009_flags_estimate_writer_drift(tmp_path):
    # The writer emits a 2-byte marker, the estimate only budgets TAG=1:
    # every framed message under-reserves by one byte.
    report = lint(
        tmp_path,
        """
        TAG = 1
        WIDTH = 8

        class MiniCodec:
            def estimate(self, payload):
                if isinstance(payload, int):
                    return TAG + WIDTH
                raise ValueError("unsupported")

            def _write(self, out, payload):
                if isinstance(payload, int):
                    out.append(7)
                    out.append(7)
                    out += payload.to_bytes(WIDTH, "big")
                else:
                    raise ValueError("unsupported")
        """,
    )
    assert rules_found(report) == ["PL009"]
    assert "int" in report.findings[0].message


def test_pl009_accepts_matching_widths(tmp_path):
    report = lint(
        tmp_path,
        """
        TAG = 1
        WIDTH = 8

        class MiniCodec:
            def estimate(self, payload):
                if isinstance(payload, int):
                    return TAG + WIDTH
                if isinstance(payload, float):
                    return TAG + 8
                raise ValueError("unsupported")

            def _write(self, out, payload):
                if isinstance(payload, int):
                    out.append(7)
                    out += payload.to_bytes(WIDTH, "big")
                elif isinstance(payload, float):
                    out.append(8)
                    out += struct.pack(">d", payload)
                else:
                    raise ValueError("unsupported")
        """,
    )
    assert report.findings == []


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------


def test_justified_suppression_silences_and_is_counted(tmp_path):
    report = lint(
        tmp_path,
        """
        def peek(partition):
            # pivotlint: disable=PL001 -- scoring harness, not protocol code
            return partition.local_features[0][:, 2]
        """,
    )
    assert report.findings == []
    assert len(report.suppressed) == 1


def test_unjustified_suppression_is_a_finding(tmp_path):
    report = lint(
        tmp_path,
        """
        def peek(partition):
            # pivotlint: disable=PL001
            return partition.local_features[0][:, 2]
        """,
    )
    assert sorted(rules_found(report)) == ["PL000", "PL001"]
    assert "justification" in report.findings[0].message


def test_suppression_of_unknown_rule_is_a_finding(tmp_path):
    report = lint(
        tmp_path,
        """
        x = 1  # pivotlint: disable=PL999 -- no such rule
        """,
    )
    assert rules_found(report) == ["PL000"]


def test_suppression_does_not_bleed_to_other_lines(tmp_path):
    report = lint(
        tmp_path,
        """
        def peek(partition):
            a = partition.local_features[0][:, 0]  # pivotlint: disable=PL001 -- demo
            b = partition.local_features[0][:, 1]
            return a, b
        """,
    )
    assert rules_found(report) == ["PL001"]
    assert len(report.suppressed) == 1


def test_file_level_suppression(tmp_path):
    report = lint(
        tmp_path,
        """
        # pivotlint: disable-file=PL001 -- explicitly-unprotected fixture

        def one(partition):
            return partition.local_features[0][:, 0]

        def two(partition):
            return partition.labels[1]
        """,
    )
    assert report.findings == []
    assert len(report.suppressed) == 2


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------

LEAKY = """
def peek(partition):
    return partition.local_features[0][:, 2]
"""


def test_baseline_accepts_justified_entries(tmp_path):
    baseline = Baseline(
        [BaselineEntry("PL001", "sample.py", "*", justification="fixture")]
    )
    report = lint(tmp_path, LEAKY, baseline=baseline)
    assert report.findings == []
    assert len(report.baselined) == 1


def test_baseline_scope_must_match(tmp_path):
    baseline = Baseline(
        [BaselineEntry("PL001", "sample.py", "other_function", justification="x")]
    )
    report = lint(tmp_path, LEAKY, baseline=baseline)
    assert rules_found(report) == ["PL001"]


def test_unjustified_baseline_entry_fails_strict(tmp_path):
    baseline = Baseline([BaselineEntry("PL001", "sample.py", "*")])
    report = lint(tmp_path, LEAKY, baseline=baseline, strict=True)
    assert "PL000" in rules_found(report)


def test_stale_baseline_entry_fails_strict(tmp_path):
    baseline = Baseline(
        [BaselineEntry("PL001", "gone.py", "*", justification="was fixed")]
    )
    report = lint(tmp_path, "x = 1\n", baseline=baseline, strict=True)
    assert rules_found(report) == ["PL000"]
    assert "stale" in report.findings[0].message


def test_baseline_round_trip(tmp_path):
    path = tmp_path / "baseline.json"
    original = Baseline(
        [BaselineEntry("PL002", "a.py", "Cls.fn", justification="why")]
    )
    original.save(path)
    loaded = Baseline.load(path)
    assert loaded.entries == original.entries
    loaded.save(path)
    assert Baseline.load(path).entries == original.entries


def test_baseline_rejects_unknown_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text('{"version": 99, "accepted": []}')
    with pytest.raises(ValueError, match="version"):
        Baseline.load(path)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_exit_codes_and_summary(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(LEAKY)
    summary = tmp_path / "summary.md"
    monkeypatch.chdir(tmp_path)
    assert pivotlint_main([str(bad), "--summary", str(summary)]) == 1
    assert "PL001" in capsys.readouterr().out
    assert "PL001" in summary.read_text()

    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    assert pivotlint_main([str(good)]) == 0


def test_cli_parse_error_is_reported(tmp_path, monkeypatch):
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n")
    monkeypatch.chdir(tmp_path)
    assert pivotlint_main([str(broken)]) == 1


def test_cli_rejects_negative_jobs(tmp_path, monkeypatch):
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    monkeypatch.chdir(tmp_path)
    assert pivotlint_main([str(good), "--jobs", "-1"]) == 2


def test_cli_jobs_zero_means_auto(tmp_path, monkeypatch):
    # 0 is not an error: it fans out across os.cpu_count() workers and
    # produces the same report a serial run would.
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    monkeypatch.chdir(tmp_path)
    assert pivotlint_main([str(good), "--jobs", "0"]) == 0


def test_cli_sarif_format(tmp_path, monkeypatch, capsys):
    import json as _json

    bad = tmp_path / "bad.py"
    bad.write_text(LEAKY)
    monkeypatch.chdir(tmp_path)
    assert pivotlint_main([str(bad), "--format", "sarif"]) == 1
    log = _json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "pivotlint"
    rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
    assert "PL001" in rule_ids and "PL013" in rule_ids
    (result,) = [r for r in run["results"] if r["ruleId"] == "PL001"]
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("bad.py")
    assert location["region"]["startLine"] >= 1

    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    assert pivotlint_main([str(good), "--format", "sarif"]) == 0
    clean = _json.loads(capsys.readouterr().out)
    assert clean["runs"][0]["results"] == []


# ---------------------------------------------------------------------------
# --jobs: the parallel report is byte-identical to the serial one
# ---------------------------------------------------------------------------


def test_parallel_jobs_report_matches_serial(tmp_path):
    (tmp_path / "a.py").write_text(textwrap.dedent(LEAKY))
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "c.py").write_text(
        textwrap.dedent(
            """
            def chatty(logger, private_key):
                logger.info(private_key)
            """
        )
    )
    serial = Analyzer(root=tmp_path).run([tmp_path], jobs=1)
    fanned = Analyzer(root=tmp_path).run([tmp_path], jobs=2)
    assert serial.files_scanned == fanned.files_scanned == 3
    assert [f.render() for f in serial.findings] == [
        f.render() for f in fanned.findings
    ]
    assert serial.findings != []  # the comparison is not vacuous


# ---------------------------------------------------------------------------
# the meta-test: the tree itself stays clean
# ---------------------------------------------------------------------------


def test_repo_tree_is_clean_under_strict():
    """src/, benchmarks/ and examples/ have zero unbaselined findings.

    This is the test-suite twin of CI's
    ``python -m repro.analysis.pivotlint src/ benchmarks/ examples/
    --strict`` gate: every finding must be fixed, suppressed with a
    justification, or recorded in pivotlint.baseline.json with one.
    """
    baseline = Baseline.load(REPO_ROOT / "pivotlint.baseline.json")
    analyzer = Analyzer(baseline=baseline, strict=True, root=REPO_ROOT)
    report = analyzer.run(
        [
            REPO_ROOT / "src" / "repro",
            REPO_ROOT / "benchmarks",
            REPO_ROOT / "examples",
        ]
    )
    assert report.files_scanned > 60
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.findings == [], f"unbaselined findings:\n{rendered}"
    assert report.parse_errors == []
    # The accepted surface stays justified and honest.
    assert all(s.reason for _, s in report.suppressed)
    assert baseline.stale_entries() == []


# ---------------------------------------------------------------------------
# PL010 — choreography-deadlock
# ---------------------------------------------------------------------------


def test_pl010_flags_receive_before_matching_send(tmp_path):
    report = lint(
        tmp_path,
        """
        def inverted(bus, payload):
            reply = bus.receive(0, tag="x")
            bus.send_payload(0, 1, payload, tag="x")
            bus.round(1)
            return reply
        """,
    )
    assert "PL010" in rules_found(report)
    finding = next(f for f in report.findings if f.rule == "PL010")
    assert finding.scope == "inverted"


def test_pl010_accepts_send_before_receive(tmp_path):
    report = lint(
        tmp_path,
        """
        def ordered(bus, payload):
            bus.send_payload(0, 1, payload, tag="x")
            reply = bus.receive(0, tag="x")
            bus.round(1)
            return reply
        """,
    )
    assert "PL010" not in rules_found(report)


def test_pl010_skips_barrierless_responders(tmp_path):
    # A reactive responder sees only its own projection, where
    # receive-before-send is the normal shape; without a barrier it is
    # not a complete choreography and PL010 stays silent.
    report = lint(
        tmp_path,
        """
        def respond(bus, party):
            request = bus.receive(party, tag="x")
            bus.send_payload(party, 0, request, tag="x")
        """,
    )
    assert "PL010" not in rules_found(report)


# ---------------------------------------------------------------------------
# PL011 — round-parity
# ---------------------------------------------------------------------------


def test_pl011_flags_overcharged_round_constant(tmp_path):
    report = lint(
        tmp_path,
        """
        def overcharged(bus, payload):
            bus.broadcast_payload(0, payload, tag="x")
            bus.round(2)

        def pump(bus):
            return bus.receive_tagged(0)
        """,
    )
    assert rules_found(report) == ["PL011"]


def test_pl011_accepts_gather_then_scatter_as_two_rounds(tmp_path):
    # The scatter broadcast causally depends on the gathered sends (its
    # sender was the gather's receiver), so the flow really is two
    # delivery rounds and round(2) is the correct charge.
    report = lint(
        tmp_path,
        """
        def gather_scatter(bus, shares, combined):
            for party in range(1, 3):
                bus.send_payload(party, 0, shares[party], tag="x")
            bus.broadcast_payload(0, combined, tag="x")
            bus.round(2)

        def pump(bus):
            return bus.receive_tagged(0)
        """,
    )
    assert report.findings == []


# ---------------------------------------------------------------------------
# PL012 — cross-thread-shared-state
# ---------------------------------------------------------------------------


def test_pl012_flags_unlocked_caller_side_access(tmp_path):
    report = lint(
        tmp_path,
        """
        import threading


        class Pump:
            def __init__(self):
                self._cond = threading.Condition()
                self._queue = []
                self._thread = threading.Thread(target=self._run, daemon=True)

            def _run(self):
                with self._cond:
                    self._queue.append(1)
                    self._cond.notify_all()

            def take(self):
                if self._queue:
                    return self._queue.pop()
                return None
        """,
    )
    assert set(rules_found(report)) == {"PL012"}
    assert all(f.scope.endswith("take") for f in report.findings)


def test_pl012_accepts_locked_access_everywhere(tmp_path):
    report = lint(
        tmp_path,
        """
        import threading


        class Pump:
            def __init__(self):
                self._cond = threading.Condition()
                self._queue = []
                self._thread = threading.Thread(target=self._run, daemon=True)

            def _run(self):
                with self._cond:
                    self._queue.append(1)
                    self._cond.notify_all()

            def take(self):
                with self._cond:
                    if self._queue:
                        return self._queue.pop()
                return None
        """,
    )
    assert report.findings == []


def test_pl012_flags_await_under_lock(tmp_path):
    report = lint(
        tmp_path,
        """
        import asyncio
        import threading


        class Loop:
            def __init__(self):
                self._cond = threading.Condition()
                self._thread = threading.Thread(target=self._spin)
                self._n = 0

            def _spin(self):
                with self._cond:
                    self._n += 1

            async def _pump(self):
                with self._cond:
                    await asyncio.sleep(0)
        """,
    )
    assert "PL012" in rules_found(report)


# ---------------------------------------------------------------------------
# PL013 — exception-safe-drain
# ---------------------------------------------------------------------------


def test_pl013_flags_raise_between_send_and_barrier(tmp_path):
    report = lint(
        tmp_path,
        """
        def fragile(bus, payload, ok):
            bus.broadcast_payload(0, payload, tag="x")
            if not ok:
                raise ValueError("bad")
            bus.round(1)

        def pump(bus):
            return bus.receive_tagged(0)
        """,
    )
    assert rules_found(report) == ["PL013"]


def test_pl013_accepts_handler_that_restores_the_drain(tmp_path):
    report = lint(
        tmp_path,
        """
        def sturdy(bus, payload, ok):
            bus.broadcast_payload(0, payload, tag="x")
            try:
                if not ok:
                    raise ValueError("bad")
            except Exception:
                bus.drain()
                raise
            bus.round(1)

        def pump(bus):
            return bus.receive_tagged(0)
        """,
    )
    assert report.findings == []


def test_pl013_accepts_finally_barrier(tmp_path):
    report = lint(
        tmp_path,
        """
        def finalized(bus, payload, ok):
            bus.broadcast_payload(0, payload, tag="x")
            try:
                if not ok:
                    raise ValueError("bad")
            finally:
                bus.round(1)

        def pump(bus):
            return bus.receive_tagged(0)
        """,
    )
    assert "PL013" not in rules_found(report)


# ---------------------------------------------------------------------------
# mutation checks: each concurrency rule must catch its seeded defect in
# a copy of the real runtime module it guards
# ---------------------------------------------------------------------------


def _lint_real_copy(tmp_path: Path, relpath: str, mutate) -> tuple[set, set]:
    """Lint a pristine and a mutated copy of a real repo file.

    Returns ``(pristine_rules, mutant_rules)`` so callers can assert the
    *differential* effect of the seeded defect — unrelated findings that
    stem from linting the file outside its project context cancel out.
    """
    source = (REPO_ROOT / relpath).read_text()
    mutated = mutate(source)
    assert mutated != source, f"mutation did not apply to {relpath}"
    pristine = lint(tmp_path / "pristine", source, filename="mutant.py")
    mutant = lint(tmp_path / "mutant", mutated, filename="mutant.py")
    return {f.rule for f in pristine.findings}, {f.rule for f in mutant.findings}


@pytest.fixture(autouse=False)
def _mkdirs(tmp_path):
    (tmp_path / "pristine").mkdir()
    (tmp_path / "mutant").mkdir()
    return tmp_path


def test_mutation_swapped_send_receive_trips_pl010(_mkdirs):
    # Move the threshold-decrypt ciphertext broadcast AFTER the receive
    # loops that consume it: every receiver now blocks on a send its own
    # role has not issued yet.
    def mutate(source: str) -> str:
        send = "    bus.broadcast_payload(holder, list(ciphertexts), tag=tag)\n"
        assert source.count(send) == 1
        return source.replace(send, "", 1).replace(
            "    bus.round(2)", send + "    bus.round(2)", 1
        )

    pristine, mutant = _lint_real_copy(
        _mkdirs, "src/repro/network/flows.py", mutate
    )
    assert "PL010" not in pristine
    assert "PL010" in mutant


def test_mutation_drifted_round_constant_trips_pl011(_mkdirs):
    def mutate(source: str) -> str:
        return source.replace("bus.round(2)", "bus.round(5)")

    pristine, mutant = _lint_real_copy(
        _mkdirs, "src/repro/network/flows.py", mutate
    )
    assert "PL011" not in pristine
    assert "PL011" in mutant


def test_mutation_dropped_lock_trips_pl012(_mkdirs):
    # Revert the lock fix in SocketTransport.deliver(): read the
    # loop-thread-written failure slot outside the condition that guards it.
    def mutate(source: str) -> str:
        locked = (
            "        with self._cond:\n"
            "            # _failure is written from the daemon loop thread; read it\n"
            "            # under the same lock that guards the in-flight counter.\n"
            "            self._check_failure()\n"
            "            self._sent += awaited\n"
        )
        assert locked in source
        unlocked = (
            "        self._check_failure()\n"
            "        with self._cond:\n"
            "            self._sent += awaited\n"
        )
        return source.replace(locked, unlocked, 1)

    pristine, mutant = _lint_real_copy(
        _mkdirs, "src/repro/network/transport.py", mutate
    )
    assert "PL012" not in pristine
    assert "PL012" in mutant


def test_mutation_swallowed_exception_edge_trips_pl013(_mkdirs):
    # Drop the drain from the threshold-decrypt error handler: the raise
    # then propagates with the ciphertext broadcast still undrained in
    # peer inboxes.
    def mutate(source: str) -> str:
        restore = "        bus.drain()\n        raise\n"
        assert source.count(restore) == 1
        return source.replace(restore, "        raise\n", 1)

    pristine, mutant = _lint_real_copy(
        _mkdirs, "src/repro/network/flows.py", mutate
    )
    assert "PL013" not in pristine
    assert "PL013" in mutant
