"""pivotlint: per-rule true-positive/true-negative fixtures, suppression
handling, the CLI's output formats, and the meta-test that keeps
src/repro/ clean.

Every positive fixture is a violation the *runtime* suite cannot catch —
the offending path is never executed here, only parsed — which is the
point of having a static analyzer at all.
"""

from __future__ import annotations

import re
import textwrap
from pathlib import Path

import pytest

import repro.analysis.pivotlint as pivotlint_pkg
from repro.analysis.pivotlint import REGISTRY, Analyzer
from repro.analysis.pivotlint.__main__ import main as pivotlint_main

REPO_ROOT = Path(__file__).resolve().parents[2]


def lint(
    tmp_path: Path,
    source: str,
    strict: bool = False,
    filename: str = "sample.py",
):
    """Run the analyzer over one fixture file; returns the Report."""
    target = tmp_path / filename
    target.write_text(textwrap.dedent(source))
    analyzer = Analyzer(strict=strict, root=tmp_path)
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
            with bus.flow(1):
                bus.send_payload(0, 1, key_share.d_share, tag="oops")
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
                with bus.flow(1):
                    bus.send_payload(0, 1, pow(raw, self.d_share, n_squared))
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
            with bus.flow(1):
                bus.broadcast_payload(0, p_share, tag="kg-p")
                bus.send_payload(0, 1, q_share + 2, tag="kg-q")
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
                with bus.flow(1):
                    bus.broadcast_payload(self.party_index, commitment, tag="kg-c")
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
                    with bus.flow(1):
                        bus.send_payload(0, 1, value, tag="s")
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


def test_pl002_reports_each_sink_in_a_nested_def_once(tmp_path):
    # A nested def is scanned once, as its own function, starting from the
    # enclosing function's labels: the closure capture of a secret is
    # caught, and no sink is reported under both functions.
    source = textwrap.dedent(
        """
        def outer(key_share):
            secret = key_share.d_share

            def helper():
                print(secret)

            helper()

        def outer2(x):
            d_share = x

            def sink():
                print(d_share)

            sink()
        """
    )
    report = lint(tmp_path, source)
    sink_lines = [
        n for n, line in enumerate(source.splitlines(), 1) if "print(" in line
    ]
    assert rules_found(report) == ["PL002", "PL002"]
    assert [f.line for f in report.findings] == sink_lines


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
        strict=True,
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
        strict=True,
    )
    assert report.findings == []
    assert len(report.suppressed) == 2


def test_unused_line_suppression_fails_strict_only(tmp_path):
    source = """
        def peek(partition):
            return partition.shape  # pivotlint: disable=PL001 -- metadata only
        """
    assert lint(tmp_path, source).findings == []
    report = lint(tmp_path, source, strict=True)
    assert rules_found(report) == ["PL000"]
    (finding,) = report.findings
    assert finding.line == 3
    assert "unused suppression" in finding.message


def test_unused_file_suppression_fails_strict_only(tmp_path):
    source = """
        # pivotlint: disable-file=PL001 -- explicitly-unprotected fixture

        def one(partition):
            return partition.local_features[0].shape
        """
    assert lint(tmp_path, source).findings == []
    report = lint(tmp_path, source, strict=True)
    assert rules_found(report) == ["PL000"]
    assert "unused suppression" in report.findings[0].message


def test_suppression_used_only_by_a_summary_quench_passes_strict(tmp_path):
    # The helper's own body has no secret, so its suppression silences no
    # finding there; it keeps the helper's summary from exporting the
    # parameter-to-return flow, which is what keeps the caller clean.
    report = lint_files(
        tmp_path,
        {
            "helpers.py": """
                def fingerprint(value):
                    return f"fp:{value}"  # pivotlint: disable=PL002 -- public digest
                """,
            "keygen.py": """
                from helpers import fingerprint

                def report(key_share):
                    return fingerprint(key_share.d_share)
                """,
        },
        strict=True,
    )
    assert report.findings == []
    assert report.suppressed == []


LEAKY = """
def peek(partition):
    return partition.local_features[0][:, 2]
"""


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
    assert "PL001" in rule_ids and "PL012" in rule_ids
    (result,) = [r for r in run["results"] if r["ruleId"] == "PL001"]
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("bad.py")
    assert location["region"]["startLine"] >= 1

    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    assert pivotlint_main([str(good), "--format", "sarif"]) == 0
    clean = _json.loads(capsys.readouterr().out)
    assert clean["runs"][0]["results"] == []


def test_cli_github_format(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(LEAKY + LEAKY.replace("peek", "poke"))
    monkeypatch.chdir(tmp_path)
    assert pivotlint_main([str(bad), "--format", "github"]) == 1
    *annotations, tally = capsys.readouterr().out.splitlines()
    assert len(annotations) == 2
    for annotation, line in zip(annotations, (3, 6)):
        assert re.fullmatch(
            rf"::error file=bad\.py,line={line},col=12::PL001: .*", annotation
        )
    assert tally.startswith("pivotlint: 1 files scanned, 2 finding(s) [PL001: 2]")

    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    assert pivotlint_main([str(good), "--format", "github"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "pivotlint: 1 files scanned, 0 finding(s) [none], 0 suppressed"
    ]


def test_rule_lists_name_exactly_the_registered_rules(capsys):
    # --help, --list-rules, the package docstring's table and the README's
    # catalogue headings are all built from or checked against REGISTRY.
    def rule_ids(text: str) -> set[str]:
        return set(re.findall(r"PL\d{3}", text))

    registered = set(REGISTRY)
    with pytest.raises(SystemExit):
        pivotlint_main(["--help"])
    assert rule_ids(capsys.readouterr().out) == registered

    assert pivotlint_main(["--list-rules"]) == 0
    listed = [
        line.split()[0]
        for line in capsys.readouterr().out.splitlines()
        if line and not line[0].isspace()
    ]
    assert sorted(listed) == sorted(registered)

    table = [
        line.split()[0]
        for line in pivotlint_pkg.__doc__.splitlines()
        if re.match(r"PL\d{3}\s", line)
    ]
    assert sorted(table) == sorted(registered)

    readme = (Path(pivotlint_pkg.__file__).parent / "README.md").read_text()
    headings = re.findall(r"^### (PL\d{3})", readme, re.MULTILINE)
    assert sorted(headings) == sorted(registered | {"PL000"})


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
    (tmp_path / "d.py").write_text("x = 1  # pivotlint: disable=PL001 -- stale\n")
    serial = Analyzer(strict=True, root=tmp_path).run([tmp_path], jobs=1)
    fanned = Analyzer(strict=True, root=tmp_path).run([tmp_path], jobs=2)
    assert serial.files_scanned == fanned.files_scanned == 4
    assert [f.render() for f in serial.findings] == [
        f.render() for f in fanned.findings
    ]
    # The comparison is not vacuous: it covers rule findings and the
    # unused-suppression check.
    assert {"PL000", "PL001", "PL002"} <= set(rules_found(serial))


# ---------------------------------------------------------------------------
# the meta-test: the tree itself stays clean
# ---------------------------------------------------------------------------


def test_repo_tree_is_clean_under_strict():
    """src/, benchmarks/ and examples/ have zero unsuppressed findings.

    This is the test-suite twin of CI's
    ``python -m repro.analysis.pivotlint src/ benchmarks/ examples/
    --strict`` gate: every finding must be fixed or suppressed with a
    justification, and every suppression must still silence something.
    """
    analyzer = Analyzer(strict=True, root=REPO_ROOT)
    report = analyzer.run(
        [
            REPO_ROOT / "src" / "repro",
            REPO_ROOT / "benchmarks",
            REPO_ROOT / "examples",
        ]
    )
    assert report.files_scanned > 60
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.findings == [], f"unsuppressed findings:\n{rendered}"
    assert report.parse_errors == []
    # The accepted surface stays justified.
    assert all(s.reason for _, s in report.suppressed)


# ---------------------------------------------------------------------------
# PL011 — round-parity
# ---------------------------------------------------------------------------


def test_pl011_flags_overcharged_round_constant(tmp_path):
    report = lint(
        tmp_path,
        """
        def overcharged(bus, payload):
            with bus.flow(2):
                bus.broadcast_payload(0, payload, tag="x")
        """,
    )
    assert rules_found(report) == ["PL011"]


def test_pl011_accepts_gather_then_scatter_as_two_rounds(tmp_path):
    # The scatter broadcast causally depends on the gathered sends (its
    # sender was the gather's receiver), so the flow really is two
    # delivery rounds and flow(2) is the correct charge.
    report = lint(
        tmp_path,
        """
        def gather_scatter(bus, shares, combined):
            with bus.flow(2):
                for party in range(1, 3):
                    bus.send_payload(party, 0, shares[party], tag="x")
                bus.broadcast_payload(0, combined, tag="x")
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


def test_mutation_drifted_round_constant_trips_pl011(_mkdirs):
    # The reverse conversion's two phases (the peers' mask ciphertexts to
    # the holder, her result broadcast) are both sent inside the flow, so
    # PL011 checks its constant.  (record_threshold_decrypt's scope is
    # suppressed: its second phase is sent by the peers' handlers, which
    # the phase walk does not see.)
    def mutate(source: str) -> str:
        assert source.count("bus.flow(2)") == 1
        return source.replace("bus.flow(2)", "bus.flow(5)")

    pristine, mutant = _lint_real_copy(
        _mkdirs, "src/repro/mpc/conversion.py", mutate
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
