"""The pivotlint engine: file discovery, rule dispatch, filtering, reporting.

One :class:`Analyzer` run parses every ``.py`` file under the given paths,
hands each :class:`FileContext` to every registered rule, then filters the
raw findings through the inline suppressions (``# pivotlint:
disable=PLxxx -- reason``, or ``disable-file=`` for a whole module): a
matching suppression on any line of the offending statement silences the
finding.  A suppression without a justification yields a PL000 finding
instead of silence.

What survives is the report.  ``--strict`` additionally reports every
suppression that silenced no finding and quenched no summary as a PL000
finding, so the accepted-findings surface cannot rot.  It is opt-in
because a scan of part of the tree can leave a suppression idle whose
finding needs a file outside the scan.
"""

from __future__ import annotations

import ast
import multiprocessing
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.pivotlint.callgraph import ProjectIndex
from repro.analysis.pivotlint.dataflow import build_parent_map, enclosing_stmt
from repro.analysis.pivotlint.findings import Finding
from repro.analysis.pivotlint.rules import REGISTRY, Rule
from repro.analysis.pivotlint import rules_protocol  # noqa: F401  (registers PL007-PL008)
from repro.analysis.pivotlint import rules_concurrency  # noqa: F401  (registers PL011-PL012)
from repro.analysis.pivotlint.suppress import Suppression, parse_suppressions


class FileContext:
    """Everything a rule needs about one source file."""

    def __init__(
        self,
        path: Path,
        relpath: str,
        source: str,
        tree: ast.Module,
        project: ProjectIndex,
    ):
        self.path = path
        self.relpath = relpath
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        #: the cross-file index of the whole run: rules consult it for
        #: call resolution and function summaries.
        self.project = project
        self._parents: dict[ast.AST, ast.AST] | None = None

    def enclosing_stmt(self, node: ast.AST) -> ast.AST:
        return enclosing_stmt(node, self.parents())

    def parents(self) -> dict[ast.AST, ast.AST]:
        if self._parents is None:
            self._parents = build_parent_map(self.tree)
        return self._parents


@dataclass
class Report:
    """Outcome of one analyzer run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[tuple[Finding, Suppression]] = field(default_factory=list)
    parse_errors: list[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings and not self.parse_errors

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts


def _make_quench(
    suppression_map: dict[str, list[Suppression]],
) -> Callable[[str, str, int], bool]:
    """``(relpath, rule, line) -> bool``: is the line under a suppression?

    The summary computation uses this to stop exporting taint that a
    human already certified as protocol-public at its origin (see
    :mod:`repro.analysis.pivotlint.summaries`).  Unjustified suppressions
    count too — PL000 hygiene separately forces a reason onto them.  A
    suppression that quenches is marked used.
    """

    def quench(relpath: str, rule: str, line: int) -> bool:
        for sup in suppression_map.get(relpath, ()):
            if rule in sup.codes and (sup.file_level or line in sup.covers):
                sup.used = True
                return True
        return False

    return quench


#: Per-process state for ``--jobs`` workers: the shared project index and
#: a rule set rebuilt from the registry (rules are stateless).
_WORKER_STATE: dict = {}


def _worker_init(project: ProjectIndex) -> None:
    _WORKER_STATE["project"] = project
    _WORKER_STATE["rules"] = [cls() for cls in REGISTRY.values()]


def _worker_check(task: tuple[str, str, str]) -> list[Finding]:
    path_str, relpath, source = task
    project: ProjectIndex = _WORKER_STATE["project"]
    ctx = FileContext(
        Path(path_str), relpath, source, project.files[relpath], project
    )
    raw: list[Finding] = []
    for rule in _WORKER_STATE["rules"]:
        raw.extend(rule.check(ctx))
    return raw


class Analyzer:
    """Run the registered rules over a set of paths."""

    def __init__(
        self,
        rules: list[Rule] | None = None,
        strict: bool = False,
        root: Path | None = None,
    ):
        self._default_rules = rules is None
        self.rules = rules if rules is not None else [cls() for cls in REGISTRY.values()]
        self.strict = strict
        self.root = (root or Path.cwd()).resolve()

    # -- discovery ---------------------------------------------------------

    def _iter_files(self, paths: list[Path]) -> list[Path]:
        files: list[Path] = []
        for path in paths:
            if path.is_dir():
                files.extend(sorted(path.rglob("*.py")))
            elif path.suffix == ".py":
                files.append(path)
        seen = set()
        unique = []
        for f in files:
            resolved = f.resolve()
            if resolved not in seen:
                seen.add(resolved)
                unique.append(f)
        return unique

    def _relpath(self, path: Path) -> str:
        resolved = path.resolve()
        try:
            return resolved.relative_to(self.root).as_posix()
        except ValueError:
            return path.as_posix()

    # -- the run -----------------------------------------------------------

    def run(self, paths: list[Path | str], jobs: int = 1) -> Report:
        report = Report()
        parsed: list[tuple[Path, str, str, ast.Module]] = []
        suppression_map: dict[str, list[Suppression]] = {}
        for path in self._iter_files([Path(p) for p in paths]):
            relpath = self._relpath(path)
            try:
                source = path.read_text()
                tree = ast.parse(source, filename=str(path))
            except (SyntaxError, UnicodeDecodeError) as exc:
                report.parse_errors.append(
                    Finding(
                        rule="PL000",
                        path=relpath,
                        line=getattr(exc, "lineno", 1) or 1,
                        col=0,
                        message=f"cannot parse file: {exc}",
                        hint="fix the syntax error",
                    )
                )
                continue
            report.files_scanned += 1
            parsed.append((path, relpath, source, tree))
            suppression_map[relpath] = parse_suppressions(source)

        project = ProjectIndex.build(
            [(relpath, tree) for _, relpath, _, tree in parsed],
            quench=_make_quench(suppression_map),
        )
        contexts = [FileContext(*entry, project) for entry in parsed]

        raw_by_file = self._check_files(contexts, project, jobs)
        for ctx in contexts:
            self._filter(
                report,
                ctx.relpath,
                raw_by_file[ctx.relpath],
                suppression_map[ctx.relpath],
            )
        report.findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return report

    def _check_files(
        self, contexts: list[FileContext], project: ProjectIndex, jobs: int
    ) -> dict[str, list[Finding]]:
        """Run every rule over every file — in-process or fanned out.

        With ``jobs > 1`` the per-file rule checks run in a process pool;
        files are dispatched and merged in discovery order and the filter/
        sort stages stay in the parent, so the report is byte-identical to
        a serial run.  Custom rule lists fall back to serial (worker
        processes rebuild rules from the registry).
        """
        serial = jobs <= 1 or len(contexts) <= 1 or not self._default_rules
        if serial:
            out: dict[str, list[Finding]] = {}
            for ctx in contexts:
                raw: list[Finding] = []
                for rule in self.rules:
                    raw.extend(rule.check(ctx))
                out[ctx.relpath] = raw
            return out
        tasks = [(str(ctx.path), ctx.relpath, ctx.source) for ctx in contexts]
        with multiprocessing.Pool(
            processes=min(jobs, len(contexts)),
            initializer=_worker_init,
            initargs=(project,),
        ) as pool:
            results = pool.map(_worker_check, tasks)
        return {ctx.relpath: raw for ctx, raw in zip(contexts, results)}

    def _filter(
        self,
        report: Report,
        relpath: str,
        raw: list[Finding],
        suppressions: list[Suppression],
    ) -> None:
        known = set(REGISTRY) | {"PL000"}
        for sup in suppressions:
            for code in sup.codes:
                if code not in known:
                    report.findings.append(
                        Finding(
                            rule="PL000",
                            path=relpath,
                            line=sup.line,
                            col=0,
                            message=f"suppression names unknown rule {code!r}",
                            hint=f"rule ids are {', '.join(sorted(REGISTRY))}",
                        )
                    )
            if not sup.reason:
                report.findings.append(
                    Finding(
                        rule="PL000",
                        path=relpath,
                        line=sup.line,
                        col=0,
                        message=(
                            "suppression without a justification — every "
                            "accepted finding must say why"
                        ),
                        hint="append `-- <reason>` to the suppression comment",
                    )
                )

        file_level = [s for s in suppressions if s.file_level]
        line_level = [s for s in suppressions if not s.file_level]
        for finding in raw:
            handled = False
            for sup in file_level:
                if finding.rule in sup.codes:
                    sup.used = True
                    if sup.reason:
                        report.suppressed.append((finding, sup))
                        handled = True
                    break
            if handled:
                continue
            span = finding.span if finding.span != (0, 0) else (finding.line, finding.line)
            for sup in line_level:
                if finding.rule in sup.codes and any(
                    span[0] <= line <= span[1] for line in sup.covers
                ):
                    sup.used = True
                    if sup.reason:
                        report.suppressed.append((finding, sup))
                        handled = True
                    break
            if handled:
                continue
            report.findings.append(finding)

        if not self.strict:
            return
        for sup in suppressions:
            if sup.used or not sup.reason or not set(sup.codes) <= known:
                continue  # used, or already reported above
            report.findings.append(
                Finding(
                    rule="PL000",
                    path=relpath,
                    line=sup.line,
                    col=0,
                    message=(
                        f"unused suppression: it silences no "
                        f"{', '.join(sup.codes)} finding and quenches no summary"
                    ),
                    hint="delete the suppression — the accepted finding is gone",
                )
            )
