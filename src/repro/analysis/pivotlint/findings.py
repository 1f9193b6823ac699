"""Findings: what pivotlint reports and how.

A :class:`Finding` is one privacy-flow violation: a rule id, a precise
span (file, line, column, end line), the violation message, and a one-line
fix hint.  Findings are value objects — the engine produces them, the
suppression layer filters them, and the CLI renders them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Finding:
    """One reported privacy-flow violation."""

    rule: str  # "PL001" .. "PL012" (or "PL000" for engine diagnostics)
    path: str  # path as scanned (posix, relative to the scan root)
    line: int  # 1-based line of the offending node
    col: int  # 0-based column of the offending node
    message: str  # what is wrong, specific to this occurrence
    hint: str  # one-line fix hint
    scope: str = "<module>"  # enclosing function/class qualname
    #: Span of the enclosing *statement* — a suppression comment anywhere
    #: on these lines covers the finding (multi-line calls keep working).
    span: tuple[int, int] = (0, 0)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def render(self) -> str:
        return (
            f"{self.location()}: {self.rule} [{self.scope}] {self.message}\n"
            f"    hint: {self.hint}"
        )

    def render_github(self) -> str:
        """GitHub Actions workflow-command annotation."""
        message = f"{self.rule}: {self.message} (hint: {self.hint})"
        # Workflow commands terminate on newlines/percent signs.
        message = (
            message.replace("%", "%25").replace("\n", "%0A").replace("\r", "")
        )
        return (
            f"::error file={self.path},line={self.line},"
            f"col={self.col + 1}::{message}"
        )

