"""Inline suppression comments: ``# pivotlint: disable=PL002 -- reason``.

The suppression policy is deliberate friction: every suppression must name
the rule(s) it silences *and* carry a justification after ``--``.  A
suppression without a justification is itself reported (PL000) — the
analyzer's findings can be accepted, but never silently.

Two comment forms:

* **Line suppression** — on the offending line (or any line of the
  offending statement), or on a standalone comment line directly above it::

      column = partition.labels[s]  # pivotlint: disable=PL001 -- scoring harness

* **File suppression** — ``disable-file=``, anywhere in the file, scoping
  the named rules for the whole file (for explicitly-unprotected modules
  such as the plaintext baselines)::

      # pivotlint: disable-file=PL001 -- NP-DT is the paper's non-private baseline

Unknown rule ids in a suppression are PL000 findings too, so a typo cannot
silently disable nothing; under ``--strict`` so is a suppression that
silences no finding and quenches no summary (``Suppression.used``), so an
accepted finding that went away takes its suppression with it.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass

_PATTERN = re.compile(
    r"#\s*pivotlint:\s*(?P<kind>disable|disable-file)\s*=\s*"
    r"(?P<codes>[A-Za-z0-9_,\s]+?)"
    r"(?:\s*--\s*(?P<reason>.*\S))?\s*$"
)


@dataclass
class Suppression:
    """One parsed suppression comment."""

    line: int  # line the comment sits on
    codes: tuple[str, ...]
    reason: str  # "" when the justification is missing (a PL000 finding)
    file_level: bool
    #: Lines this suppression covers (the comment's own line, plus the next
    #: code line for standalone comments).  File-level suppressions ignore it.
    covers: tuple[int, ...] = ()
    #: Set by the engine when the suppression silences a finding or
    #: quenches a summary; ``--strict`` reports one that stays unset.
    used: bool = False


def parse_suppressions(source: str) -> list[Suppression]:
    """All suppression comments in ``source``, with coverage resolved."""
    comments: list[tuple[int, bool, str]] = []  # (line, standalone, text)
    code_lines: set[int] = set()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return []
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            standalone = tok.line[: tok.start[1]].strip() == ""
            comments.append((tok.start[0], standalone, tok.string))
        elif tok.type not in (
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENCODING,
            tokenize.ENDMARKER,
        ):
            for ln in range(tok.start[0], tok.end[0] + 1):
                code_lines.add(ln)

    suppressions = []
    for line, standalone, text in comments:
        match = _PATTERN.search(text)
        if match is None:
            continue
        codes = tuple(
            code.strip().upper()
            for code in match.group("codes").split(",")
            if code.strip()
        )
        file_level = match.group("kind") == "disable-file"
        covers: tuple[int, ...] = (line,)
        if standalone and not file_level:
            # A comment on its own line covers the next code line.
            following = [ln for ln in code_lines if ln > line]
            if following:
                covers = (line, min(following))
        suppressions.append(
            Suppression(
                line=line,
                codes=codes,
                reason=(match.group("reason") or "").strip(),
                file_level=file_level,
                covers=covers,
            )
        )
    return suppressions
