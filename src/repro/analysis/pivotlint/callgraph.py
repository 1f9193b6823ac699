"""Project-wide call graph: who calls whom, resolved by name.

PR 6's rules were strictly intraprocedural — a secret laundered through one
helper function, or a bus send hidden inside a callee, was
invisible.  The :class:`ProjectIndex` built here is the missing global
view: every function/method defined anywhere in the scanned tree, indexed
by simple name, so rules can resolve a call site to its possible callees
and consult their :mod:`~repro.analysis.pivotlint.summaries`.

Resolution is deliberately *name-based may-analysis*: ``obj.fn(...)``
resolves to every method named ``fn`` in the tree, ``fn(...)`` to every
plain function named ``fn`` (imports are not chased — the tree is scanned
whole, so the definition is in the index no matter which module it lives
in).  Over-approximation is the right default for a privacy linter: a
false match is a finding a human reviews once; a missed match is a secret
on the wire.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.pivotlint.summaries import FunctionSummary


@dataclass
class FunctionInfo:
    """One function or method definition somewhere in the scanned tree."""

    qualkey: str  #: ``relpath::Qual.Name`` — globally unique.
    name: str  #: simple name (what a call site can see).
    qualname: str
    relpath: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: tuple[str, ...]  #: positional + kw-only names, ``self``/``cls`` dropped.
    is_method: bool
    #: defined inside another function — unreachable from other files, so
    #: excluded from call resolution (a nested ``flush()`` must not make
    #: every file-handle ``.flush()`` look like a bus send).
    nested: bool = False
    #: minimum arguments a call must supply to bind this signature.
    required: int = 0
    #: maximum positional arguments the signature accepts.
    max_pos: int = 0
    has_vararg: bool = False
    has_kwarg: bool = False


def _function_params(
    node: ast.FunctionDef | ast.AsyncFunctionDef, is_method: bool
) -> tuple[str, ...]:
    names = [a.arg for a in node.args.posonlyargs + node.args.args]
    if is_method and names and names[0] in ("self", "cls"):
        names = names[1:]
    names.extend(a.arg for a in node.args.kwonlyargs)
    return tuple(names)


def _arity(
    node: ast.FunctionDef | ast.AsyncFunctionDef, is_method: bool
) -> tuple[int, int]:
    """(required, max_pos) of the signature, with ``self``/``cls`` dropped."""
    positional = node.args.posonlyargs + node.args.args
    max_pos = len(positional)
    required = max_pos - len(node.args.defaults)
    if is_method and positional and positional[0].arg in ("self", "cls"):
        max_pos -= 1
        required -= 1
    required += sum(
        1 for default in node.args.kw_defaults if default is None
    )
    return max(required, 0), max_pos


def _collect_functions(relpath: str, tree: ast.Module) -> list[FunctionInfo]:
    found: list[FunctionInfo] = []

    def visit(
        node: ast.AST, stack: list[str], in_class: bool, nested: bool
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, stack + [child.name], True, nested)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = ".".join(stack + [child.name])
                required, max_pos = _arity(child, in_class)
                found.append(
                    FunctionInfo(
                        qualkey=f"{relpath}::{qualname}",
                        name=child.name,
                        qualname=qualname,
                        relpath=relpath,
                        node=child,
                        params=_function_params(child, in_class),
                        is_method=in_class,
                        nested=nested,
                        required=required,
                        max_pos=max_pos,
                        has_vararg=child.args.vararg is not None,
                        has_kwarg=child.args.kwarg is not None,
                    )
                )
                # Nested defs are indexed too (their own summaries matter)
                # but marked: call resolution skips them.
                visit(child, stack + [child.name], False, True)

    visit(tree, [], False, False)
    return found


def callee_name(call: ast.Call) -> str | None:
    """The simple name a call site resolves by, if it has one."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def map_args(call: ast.Call, info: FunctionInfo) -> dict[str, ast.expr]:
    """Map a call's arguments onto the callee's parameter names.

    Positional args map in declaration order (``self`` is already bound for
    attribute-style method calls), keywords map by name; ``*args``/``**kw``
    at the call site are skipped — may-analysis never needs them exact.
    """
    mapping: dict[str, ast.expr] = {}
    for position, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            break
        if position < len(info.params):
            mapping[info.params[position]] = arg
    for kw in call.keywords:
        if kw.arg is not None and kw.arg in info.params:
            mapping[kw.arg] = kw.value
    return mapping


class ProjectIndex:
    """Every definition in the scanned tree, plus cross-file lookups.

    Built once per analyzer run over *all* parsed files, then handed to
    each rule through ``FileContext.project``.  ``summaries`` is filled by
    :func:`repro.analysis.pivotlint.summaries.compute_summaries`.
    """

    def __init__(self) -> None:
        self.files: dict[str, ast.Module] = {}
        self.functions: list[FunctionInfo] = []
        self.by_name: dict[str, list[FunctionInfo]] = {}
        self.summaries: dict[str, "FunctionSummary"] = {}

    @classmethod
    def build(
        cls, files: list[tuple[str, ast.Module]], quench: Any = None
    ) -> "ProjectIndex":
        index = cls()
        for relpath, tree in files:
            index.files[relpath] = tree
            for info in _collect_functions(relpath, tree):
                index.functions.append(info)
                index.by_name.setdefault(info.name, []).append(info)
        from repro.analysis.pivotlint.summaries import compute_summaries

        compute_summaries(index, quench=quench)
        return index

    # -- lookups -----------------------------------------------------------

    def resolve_call(self, call: ast.Call) -> list[FunctionInfo]:
        name = callee_name(call)
        if name is None:
            return []
        return [
            info
            for info in self.by_name.get(name, [])
            if not info.nested and _binds(call, info)
        ]

    def summary_of(self, info: FunctionInfo) -> "FunctionSummary | None":
        return self.summaries.get(info.qualkey)

    def summaries_for_call(
        self, call: ast.Call
    ) -> list[tuple[FunctionInfo, "FunctionSummary"]]:
        resolved = []
        for info in self.resolve_call(call):
            summary = self.summary_of(info)
            if summary is not None:
                resolved.append((info, summary))
        return resolved


def _binds(call: ast.Call, info: FunctionInfo) -> bool:
    """Could this call site plausibly bind the candidate's signature?

    Name-based resolution over-approximates wildly without this:
    ``conn.send(x)`` (a pipe) must not resolve to ``endpoint.send(receiver,
    payload, tag)``.  Star-args at the call site bind anything.
    """
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg is None for kw in call.keywords):
        return True
    n_pos = len(call.args)
    named = {kw.arg for kw in call.keywords if kw.arg is not None}
    if not info.has_vararg and n_pos > info.max_pos:
        return False
    if not info.has_kwarg and not named <= set(info.params):
        return False
    if n_pos + len(named) < info.required:
        return False
    return True
