"""Per-function summaries: what a call to this function *does*.

For every :class:`~repro.analysis.pivotlint.callgraph.FunctionInfo` in the
project index, one :class:`FunctionSummary` records the facts a *caller*
needs without re-analyzing the body:

* **taint** — does the return value carry key secrets
  (``returns_secret``), and which parameters flow to the return
  (``taint_params``) or into a wire/log sink (``sink_params``)?  This is
  what lets PL002 catch a ``d_share`` laundered through a helper in
  another module.
* **reads** — which parameters have their *element data* read
  (``reads_params``)?  Passing a guarded feature/label array into such a
  function outside the owner's scope is a PL001 read at the call site.
* **bus effects** — does the body send (``does_send``) or receive
  (``does_receive``)?  PL011's phase walk counts a call to the function
  as those events.

This module also holds the analyzer's one taint engine and one sink
scan.  :class:`LabelEngine` gives every value a label set (each parameter
is its own label, ``~secret`` marks intrinsic sources); :func:`iter_sinks`
yields every value that reaches a return, an f-string, a wire/log call or
a callee's sink parameter, with its labels.  A summary keeps the labels
that are its parameters; PL002 runs the same engine and scan, seeded with
``~secret`` on its secret-named parameters, and reports where
``~secret`` arrives.  Summaries iterate to a fixpoint, so taint chains
through helpers-of-helpers across module boundaries.

Taint quenches on suppression: an inline ``# pivotlint: disable=PL002``
on a return or sink statement certifies the value as protocol-public
(e.g. ``L(c^λ)·µ mod n`` *is* the plaintext), so the summary does not
export it and callers are not flagged.  Bus effects do not quench, and
they are the callee's own primitive calls: one call level.
"""

from __future__ import annotations

import ast
from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.analysis.pivotlint.callgraph import (
    FunctionInfo,
    ProjectIndex,
    map_args,
)
from repro.analysis.pivotlint.dataflow import (
    CONTROL_RECEIVE,
    PROPAGATING_CALLS,
    PUBLIC_ATTRS,
    RECEIVE_CALLS,
    SECRET_ATTRS,
    SECRET_NAMES,
    SEND_CALLS,
    SOURCE_CALLS,
)

#: The label marking intrinsically secret values (vs. parameter labels).
SECRET = "~secret"

#: relpath, rule id, line -> is there a justified suppression covering it?
QuenchFn = Callable[[str, str, int], bool]

#: Call attributes that put their arguments on a wire: the payload sends,
#: a party endpoint's ``send``/``broadcast``, the transport control plane
#: (``request``) and the wire encoder.
WIRE_SINKS = SEND_CALLS | {"send", "broadcast", "serialize", "request"}
LOG_SINKS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical", "log"}
)
#: Calls that materialize array data from a view/array argument (PL001).
MATERIALIZERS = frozenset(
    {"asarray", "array", "ascontiguousarray", "copy", "column_stack", "stack"}
)
#: A control-plane receive still consumes a message.
_RECEIVES = RECEIVE_CALLS | {CONTROL_RECEIVE}

#: :attr:`Sink.where` of a function's return value and of an f-string.
RETURN = "the return value"
FSTRING = "an f-string (log/exception-message sink)"


@dataclass
class FunctionSummary:
    """Caller-visible facts about one function (see module docstring)."""

    qualkey: str
    returns_secret: bool = False
    taint_params: frozenset[str] = frozenset()
    sink_params: dict[str, str] = field(default_factory=dict)
    reads_params: frozenset[str] = frozenset()
    does_send: bool = False
    does_receive: bool = False


def walk_function(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` (breadth-first) pruned at nested function boundaries.

    A nested def's returns/sends belong to the nested function's own
    scan, not to the enclosing one.
    """
    queue: deque[ast.AST] = deque([node])
    while queue:
        current = queue.popleft()
        yield current
        for child in ast.iter_child_nodes(current):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                queue.append(child)


class LabelEngine:
    """Labeled may-taint over one function body — the analyzer's only
    taint engine.

    Values carry *label sets*: :data:`SECRET` for intrinsic sources (key
    secrets by attribute or name, the dealer's prime pair), a parameter's
    name for values derived from that parameter.  Assignments and
    arithmetic propagate, ``pow()`` sanitizes, and calls resolve through
    the project summaries, so taint flows across function and module
    boundaries.  ``labels`` seeds the names bound on entry: the summaries
    label each parameter with itself, PL002 labels its secret-named
    parameters (and an enclosing function's tainted names) :data:`SECRET`.
    """

    def __init__(
        self,
        index: ProjectIndex,
        summaries: dict[str, FunctionSummary],
        labels: dict[str, frozenset[str]],
    ) -> None:
        self.index = index
        self.summaries = summaries
        self.labels = labels
    # -- expression query --------------------------------------------------

    def labels_of(self, node: ast.expr) -> frozenset[str]:
        empty: frozenset[str] = frozenset()
        if isinstance(node, ast.Attribute):
            if node.attr in SECRET_ATTRS:
                return frozenset({SECRET}) | self.labels_of(node.value)
            if node.attr in PUBLIC_ATTRS:
                return empty
            return self.labels_of(node.value)
        if isinstance(node, ast.Name):
            own = frozenset({SECRET}) if node.id in SECRET_NAMES else empty
            return own | self.labels.get(node.id, empty)
        if isinstance(node, (ast.BinOp, ast.UnaryOp)):
            out = empty
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    out |= self.labels_of(child)
            return out
        if isinstance(node, ast.BoolOp):
            out = empty
            for value in node.values:
                out |= self.labels_of(value)
            return out
        if isinstance(node, ast.IfExp):
            return self.labels_of(node.body) | self.labels_of(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = empty
            for elt in node.elts:
                out |= self.labels_of(elt)
            return out
        if isinstance(node, ast.Starred):
            return self.labels_of(node.value)
        if isinstance(node, ast.Subscript):
            return self.labels_of(node.value)
        if isinstance(node, ast.Call):
            return self._labels_of_call(node)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            # What escapes a comprehension is its *elements*: evaluate the
            # element expression with tainted-iterable targets bound.
            # ``[s for s in shares]`` stays secret;
            # ``[s.partial_decrypt(c) for s in shares]`` is protocol-public.
            saved: dict[str, frozenset[str] | None] = {}
            for gen in node.generators:
                iter_labels = self.labels_of(gen.iter)
                if iter_labels:
                    for name in ast.walk(gen.target):
                        if isinstance(name, ast.Name):
                            saved.setdefault(name.id, self.labels.get(name.id))
                            self.labels[name.id] = (
                                self.labels.get(name.id, empty) | iter_labels
                            )
            try:
                return self.labels_of(node.elt)
            finally:
                for name_id, previous in saved.items():
                    if previous is None:
                        self.labels.pop(name_id, None)
                    else:
                        self.labels[name_id] = previous
        return empty  # Compare reveals one bit by design; constants are clean

    def _labels_of_call(self, call: ast.Call) -> frozenset[str]:
        empty: frozenset[str] = frozenset()
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in SOURCE_CALLS:
                return frozenset({SECRET})
            if func.id in PROPAGATING_CALLS:
                out = empty
                for arg in call.args:
                    out |= self.labels_of(arg)
                return out
            if func.id == "pow":
                # modexp output (a ciphertext / decryption share) is
                # protocol-public: sanitize.
                return empty
        elif isinstance(func, ast.Attribute) and func.attr in SOURCE_CALLS:
            return frozenset({SECRET})
        out = empty
        for info in self.index.resolve_call(call):
            summary = self.summaries.get(info.qualkey)
            if summary is None:
                continue
            if summary.returns_secret:
                out |= frozenset({SECRET})
            if summary.taint_params:
                mapping = map_args(call, info)
                for param in summary.taint_params:
                    if param in mapping:
                        out |= self.labels_of(mapping[param])
        return out

    # -- statement-level propagation ----------------------------------------

    def _assign(self, target: ast.expr, labels: frozenset[str]) -> None:
        if isinstance(target, ast.Name):
            if labels:
                self.labels[target.id] = (
                    self.labels.get(target.id, frozenset()) | labels
                )
            else:
                self.labels.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, labels)

    def propagate(self, body: list[ast.stmt]) -> None:
        """Two passes over the statements: loops converge for may-taint."""
        module = ast.Module(body=body, type_ignores=[])
        for _ in range(2):
            for stmt in walk_function(module):
                if isinstance(stmt, ast.Assign):
                    labels = self.labels_of(stmt.value)
                    for target in stmt.targets:
                        self._assign(target, labels)
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    self._assign(stmt.target, self.labels_of(stmt.value))
                elif isinstance(stmt, ast.AugAssign):
                    labels = self.labels_of(stmt.value)
                    if labels:
                        self._assign(stmt.target, labels)
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    labels = self.labels_of(stmt.iter)
                    if labels:
                        self._assign(stmt.target, labels)


# ---------------------------------------------------------------------------
# the sink scan
# ---------------------------------------------------------------------------


class Sink(NamedTuple):
    """One value of a function body that reaches an escape sink."""

    node: ast.expr  #: the value
    where: str  #: what it reaches (``RETURN``, ``FSTRING``, a call sink)
    labels: frozenset[str]  #: its labels
    anchor: ast.AST  #: the return/f-string/call a suppression quenches
    #: the callee that forwards the value to ``where`` (its summary's
    #: ``sink_params``), or None for a sink in this body.
    via: FunctionInfo | None = None


def _call_sink(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr in WIRE_SINKS:
            return f"wire sink `.{func.attr}(...)`"
        if func.attr in LOG_SINKS:
            return f"log sink `.{func.attr}(...)`"
    elif isinstance(func, ast.Name) and func.id in ("print", "repr"):
        return f"{func.id}() sink"
    return None


def iter_sinks(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    engine: LabelEngine,
    skip: str | None = None,
) -> Iterator[Sink]:
    """Every value of ``node``'s body (nested defs excluded) that reaches
    a return, an f-string, a wire/log/``print``/``repr`` call, or a
    callee parameter whose summary forwards it to one.  ``skip`` names a
    callee whose forwarded sinks are not followed (a summary does not
    feed on itself)."""
    for sub in walk_function(node):
        if isinstance(sub, ast.Return) and sub.value is not None:
            yield Sink(sub.value, RETURN, engine.labels_of(sub.value), sub)
        elif isinstance(sub, ast.JoinedStr):
            for value in sub.values:
                if isinstance(value, ast.FormattedValue):
                    labels = engine.labels_of(value.value)
                    yield Sink(value.value, FSTRING, labels, sub)
        elif isinstance(sub, ast.Call):
            where = _call_sink(sub)
            if where is not None:
                for arg in list(sub.args) + [kw.value for kw in sub.keywords]:
                    yield Sink(arg, where, engine.labels_of(arg), sub)
                continue
            for callee in engine.index.resolve_call(sub):
                summary = engine.summaries.get(callee.qualkey)
                if callee.qualkey == skip or not (summary and summary.sink_params):
                    continue
                mapping = map_args(sub, callee)
                for param, forwarded in summary.sink_params.items():
                    arg = mapping.get(param)
                    if arg is not None:
                        labels = engine.labels_of(arg)
                        yield Sink(arg, forwarded, labels, sub, callee)


# ---------------------------------------------------------------------------
# summary computation
# ---------------------------------------------------------------------------


def _summarize(
    info: FunctionInfo,
    index: ProjectIndex,
    summaries: dict[str, FunctionSummary],
    quench: QuenchFn | None,
) -> FunctionSummary:
    def quenched(node: ast.AST) -> bool:
        if quench is None:
            return False
        line = getattr(node, "lineno", 0)
        end = getattr(node, "end_lineno", None) or line
        return any(
            quench(info.relpath, "PL002", lineno)
            for lineno in range(line, end + 1)
        )

    params = frozenset(info.params)
    engine = LabelEngine(
        index, summaries, {p: frozenset({p}) for p in info.params}
    )
    engine.propagate(info.node.body)

    summary = FunctionSummary(qualkey=info.qualkey)
    taint_params: set[str] = set()
    for sink in iter_sinks(info.node, engine, skip=info.qualkey):
        if not sink.labels or quenched(sink.anchor):
            continue
        if sink.where == RETURN:
            summary.returns_secret |= SECRET in sink.labels
            taint_params |= sink.labels & params
        else:
            for param in sink.labels & params:
                summary.sink_params.setdefault(param, sink.where)

    reads: set[str] = set()
    for sub in walk_function(info.node):
        if isinstance(sub, ast.Subscript) and isinstance(sub.ctx, ast.Load):
            reads |= engine.labels_of(sub.value) & params
        elif isinstance(sub, (ast.For, ast.AsyncFor)):
            reads |= engine.labels_of(sub.iter) & params
        elif isinstance(
            sub, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            for gen in sub.generators:
                reads |= engine.labels_of(gen.iter) & params
        elif isinstance(sub, ast.Call):
            _scan_call_effects(sub, info, engine, summary, params, reads)

    summary.taint_params = frozenset(taint_params)
    summary.reads_params = frozenset(reads)
    return summary


def _scan_call_effects(
    call: ast.Call,
    info: FunctionInfo,
    engine: LabelEngine,
    summary: FunctionSummary,
    params: frozenset[str],
    reads: set[str],
) -> None:
    """A call's bus effects and element-data reads, into ``summary``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr in SEND_CALLS:
            summary.does_send = True
        elif func.attr in _RECEIVES:
            summary.does_receive = True
        if func.attr == "read":
            reads |= engine.labels_of(func.value) & params
        if func.attr in MATERIALIZERS and call.args:
            reads |= engine.labels_of(call.args[0]) & params
    # transitive: an argument forwarded into a callee's data read.
    for callee in engine.index.resolve_call(call):
        callee_summary = engine.summaries.get(callee.qualkey)
        if callee_summary is None or callee.qualkey == info.qualkey:
            continue
        if callee_summary.reads_params:
            mapping = map_args(call, callee)
            for callee_param in callee_summary.reads_params:
                arg = mapping.get(callee_param)
                if arg is not None:
                    reads |= engine.labels_of(arg) & params


def compute_summaries(
    index: ProjectIndex, quench: QuenchFn | None = None, max_rounds: int = 4
) -> None:
    """Fill ``index.summaries`` by fixpoint iteration.

    Round 1 sees every function's intraprocedural facts; each further
    round lets taint chain one call deeper.  Privacy-relevant call chains
    in this tree are shallow — ``max_rounds`` bounds the worst case, the
    early break handles the common one.
    """
    index.summaries = {
        info.qualkey: FunctionSummary(qualkey=info.qualkey)
        for info in index.functions
    }
    for _ in range(max_rounds):
        changed = False
        fresh: dict[str, FunctionSummary] = {}
        for info in index.functions:
            summary = _summarize(info, index, index.summaries, quench)
            if summary != index.summaries[info.qualkey]:
                changed = True
            fresh[info.qualkey] = summary
        index.summaries = fresh
        if not changed:
            break
