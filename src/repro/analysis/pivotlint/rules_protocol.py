"""Runtime-protocol rules: PL006–PL009.

PR 7's autonomous party runtime turned several correctness properties
into *distributed liveness* properties — a typo'd message tag is no
longer a KeyError but a hang, an unbounded socket wait is a stuck
deployment, a blocking call on the event loop stalls every peer at once,
and an ``estimate``/encoder width drift silently corrupts the
communication accounting the paper's Table 6/7 claims rest on.  These
rules prove the invariants at lint time:

======  ======================  ==========================================
PL006   unhandled-protocol-tag  every constant tag/op that reaches a send
                                has a consumer somewhere in the scanned
                                tree, and every tag-filtered receive has a
                                producer
PL007   unbounded-wait          ``while True:`` loops around blocking
                                socket/bus receives carry a timeout,
                                deadline, or EOF-exception bound
PL008   blocking-in-event-loop  no ``time.sleep``/sync socket ops/3-arg
                                ``pow`` inside ``async def`` bodies
PL009   width-parity            each ``estimate`` size formula matches the
                                encoder's actual fixed-width writes,
                                branch by branch
======  ======================  ==========================================

PL006 is cross-file: producers and consumers are inventoried over the
whole :class:`~repro.analysis.pivotlint.callgraph.ProjectIndex`, and
functions that *forward* a ``tag`` parameter into a send/receive (the
canonical flows) make their call sites count as producers/consumers too.
"""

from __future__ import annotations

import ast
import copy
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.pivotlint.callgraph import ProjectIndex, map_args
from repro.analysis.pivotlint.dataflow import FunctionWalker
from repro.analysis.pivotlint.findings import Finding
from repro.analysis.pivotlint.rules import Rule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.pivotlint.engine import FileContext


# ---------------------------------------------------------------------------
# PL006 — unhandled-protocol-tag
# ---------------------------------------------------------------------------

#: candidate tag argument positions of the *payload-routing* send
#: primitives.  The byte-accounting primitives (``bus.send`` /
#: ``bus.broadcast``) are deliberately absent: their tag is a bandwidth
#: bookkeeping label on a message that never enters an inbox, so it has
#: no consumer to demand.
_SEND_TAG_POS: dict[str, tuple[int, ...]] = {
    "send_payload": (3,),
    "broadcast_payload": (2,),
    "send_control": (3,),
}
#: candidate tag positions of the receive-side primitives —
#: ``party.receive(tag)`` has it at 0, ``bus.receive(party, tag)`` at 1.
_RECEIVE_TAG_POS: dict[str, tuple[int, ...]] = {
    "receive": (0, 1),
    "receive_any": (1,),
    "receive_tagged": (),
    "receive_control": (),
}
#: names whose value is "the tag under inspection" in comparisons.
_TAGGISH = frozenset({"tag", "op"})


def _constant_tag(
    call: ast.Call, positions: dict[str, tuple[int, ...]]
) -> str | None:
    """The constant tag argument of a primitive call, if any."""
    func = call.func
    attr = func.attr if isinstance(func, ast.Attribute) else None
    if attr not in positions:
        return None
    for kw in call.keywords:
        if kw.arg == "tag" and isinstance(kw.value, ast.Constant):
            if isinstance(kw.value.value, str):
                return kw.value.value
    for pos in positions[attr]:
        if len(call.args) > pos:
            arg = call.args[pos]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                return arg.value
    return None


def _forwarded_constant_tag(
    call: ast.Call, project: ProjectIndex, direction: str
) -> str | None:
    """Constant tag at a call to a flow that forwards its ``tag`` param."""
    for info, summary in project.summaries_for_call(call):
        forwards = (
            summary.forwards_tag_to_send
            if direction == "send"
            else summary.forwards_tag_to_receive
        )
        if not forwards:
            continue
        arg = map_args(call, info).get("tag")
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    return None


def _is_taggish(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _TAGGISH
    if isinstance(node, ast.Attribute):
        return node.attr in _TAGGISH
    return False


@dataclass
class TagInventory:
    """Global producer/consumer tables for the protocol tag/op namespace."""

    #: envelope tags put on the bus by the payload send primitives.
    produced_tags: set[str] = field(default_factory=set)
    #: ``Request(op, ...)`` dispatch keys constructed anywhere.
    produced_ops: set[str] = field(default_factory=set)
    consumed: set[str] = field(default_factory=set)
    consumed_prefixes: set[str] = field(default_factory=set)
    #: a tag-agnostic event-loop pump (``receive_tagged`` /
    #: ``receive_control``) exists somewhere — it pops *any* envelope tag,
    #: so unmatched tags cannot strand a message in an inbox.
    has_pump: bool = False

    def is_consumed(self, tag: str) -> bool:
        return tag in self.consumed or any(
            tag.startswith(prefix) for prefix in self.consumed_prefixes
        )

    def is_produced(self, tag: str) -> bool:
        return tag in self.produced_tags or tag in self.produced_ops


def _build_inventory(project: ProjectIndex) -> TagInventory:
    inventory = TagInventory()
    for tree in project.files.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_op_"):
                    inventory.consumed.add(node.name[4:].replace("_", "-"))
            elif isinstance(node, ast.Call):
                tag = _constant_tag(node, _SEND_TAG_POS)
                if tag:
                    inventory.produced_tags.add(tag)
                tag = _constant_tag(node, _RECEIVE_TAG_POS)
                if tag:
                    inventory.consumed.add(tag)
                tag = _forwarded_constant_tag(node, project, "send")
                if tag:
                    inventory.produced_tags.add(tag)
                tag = _forwarded_constant_tag(node, project, "receive")
                if tag:
                    inventory.consumed.add(tag)
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in (
                    "receive_tagged",
                    "receive_control",
                ):
                    inventory.has_pump = True
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "startswith"
                    and _is_taggish(func.value)
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    inventory.consumed_prefixes.add(node.args[0].value)
                name = (
                    func.id
                    if isinstance(func, ast.Name)
                    else getattr(func, "attr", "")
                )
                if name == "Request" and node.args:
                    first = node.args[0]
                    if isinstance(first, ast.Constant) and isinstance(
                        first.value, str
                    ):
                        inventory.produced_ops.add(first.value)
            elif isinstance(node, ast.Compare) and len(node.ops) == 1:
                left, op, right = node.left, node.ops[0], node.comparators[0]
                if isinstance(op, (ast.Eq, ast.NotEq)):
                    pairs = ((left, right), (right, left))
                    for taggish, const in pairs:
                        if (
                            _is_taggish(taggish)
                            and isinstance(const, ast.Constant)
                            and isinstance(const.value, str)
                        ):
                            inventory.consumed.add(const.value)
                elif isinstance(op, (ast.In, ast.NotIn)) and _is_taggish(left):
                    if isinstance(right, (ast.Tuple, ast.List, ast.Set)):
                        for elt in right.elts:
                            if isinstance(elt, ast.Constant) and isinstance(
                                elt.value, str
                            ):
                                inventory.consumed.add(elt.value)
                    elif isinstance(right, ast.Name):
                        inventory.consumed.update(
                            project.string_constants.get(right.id, ())
                        )
    return inventory


@register
class UnhandledProtocolTag(Rule):
    """PL006: a constant tag sent (or awaited) with no counterpart."""

    rule_id = "PL006"
    name = "unhandled-protocol-tag"
    summary = (
        "A constant message tag / request op reaching a send has no "
        "consumer anywhere in the scanned tree (receive(tag=...), a "
        "tag/op comparison or membership test, a `_op_*` handler, or a "
        "flow that forwards its tag into a receive) — or a tag-filtered "
        "receive waits on a tag nothing sends.  Over the autonomous "
        "runtime a typo'd tag is not an error, it is a distributed hang."
    )
    hint = (
        "match the tag with its consumer (receive(tag=...), the runtime "
        "dispatch table, or DECRYPT_TAGS/CONTROL_OPS membership); check "
        "for typos — producer and consumer must use one spelling"
    )

    def check(self, ctx: "FileContext") -> list[Finding]:
        project = getattr(ctx, "project", None)
        if project is None:
            return []
        inventory = project.cache.get("pl006")
        if inventory is None:
            inventory = _build_inventory(project)
            project.cache["pl006"] = inventory
        findings: list[Finding] = []
        rule = self

        class Visitor(FunctionWalker):
            def visit_Call(self, node: ast.Call) -> None:
                produced = _constant_tag(node, _SEND_TAG_POS)
                if produced is None:
                    produced = _forwarded_constant_tag(node, project, "send")
                # An envelope tag only strands a message when no
                # tag-agnostic pump exists to pop it.
                if (
                    produced
                    and not inventory.has_pump
                    and not inventory.is_consumed(produced)
                ):
                    findings.append(
                        rule.finding(
                            ctx,
                            node,
                            f"protocol tag {produced!r} is sent but nothing "
                            f"in the scanned tree consumes it",
                            self.qualname,
                        )
                    )
                func = node.func
                name = (
                    func.id
                    if isinstance(func, ast.Name)
                    else getattr(func, "attr", "")
                )
                # Request ops are *dispatch keys*: a pump still needs a
                # matching handler, so these are checked unconditionally.
                if name == "Request" and node.args:
                    first = node.args[0]
                    if (
                        isinstance(first, ast.Constant)
                        and isinstance(first.value, str)
                        and first.value
                        and not inventory.is_consumed(first.value)
                    ):
                        findings.append(
                            rule.finding(
                                ctx,
                                node,
                                f"request op {first.value!r} has no handler "
                                f"(`_op_*` method or op comparison) in the "
                                f"scanned tree",
                                self.qualname,
                            )
                        )
                consumed = _constant_tag(node, _RECEIVE_TAG_POS)
                if consumed is None and produced is None:
                    consumed = _forwarded_constant_tag(node, project, "receive")
                if consumed and not inventory.is_produced(consumed):
                    findings.append(
                        rule.finding(
                            ctx,
                            node,
                            f"receive waits on protocol tag {consumed!r} "
                            f"that nothing in the scanned tree sends",
                            self.qualname,
                        )
                    )
                self.generic_visit(node)

        Visitor().visit(ctx.tree)
        return findings


# ---------------------------------------------------------------------------
# PL007 — unbounded-wait
# ---------------------------------------------------------------------------

#: calls that block on a socket / inbox until data arrives.
_BLOCKING_CALLS = frozenset(
    {
        "readexactly",
        "readuntil",
        "recv",
        "recv_into",
        "accept",
        "open_connection",
        "receive",
        "receive_any",
        "receive_tagged",
        "receive_control",
        "wait_pending",
    }
)
#: identifier substrings that evidence a bound on the wait.
_BOUND_MARKERS = ("timeout", "deadline", "max_idle", "attempt", "retries", "budget")
#: exceptions whose handler bounds a reader pump (EOF/cancel ends the loop).
_EOF_EXCEPTIONS = frozenset(
    {
        "IncompleteReadError",
        "ConnectionResetError",
        "ConnectionError",
        "BrokenPipeError",
        "CancelledError",
        "TimeoutError",
        "OSError",
        "EOFError",
    }
)


def _exception_names(handler: ast.ExceptHandler) -> set[str]:
    node = handler.type
    names: set[str] = set()
    if node is None:
        names.add("BaseException")  # bare except bounds anything
        return names
    nodes = node.elts if isinstance(node, ast.Tuple) else [node]
    for item in nodes:
        if isinstance(item, ast.Name):
            names.add(item.id)
        elif isinstance(item, ast.Attribute):
            names.add(item.attr)
    return names


@register
class UnboundedWait(Rule):
    """PL007: a ``while True:`` recv loop with no timeout/deadline bound."""

    rule_id = "PL007"
    name = "unbounded-wait"
    summary = (
        "A `while True:` loop blocks on a socket/inbox receive "
        "(readexactly, recv, accept, receive*, wait_pending) with no "
        "visible bound: no timeout/deadline/max_idle identifier, no "
        "asyncio.wait_for, and no enclosing handler for the EOF/reset "
        "exceptions that end a reader pump — a stalled peer hangs the "
        "process forever."
    )
    hint = (
        "compute a deadline before the loop and pass/check it each "
        "iteration (see SocketTransport._connect), wrap the wait in "
        "asyncio.wait_for, or catch the transport's EOF exceptions so a "
        "dead peer ends the loop"
    )

    def check(self, ctx: "FileContext") -> list[Finding]:
        rule = self
        findings: list[Finding] = []
        parents = ctx.parents()

        def is_bounded(loop: ast.While) -> bool:
            for sub in ast.walk(loop):
                if isinstance(sub, ast.Name):
                    lowered = sub.id.lower()
                    if any(marker in lowered for marker in _BOUND_MARKERS):
                        return True
                elif isinstance(sub, ast.Attribute):
                    lowered = sub.attr.lower()
                    if any(marker in lowered for marker in _BOUND_MARKERS):
                        return True
                elif isinstance(sub, ast.Call):
                    func = sub.func
                    if isinstance(func, ast.Attribute) and func.attr == "wait_for":
                        return True
                elif isinstance(sub, ast.ExceptHandler):
                    if _exception_names(sub) & (
                        _EOF_EXCEPTIONS | {"BaseException", "Exception"}
                    ):
                        return True
            current: ast.AST = loop
            while current in parents:
                current = parents[current]
                if isinstance(current, ast.Try):
                    for handler in current.handlers:
                        if _exception_names(handler) & (
                            _EOF_EXCEPTIONS | {"BaseException", "Exception"}
                        ):
                            return True
                if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    break
            return False

        class Visitor(FunctionWalker):
            def visit_While(self, node: ast.While) -> None:
                test_is_true = (
                    isinstance(node.test, ast.Constant) and node.test.value in (True, 1)
                )
                if test_is_true:
                    blocking = None
                    for sub in ast.walk(node):
                        if (
                            isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)
                            and sub.func.attr in _BLOCKING_CALLS
                        ):
                            blocking = sub
                            break
                    if blocking is not None and not is_bounded(node):
                        findings.append(
                            rule.finding(
                                ctx,
                                blocking,
                                f"blocking `.{blocking.func.attr}(...)` inside "
                                f"`while True:` with no timeout, deadline, or "
                                f"EOF-exception bound",
                                self.qualname,
                            )
                        )
                self.generic_visit(node)

        Visitor().visit(ctx.tree)
        return findings


# ---------------------------------------------------------------------------
# PL008 — blocking-in-event-loop
# ---------------------------------------------------------------------------

#: synchronous socket operations that stall an event loop.
_SYNC_SOCKET_OPS = frozenset({"recv", "recv_into", "accept", "sendall", "makefile"})


@register
class BlockingInEventLoop(Rule):
    """PL008: a blocking call inside an ``async def`` body."""

    rule_id = "PL008"
    name = "blocking-in-event-loop"
    summary = (
        "Inside an `async def` running on a transport event loop: "
        "time.sleep(...), a synchronous socket operation "
        "(recv/accept/sendall/...) that is not awaited, or a 3-argument "
        "pow(...) (modular exponentiation, the protocol's dominant CPU "
        "cost) — any of these freezes every connection the loop serves."
    )
    hint = (
        "use `await asyncio.sleep(...)`, asyncio stream/loop primitives "
        "for socket I/O, and push modexp-heavy work into "
        "run_in_executor/worker processes off the event loop"
    )

    def check(self, ctx: "FileContext") -> list[Finding]:
        rule = self
        findings: list[Finding] = []
        parents = ctx.parents()

        def scan_async(node: ast.AsyncFunctionDef, qualname: str) -> None:
            stack: list[ast.AST] = [node]
            while stack:
                current = stack.pop()
                for child in ast.iter_child_nodes(current):
                    if isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue  # nested defs are their own scope
                    stack.append(child)
                if not isinstance(current, ast.Call):
                    continue
                if isinstance(parents.get(current), ast.Await):
                    continue
                func = current.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "sleep"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "time"
                ):
                    findings.append(
                        rule.finding(
                            ctx,
                            current,
                            "time.sleep(...) on the event loop blocks every "
                            "connection this loop serves",
                            qualname,
                        )
                    )
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr in _SYNC_SOCKET_OPS
                ):
                    findings.append(
                        rule.finding(
                            ctx,
                            current,
                            f"synchronous socket op `.{func.attr}(...)` "
                            f"(not awaited) inside an async def",
                            qualname,
                        )
                    )
                elif (
                    isinstance(func, ast.Name)
                    and func.id == "pow"
                    and len(current.args) == 3
                ):
                    findings.append(
                        rule.finding(
                            ctx,
                            current,
                            "3-argument pow(...) (modular exponentiation) on "
                            "the event loop — push crypto work off-loop",
                            qualname,
                        )
                    )

        class Visitor(FunctionWalker):
            def handle_function(self, node) -> None:
                if isinstance(node, ast.AsyncFunctionDef):
                    scan_async(node, self.qualname)

        Visitor().visit(ctx.tree)
        return findings


# ---------------------------------------------------------------------------
# PL009 — width-parity
# ---------------------------------------------------------------------------


def _isinstance_types(test: ast.expr) -> tuple[str, ...] | None:
    if not (
        isinstance(test, ast.Call)
        and isinstance(test.func, ast.Name)
        and test.func.id == "isinstance"
        and len(test.args) == 2
    ):
        return None
    spec = test.args[1]
    nodes = spec.elts if isinstance(spec, ast.Tuple) else [spec]
    names = []
    for node in nodes:
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        else:
            return None
    return tuple(sorted(names))


def _resolve(node: ast.expr, env: dict[str, ast.expr], loopvars: frozenset[str]) -> ast.expr:
    """Substitute branch-local assignments and normalize loop variables."""

    class Substitute(ast.NodeTransformer):
        def visit_Name(self, name: ast.Name) -> ast.expr:
            if name.id in loopvars:
                return ast.Name(id="_ITEM_", ctx=ast.Load())
            if name.id in env:
                return copy.deepcopy(env[name.id])
            return name

    return Substitute().visit(copy.deepcopy(node))


def _fp(node: ast.expr) -> str:
    return ast.dump(node, annotate_fields=False)


def _merge(terms: dict[str, int], key: str, count: int = 1) -> None:
    terms[key] = terms.get(key, 0) + count


def _module_int_constants(tree: ast.Module) -> dict[str, int]:
    consts: dict[str, int] = {}
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, int)
            and not isinstance(stmt.value.value, bool)
        ):
            consts[stmt.targets[0].id] = stmt.value.value
    return consts


def _const_of(node: ast.expr, consts: dict[str, int]) -> int | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if isinstance(node, ast.Name):
        return consts.get(node.id)
    return None


def _estimate_addend(
    node: ast.expr,
    env: dict[str, ast.expr],
    consts: dict[str, int],
    terms: dict[str, int],
    loopvars: frozenset[str] = frozenset(),
) -> None:
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        _estimate_addend(node.left, env, consts, terms, loopvars)
        _estimate_addend(node.right, env, consts, terms, loopvars)
        return
    value = _const_of(node, consts)
    if value is not None:
        _merge(terms, "#const", value)
        return
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        for count_side, width_side in ((node.left, node.right), (node.right, node.left)):
            if (
                isinstance(count_side, ast.Call)
                and isinstance(count_side.func, ast.Name)
                and count_side.func.id == "len"
                and count_side.args
            ):
                iter_fp = _fp(_resolve(count_side.args[0], env, loopvars))
                inner: dict[str, int] = {}
                _estimate_addend(width_side, env, consts, inner, loopvars)
                for key, count in inner.items():
                    _merge(terms, f"per:{iter_fp}:{key}", count)
                return
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "len" and node.args:
            _merge(terms, f"len:{_fp(_resolve(node.args[0], env, loopvars))}")
            return
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "estimate"
            and node.args
        ):
            _merge(terms, f"size:{_fp(_resolve(node.args[0], env, loopvars))}")
            return
        if (
            isinstance(func, ast.Name)
            and func.id == "sum"
            and node.args
            and isinstance(node.args[0], ast.GeneratorExp)
            and len(node.args[0].generators) == 1
        ):
            gen = node.args[0].generators[0]
            target = gen.target
            loop_names = {
                n.id for n in ast.walk(target) if isinstance(n, ast.Name)
            }
            iter_fp = _fp(_resolve(gen.iter, env, loopvars))
            inner = {}
            _estimate_addend(
                node.args[0].elt, env, consts, inner, loopvars | loop_names
            )
            for key, count in inner.items():
                _merge(terms, f"per:{iter_fp}:{key}", count)
            return
    _merge(terms, f"expr:{_fp(_resolve(node, env, loopvars))}")


def _writer_value_term(
    node: ast.expr,
    env: dict[str, ast.expr],
    consts: dict[str, int],
    terms: dict[str, int],
    loopvars: frozenset[str],
) -> None:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        attr = node.func.attr
        if attr == "to_bytes" and node.args:
            width = _resolve(node.args[0], env, loopvars)
            value = _const_of(width, consts)
            if value is not None:
                _merge(terms, "#const", value)
            else:
                _merge(terms, f"expr:{_fp(width)}")
            return
        if attr == "_big" and len(node.args) >= 2:
            width = _resolve(node.args[1], env, loopvars)
            value = _const_of(width, consts)
            if value is not None:
                _merge(terms, "#const", value)
            else:
                _merge(terms, f"expr:{_fp(width)}")
            return
        if attr == "pack" and node.args:
            fmt = node.args[0]
            if isinstance(fmt, ast.Constant) and isinstance(fmt.value, str):
                _merge(terms, "#const", struct.calcsize(fmt.value))
                return
    _merge(terms, f"len:{_fp(_resolve(node, env, loopvars))}")


def _scan_writer_stmts(
    body: list[ast.stmt],
    env: dict[str, ast.expr],
    consts: dict[str, int],
    terms: dict[str, int],
    loopvars: frozenset[str],
) -> bool:
    """Collect emitted-byte terms; returns True if the branch only raises."""
    raised = False
    for stmt in body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                env[target.id] = _resolve(stmt.value, env, loopvars)
        elif isinstance(stmt, ast.Raise):
            raised = True
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            func = call.func
            if isinstance(func, ast.Attribute):
                if func.attr == "append":
                    _merge(terms, "#const", 1)
                elif func.attr == "_write" and len(call.args) >= 2:
                    _merge(
                        terms,
                        f"size:{_fp(_resolve(call.args[1], env, loopvars))}",
                    )
        elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.op, ast.Add):
            _writer_value_term(stmt.value, env, consts, terms, loopvars)
        elif isinstance(stmt, ast.For):
            loop_names = {
                n.id for n in ast.walk(stmt.target) if isinstance(n, ast.Name)
            }
            iter_fp = _fp(_resolve(stmt.iter, env, loopvars))
            inner: dict[str, int] = {}
            _scan_writer_stmts(
                stmt.body, env, consts, inner, loopvars | loop_names
            )
            for key, count in inner.items():
                _merge(terms, f"per:{iter_fp}:{key}", count)
        elif isinstance(stmt, ast.If):
            body_raises_only = all(isinstance(s, ast.Raise) for s in stmt.body)
            if not body_raises_only:
                _scan_writer_stmts(stmt.body, env, consts, terms, loopvars)
            _scan_writer_stmts(stmt.orelse, env, consts, terms, loopvars)
    return raised and not terms


def _branches(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[tuple[tuple[str, ...], list[ast.stmt]]]:
    """``isinstance``-dispatched branches, in order, if/elif or if/return."""
    out: list[tuple[tuple[str, ...], list[ast.stmt]]] = []

    def walk(body: list[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.If):
                types = _isinstance_types(stmt.test)
                if types is not None:
                    out.append((types, stmt.body))
                    walk(stmt.orelse)
                else:
                    walk(stmt.body)
                    walk(stmt.orelse)

    walk(func.body)
    return out


def _estimate_terms(
    body: list[ast.stmt], consts: dict[str, int]
) -> dict[str, int] | None:
    env: dict[str, ast.expr] = {}
    for stmt in body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                env[target.id] = _resolve(stmt.value, env, frozenset())
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            terms: dict[str, int] = {}
            _estimate_addend(stmt.value, env, consts, terms)
            return terms
        elif isinstance(stmt, ast.Raise):
            return None
    return None


def _writer_terms(
    body: list[ast.stmt], consts: dict[str, int]
) -> dict[str, int] | None:
    terms: dict[str, int] = {}
    raises_only = _scan_writer_stmts(body, {}, consts, terms, frozenset())
    if raises_only:
        return None
    return terms


def _describe(terms: dict[str, int]) -> str:
    const = terms.get("#const", 0)
    symbolic = sorted(k for k in terms if k != "#const")
    parts = [f"{const} fixed bytes"]
    for key in symbolic:
        kind = key.split(":", 1)[0]
        count = terms[key]
        parts.append(f"{count}x {kind} term" if count != 1 else f"1 {kind} term")
    return " + ".join(parts)


@register
class WidthParity(Rule):
    """PL009: an ``estimate`` size formula that drifts from the encoder."""

    rule_id = "PL009"
    name = "width-parity"
    summary = (
        "In a codec class defining both `estimate` and `_write`: a "
        "payload-type branch whose estimated size (framing constants, "
        "fixed widths, per-element terms) does not match the bytes the "
        "encoder actually emits, or a type present in only one of the "
        "two — `bytes_measured == bytes_estimated` must hold for every "
        "wire type, not just the tested ones."
    )
    hint = (
        "keep the estimate arithmetic next to the writer branch and "
        "change both together; every append() is one byte, every "
        "to_bytes(W)/_big(v, W) is W bytes, every recursive _write is "
        "one estimate(...) term"
    )

    def check(self, ctx: "FileContext") -> list[Finding]:
        rule = self
        findings: list[Finding] = []
        consts = _module_int_constants(ctx.tree)

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                m.name: m
                for m in node.body
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            estimate = methods.get("estimate")
            writer = methods.get("_write")
            if estimate is None or writer is None:
                continue
            estimated: dict[tuple[str, ...], dict[str, int] | None] = {}
            for types, body in _branches(estimate):
                estimated[types] = _estimate_terms(body, consts)
            written: dict[tuple[str, ...], dict[str, int] | None] = {}
            for types, body in _branches(writer):
                written[types] = _writer_terms(body, consts)
            qualname = f"{node.name}"
            for types in sorted(set(estimated) | set(written)):
                e_terms = estimated.get(types)
                w_terms = written.get(types)
                label = "/".join(types)
                if e_terms is None and w_terms is None:
                    continue  # both branches raise (e.g. bool): consistent
                if e_terms is None or types not in estimated:
                    findings.append(
                        rule.finding(
                            ctx,
                            writer,
                            f"`_write` encodes `{label}` but `estimate` has "
                            f"no size formula for it",
                            f"{qualname}._write",
                        )
                    )
                    continue
                if w_terms is None or types not in written:
                    findings.append(
                        rule.finding(
                            ctx,
                            estimate,
                            f"`estimate` sizes `{label}` but `_write` has no "
                            f"encoder branch for it",
                            f"{qualname}.estimate",
                        )
                    )
                    continue
                if e_terms != w_terms:
                    findings.append(
                        rule.finding(
                            ctx,
                            estimate,
                            f"width mismatch for `{label}`: estimate says "
                            f"{_describe(e_terms)}, encoder emits "
                            f"{_describe(w_terms)}",
                            f"{qualname}.estimate",
                        )
                    )
        return findings
