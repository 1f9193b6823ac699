"""Runtime-protocol rules: PL006–PL008.

PR 7's autonomous party runtime turned several correctness properties
into *distributed liveness* properties — a typo'd message tag is no
longer a KeyError but a hang, an unbounded socket wait is a stuck
deployment, and a blocking call on the event loop stalls every peer at
once.  These rules prove the invariants at lint time:

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
======  ======================  ==========================================

PL006 is cross-file: producers and consumers are inventoried over the
whole :class:`~repro.analysis.pivotlint.callgraph.ProjectIndex`, and
functions that *forward* a ``tag`` parameter into a send/receive (the
canonical flows) make their call sites count as producers/consumers too.
"""

from __future__ import annotations

import ast
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

#: candidate tag argument positions of the send primitives.
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
        project = ctx.project
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
