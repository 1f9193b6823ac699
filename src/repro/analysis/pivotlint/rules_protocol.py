"""Runtime-protocol rules: PL007 and PL008.

PR 7's autonomous party runtime turned several correctness properties
into *distributed liveness* properties — an unbounded socket wait is a
stuck deployment, and a blocking call on the event loop stalls every
peer at once.  These rules prove the invariants at lint time:

======  ======================  ==========================================
PL007   unbounded-wait          ``while True:`` loops around blocking
                                socket/bus receives carry a timeout,
                                deadline, or EOF-exception bound
PL008   blocking-in-event-loop  no ``time.sleep``/sync socket ops/3-arg
                                ``pow`` inside ``async def`` bodies
======  ======================  ==========================================
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.analysis.pivotlint.dataflow import FunctionWalker
from repro.analysis.pivotlint.findings import Finding
from repro.analysis.pivotlint.rules import Rule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.pivotlint.engine import FileContext


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
