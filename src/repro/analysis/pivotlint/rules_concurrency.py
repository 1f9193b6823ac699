"""The concurrency/choreography rule pack: PL010–PL013.

PL006/PL007 catch orphan tags and unbounded waits; since the runtime went
multi-process (PR 7/8) those are not the dangerous bugs anymore — a
re-ordered flow or a racy transport attribute is a distributed hang or a
heisenbug across OS processes.  This pack checks the remaining static
story:

* **PL010 choreography-deadlock** — on the composed order of a complete
  flow (one that owns its round barrier), a blocking receive whose
  matching send is ordered after it can never be satisfied: every role is
  parked at the receive and the unblocking send is unreachable.
* **PL011 round-parity** — the round constants charged to
  ``snapshot()["rounds"]`` (``bus.round(K)``) must equal the send-phase
  count the flow automaton derives for the path reaching the barrier —
  the rounds analogue of PL009's width-parity.
* **PL012 cross-thread-shared-state** — in classes that run an event loop
  on a background thread (the socket transport), attributes mutated on
  one thread and touched on the other must be accessed under the class's
  lock/condition on every path; ``await`` while holding such a lock is
  flagged too (it parks the event loop with the caller thread locked
  out).
* **PL013 exception-safe-drain** — PL005 with exceptional edges: a
  ``raise`` reachable between a bus send and its barrier abandons
  in-flight messages in peer inboxes unless an enclosing ``try`` restores
  the drained invariant (a handler or ``finally`` containing a
  ``drain``/``round``/``assert_drained``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.pivotlint.choreography import extract_flow
from repro.analysis.pivotlint.dataflow import FunctionWalker
from repro.analysis.pivotlint.findings import Finding
from repro.analysis.pivotlint.rules import Rule, register
from repro.analysis.pivotlint.rules_protocol import _module_int_constants

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Callable

    from repro.analysis.pivotlint.engine import FileContext

_SEND_CALLS = frozenset({"send_payload", "broadcast_payload"})
_BARRIER_CALLS = frozenset({"round", "assert_drained", "drain"})


def _make_classifier(
    ctx: "FileContext",
) -> "Callable[[ast.Call], str | None]":
    """PL005's project-aware send/barrier classifier (shared by PL013)."""
    project = getattr(ctx, "project", None)

    def classify(call: ast.Call) -> str | None:
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr in _SEND_CALLS:
                return "send"
            if func.attr in _BARRIER_CALLS:
                return "barrier"
        if project is not None:
            kind = None
            for _info, summary in project.summaries_for_call(call):
                if summary.open_send:
                    return "send"
                if summary.has_barrier:
                    kind = "barrier"
            return kind
        return None

    return classify


# ---------------------------------------------------------------------------
# PL010 — choreography-deadlock
# ---------------------------------------------------------------------------


@register
class ChoreographyDeadlock(Rule):
    """PL010: a blocking receive ordered before its matching send."""

    rule_id = "PL010"
    name = "choreography-deadlock"
    summary = (
        "In a complete flow (a function owning its round()/assert_drained()"
        "/drain() barrier), the first blocking receive of a tag precedes "
        "every send of that tag on the composed event order.  Every role "
        "is parked at the receive and the send that would satisfy it is "
        "unreachable — over the multi-process runtime this is a "
        "distributed hang, not a stack trace.  Barrier-less helpers "
        "(reactive handlers, request primitives) see only their own "
        "role's projection, where receive-before-send is the normal "
        "responder shape; they are out of scope by construction."
    )
    hint = (
        "send before you receive: the composed flow must order every "
        "tag's producing send ahead of its first blocking receive "
        "(compare repro/network/flows.py record_threshold_decrypt)"
    )

    def check(self, ctx: "FileContext") -> list[Finding]:
        rule = self
        findings: list[Finding] = []
        consts = _module_int_constants(ctx.tree)
        project = getattr(ctx, "project", None)

        class Visitor(FunctionWalker):
            def handle_function(self, node) -> None:  # type: ignore[no-untyped-def]
                automaton = extract_flow(node, self.qualname, project, consts)
                if not automaton.has_barrier:
                    return
                for receive, send in automaton.order_inversions():
                    tag = receive.tag or "?"
                    findings.append(
                        rule.finding(
                            ctx,
                            receive.node,
                            f"role {receive.role!r} blocks receiving tag "
                            f"{tag!r} before any send of that tag: the "
                            f"matching send (role {send.role!r}, line "
                            f"{send.node.lineno}) is ordered after the "
                            f"receive on every composed path",
                            self.qualname,
                        )
                    )

        Visitor().visit(ctx.tree)
        return findings


# ---------------------------------------------------------------------------
# PL011 — round-parity
# ---------------------------------------------------------------------------


@register
class RoundParity(Rule):
    """PL011: a pinned round constant disagrees with the flow automaton."""

    rule_id = "PL011"
    name = "round-parity"
    summary = (
        "A flow charges bus.round(K) with a static constant K, but the "
        "flow automaton derives a different send-phase count for every "
        "path reaching that barrier (a send-phase is a maximal run of "
        "payload sends not separated by a receive or barrier — exactly "
        "what one synchronisation round delivers).  The runtime's "
        "snapshot()[\"rounds\"] accounting would then disagree with the "
        "choreography that actually ran.  Dynamic counts "
        "(bus.round(result.rounds)) are not pinnable and are skipped."
    )
    hint = (
        "recount the flow's phases: one round per send-phase between "
        "barriers; update the constant or restructure the flow "
        "(rounds analogue of PL009's width-parity)"
    )

    def check(self, ctx: "FileContext") -> list[Finding]:
        rule = self
        findings: list[Finding] = []
        consts = _module_int_constants(ctx.tree)
        project = getattr(ctx, "project", None)

        class Visitor(FunctionWalker):
            def handle_function(self, node) -> None:  # type: ignore[no-untyped-def]
                automaton = extract_flow(node, self.qualname, project, consts)
                for barrier, pinned, counts in automaton.pinned:
                    if not counts or max(counts) == 0:
                        # No payload send feeds this barrier (estimate-API
                        # accounting, bare sync points): nothing to pin.
                        continue
                    if pinned in counts:
                        continue
                    derived = "/".join(str(c) for c in sorted(counts))
                    findings.append(
                        rule.finding(
                            ctx,
                            barrier.node,
                            f"bus.round({pinned}) disagrees with the flow "
                            f"automaton: the paths reaching this barrier "
                            f"complete {derived} send-phase(s), so the "
                            f"rounds accounting drifts from the "
                            f"choreography",
                            self.qualname,
                        )
                    )

        Visitor().visit(ctx.tree)
        return findings


# ---------------------------------------------------------------------------
# PL012 — cross-thread-shared-state
# ---------------------------------------------------------------------------

_LOCK_FACTORIES = frozenset({"Condition", "Lock", "RLock"})
_THREAD_FACTORIES = frozenset({"Thread"})
#: Methods exempt from lock discipline: construction happens before the
#: background thread can observe the object; finalization after.
_EXEMPT_METHODS = frozenset({"__init__", "__del__"})
#: Container-mutating method names: ``self.attr.append(...)`` counts as a
#: write to ``attr`` even though the attribute itself is only loaded.
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "extend",
        "insert",
        "pop",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)


def _call_factory_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@dataclass
class _Access:
    """One touch of ``self.<attr>`` inside a method body."""

    attr: str
    node: ast.Attribute
    mutates: bool
    locked: bool


@dataclass
class _MethodFacts:
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    accesses: list[_Access] = field(default_factory=list)
    #: ``self.M(...)`` calls made by this method: (callee name, call
    #: node, was the call site under the lock?)
    calls: list[tuple[str, ast.Call, bool]] = field(default_factory=list)
    #: ``await`` expressions evaluated while holding the lock.
    locked_awaits: list[ast.Await] = field(default_factory=list)
    #: self-method calls that happen in async context (event-loop side).
    async_calls: set[str] = field(default_factory=set)


def _is_self_attr(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


class _MethodScanner:
    """Walk one method body tracking lock state and async context."""

    def __init__(self, lock_attrs: frozenset[str]):
        self.lock_attrs = lock_attrs

    def scan(
        self, method: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> _MethodFacts:
        facts = _MethodFacts(name=method.name, node=method)
        in_async = isinstance(method, ast.AsyncFunctionDef)
        for stmt in method.body:
            self._walk(stmt, facts, locked=False, in_async=in_async)
        return facts

    def _is_lock_item(self, expr: ast.expr) -> bool:
        return _is_self_attr(expr) and expr.attr in self.lock_attrs  # type: ignore[union-attr]

    def _walk(
        self, node: ast.AST, facts: _MethodFacts, locked: bool, in_async: bool
    ) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            entered = locked
            for item in node.items:
                self._walk(item.context_expr, facts, locked, in_async)
                entered = entered or self._is_lock_item(item.context_expr)
            for stmt in node.body:
                self._walk(stmt, facts, entered, in_async)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs (handlers, watchers) inherit their lexical lock
            # position; an async nested def runs on the event loop.
            nested_async = in_async or isinstance(node, ast.AsyncFunctionDef)
            for stmt in node.body:
                self._walk(stmt, facts, locked, nested_async)
            return
        if isinstance(node, ast.Lambda):
            self._walk(node.body, facts, locked, in_async)
            return
        if isinstance(node, ast.Await):
            if locked:
                facts.locked_awaits.append(node)
            self._walk(node.value, facts, locked, in_async)
            return
        if isinstance(node, ast.Call):
            func = node.func
            if _is_self_attr(func):
                callee = func.attr  # type: ignore[union-attr]
                facts.calls.append((callee, node, locked))
                if in_async:
                    facts.async_calls.add(callee)
            for child in ast.iter_child_nodes(node):
                self._walk(child, facts, locked, in_async)
            return
        if isinstance(node, ast.Attribute) and _is_self_attr(node):
            if node.attr not in self.lock_attrs:
                facts.accesses.append(
                    _Access(
                        attr=node.attr,
                        node=node,
                        mutates=isinstance(node.ctx, (ast.Store, ast.Del)),
                        locked=locked,
                    )
                )
            self._walk(node.value, facts, locked, in_async)
            return
        if isinstance(node, ast.Subscript) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            # ``self.attr[key] = v`` / ``del self.attr[key]`` mutate attr.
            if _is_self_attr(node.value):
                facts.accesses.append(
                    _Access(
                        attr=node.value.attr,  # type: ignore[union-attr]
                        node=node.value,  # type: ignore[arg-type]
                        mutates=True,
                        locked=locked,
                    )
                )
                self._walk(node.slice, facts, locked, in_async)
                return
        for child in ast.iter_child_nodes(node):
            self._walk(child, facts, locked, in_async)


def _method_call_mutators(facts: _MethodFacts) -> None:
    """Upgrade ``self.attr.append(...)``-style accesses to mutations.

    A container-mutator call shows up as a Load of the attribute under a
    ``self.attr.<mutator>(...)`` call; re-walk to mark those accesses.
    """
    for node in ast.walk(facts.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATORS
            and _is_self_attr(func.value)
        ):
            for access in facts.accesses:
                if access.node is func.value:
                    access.mutates = True
                    break


@register
class CrossThreadSharedState(Rule):
    """PL012: unlocked access to state shared with a background thread."""

    rule_id = "PL012"
    name = "cross-thread-shared-state"
    summary = (
        "In a class that starts a background thread and owns a "
        "threading.Condition/Lock, an attribute mutated on one thread "
        "(the event-loop side: async methods, thread targets, and "
        "methods they call) and touched on the other (the caller-facing "
        "interface) is accessed outside a `with self.<lock>:` block on "
        "some path — a data race between the daemon event loop and the "
        "protocol thread.  Also flagged: `await` while holding the lock "
        "(parks the event loop with callers locked out).  Helper methods "
        "whose every intra-class call site holds the lock are exempt; "
        "the unlocked call sites are flagged instead."
    )
    hint = (
        "take the lock around the access (or move it into the existing "
        "`with self._cond:` block); never await while holding it"
    )

    def check(self, ctx: "FileContext") -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(ctx, node))
        return findings

    def _check_class(
        self, ctx: "FileContext", classdef: ast.ClassDef
    ) -> list[Finding]:
        methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        for stmt in classdef.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods[stmt.name] = stmt

        lock_attrs: set[str] = set()
        threaded = False
        thread_targets: set[str] = set()
        for method in methods.values():
            for sub in ast.walk(method):
                if isinstance(sub, ast.Assign) and isinstance(
                    sub.value, ast.Call
                ):
                    factory = _call_factory_name(sub.value)
                    if factory in _LOCK_FACTORIES:
                        for target in sub.targets:
                            if _is_self_attr(target):
                                lock_attrs.add(target.attr)  # type: ignore[union-attr]
                if isinstance(sub, ast.Call):
                    factory = _call_factory_name(sub)
                    if factory in _THREAD_FACTORIES:
                        threaded = True
                        for kw in sub.keywords:
                            if kw.arg == "target" and _is_self_attr(kw.value):
                                thread_targets.add(kw.value.attr)  # type: ignore[union-attr]
        if not threaded or not lock_attrs:
            return []

        scanner = _MethodScanner(frozenset(lock_attrs))
        facts = {name: scanner.scan(node) for name, node in methods.items()}
        for method_facts in facts.values():
            _method_call_mutators(method_facts)

        # Event-loop side: async methods, thread targets, and (closure)
        # every method invoked from async context or from a loop-side
        # method.
        loop_side: set[str] = {
            name
            for name, node in methods.items()
            if isinstance(node, ast.AsyncFunctionDef)
        }
        loop_side |= thread_targets & set(methods)
        for method_facts in facts.values():
            loop_side |= method_facts.async_calls & set(methods)
        changed = True
        while changed:
            changed = False
            for name in list(loop_side):
                for callee, _call, _locked in facts[name].calls:
                    if callee in methods and callee not in loop_side:
                        loop_side.add(callee)
                        changed = True

        # Which attributes are genuinely cross-thread?  Mutated on one
        # side, touched (read or written) on the other.
        mutated_by: dict[str, set[str]] = {}
        touched_by: dict[str, set[str]] = {}
        for name, method_facts in facts.items():
            if name in _EXEMPT_METHODS:
                continue
            side = "loop" if name in loop_side else "caller"
            for access in method_facts.accesses:
                touched_by.setdefault(access.attr, set()).add(side)
                if access.mutates:
                    mutated_by.setdefault(access.attr, set()).add(side)
        shared: set[str] = set()
        for attr, muts in mutated_by.items():
            touched = touched_by.get(attr, set())
            if ("loop" in muts and "caller" in touched) or (
                "caller" in muts and "loop" in touched
            ):
                shared.add(attr)

        findings: list[Finding] = []
        lock_name = sorted(lock_attrs)[0]

        # Methods with unlocked shared accesses; forgiven when every
        # intra-class call site holds the lock (the discipline lives at
        # the call sites, which are checked instead).
        call_sites: dict[str, list[tuple[str, ast.Call, bool]]] = {}
        for name, method_facts in facts.items():
            if name in _EXEMPT_METHODS:
                continue
            for callee, call, locked in method_facts.calls:
                if callee in methods:
                    call_sites.setdefault(callee, []).append(
                        (name, call, locked)
                    )

        for name, method_facts in facts.items():
            if name in _EXEMPT_METHODS:
                continue
            unlocked = [
                a
                for a in method_facts.accesses
                if a.attr in shared and not a.locked
            ]
            if not unlocked:
                continue
            sites = call_sites.get(name, [])
            if sites and all(locked for _caller, _call, locked in sites):
                continue  # discipline held by every caller
            if sites:
                attrs = ", ".join(sorted({a.attr for a in unlocked}))
                for caller, call, locked in sites:
                    if locked:
                        continue
                    findings.append(
                        self.finding(
                            ctx,
                            call,
                            f"{classdef.name}.{caller} calls {name}() "
                            f"outside `with self.{lock_name}:` — it "
                            f"touches cross-thread state ({attrs}) that "
                            f"the event-loop thread mutates under the "
                            f"lock",
                            f"{classdef.name}.{caller}",
                        )
                    )
                continue
            for access in unlocked:
                findings.append(
                    self.finding(
                        ctx,
                        access.node,
                        f"{classdef.name}.{name} touches self."
                        f"{access.attr} outside `with self.{lock_name}:` "
                        f"but the attribute is mutated from the other "
                        f"thread",
                        f"{classdef.name}.{name}",
                    )
                )

        for name, method_facts in facts.items():
            for awaited in method_facts.locked_awaits:
                findings.append(
                    self.finding(
                        ctx,
                        awaited,
                        f"{classdef.name}.{name} awaits while holding "
                        f"self.{lock_name} — the event loop parks inside "
                        f"the critical section and every caller-thread "
                        f"`with self.{lock_name}:` deadlocks against it",
                        f"{classdef.name}.{name}",
                    )
                )
        return findings


# ---------------------------------------------------------------------------
# PL013 — exception-safe-drain
# ---------------------------------------------------------------------------


@register
class ExceptionSafeDrain(Rule):
    """PL013: a raise between a bus send and its barrier."""

    rule_id = "PL013"
    name = "exception-safe-drain"
    summary = (
        "PL005 with exceptional edges: a `raise` reachable after a bus "
        "send but before the flow's barrier propagates with the sent "
        "frames still queued in peer inboxes — the drained invariant "
        "breaks on the error path even though the happy path ends with "
        "round()/assert_drained().  An enclosing try whose handler or "
        "finally restores the drain (calls drain()/round()/"
        "assert_drained()) makes the edge safe.  `_op_*` dispatch "
        "handlers are exempt like PL005: their send is the reply and the "
        "requesting flow owns the barrier."
    )
    hint = (
        "wrap the receive/validate section in `try: ... except Exception: "
        "bus.drain(); raise` (restore the drained invariant without "
        "charging a round the protocol never completed), or move the "
        "raise before the send"
    )

    def check(self, ctx: "FileContext") -> list[Finding]:
        rule = self
        findings: list[Finding] = []
        classify = _make_classifier(ctx)

        def calls_in_order(stmt: ast.stmt) -> list[ast.Call]:
            return [n for n in ast.walk(stmt) if isinstance(n, ast.Call)]

        def apply_calls(
            stmt: ast.stmt, open_send: ast.Call | None
        ) -> ast.Call | None:
            for call in calls_in_order(stmt):
                kind = classify(call)
                if kind == "send":
                    open_send = call
                elif kind == "barrier":
                    open_send = None
            return open_send

        def barrier_in(body: list[ast.stmt]) -> bool:
            for stmt in body:
                for call in calls_in_order(stmt):
                    if classify(call) == "barrier":
                        return True
            return False

        def first_send(body: list[ast.stmt]) -> ast.Call | None:
            for stmt in body:
                if isinstance(
                    stmt,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    continue
                for call in calls_in_order(stmt):
                    if classify(call) == "send":
                        return call
            return None

        def scan(
            body: list[ast.stmt],
            open_send: ast.Call | None,
            protected: bool,
            scope: str,
        ) -> ast.Call | None:
            for stmt in body:
                if isinstance(
                    stmt,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    continue
                if isinstance(stmt, ast.Raise):
                    open_send = apply_calls(stmt, open_send)
                    if open_send is not None and not protected:
                        findings.append(
                            rule.finding(
                                ctx,
                                stmt,
                                f"raise reachable after the send at line "
                                f"{open_send.lineno} but before its "
                                f"barrier: the error path leaves peer "
                                f"inboxes undrained",
                                scope,
                            )
                        )
                    continue
                if isinstance(stmt, ast.If):
                    open_send = apply_calls(ast.Expr(stmt.test), open_send)
                    then = scan(stmt.body, open_send, protected, scope)
                    other = scan(stmt.orelse, open_send, protected, scope)
                    open_send = then or other
                elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                    head = (
                        stmt.iter
                        if isinstance(stmt, (ast.For, ast.AsyncFor))
                        else stmt.test
                    )
                    open_send = apply_calls(ast.Expr(head), open_send)
                    after = scan(stmt.body, open_send, protected, scope)
                    open_send = after or open_send
                    open_send = (
                        scan(stmt.orelse, open_send, protected, scope)
                        or open_send
                    )
                elif isinstance(stmt, ast.Try):
                    restores = barrier_in(stmt.finalbody) or any(
                        barrier_in(handler.body) for handler in stmt.handlers
                    )
                    after = scan(
                        stmt.body, open_send, protected or restores, scope
                    )
                    # An exception can hit a handler from any point of the
                    # body: if the body sends at all, the handler must
                    # assume the send is open.
                    body_send = first_send(stmt.body)
                    handler_open = after or body_send
                    for handler in stmt.handlers:
                        h = scan(handler.body, handler_open, protected, scope)
                        after = after or h
                    after = scan(stmt.orelse, after, protected, scope)
                    open_send = scan(stmt.finalbody, after, protected, scope)
                elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                    for item in stmt.items:
                        open_send = apply_calls(
                            ast.Expr(item.context_expr), open_send
                        )
                    open_send = scan(stmt.body, open_send, protected, scope)
                elif isinstance(stmt, ast.Return):
                    open_send = apply_calls(stmt, open_send)
                else:
                    open_send = apply_calls(stmt, open_send)
            return open_send

        class Visitor(FunctionWalker):
            def handle_function(self, node) -> None:  # type: ignore[no-untyped-def]
                if node.name.startswith("_op_"):
                    # Reactive dispatch handler (PL005 convention): the
                    # requesting flow owns the barrier and the drain.
                    return
                scan(node.body, None, False, self.qualname)

        Visitor().visit(ctx.tree)
        return findings
