"""The concurrency/choreography rule pack: PL011 and PL012.

Since the runtime went multi-process (PR 7/8) a racy transport attribute
is a heisenbug across OS processes, and a miscounted flow makes the
rounds accounting fiction.  This pack checks both statically:

* **PL011 round-parity** — the round constants charged to
  ``snapshot()["rounds"]`` (``with bus.flow(K):``) must equal the
  send-phase count the flow automaton derives for the paths reaching the
  end of the scope, its barrier.
* **PL012 cross-thread-shared-state** — in classes that run an event loop
  on a background thread (the socket transport), attributes mutated on
  one thread and touched on the other must be accessed under the class's
  lock/condition on every path; ``await`` while holding such a lock is
  flagged too (it parks the event loop with the caller thread locked
  out).

A flow that raises, a send outside a flow and a receive that precedes
its send need no rule: the bus drains a failed flow, refuses the send
and raises on the stall.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.pivotlint.choreography import derive_rounds
from repro.analysis.pivotlint.dataflow import FunctionWalker
from repro.analysis.pivotlint.findings import Finding
from repro.analysis.pivotlint.rules import Rule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.pivotlint.engine import FileContext


def _module_int_constants(tree: ast.Module) -> dict[str, int]:
    """Module-level ``NAME = <int>`` constants (round counts such as
    ``bus.flow(ROUNDS)`` resolve through them)."""
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


# ---------------------------------------------------------------------------
# PL011 — round-parity
# ---------------------------------------------------------------------------


@register
class RoundParity(Rule):
    """PL011: a pinned round constant disagrees with the flow automaton."""

    rule_id = "PL011"
    name = "round-parity"
    summary = (
        "A flow scope charges `with bus.flow(K):` with a static constant "
        "K, but the flow automaton derives a different send-phase count "
        "for every path reaching the end of the scope, its barrier (a "
        "send-phase is a maximal run of payload sends not separated by a "
        "receive or barrier — exactly what one synchronisation round "
        "delivers).  The runtime's snapshot()[\"rounds\"] accounting would "
        "then disagree with the choreography that actually ran.  Dynamic "
        "counts are not pinnable and are skipped."
    )
    hint = (
        "recount the flow's phases: one round per send-phase between "
        "barriers; update the constant or restructure the flow"
    )

    def check(self, ctx: "FileContext") -> list[Finding]:
        rule = self
        findings: list[Finding] = []
        consts = _module_int_constants(ctx.tree)

        class Visitor(FunctionWalker):
            def handle_function(self, node) -> None:  # type: ignore[no-untyped-def]
                for flow, pinned, counts in derive_rounds(node, ctx.project, consts):
                    if not counts or max(counts) == 0 or pinned in counts:
                        continue  # pinned right, or a barrier no send feeds
                    derived = "/".join(str(c) for c in sorted(counts))
                    findings.append(
                        rule.finding(
                            ctx,
                            flow,
                            f"flow({pinned}) disagrees with the flow "
                            f"automaton: the paths reaching its barrier "
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
