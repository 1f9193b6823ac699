"""Shared AST machinery: scopes, the bus-call vocabulary, the path walker, spans.

Every rule builds on these pieces:

* :class:`FunctionWalker` — a visitor that tracks the enclosing
  class/function qualname and, *within* the current function, the stack of
  active owner-scope ``with`` items (``as_party(i)`` / ``party.local()``).
  The with-stack resets at function boundaries: a lexically enclosing scope
  in an outer function does not guard a nested function's later execution.
* The secret vocabulary (:data:`SECRET_ATTRS`, :data:`SECRET_NAMES`, ...)
  that the one taint engine,
  :class:`~repro.analysis.pivotlint.summaries.LabelEngine`, reads.
* The bus-call vocabulary (:data:`SEND_CALLS`, :data:`RECEIVE_CALLS`)
  and the flow scope (:func:`flow_item`: the ``with …flow(…)`` block).
* :func:`walk_paths` — a forward walk over a function body's statement
  paths.  A :class:`Transfer` says how a call moves its state, how two
  paths join and what the end of a flow scope (its barrier) does; the
  choreography phase walk is the transfer.
* :func:`stmt_span` / :func:`enclosing_stmt` — the statement span a
  suppression comment may sit on.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Generic, TypeVar

#: with-items recognized as "executing at party i".
SCOPE_CALL_NAMES = frozenset({"as_party"})
SCOPE_METHOD_NAMES = frozenset({"local"})


@dataclass
class PartyScope:
    """One active owner-scope ``with`` item."""

    #: ``as_party(arg)``'s argument, when that form was used.
    arg: ast.expr | None
    #: ``base.local()``'s base expression, when that form was used.
    owner_base: ast.expr | None

    def constant_party(self) -> int | None:
        if (
            self.arg is not None
            and isinstance(self.arg, ast.Constant)
            and isinstance(self.arg.value, int)
        ):
            return self.arg.value
        return None


def scope_of_with_item(item: ast.withitem) -> PartyScope | None:
    """Recognize ``with as_party(i):`` and ``with party.local():`` items."""
    call = item.context_expr
    if not isinstance(call, ast.Call):
        return None
    func = call.func
    if isinstance(func, ast.Name) and func.id in SCOPE_CALL_NAMES:
        return PartyScope(arg=call.args[0] if call.args else None, owner_base=None)
    if isinstance(func, ast.Attribute):
        if func.attr in SCOPE_CALL_NAMES:
            return PartyScope(
                arg=call.args[0] if call.args else None, owner_base=None
            )
        if func.attr in SCOPE_METHOD_NAMES and not call.args:
            return PartyScope(arg=None, owner_base=func.value)
    return None


def expr_fingerprint(node: ast.expr) -> str:
    """Structural identity for "same expression" checks (owner cross-check)."""
    return ast.dump(node, annotate_fields=False)


class FunctionWalker(ast.NodeVisitor):
    """Visitor with qualname + per-function owner-scope tracking.

    Subclasses read :attr:`qualname` and :attr:`scopes` (active
    :class:`PartyScope` items of the *current* function), and override
    ``visit_*`` normally — they must call the ``generic_visit``/super
    hooks to keep the stacks correct.
    """

    def __init__(self) -> None:
        self._name_stack: list[str] = []
        self._scope_stacks: list[list[PartyScope]] = [[]]

    # -- context -----------------------------------------------------------

    @property
    def qualname(self) -> str:
        return ".".join(self._name_stack) if self._name_stack else "<module>"

    @property
    def scopes(self) -> list[PartyScope]:
        return self._scope_stacks[-1]

    # -- structure ---------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._name_stack.append(node.name)
        self.handle_class(node)
        self.generic_visit(node)
        self._name_stack.pop()

    def _visit_function(self, node) -> None:
        self._name_stack.append(node.name)
        self._scope_stacks.append([])
        self.handle_function(node)
        self.generic_visit(node)
        self._scope_stacks.pop()
        self._name_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_With(self, node: ast.With) -> None:
        entered = []
        for item in node.items:
            scope = scope_of_with_item(item)
            if scope is not None:
                self.scopes.append(scope)
                entered.append(scope)
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        for stmt in node.body:
            self.visit(stmt)
        for _ in entered:
            self.scopes.pop()

    visit_AsyncWith = visit_With

    # -- subclass hooks ----------------------------------------------------

    def handle_class(self, node: ast.ClassDef) -> None:
        pass

    def handle_function(self, node) -> None:
        pass


# ---------------------------------------------------------------------------
# the secret vocabulary (PL002, read through the summaries' LabelEngine)
# ---------------------------------------------------------------------------

#: Attribute names whose *load* yields secret key material.
SECRET_ATTRS = frozenset(
    {
        "d_share",
        "private_key",
        "_private_key",
        "lam",
        "mu",
        "key_share",
        "_key_share",
        "shares",
    }
)

#: Bare parameter/variable names treated as secret on first use.
SECRET_NAMES = frozenset({"private_key", "d_share", "key_share"})

#: Attribute loads that yield public protocol *metadata* even off a secret
#: base object: a key share's party index, a payload's exponent, the public
#: key hanging off a private one.  These never taint.
PUBLIC_ATTRS = frozenset({"party_index", "n_parties", "public_key", "exponent"})

#: Calls whose *result* is secret (the dealer's prime pair).
SOURCE_CALLS = frozenset({"random_prime_pair"})

#: Builtins through which taint flows unchanged.
PROPAGATING_CALLS = frozenset({"sum", "int", "abs", "list", "tuple", "sorted"})


# ---------------------------------------------------------------------------
# the bus-call vocabulary
# ---------------------------------------------------------------------------

#: Payload-routing sends: the bytes enter a peer inbox, and each one is a
#: choreography event (PL011).
SEND_CALLS = frozenset({"send_payload", "broadcast_payload"})
#: The flow scope, ``with bus.flow(rounds):`` — its exit is the barrier.
FLOW_CALL = "flow"
#: Blocking protocol receives: the choreography's receive events.
RECEIVE_CALLS = frozenset({"receive", "receive_any", "receive_tagged"})
#: The control plane's receive: it consumes a message too, so a function
#: that makes one receives (its summary's ``does_receive``).
CONTROL_RECEIVE = "receive_control"


def flow_item(stmt: ast.AST) -> ast.Call | None:
    """The ``….flow(rounds)`` call a ``with`` statement opens, if any."""
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            call = item.context_expr
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == FLOW_CALL
            ):
                return call
    return None


# ---------------------------------------------------------------------------
# the path walker
# ---------------------------------------------------------------------------

S = TypeVar("S")


def calls_in(node: ast.AST) -> Iterator[ast.Call]:
    """The calls under ``node``, in ``ast.walk`` order."""
    return (sub for sub in ast.walk(node) if isinstance(sub, ast.Call))


class Transfer(Generic[S]):
    """What one path analysis supplies to :func:`walk_paths`.

    ``bottom`` is the state no path reaches (the identity of :meth:`join`);
    it is what a ``return`` or ``raise`` leaves behind it.
    """

    bottom: S

    def call(self, call: ast.Call, state: S) -> S:
        """The state after ``call`` runs in ``state``."""
        raise NotImplementedError

    def join(self, a: S, b: S) -> S:
        """Two paths meet (``a`` is the earlier branch in source order)."""
        raise NotImplementedError

    def leave_flow(self, flow: ast.Call, state: S) -> S:
        """The state after the barrier that ends the scope ``flow`` opened."""
        return state


def walk_paths(body: list[ast.stmt], transfer: Transfer[S], state: S) -> S:
    """Walk ``body`` forward over every static path; return the state at
    the end of the block (``transfer.bottom`` when no path falls through).

    Calls inside a statement run in ``ast.walk`` order.  ``if`` branches
    join; loops run zero or one time, then their ``else``; a ``try`` body
    runs, its handlers start from the body's end state, its ``else``
    follows the body, and ``finally`` follows all of them; ``with`` and
    ``async with`` run their items, then their body, then — for a flow
    scope — ``transfer.leave_flow``.  ``return`` and ``raise`` end their
    path.  Nested defs and classes are skipped: they are their own
    functions.
    """

    def calls(node: ast.AST, state: S) -> S:
        for call in calls_in(node):
            state = transfer.call(call, state)
        return state

    def block(body: list[ast.stmt], state: S) -> S:
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(stmt, ast.If):
                state = calls(stmt.test, state)
                state = transfer.join(
                    block(stmt.body, state), block(stmt.orelse, state)
                )
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                head = stmt.test if isinstance(stmt, ast.While) else stmt.iter
                state = calls(head, state)
                once = block(stmt.body, state)
                state = block(stmt.orelse, transfer.join(once, state))
            elif isinstance(stmt, ast.Try):
                after = block(stmt.body, state)
                handled = [block(h.body, after) for h in stmt.handlers]
                state = block(stmt.orelse, after)
                for out in handled:
                    state = transfer.join(state, out)
                state = block(stmt.finalbody, state)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    state = calls(item.context_expr, state)
                state = block(stmt.body, state)
                flow = flow_item(stmt)
                if flow is not None:
                    state = transfer.leave_flow(flow, state)
            elif isinstance(stmt, (ast.Return, ast.Raise)):
                calls(stmt, state)  # a returned receive is still an event
                return transfer.bottom
            else:
                state = calls(stmt, state)
        return state

    return block(body, state)


# ---------------------------------------------------------------------------
# span helpers
# ---------------------------------------------------------------------------


def stmt_span(node: ast.AST) -> tuple[int, int]:
    """(first, last) line of a node, for suppression matching."""
    end = getattr(node, "end_lineno", None) or node.lineno
    return (node.lineno, end)


def build_parent_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents


def enclosing_stmt(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> ast.AST:
    """The nearest enclosing statement (the line a suppression may sit on)."""
    current = node
    while current in parents and not isinstance(current, ast.stmt):
        current = parents[current]
    return current
