"""Choreography extraction: the round count a flow scope delivers.

Every protocol flow is a fixed message *choreography*: a known sequence
of payload sends, receives, and synchronisation rounds spread over the m
party roles.  This module gives PL011
(:mod:`~repro.analysis.pivotlint.rules_concurrency`) a static count of
each flow's rounds to check the ``with bus.flow(rounds):`` constants
against.

:func:`derive_rounds` walks one function body over every static path
(:func:`~repro.analysis.pivotlint.dataflow.walk_paths`) and counts its
*send-phases*: a maximal run of payload sends not separated by a receive
or a barrier, which is what one synchronisation round delivers.  Each
send carries its *role* (the textual actor expression: the first
addressing argument of the primitive) and, for a directed send, its
receiver.  Calls into other project functions are resolved through the
:class:`~repro.analysis.pivotlint.callgraph.ProjectIndex` summaries: a
callee that both receives and sends contributes a receive-then-send pair
(the reactive responder shape), a sender contributes a send.

The orchestrator-style flows in ``repro/network/flows.py`` execute every
role's actions in one body, so the textual execution order is the
composed order of the roles' projections.  A scope-less helper (a
reactive handler, a collector the flow calls) sees only its own role's
half of the choreography and pins nothing: only the end of a flow scope,
its barrier, is pinned.
"""

from __future__ import annotations

import ast

from repro.analysis.pivotlint.callgraph import ProjectIndex
from repro.analysis.pivotlint.dataflow import (
    RECEIVE_CALLS,
    SEND_CALLS,
    Transfer,
    walk_paths,
)

__all__ = ["Pinned", "derive_rounds"]

#: States with more alternatives than this collapse to the conservative
#: union — branch-heavy flows stay linear to analyze.
_MAX_STATES = 16

#: One branch-path state of the phase walk: completed/open send-phase
#: count, whether a send-run is open, and the roles that have received
#: messages in the open run (``*except:<role>`` marks a broadcast, which
#: reaches everyone but its sender).
_State = tuple[int, bool, frozenset[str]]
_States = frozenset[_State]

#: A send: (sender role, receiver role — None for a broadcast).
_Send = tuple[str, str | None]

#: One scope whose round count is a static constant: its ``flow(K)``
#: call, K, and the send-phase counts reachable at its barrier (one count
#: per branch-path through the body).
Pinned = tuple[ast.Call, int, frozenset[int]]


def _expr_text(node: ast.expr) -> str:
    """A compact textual name for a role expression (best effort)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant):
        return repr(node.value)
    if isinstance(node, ast.Attribute):
        return f"{_expr_text(node.value)}.{node.attr}"
    if isinstance(node, ast.Subscript):
        return f"{_expr_text(node.value)}[...]"
    return "?"


def _round_constant(call: ast.Call, consts: dict[str, int]) -> int | None:
    """A flow scope's static round count, if it is pinnable.

    ``flow(K)`` with a literal or a module-level integer constant pins K.
    A dynamic count returns None — the barrier still resets the phase walk
    but cannot be pinned.
    """
    expr: ast.expr | None = call.args[0] if call.args else None
    for kw in call.keywords:
        if kw.arg == "rounds":
            expr = kw.value
    if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
        return expr.value
    if isinstance(expr, ast.Name) and expr.id in consts:
        return consts[expr.id]
    return None


class _PhaseWalk(Transfer[_States]):
    """The phase walk over one function body, recording its pins.

    The walk carries a set of ``(phases, open, receivers)`` states —
    ``phases`` is the number of send-phases completed or begun so far (a
    maximal run of sends not separated by a receive or barrier counts
    once), ``open`` whether the walk is currently inside such a run.
    Branches union their successor states; the end of a flow scope records
    a pin (when its count is constant) and resets the walk.
    """

    bottom: _States = frozenset()

    def __init__(self, project: ProjectIndex, consts: dict[str, int]):
        self.project = project
        self.consts = consts
        self.pinned: list[Pinned] = []

    def _events(self, call: ast.Call) -> list[_Send | None]:
        """The call's bus events in order: a send, or None for a receive."""
        func = call.func
        attr = func.attr if isinstance(func, ast.Attribute) else None
        if attr in SEND_CALLS:
            role = _expr_text(call.args[0]) if call.args else "?"
            peer = None
            if attr == "send_payload" and len(call.args) > 1:
                peer = _expr_text(call.args[1])
            return [(role, peer)]
        if attr in RECEIVE_CALLS:
            return [None]
        # Project calls contribute their summarized effects.  A callee
        # that both receives and sends is the reactive responder shape
        # (receive the request, publish the reply) and contributes the
        # pair in that order.
        does_send = does_receive = False
        for _, summary in self.project.summaries_for_call(call):
            does_send |= summary.does_send
            does_receive |= summary.does_receive
        events: list[_Send | None] = []
        if does_receive:
            events.append(None)
        if does_send:
            events.append(("?", None))
        return events

    @staticmethod
    def _was_receiver(role: str, receivers: frozenset[str]) -> bool:
        """Did ``role`` receive a message in the current send-run?"""
        if role in receivers:
            return True
        return any(
            r.startswith("*except:") and r != f"*except:{role}"
            for r in receivers
        )

    def _send_state(self, send: _Send, state: _State) -> _State:
        role, peer = send
        phases, open_, receivers = state
        if not open_ or self._was_receiver(role, receivers):
            # A fresh run — or a causally ordered one: the sender already
            # received a message of the open run, so her send cannot share
            # its delivery round (gather-then-scatter is two rounds).
            phases += 1
            receivers = frozenset()
        if peer is not None:
            receivers |= {peer}
        else:
            receivers |= {f"*except:{role}"}
        return (phases, True, receivers)

    def call(self, call: ast.Call, states: _States) -> _States:
        for send in self._events(call):
            if send is None:
                states = frozenset((p, False, frozenset()) for p, _, _ in states)
            else:
                states = frozenset(self._send_state(send, s) for s in states)
        return states

    def leave_flow(self, flow: ast.Call, states: _States) -> _States:
        rounds = _round_constant(flow, self.consts)
        if rounds is not None and rounds > 0 and states:
            self.pinned.append((flow, rounds, frozenset(p for p, _, _ in states)))
        return frozenset({(0, False, frozenset())})

    def join(self, a: _States, b: _States) -> _States:
        states = a | b
        if len(states) > _MAX_STATES:
            states = frozenset({max(states, key=lambda s: (s[0], s[1]))})
        return states


def derive_rounds(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    project: ProjectIndex,
    consts: dict[str, int],
) -> list[Pinned]:
    """Every flow scope of one function body whose count is pinnable.

    ``consts`` maps module-level integer constant names to values so a
    ``bus.flow(ROUNDS)`` scope is pinnable; ``project`` resolves calls
    to other scanned functions through their summaries.
    """
    walk = _PhaseWalk(project, consts)
    walk_paths(node.body, walk, frozenset({(0, False, frozenset())}))
    return walk.pinned
