"""Choreography extraction: per-role projections and flow automata.

The distributed runtime (PR 7/8) turned every protocol flow into a fixed
message *choreography*: a known sequence of payload sends, receives, and
synchronisation rounds spread over the m party roles.  Since the parties
run as separate OS processes, a mis-ordered flow is no longer a stack
trace — it is a distributed hang.  This module gives the concurrency rule
pack (:mod:`~repro.analysis.pivotlint.rules_concurrency`) a static model
of each flow to check against:

* :func:`extract_flow` walks one function body in execution order and
  records every bus event — payload sends/broadcasts, blocking receives,
  and the barrier at the end of each ``with bus.flow(rounds):`` scope —
  as :class:`FlowEvent` entries.  Each event carries its
  *role* (the textual actor expression: the first addressing argument of
  the primitive) and its *tag* (a constant string, or the symbolic
  ``$name`` of the parameter that carries it, so ``tag=tag`` send/receive
  pairs match without knowing the runtime value).  Calls into other
  project functions are resolved through the
  :class:`~repro.analysis.pivotlint.callgraph.ProjectIndex` summaries: a
  callee that both receives and sends contributes a receive-then-send
  pair (the reactive responder shape), a sender contributes a send.  A
  callee's receive carries the tag the call passes it when its summary
  forwards ``tag`` to a receive (a shared collector such as
  ``collect_partial_vectors``), and no tag otherwise.

* The composed event order *is* the global flow automaton: the
  orchestrator-style flows in ``repro/network/flows.py`` execute every
  role's actions in one body, so the textual execution order is exactly
  the composition of the per-role projections.  :meth:`FlowAutomaton.
  projection` restricts the composed order back to one role;
  :meth:`FlowAutomaton.order_inversions` finds receive-before-send tag
  pairs on the composed order (PL010); the phase walk behind
  :attr:`FlowAutomaton.pinned` — a transfer on the shared path walker,
  :func:`~repro.analysis.pivotlint.dataflow.walk_paths` — derives each
  flow's static round count and pins it against the ``rounds`` constant
  each scope charges to ``snapshot()["rounds"]`` (PL011).

Soundness scope: composition is only meaningful for *complete* flows —
functions that open a flow scope, whose exit is the synchronisation
barrier.  A scope-less helper (a reactive handler, a collector the flow
calls) sees only its own role's half of the choreography, where
receive-before-send is the normal responder shape; the rules therefore
skip it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.pivotlint.callgraph import ProjectIndex, map_args
from repro.analysis.pivotlint.dataflow import (
    RECEIVE_CALLS,
    SEND_CALLS,
    Transfer,
    walk_paths,
)

__all__ = ["FlowAutomaton", "FlowEvent", "extract_flow"]

#: Positional index of the tag argument per primitive (keyword ``tag=``
#: always wins): ``send_payload(sender, receiver, payload, tag)``,
#: ``broadcast_payload(sender, payload, tag)``, ``receive(party, tag)``.
_TAG_POSITIONS: dict[str, int] = {
    "send_payload": 3,
    "broadcast_payload": 2,
    "receive": 1,
}

#: States with more alternatives than this collapse to the conservative
#: union — branch-heavy flows stay linear to analyze.
_MAX_STATES = 16


@dataclass
class FlowEvent:
    """One bus event on a flow's composed path."""

    kind: str  #: ``"send"`` | ``"receive"`` | ``"barrier"``
    role: str  #: textual actor expression (``"holder"``, ``"party"``, ...)
    tag: str | None  #: constant tag, ``$param`` symbolic, or None (unknown)
    node: ast.Call  #: the call the event was extracted from
    position: int  #: index in the composed (textual-execution) order
    rounds: int | None = None  #: barrier only — constant count, None dynamic
    #: directed send only — the receiver expression; None for broadcasts
    #: (which reach every role except the sender).
    peer: str | None = None


#: One branch-path state of the phase walk: completed/open send-phase
#: count, whether a send-run is open, and the roles that have received
#: messages in the open run (``*except:<role>`` marks a broadcast, which
#: reaches everyone but its sender).
_State = tuple[int, bool, frozenset[str]]
_States = frozenset[_State]


@dataclass
class FlowAutomaton:
    """The composed choreography of one flow function.

    ``events`` is the composed global order (the orchestrator body *is*
    the composition — see the module docstring); ``has_barrier`` says
    whether the function opens a flow scope; ``pinned`` holds every
    scope's barrier whose round count is a static constant, together with
    the set of send-phase counts reachable at that barrier (one count per
    branch-path through the body).
    """

    qualname: str
    events: list[FlowEvent] = field(default_factory=list)
    has_barrier: bool = False
    #: (barrier event, pinned constant, reachable send-phase counts)
    pinned: list[tuple[FlowEvent, int, frozenset[int]]] = field(
        default_factory=list
    )

    def roles(self) -> list[str]:
        seen: dict[str, None] = {}
        for event in self.events:
            if event.kind != "barrier" and event.role != "?":
                seen.setdefault(event.role)
        return list(seen)

    def projection(self, role: str) -> list[FlowEvent]:
        """The composed order restricted to one role's own events."""
        return [
            e for e in self.events if e.kind != "barrier" and e.role == role
        ]

    def order_inversions(self) -> list[tuple[FlowEvent, FlowEvent]]:
        """Receive events whose matching send is ordered after them.

        For every tag that is both produced and consumed *within this
        flow*, the first blocking receive must come after the first send
        on the composed order — otherwise every role is blocked at the
        receive and the send that would unblock it can never execute.
        Returns ``(receive, first_send)`` pairs for each inverted tag.
        """
        first_send: dict[str, FlowEvent] = {}
        first_receive: dict[str, FlowEvent] = {}
        for event in self.events:
            if event.tag is None:
                continue
            if event.kind == "send":
                first_send.setdefault(event.tag, event)
            elif event.kind == "receive":
                first_receive.setdefault(event.tag, event)
        inversions: list[tuple[FlowEvent, FlowEvent]] = []
        for tag, receive in first_receive.items():
            send = first_send.get(tag)
            if send is not None and receive.position < send.position:
                inversions.append((receive, send))
        return inversions


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


def _event_tag(call: ast.Call, attr: str) -> str | None:
    """The event's tag: constant value, ``$param`` symbolic, or None."""
    expr: ast.expr | None = None
    for kw in call.keywords:
        if kw.arg == "tag":
            expr = kw.value
    if expr is None:
        pos = _TAG_POSITIONS.get(attr)
        if pos is not None and len(call.args) > pos:
            expr = call.args[pos]
    return _tag_text(expr)


def _tag_text(expr: ast.expr | None) -> str | None:
    """A tag expression's constant value, ``$name`` symbolic, or None."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, ast.Name):
        return f"${expr.id}"
    return None


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


class _Extractor(Transfer[_States]):
    """The phase walk over one function body, recording its events.

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
        self.events: list[FlowEvent] = []
        self.pinned: list[tuple[FlowEvent, int, frozenset[int]]] = []
        self.has_barrier = False
        self.position = 0

    # -- event classification ----------------------------------------------

    def _emit(
        self,
        kind: str,
        role: str,
        tag: str | None,
        call: ast.Call,
        rounds: int | None = None,
    ) -> FlowEvent:
        event = FlowEvent(
            kind=kind,
            role=role,
            tag=tag,
            node=call,
            position=self.position,
            rounds=rounds,
        )
        self.position += 1
        self.events.append(event)
        return event

    def _call_events(self, call: ast.Call) -> list[FlowEvent]:
        func = call.func
        attr = func.attr if isinstance(func, ast.Attribute) else None
        if attr in SEND_CALLS:
            role = _expr_text(call.args[0]) if call.args else "?"
            peer = None
            if attr == "send_payload" and len(call.args) > 1:
                peer = _expr_text(call.args[1])
            event = self._emit("send", role, _event_tag(call, attr), call)
            event.peer = peer
            return [event]
        if attr in RECEIVE_CALLS:
            role = _expr_text(call.args[0]) if call.args else "?"
            tag = _event_tag(call, attr) if attr == "receive" else None
            return [self._emit("receive", role, tag, call)]
        # Project calls contribute their summarized effects.  A callee
        # that both receives and sends is the reactive responder shape
        # (receive the request, publish the reply) and contributes the
        # pair in that order.
        does_send = does_receive = False
        received: str | None = None
        for info, summary in self.project.summaries_for_call(call):
            does_send |= summary.does_send
            does_receive |= summary.does_receive
            if summary.forwards_tag_to_receive:
                received = _tag_text(map_args(call, info).get("tag")) or received
        emitted: list[FlowEvent] = []
        if does_receive:
            emitted.append(self._emit("receive", "?", received, call))
        if does_send:
            emitted.append(self._emit("send", "?", None, call))
        return emitted

    # -- phase-state walk ----------------------------------------------------

    @staticmethod
    def _was_receiver(role: str, receivers: frozenset[str]) -> bool:
        """Did ``role`` receive a message in the current send-run?"""
        if role in receivers:
            return True
        return any(
            r.startswith("*except:") and r != f"*except:{role}"
            for r in receivers
        )

    def _send_state(self, event: FlowEvent, state: _State) -> _State:
        phases, open_, receivers = state
        if not open_ or self._was_receiver(event.role, receivers):
            # A fresh run — or a causally ordered one: the sender already
            # received a message of the open run, so her send cannot share
            # its delivery round (gather-then-scatter is two rounds).
            phases += 1
            receivers = frozenset()
        if event.peer is not None:
            receivers |= {event.peer}
        else:
            receivers |= {f"*except:{event.role}"}
        return (phases, True, receivers)

    def call(self, call: ast.Call, states: _States) -> _States:
        for event in self._call_events(call):
            if event.kind == "send":
                states = frozenset(self._send_state(event, s) for s in states)
            elif event.kind == "receive":
                states = frozenset((p, False, frozenset()) for p, _, _ in states)
        return states

    def leave_flow(self, flow: ast.Call, states: _States) -> _States:
        rounds = _round_constant(flow, self.consts)
        event = self._emit("barrier", "?", None, flow, rounds=rounds)
        self.has_barrier = True
        if rounds is not None and rounds > 0 and states:
            self.pinned.append((event, rounds, frozenset(p for p, _, _ in states)))
        return frozenset({(0, False, frozenset())})

    def join(self, a: _States, b: _States) -> _States:
        states = a | b
        if len(states) > _MAX_STATES:
            states = frozenset({max(states, key=lambda s: (s[0], s[1]))})
        return states


def extract_flow(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    qualname: str,
    project: ProjectIndex,
    consts: dict[str, int],
) -> FlowAutomaton:
    """Extract the composed choreography of one function body.

    ``consts`` maps module-level integer constant names to values so a
    ``bus.flow(ROUNDS)`` scope is pinnable; ``project`` resolves calls
    to other scanned functions through their summaries.
    """
    extractor = _Extractor(project, consts)
    walk_paths(node.body, extractor, frozenset({(0, False, frozenset())}))
    return FlowAutomaton(
        qualname=qualname,
        events=extractor.events,
        has_barrier=extractor.has_barrier,
        pinned=extractor.pinned,
    )
