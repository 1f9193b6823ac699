"""The pivotlint privacy-rule catalogue: PL001–PL005.

(The runtime-protocol pack PL006–PL009 lives in
:mod:`repro.analysis.pivotlint.rules_protocol`; the engine imports both
modules so :data:`REGISTRY` always holds the full catalogue.)

Each rule is a class with a ``rule_id``, a one-line ``summary``, a fix
``hint``, and a ``check(file_ctx) -> list[Finding]``.  Rules register
themselves in :data:`REGISTRY` via :func:`register`; adding a rule is
writing one class in this shape (see the README's "adding a rule").

The rules encode the paper's two static invariants:

* **Locality** (§3.1): raw feature/label data is read only inside the
  owning party's scope — PL001; and every protocol flow that puts bytes on
  the bus synchronizes so inboxes drain — PL005.
* **Key secrecy** (§2.1, §3.4): secret key material (partial keys d_i, the
  dealer's λ/µ and prime factors) never reaches a wire, a log, an
  exception message, or a public return — PL002; nothing leaves on the bus
  except registered wire types — PL003; and nothing that only works with
  the (scrubbed) dealer key is reachable from deployed-federation code —
  PL004.
"""

from __future__ import annotations

import ast
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.analysis.pivotlint.callgraph import map_args
from repro.analysis.pivotlint.dataflow import (
    SECRET_ATTRS,
    FunctionWalker,
    TaintEngine,
    expr_fingerprint,
    stmt_span,
)
from repro.analysis.pivotlint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.pivotlint.engine import FileContext

REGISTRY: dict[str, type["Rule"]] = {}


def register(cls: type["Rule"]) -> type["Rule"]:
    REGISTRY[cls.rule_id] = cls
    return cls


class Rule:
    """Base class: one privacy-flow invariant checked per file."""

    rule_id = "PL000"
    name = "abstract"
    summary = ""
    hint = ""

    def check(self, ctx: "FileContext") -> list[Finding]:  # pragma: no cover
        raise NotImplementedError

    def finding(
        self, ctx: "FileContext", node: ast.AST, message: str, scope: str
    ) -> Finding:
        stmt = ctx.enclosing_stmt(node)
        return Finding(
            rule=self.rule_id,
            path=ctx.relpath,
            line=node.lineno,
            col=node.col_offset,
            message=message,
            hint=self.hint,
            scope=scope,
            span=stmt_span(stmt),
        )


# ---------------------------------------------------------------------------
# PL001 — raw-read-outside-scope
# ---------------------------------------------------------------------------

#: Attributes backed by a LocalView once federated: data access must be
#: scoped even though passing the guard object around is fine.
GUARDED_ATTRS = frozenset({"features", "labels", "_features_view", "_labels_view"})

#: Attributes holding *raw* backing arrays that bypass the guard entirely.
RAW_ATTRS = frozenset({"_raw_features", "_raw_labels", "local_features", "_columns"})

#: Calls that materialize array data from a view/array argument.
_MATERIALIZERS = frozenset(
    {"asarray", "array", "ascontiguousarray", "copy", "column_stack", "stack"}
)

#: Attribute reads that expose only array *metadata*, never element values.
_METADATA_ATTRS = frozenset({"shape", "ndim", "dtype", "size", "nbytes"})

#: Base names that denote the experimenter's own *pre-federation* dataset
#: object (the loaders' Dataset/split records).  ``train.features`` in a
#: benchmark is the whole-table data the experiment starts from — party
#: ownership only begins at ``vertical_partition`` — so reads through
#: these bases are not party-scoped.
_DATASET_BASES = frozenset({"dataset", "ds", "data", "train", "test", "valid", "val"})


def _is_dataset_base(guarded: ast.Attribute) -> bool:
    base = guarded.value
    name = None
    if isinstance(base, ast.Name):
        name = base.id
    elif isinstance(base, ast.Attribute):
        name = base.attr
    if name is None:
        return False
    return name in _DATASET_BASES or name.endswith(("_train", "_test", "_dataset"))


@register
class RawReadOutsideScope(Rule):
    """PL001: a raw feature/label read outside the owning party's scope."""

    rule_id = "PL001"
    name = "raw-read-outside-scope"
    summary = (
        "Data access on a LocalView-backed or raw party array "
        "(features/labels/local_features) lexically outside an "
        "as_party(...)/party.local() scope, or inside a scope that "
        "provably belongs to a different party."
    )
    hint = (
        "wrap the owner's local computation in `with as_party(owner):` "
        "(or `with party.local():`); data that must cross parties travels "
        "as a bus payload instead"
    )

    def check(self, ctx: "FileContext") -> list[Finding]:
        rule = self
        findings: list[Finding] = []

        class Visitor(FunctionWalker):
            def __init__(self) -> None:
                super().__init__()
                # `labels = partition.labels` binds a local alias of a
                # guarded array; later element reads through the alias are
                # still raw reads.  One alias map per function.
                self._alias_stack: list[dict[str, ast.Attribute]] = [{}]

            @property
            def _aliases(self) -> dict[str, ast.Attribute]:
                return self._alias_stack[-1]

            def _visit_function(self, node) -> None:
                self._alias_stack.append({})
                try:
                    super()._visit_function(node)
                finally:
                    self._alias_stack.pop()

            def visit_Assign(self, node: ast.Assign) -> None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        value = node.value
                        if (
                            isinstance(value, ast.Attribute)
                            and value.attr in (GUARDED_ATTRS | RAW_ATTRS)
                            and not _is_dataset_base(value)
                        ):
                            self._aliases[target.id] = value
                        else:
                            self._aliases.pop(target.id, None)
                self.generic_visit(node)

            def _owner_of(self, guarded: ast.Attribute) -> tuple[int | None, str | None]:
                """Statically-known owner of the accessed array, if any."""
                base = guarded.value
                if isinstance(base, ast.Subscript) and isinstance(
                    base.slice, ast.Constant
                ):
                    # clients[0].features — the index names the owner.
                    if isinstance(base.slice.value, int):
                        return base.slice.value, None
                return None, expr_fingerprint(base)

            def _report(self, node: ast.AST, guarded: ast.Attribute) -> None:
                parent = ctx.parents().get(node)
                if isinstance(parent, ast.Attribute) and parent.attr in _METADATA_ATTRS:
                    return  # shape/dtype reads expose no element values
                kind = "raw backing array" if guarded.attr in RAW_ATTRS else "guarded view"
                owner_const, owner_fp = self._owner_of(guarded)
                if isinstance(node, ast.Subscript) and guarded.attr in RAW_ATTRS:
                    # partition.local_features[i]: the subscript names the owner.
                    if isinstance(node.slice, ast.Constant) and isinstance(
                        node.slice.value, int
                    ):
                        owner_const = node.slice.value
                if not self.scopes:
                    findings.append(
                        rule.finding(
                            ctx,
                            node,
                            f"data read of `{guarded.attr}` ({kind}) outside "
                            f"any party scope",
                            self.qualname,
                        )
                    )
                    return
                scope = self.scopes[-1]
                scope_const = scope.constant_party()
                if (
                    scope_const is not None
                    and owner_const is not None
                    and scope_const != owner_const
                ):
                    findings.append(
                        rule.finding(
                            ctx,
                            node,
                            f"data read of party {owner_const}'s "
                            f"`{guarded.attr}` inside as_party({scope_const})"
                            f" — cross-party scope mismatch",
                            self.qualname,
                        )
                    )
                    return
                if (
                    scope.owner_base is not None
                    and owner_fp is not None
                    and owner_const is None
                    and scope_const is None
                ):
                    # `with a.local(): b.features[...]` — match only when the
                    # two base expressions are structurally identical names;
                    # different simple names are a provable mismatch.
                    base = guarded.value
                    if (
                        isinstance(scope.owner_base, ast.Name)
                        and isinstance(base, ast.Name)
                        and scope.owner_base.id != base.id
                    ):
                        findings.append(
                            rule.finding(
                                ctx,
                                node,
                                f"data read of `{base.id}.{guarded.attr}` "
                                f"inside `{scope.owner_base.id}.local()` — "
                                f"cross-party scope mismatch",
                                self.qualname,
                            )
                        )

            def _guarded_attr(self, node: ast.expr) -> ast.Attribute | None:
                if isinstance(node, ast.Attribute) and node.attr in (
                    GUARDED_ATTRS | RAW_ATTRS
                ):
                    if _is_dataset_base(node):
                        return None  # pre-federation experiment data
                    return node
                if isinstance(node, ast.Name):
                    return self._aliases.get(node.id)
                return None

            def visit_Subscript(self, node: ast.Subscript) -> None:
                guarded = self._guarded_attr(node.value)
                if guarded is not None and isinstance(node.ctx, ast.Load):
                    self._report(node, guarded)
                self.generic_visit(node)

            def visit_Call(self, node: ast.Call) -> None:
                func = node.func
                # view.read()
                if isinstance(func, ast.Attribute) and func.attr == "read":
                    guarded = self._guarded_attr(func.value)
                    if guarded is not None:
                        self._report(node, guarded)
                # np.asarray(view) and friends materialize the data.
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MATERIALIZERS
                    and node.args
                ):
                    guarded = self._guarded_attr(node.args[0])
                    if guarded is not None:
                        self._report(node, guarded)
                # Interprocedural: passing a guarded array to a function
                # whose summary reads that parameter's element data is a
                # read at this call site — the callee needs the owner's
                # scope, so the caller must hold it.
                project = getattr(ctx, "project", None)
                if project is not None:
                    reported: set[int] = set()
                    for info, summary in project.summaries_for_call(node):
                        if not summary.reads_params:
                            continue
                        mapping = map_args(node, info)
                        for param in summary.reads_params:
                            arg = mapping.get(param)
                            if arg is None or id(arg) in reported:
                                continue
                            guarded = self._guarded_attr(arg)
                            if guarded is not None:
                                reported.add(id(arg))
                                self._report(arg, guarded)
                self.generic_visit(node)

            def visit_For(self, node: ast.For) -> None:
                guarded = self._guarded_attr(node.iter)
                if guarded is not None:
                    self._report(node.iter, guarded)
                self.generic_visit(node)

            def visit_comprehension_iter(self, iter_node: ast.expr) -> None:
                guarded = self._guarded_attr(iter_node)
                if guarded is not None:
                    self._report(iter_node, guarded)

            def generic_visit(self, node: ast.AST) -> None:
                if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                    for gen in node.generators:
                        self.visit_comprehension_iter(gen.iter)
                super().generic_visit(node)

        Visitor().visit(ctx.tree)
        return findings


# ---------------------------------------------------------------------------
# PL002 — secret-escape
# ---------------------------------------------------------------------------

#: Call attributes that put their arguments on a wire (bus payloads, the
#: transport control plane, serialization).
_WIRE_SINKS = frozenset(
    {"send_payload", "broadcast_payload", "send", "broadcast", "serialize", "request"}
)
_LOG_SINKS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical", "log"}
)

#: Dataclass fields that hold key secrets: an auto-generated __repr__
#: would print them into logs/tracebacks.  Covers both the legacy dealer
#: secrets (λ, µ, the prime factors, the full private key) and the
#: distributed-keygen share material each party samples locally
#: (repro.crypto.distkeygen): no keygen path may move p_i/q_i/β_i, the
#: per-party aux key, or a d_i over the bus — only pow()-derived protocol
#: values (commitments, partial products, decryption shares) travel.
SECRET_FIELDS = frozenset(
    {
        "d_share",
        "lam",
        "mu",
        "p",
        "q",
        "private_key",
        "_private_key",
        "p_share",
        "q_share",
        "beta_share",
        "aux_private_key",
    }
)


@register
class SecretEscape(Rule):
    """PL002: secret key material reaching a wire/log/repr/public-return sink."""

    rule_id = "PL002"
    name = "secret-escape"
    summary = (
        "Taint from secret sources (partial keys d_i, the dealer's "
        "private key / λ / µ, prime factors, distributed-keygen shares "
        "p_i/q_i/β_i and the aux key) reaching a bus send, the wire "
        "encoder, a log/print/f-string/exception message, or the return "
        "value of a public function; also secret-bearing dataclass "
        "fields left in the auto-generated repr."
    )
    hint = (
        "secrets never leave their owner: send derived protocol values "
        "(ciphertexts, decryption shares) instead, and mark secret "
        "dataclass fields `field(repr=False)`"
    )

    def check(self, ctx: "FileContext") -> list[Finding]:
        rule = self
        findings: list[Finding] = []
        project = getattr(ctx, "project", None)

        def scan_function(node, qualname: str) -> None:
            taint = TaintEngine()
            if project is not None:
                # Interprocedural hook: a call returns secret-derived data
                # when any resolved callee's summary says so (directly, or
                # through a tainted argument flowing to its return).
                def resolve(call: ast.Call) -> bool:
                    for info, summary in project.summaries_for_call(call):
                        if summary.returns_secret:
                            return True
                        if summary.taint_params:
                            mapping = map_args(call, info)
                            for param in summary.taint_params:
                                arg = mapping.get(param)
                                if arg is not None and taint.is_tainted(arg):
                                    return True
                    return False

                taint.resolver = resolve
            for arg in list(node.args.args) + list(node.args.kwonlyargs):
                if arg.arg in SECRET_FIELDS:
                    taint.tainted.add(arg.arg)
            taint.propagate(node.body)
            public = not node.name.startswith("_")

            for sub in ast.walk(node):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub is not node:
                    continue  # nested defs scan separately
                if isinstance(sub, ast.Call):
                    func = sub.func
                    sink = None
                    if isinstance(func, ast.Attribute):
                        if func.attr in _WIRE_SINKS:
                            sink = f"wire sink `.{func.attr}(...)`"
                        elif func.attr in _LOG_SINKS:
                            sink = f"log sink `.{func.attr}(...)`"
                    elif isinstance(func, ast.Name) and func.id in ("print", "repr"):
                        sink = f"{func.id}() sink"
                    if sink:
                        args = list(sub.args) + [kw.value for kw in sub.keywords]
                        for arg in args:
                            if taint.is_tainted(arg):
                                findings.append(
                                    rule.finding(
                                        ctx,
                                        arg,
                                        f"secret-derived value reaches {sink}",
                                        qualname,
                                    )
                                )
                    elif project is not None:
                        # A tainted argument handed to a function whose
                        # summary forwards that parameter into a sink.
                        reported = False
                        for info, summary in project.summaries_for_call(sub):
                            if reported or not summary.sink_params:
                                continue
                            mapping = map_args(sub, info)
                            for param, where in summary.sink_params.items():
                                arg = mapping.get(param)
                                if arg is not None and taint.is_tainted(arg):
                                    findings.append(
                                        rule.finding(
                                            ctx,
                                            arg,
                                            f"secret-derived value passed to "
                                            f"`{info.name}()`, which forwards "
                                            f"it to {where}",
                                            qualname,
                                        )
                                    )
                                    reported = True
                                    break
                elif isinstance(sub, ast.JoinedStr):
                    for value in sub.values:
                        if isinstance(value, ast.FormattedValue) and taint.is_tainted(
                            value.value
                        ):
                            findings.append(
                                rule.finding(
                                    ctx,
                                    value.value,
                                    "secret-derived value interpolated into an "
                                    "f-string (log/exception-message sink)",
                                    qualname,
                                )
                            )
                elif isinstance(sub, ast.Return) and sub.value is not None and public:
                    if taint.is_tainted(sub.value):
                        findings.append(
                            rule.finding(
                                ctx,
                                sub.value,
                                f"secret-derived value returned from public "
                                f"function `{node.name}`",
                                qualname,
                            )
                        )

        class Visitor(FunctionWalker):
            def handle_function(self, node) -> None:
                scan_function(node, self.qualname)

            def handle_class(self, node: ast.ClassDef) -> None:
                if not _is_dataclass(node) or _dataclass_repr_disabled(node):
                    return
                for stmt in node.body:
                    if (
                        isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and stmt.target.id in SECRET_FIELDS
                        and not _field_repr_disabled(stmt.value)
                    ):
                        findings.append(
                            rule.finding(
                                ctx,
                                stmt,
                                f"secret dataclass field `{stmt.target.id}` is "
                                f"included in the auto-generated __repr__ "
                                f"(leaks into logs and tracebacks)",
                                self.qualname,
                            )
                        )

        Visitor().visit(ctx.tree)
        return findings


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _dataclass_repr_disabled(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        if isinstance(dec, ast.Call):
            for kw in dec.keywords:
                if (
                    kw.arg == "repr"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False
                ):
                    return True
    return False


def _field_repr_disabled(value: ast.expr | None) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    if name != "field":
        return False
    for kw in value.keywords:
        if (
            kw.arg == "repr"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is False
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# PL003 — unregistered-payload
# ---------------------------------------------------------------------------

#: Types the WireCodec can serialize.  Tests extend this via
#: ``register_wire_type`` to prove the registry is open.
WIRE_TYPES: set[str] = {
    "Ciphertext",
    "EncryptedNumber",
    "PartialDecryption",
    "PartialDecryptionVector",
    "Request",
    "ShareVector",
    "bytes",
    "float",
    "int",
    "list",
    "tuple",
}


def register_wire_type(name: str) -> None:
    """Teach PL003 about a newly registered wire type."""
    WIRE_TYPES.add(name)


@register
class UnregisteredPayload(Rule):
    """PL003: a bus payload whose static type is not a registered wire type."""

    rule_id = "PL003"
    name = "unregistered-payload"
    summary = (
        "An argument of send_payload/broadcast_payload whose type is "
        "statically known and is not a registered WireCodec wire type "
        "(str/dict/set/bool literals, f-strings, numpy arrays, ...)."
    )
    hint = (
        "define a wire type in repro/network/wire.py (codec + exact size "
        "formula) and send that; ad-hoc objects cannot travel the bus"
    )

    #: payload argument position per sink (positional calling convention).
    _PAYLOAD_POS = {"send_payload": 2, "broadcast_payload": 1}

    def check(self, ctx: "FileContext") -> list[Finding]:
        rule = self
        findings: list[Finding] = []

        def literal_type(node: ast.expr, assigns: dict[str, ast.expr]) -> str | None:
            """The provable non-wire type of an expression, if any."""
            if isinstance(node, ast.Constant):
                if node.value is None:
                    return "None"
                # bytes, int and float travel; bool does not (the codec
                # refuses it as ambiguous), nor does str.
                name = type(node.value).__name__
                return None if name in WIRE_TYPES else name
            if isinstance(node, ast.Dict):
                return "dict"
            if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
                return "set"
            if isinstance(node, ast.DictComp):
                return "dict"
            if isinstance(node, ast.JoinedStr):
                return "str"
            if isinstance(node, (ast.List, ast.ListComp, ast.Tuple, ast.GeneratorExp)):
                return None  # vectors of wire items are fine
            if isinstance(node, ast.Call):
                func = node.func
                name = (
                    func.attr
                    if isinstance(func, ast.Attribute)
                    else getattr(func, "id", "")
                )
                if name in ("array", "asarray", "ascontiguousarray", "zeros", "ones", "full"):
                    return "numpy.ndarray"
                if name in ("str", "dict", "set", "bool"):
                    return name
                if name and name[0].isupper() and name not in WIRE_TYPES:
                    # A constructor call of a known-named class that is not
                    # a registered wire type.
                    return name
                return None
            if isinstance(node, ast.Name) and node.id in assigns:
                return literal_type(assigns[node.id], {})
            return None

        class Visitor(FunctionWalker):
            def __init__(self) -> None:
                super().__init__()
                self._assigns_stack: list[dict[str, ast.expr]] = [{}]

            def handle_function(self, node) -> None:
                assigns: dict[str, ast.expr] = {}
                for stmt in ast.walk(node):
                    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                        target = stmt.targets[0]
                        if isinstance(target, ast.Name):
                            assigns[target.id] = stmt.value
                self._assigns_stack.append(assigns)
                try:
                    self._scan(node, assigns)
                finally:
                    self._assigns_stack.pop()

            def _scan(self, node, assigns: dict[str, ast.expr]) -> None:
                for sub in ast.walk(node):
                    if not isinstance(sub, ast.Call):
                        continue
                    func = sub.func
                    if not isinstance(func, ast.Attribute):
                        continue
                    pos = rule._PAYLOAD_POS.get(func.attr)
                    if pos is None:
                        continue
                    payload = None
                    if len(sub.args) > pos:
                        payload = sub.args[pos]
                    else:
                        for kw in sub.keywords:
                            if kw.arg == "payload":
                                payload = kw.value
                    if payload is None:
                        continue
                    bad = literal_type(payload, assigns)
                    if bad is not None:
                        findings.append(
                            rule.finding(
                                ctx,
                                payload,
                                f"bus payload of statically-known type "
                                f"`{bad}` is not a registered wire type",
                                self.qualname,
                            )
                        )

        Visitor().visit(ctx.tree)
        return findings


# ---------------------------------------------------------------------------
# PL004 — dealer-use-after-scrub
# ---------------------------------------------------------------------------

#: Classes whose post-provisioning methods must never reach dealer-key
#: material.  DeployedFederation scrubs the dealer key after provisioning;
#: RuntimeFederation (the standalone runtime, distributed keygen) never
#: has one — there the same operations are not merely scrubbed but
#: *impossible*, so flagging them is even more clear-cut.
_DEPLOYED_ROOTS = frozenset({"DeployedFederation", "RuntimeFederation"})

#: Methods of a deployed-federation class that legitimately touch dealer
#: key material: assembly and provisioning run *before* the scrub.  (For
#: RuntimeFederation these phases hold no dealer key either — keygen is
#: distributed — but they are still the only place key material may move.)
_PRE_SCRUB_METHODS = frozenset(
    {"__init__", "from_partition", "from_global", "_assemble", "_provision"}
)

#: Dealer-key-only operations: these can only succeed while the dealer's
#: withheld key material still exists.
_DEALER_ONLY_CALLS = frozenset({"raw_decrypt", "raw_decrypt_classic", "decrypt"})


@register
class DealerUseAfterScrub(Rule):
    """PL004: dealer-key-only operations reachable post-provisioning."""

    rule_id = "PL004"
    name = "dealer-use-after-scrub"
    summary = (
        "Inside DeployedFederation or RuntimeFederation (or a subclass), "
        "post-provisioning code reaches an operation that only works "
        "with dealer key material: dealer-key CRT decryption, reading "
        "threshold .shares / ._private_key / .d_share, or direct "
        "threshold.joint_decrypt* (bypassing the runtime-routed combine "
        "flow).  A DeployedFederation scrubs the dealer key after "
        "provisioning; a RuntimeFederation runs distributed keygen, so no "
        "dealer key ever exists."
    )
    hint = (
        "only the share-combination flow can decrypt (post-scrub for "
        "DeployedFederation, always for RuntimeFederation): route through "
        "context.joint_decrypt*/the party runtimes, and keep key-"
        "material access inside __init__/provisioning"
    )

    def check(self, ctx: "FileContext") -> list[Finding]:
        rule = self
        findings: list[Finding] = []

        deployed_classes = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                base_names = {
                    b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", "")
                    for b in node.bases
                }
                if node.name in _DEPLOYED_ROOTS or (
                    base_names & (_DEPLOYED_ROOTS | deployed_classes)
                ):
                    deployed_classes.add(node.name)

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) or node.name not in deployed_classes:
                continue
            for method in node.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name in _PRE_SCRUB_METHODS:
                    continue
                qualname = f"{node.name}.{method.name}"
                for sub in ast.walk(method):
                    if isinstance(sub, ast.Attribute) and sub.attr in (
                        "_private_key",
                        "d_share",
                    ):
                        findings.append(
                            rule.finding(
                                ctx,
                                sub,
                                f"post-provisioning access to scrubbed key "
                                f"material `.{sub.attr}`",
                                qualname,
                            )
                        )
                    elif (
                        isinstance(sub, ast.Subscript)
                        and isinstance(sub.value, ast.Attribute)
                        and sub.value.attr == "shares"
                        and isinstance(sub.ctx, ast.Load)
                    ):
                        findings.append(
                            rule.finding(
                                ctx,
                                sub,
                                "post-provisioning read of threshold .shares "
                                "(remote shares are scrubbed to None)",
                                qualname,
                            )
                        )
                    elif isinstance(sub, ast.Call) and isinstance(
                        sub.func, ast.Attribute
                    ):
                        attr = sub.func.attr
                        receiver = sub.func.value
                        via_threshold = (
                            isinstance(receiver, ast.Attribute)
                            and receiver.attr == "threshold"
                        )
                        if attr in _DEALER_ONLY_CALLS:
                            findings.append(
                                rule.finding(
                                    ctx,
                                    sub,
                                    f"dealer-key-only call `.{attr}(...)` "
                                    f"reachable after the dealer scrub",
                                    qualname,
                                )
                            )
                        elif via_threshold and attr.startswith("joint_decrypt"):
                            findings.append(
                                rule.finding(
                                    ctx,
                                    sub,
                                    f"direct `threshold.{attr}(...)` bypasses "
                                    f"the runtime-routed combine flow and "
                                    f"needs locally-held shares (scrubbed)",
                                    qualname,
                                )
                            )
        return findings


# ---------------------------------------------------------------------------
# PL005 — drain-discipline
# ---------------------------------------------------------------------------

_SEND_CALLS = frozenset({"send_payload", "broadcast_payload"})
_BARRIER_CALLS = frozenset({"round", "assert_drained", "drain"})


def scan_open_send(
    body: list[ast.stmt], classify: "Callable[[ast.Call], str | None]"
) -> ast.Call | None:
    """Forward path scan; returns the open (unbarriered) send, if any.

    ``classify`` maps a call to ``"send"``, ``"barrier"``, or ``None``
    (effect-neutral).  PL005 passes a project-aware classifier (calls to
    functions whose summary leaves a send open count as sends, calls to
    functions containing a barrier count as barriers); the summary
    computation passes the primitive-only classifier, which keeps effect
    propagation to exactly one call level.
    """

    def calls_in_order(stmt: ast.stmt) -> list[ast.Call]:
        return [n for n in ast.walk(stmt) if isinstance(n, ast.Call)]

    def scan_block(
        body: list[ast.stmt], open_send: ast.Call | None
    ) -> ast.Call | None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, (ast.If,)):
                for call in calls_in_order(ast.Expr(stmt.test)):
                    kind = classify(call)
                    if kind == "send":
                        open_send = call
                    elif kind == "barrier":
                        open_send = None
                then = scan_block(stmt.body, open_send)
                other = scan_block(stmt.orelse, open_send)
                open_send = then or other
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                after_body = scan_block(stmt.body, open_send)
                after_else = scan_block(stmt.orelse, after_body)
                open_send = after_else or after_body or open_send
                # A barrier inside the loop body clears sends *of that
                # iteration*; conservatively, a loop whose body ends
                # open leaves the function open.
                if scan_block(stmt.body, None) is None and after_body is None:
                    open_send = scan_block(stmt.orelse, open_send)
            elif isinstance(stmt, ast.Try):
                after_try = scan_block(stmt.body, open_send)
                for handler in stmt.handlers:
                    h = scan_block(handler.body, after_try)
                    after_try = after_try or h
                after_try = scan_block(stmt.orelse, after_try)
                open_send = scan_block(stmt.finalbody, after_try)
            elif isinstance(stmt, ast.With):
                open_send = scan_block(stmt.body, open_send)
            else:
                for call in calls_in_order(stmt):
                    kind = classify(call)
                    if kind == "send":
                        open_send = call
                    elif kind == "barrier":
                        open_send = None
            if isinstance(stmt, (ast.Return, ast.Raise)):
                # Path terminates here; an open send at a raise is the
                # error path abandoning in-flight messages — still a
                # drained-invariant break, reported at the send.
                continue
        return open_send

    return scan_block(body, None)


@register
class DrainDiscipline(Rule):
    """PL005: a bus send with no synchronisation barrier on some path."""

    rule_id = "PL005"
    name = "drain-discipline"
    summary = (
        "A function that sends on the bus (send_payload/broadcast_payload, "
        "or a call to any function whose summary leaves a send open) has "
        "an execution path ending with no subsequent round()/"
        "assert_drained()/drain() — over a real transport those bytes sit "
        "undelivered and the end-of-training drained invariant breaks.  "
        "`_op_*` dispatch handlers are exempt by convention: their send is "
        "the *reply*, and the requesting flow owns the round barrier."
    )
    hint = (
        "finish the flow with bus.round(k) (the sync barrier drains "
        "inboxes) or delegate to a canonical flow in repro/network/flows.py"
    )

    def check(self, ctx: "FileContext") -> list[Finding]:
        rule = self
        findings: list[Finding] = []
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

        class Visitor(FunctionWalker):
            def handle_function(self, node) -> None:
                if node.name.startswith("_op_"):
                    # Reactive dispatch handler: the send is the reply to a
                    # request; the requesting flow owns the round barrier.
                    return
                open_send = scan_open_send(node.body, classify)
                if open_send is not None:
                    findings.append(
                        rule.finding(
                            ctx,
                            open_send,
                            "bus send with no round()/assert_drained()/"
                            "drain() on some path to function exit",
                            self.qualname,
                        )
                    )

        Visitor().visit(ctx.tree)
        return findings
