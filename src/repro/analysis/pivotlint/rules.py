"""The pivotlint privacy-rule catalogue: PL001 and PL002.

(PL007 and PL008 live in :mod:`repro.analysis.pivotlint.rules_protocol`,
PL011 and PL012 in :mod:`repro.analysis.pivotlint.rules_concurrency`; the
engine imports both modules so :data:`REGISTRY` always holds the full
catalogue.)

Each rule is a class with a ``rule_id``, a one-line ``summary``, a fix
``hint``, and a ``check(file_ctx) -> list[Finding]``.  Rules register
themselves in :data:`REGISTRY` via :func:`register`; adding a rule is
writing one class in this shape (see the README's "adding a rule").

The rules encode the paper's two static invariants:

* **Locality** (§3.1): raw feature/label data is read only inside the
  owning party's scope — PL001.  ``LocalView`` enforces it at run time on
  the guarded views; the raw arrays a ``VerticalPartition`` or a
  ``Dataset`` holds have no such guard, and PL001 is the only check there.
* **Key secrecy** (§2.1, §3.4): secret key material (partial keys d_i, the
  dealer's λ/µ and prime factors) never reaches a wire, a log, an
  exception message, or a public return — PL002.  (No rule polices
  dealer-key use on the multi-process rows: their federations never hold
  a dealer key, so every such path raises at run time.)
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.analysis.pivotlint.callgraph import map_args
from repro.analysis.pivotlint.dataflow import FunctionWalker, expr_fingerprint, stmt_span
from repro.analysis.pivotlint.findings import Finding
from repro.analysis.pivotlint.summaries import (
    FSTRING,
    MATERIALIZERS,
    RETURN,
    SECRET,
    LabelEngine,
    iter_sinks,
)

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
                    and func.attr in MATERIALIZERS
                    and node.args
                ):
                    guarded = self._guarded_attr(node.args[0])
                    if guarded is not None:
                        self._report(node, guarded)
                # Interprocedural: passing a guarded array to a function
                # whose summary reads that parameter's element data is a
                # read at this call site — the callee needs the owner's
                # scope, so the caller must hold it.
                reported: set[int] = set()
                for info, summary in ctx.project.summaries_for_call(node):
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
        parents = ctx.parents()
        engines: dict[ast.AST, LabelEngine] = {}

        def seed(
            node: ast.FunctionDef | ast.AsyncFunctionDef,
        ) -> dict[str, frozenset[str]]:
            """Names tainted on entry: the enclosing function's (closure
            captures) and the secret-named parameters."""
            outer = parents.get(node)
            while outer is not None and outer not in engines:
                outer = parents.get(outer)
            labels = dict(engines[outer].labels) if outer is not None else {}
            for arg in list(node.args.args) + list(node.args.kwonlyargs):
                labels.pop(arg.arg, None)
                if arg.arg in SECRET_FIELDS:
                    labels[arg.arg] = frozenset({SECRET})
            return labels

        def scan_function(
            node: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str
        ) -> None:
            project = ctx.project
            engine = LabelEngine(project, project.summaries, seed(node))
            engine.propagate(node.body)
            engines[node] = engine
            public = not node.name.startswith("_")
            forwarded: set[int] = set()
            for sink in iter_sinks(node, engine):
                if SECRET not in sink.labels:
                    continue
                if sink.where == RETURN:
                    if not public:
                        continue
                    message = (
                        f"secret-derived value returned from public "
                        f"function `{node.name}`"
                    )
                elif sink.via is not None:
                    if id(sink.anchor) in forwarded:
                        continue  # one finding per forwarding call
                    forwarded.add(id(sink.anchor))
                    message = (
                        f"secret-derived value passed to `{sink.via.name}()`"
                        f", which forwards it to {sink.where}"
                    )
                elif sink.where == FSTRING:
                    message = f"secret-derived value interpolated into {FSTRING}"
                else:
                    message = f"secret-derived value reaches {sink.where}"
                findings.append(rule.finding(ctx, sink.node, message, qualname))

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
