"""Span tracing from outside the program.

Timing wrappers are installed around a fixed table of ``repro``'s public
callables for the one traced repeat of a run and removed afterwards; no file
under ``src/`` knows about them.  A span is (name, layer, start, end,
parent); spans are kept in memory and written as JSONL when the run ends.
A metric ending in ``_s`` is the *self* time of its spans (duration minus
the spans it directly caused) unless the table marks it inclusive.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterator

#: metric -> (inclusive?, [(module, qualified name), ...]).  The layer is the
#: metric's prefix.  Self-time metrics of one layer never double count; the
#: three inclusive ones overlap the layers they call into by design.
SPAN_TABLE: dict[str, tuple[bool, list[tuple[str, str]]]] = {
    "crypto.precompute_s": (False, [("repro.crypto.batch", "ObfuscatorPool.precompute")]),
    "crypto.mask_s": (False, [("repro.crypto.batch", "BatchCryptoEngine.mask_vector")]),
    "crypto.dot_s": (
        False,
        [
            ("repro.crypto.batch", "BatchCryptoEngine.batch_dot_products"),
            ("repro.crypto.batch", "BatchCryptoEngine.sum_ciphertexts"),
            ("repro.crypto.batch", "BatchCryptoEngine.scale_vector"),
            # Algorithm 4's per-leaf x0 / x1 and the final z . [eta] are plain
            # operator calls, not batch-engine calls.
            ("repro.crypto.encoding", "EncryptedNumber.__mul__"),
            ("repro.crypto.encoding", "encrypted_dot_product"),
            # Eq. 10 multiplies each party's integer share into raw [v_j].
            ("repro.crypto.paillier", "Ciphertext.__mul__"),
        ],
    ),
    "crypto.encrypt_s": (
        False,
        [
            ("repro.crypto.batch", "BatchCryptoEngine.encrypt_vector"),
            ("repro.crypto.batch", "BatchCryptoEngine.encrypt_ciphertexts"),
            # share_to_cipher encrypts each share without the pool.
            ("repro.crypto.paillier", "PaillierPublicKey.encrypt"),
        ],
    ),
    "crypto.partial_decrypt_s": (
        False,
        [("repro.crypto.threshold", "ThresholdKeyShare.partial_decrypt_batch")],
    ),
    "crypto.combine_s": (False, [("repro.crypto.threshold", "combine_partial_vectors")]),
    "mpc.div_s": (False, [("repro.mpc.advanced", "FixedPointOps.div")]),
    "mpc.argmax_s": (False, [("repro.mpc.advanced", "FixedPointOps.argmax")]),
    "mpc.compare_s": (
        False,
        [
            ("repro.mpc.advanced", "FixedPointOps.lt"),
            ("repro.mpc.advanced", "FixedPointOps.gt"),
            ("repro.mpc.advanced", "FixedPointOps.ltz"),
            ("repro.mpc.advanced", "FixedPointOps.eqz"),
            ("repro.mpc.comparison", "le"),
        ],
    ),
    "mpc.mul_s": (
        False,
        [
            ("repro.mpc.advanced", "FixedPointOps.mul"),
            ("repro.mpc.advanced", "FixedPointOps.mul_public"),
        ],
    ),
    "mpc.convert_s": (
        False,
        [
            ("repro.mpc.conversion", "ciphers_to_shares"),
            ("repro.mpc.conversion", "share_to_cipher"),
        ],
    ),
    "network.serialize_s": (
        False,
        [
            ("repro.network.wire", "WireCodec.serialize"),
            # The bus sizes every payload twice (measured and estimated).
            ("repro.network.wire", "WireCodec.estimate"),
        ],
    ),
    "network.deserialize_s": (False, [("repro.network.wire", "WireCodec.deserialize")]),
    "network.decrypt_flow_s": (False, [("repro.network.flows", "record_threshold_decrypt")]),
    "network.barrier_s": (
        False,
        [
            ("repro.network.bus", "MessageBus.round"),
            ("repro.network.bus", "MessageBus.assert_drained"),
        ],
    ),
    "core.fit_self_s": (False, [("repro.core.trainer", "TreeTrainer.fit")]),
    "core.gain_s": (True, [("repro.core.gain", "secure_split_gains")]),
    "core.predict_self_s": (False, [("repro.core.prediction", "run_predict_batch_slices")]),
    "federation.react_s": (False, [("repro.federation.party", "PartyRuntime.handle")]),
    "federation.split_stats_s": (
        True,
        [("repro.federation.party", "PartyRuntime.split_statistics")],
    ),
    "federation.apply_split_s": (True, [("repro.federation.party", "PartyRuntime.apply_split")]),
}

#: The span whose self time is the fit's orchestration: what is left of the
#: traced fit once every other named span is taken out.
FIT_SPAN = "repro.core.trainer:TreeTrainer.fit"


@dataclass
class Span:
    name: str
    metric: str
    parent: int  # index into the tracer's span list, -1 for a root
    start_ns: int
    end_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Installs the wrappers, collects spans, and folds them into metrics."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []  # table targets that no longer import
        self._current = -1
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn: Callable[..., Any], name: str, metric: str) -> Callable[..., Any]:
        spans = self.spans

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            parent = self._current
            self._current = len(spans)
            span = Span(name, metric, parent, perf_counter_ns())
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end_ns = perf_counter_ns()
                self._current = parent

        return timed

    @contextmanager
    def root(self, name: str) -> Iterator[Span]:
        """A phase of the traced repeat (``fit`` / ``predict``) as a root span."""
        span = Span(name, "", -1, perf_counter_ns())
        self.spans.append(span)
        self._current = len(self.spans) - 1
        try:
            yield span
        finally:
            span.end_ns = perf_counter_ns()
            self._current = -1

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        for metric, (_inclusive, targets) in SPAN_TABLE.items():
            for module_name, qualname in targets:
                name = f"{module_name}:{qualname}"
                try:
                    module = importlib.import_module(module_name)
                    owner: Any = module
                    *path, attr = qualname.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.absent.append(name)
                    continue
                timed = self._wrap(original, name, metric)
                holders = [owner]
                if owner is module:
                    # ``from x import f`` copies the function into the
                    # importer's namespace; patch every copy repro holds.
                    holders = [
                        mod
                        for mod_name, mod in list(sys.modules.items())
                        if mod_name.startswith("repro")
                        and getattr(mod, attr, None) is original
                    ]
                for holder in holders:
                    self._undo.append((holder, attr, original))
                    setattr(holder, attr, timed)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    # -- folding -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Seconds per table metric over every recorded span."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_ns[span.parent] += span.duration_ns
        totals = {metric: 0 for metric in SPAN_TABLE}
        for index, span in enumerate(self.spans):
            if not span.metric:
                continue
            inclusive = SPAN_TABLE[span.metric][0]
            totals[span.metric] += span.duration_ns - (0 if inclusive else child_ns[index])
        return {metric: ns / 1e9 for metric, ns in totals.items()}

    def unattributed_share(self, root: Span) -> float:
        """Share of ``root`` (the traced fit) that falls in no named span
        other than the trainer's own catch-all ``TreeTrainer.fit``."""
        root_index = self.spans.index(root)
        named_ns = 0
        for span in self.spans:
            # Top-level named spans under the root or under the catch-all
            # cover their whole subtree; deeper ones are already inside one.
            if not span.metric or span.name == FIT_SPAN:
                continue
            parent = span.parent
            while parent >= 0 and self.spans[parent].name == FIT_SPAN:
                parent = self.spans[parent].parent
            if parent == root_index:
                named_ns += span.duration_ns
        return 1.0 - named_ns / root.duration_ns

    def write_jsonl(self, path: Path, trace_id: str) -> None:
        """One line per span; every span of the traced repeat shares ``trace``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index, span in enumerate(self.spans):
                record = {
                    "trace": trace_id,
                    "span": index,
                    "parent": span.parent,
                    "name": span.name,
                    "layer": span.metric.split(".")[0] if span.metric else "run",
                    "metric": span.metric,
                    "start_ns": span.start_ns,
                    "end_ns": span.end_ns,
                }
                out.write(json.dumps(record) + "\n")
