"""One run of one workload: repeats, failure counting, metric folding.

A *repeat* is the closed loop a user of the library runs: build the three
parties and the federation, fit, predict the held-out rows, check against
the plaintext oracle, close.  There is no warm-up: obfuscator precompute is
paid by every fit, so it is timed.  End-to-end metrics come from untraced
repeats only; ``trace=True`` adds one extra repeat under the span wrappers
and the micro-probes, and yields the per-layer metrics.
"""

from __future__ import annotations

import resource
import statistics
import traceback
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from probes import run_probes
from repro import Federation, Party, PivotClassifier
from repro.analysis import opcount
from tracing import Tracer
from workloads import Inputs, Workload, make_inputs, oracle_predictions, pivot_config

#: A run measures at least this many untraced repeats however short
#: ``--seconds`` is, so every timing is a median (``--smoke`` passes 1).
MIN_REPEATS = 3
#: Construct-and-close cycles beyond the repeats: set-up is ~15 ms of random
#: prime search, far too noisy to report from three samples.
EXTRA_SETUPS = 30
#: Bus tags whose bytes are reported as ``network.bytes.<tag>``.
BYTE_TAGS = (
    "mask-vector",
    "label-vectors",
    "split-stats",
    "mpc-convert",
    "eq10",
    "prediction-vector",
    "threshold-decrypt",
)


@dataclass
class Repeat:
    """What one repeat measured; ``None`` timings mean the phase raised."""

    setup_s: float | None = None
    train_s: float | None = None
    predict_s: float | None = None
    fit_failed: str = ""  # why the fit counts as a failed operation
    failed_rows: int = 0
    #: Exactly repeatable integers: any difference between two repeats of one
    #: run is a failure, whatever the timings say.
    counts: dict[str, int] = field(default_factory=dict)
    resolved: dict[str, Any] = field(default_factory=dict)


@dataclass
class Outcome:
    workload: Workload
    inputs: Inputs
    repeats: list[Repeat]  # untraced: the only source of end-to-end metrics
    traced: Repeat | None
    samples: dict[str, list[float]]  # per timing metric, what its median is over
    end_to_end: dict[str, float]
    per_layer: dict[str, float] | None
    absent: list[str]
    attempted: int
    failed: int
    resolved: dict[str, Any]


class SimulatedDecryption(RuntimeError):
    """Decryption resolved to the dealer shortcut no deployment has."""


def _build(workload: Workload, inputs: Inputs) -> Federation:
    blocks = inputs.train_blocks()
    parties = [
        Party(block, labels=inputs.y if index == 0 else None)
        for index, block in enumerate(blocks)
    ]
    return Federation(parties, config=pivot_config(workload))


def _delta(after: dict[str, Any], before: dict[str, Any], key: str) -> int:
    return int(after[key]) - int(before[key])


def _phase(tracer: Tracer | None, name: str) -> AbstractContextManager[Any]:
    """The traced repeat's root span for ``name``; nothing on untraced repeats."""
    return nullcontext() if tracer is None else tracer.root(name)


def run_repeat(workload: Workload, inputs: Inputs, tracer: Tracer | None = None) -> Repeat:
    """Build, fit, predict, check, close — never raises for a protocol failure."""
    repeat = Repeat()
    rows = workload.predict_rows
    started = perf_counter()
    fed = _build(workload, inputs)
    repeat.setup_s = perf_counter() - started
    try:
        costs = fed.cost_snapshot()
        repeat.resolved = {
            "decrypt_mode": getattr(fed, "decrypt_mode", "combine"),
            "keygen": getattr(fed.config, "keygen", "n/a"),
            "transport": costs["bus"]["transport"]["kind"],
            "keysize": fed.config.keysize,
        }
        if repeat.resolved["decrypt_mode"] == "simulate":
            raise SimulatedDecryption(
                "threshold decryption resolved to 'simulate'; the benchmark "
                "times the real share-combining flow only"
            )
        ops0 = opcount.snapshot()
        clf = PivotClassifier()
        try:
            started = perf_counter()
            with _phase(tracer, "fit"):
                clf.fit(fed)
            repeat.train_s = perf_counter() - started
        except Exception:
            repeat.fit_failed = "fit raised: " + traceback.format_exc(limit=3)
            repeat.failed_rows = rows
            return repeat
        fitted = fed.cost_snapshot()
        bus0, bus1 = costs["bus"], fitted["bus"]
        if bus1["pending"]:
            repeat.fit_failed = f"bus not drained after fit: {bus1['pending']} pending"
        elif bus1["bytes_measured"] != bus1["bytes_estimated"]:
            repeat.fit_failed = (
                f"bytes_measured {bus1['bytes_measured']} != "
                f"bytes_estimated {bus1['bytes_estimated']}"
            )
        try:
            started = perf_counter()
            with _phase(tracer, "predict"):
                predicted = clf.predict(inputs.heldout_blocks())
            repeat.predict_s = perf_counter() - started
        except Exception:
            repeat.failed_rows = rows
            traceback.print_exc()
            return repeat
        done = fed.cost_snapshot()
        ops = opcount.diff(ops0)
        grid = [client.split_values for client in clf.ctx_.clients]
        expected = oracle_predictions(workload, inputs, grid)
        repeat.failed_rows = int(np.sum(np.asarray(predicted) != expected))
        if done["bus"]["pending"]:
            repeat.failed_rows = rows
        model = clf.model_
        repeat.counts = {
            "train_bytes": _delta(bus1, bus0, "bytes_measured"),
            "train_rounds": _delta(bus1, bus0, "rounds"),
            "crypto.ce": ops["ce"],
            "crypto.cd": ops["cd"],
            "mpc.cs": ops["cs"],
            "mpc.cc": ops["cc"],
            "mpc.rounds": _delta(done["mpc"], costs["mpc"], "rounds"),
            "mpc.bytes": _delta(done["mpc"], costs["mpc"], "bytes"),
            "mpc.triples": _delta(done["dealer"], costs["dealer"], "triples"),
            "network.messages": _delta(done["bus"], bus0, "messages"),
            "network.predict_bytes": _delta(done["bus"], bus1, "bytes_measured"),
            "core.nodes": model.n_internal,
            "core.leaves": len(model.leaves()),
        }
        for tag in BYTE_TAGS:
            repeat.counts[f"network.bytes.{tag}"] = int(
                done["bus"]["by_tag"].get(tag, 0)
            ) - int(bus0["by_tag"].get(tag, 0))
        return repeat
    finally:
        fed.close()


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    *,
    trace: bool,
    min_repeats: int = MIN_REPEATS,
    extra_setups: int = EXTRA_SETUPS,
    trace_path: Path | None = None,
) -> Outcome:
    """Measure ``workload`` for about ``seconds`` seconds at ``seed``.

    Whole untraced repeats run while another one still fits in the budget
    (and until ``min_repeats`` are done).  A traced run spends half the
    budget that way and the rest on its one traced repeat and the probes.
    """
    inputs = make_inputs(workload, seed)
    budget = seconds / 2 if trace else seconds
    began = perf_counter()
    repeats: list[Repeat] = []
    longest = 0.0
    while len(repeats) < min_repeats or perf_counter() - began + longest <= budget:
        started = perf_counter()
        repeats.append(run_repeat(workload, inputs))
        longest = max(longest, perf_counter() - started)

    samples = {
        "setup_s": [r.setup_s for r in repeats if r.setup_s is not None],
        "train_s": [r.train_s for r in repeats if r.train_s is not None],
        "predict_ms_per_row": [
            r.predict_s * 1e3 / workload.predict_rows for r in repeats if r.predict_s is not None
        ],
    }
    for _ in range(extra_setups):
        started = perf_counter()
        fed = _build(workload, inputs)
        samples["setup_s"].append(perf_counter() - started)
        fed.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    per_layer: dict[str, float] | None = None
    absent: list[str] = []
    traced: Repeat | None = None
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_repeat(workload, inputs, tracer)
        finally:
            tracer.uninstall()
        per_layer = tracer.metrics()
        fit_root = next((s for s in tracer.spans if s.name == "fit" and s.parent < 0), None)
        untraced_fit = _median(samples["train_s"])
        if fit_root is not None and fit_root.end_ns and untraced_fit:
            per_layer["trace.overhead"] = fit_root.duration_ns / 1e9 / untraced_fit
            per_layer["trace.unattributed_share"] = tracer.unattributed_share(fit_root)
        else:
            per_layer["trace.overhead"] = per_layer["trace.unattributed_share"] = 0.0
        probes, absent_probes = run_probes()
        per_layer.update(probes)
        absent = tracer.absent + absent_probes
        per_layer["trace.absent"] = float(len(absent))
        per_layer.update(
            {k: float(v) for k, v in traced.counts.items() if not k.startswith("train_")}
        )
        if trace_path is not None:
            tracer.write_jsonl(trace_path, f"{workload.name}/seed{seed}")

    # Integers must repeat exactly: a repeat that disagrees with the first
    # complete one fails its fit, unless the fit already failed on its own.
    measured = repeats + ([traced] if traced is not None else [])
    reference = next((r.counts for r in measured if r.counts), {})
    for repeat in measured:
        if repeat.counts and repeat.counts != reference and not repeat.fit_failed:
            changed = sorted(k for k in reference if repeat.counts.get(k) != reference[k])
            repeat.fit_failed = f"integer metrics differ between repeats: {changed}"
    failed = sum(bool(r.fit_failed) + r.failed_rows for r in measured)
    attempted = len(measured) * (1 + workload.predict_rows)

    end_to_end = {
        **{name: _median(values) for name, values in samples.items()},
        "train_bytes": float(reference.get("train_bytes", 0)),
        "train_rounds": float(reference.get("train_rounds", 0)),
        "peak_rss_mb": peak_rss_mb,
    }
    resolved = next((r.resolved for r in measured if r.resolved), {})
    return Outcome(
        workload, inputs, repeats, traced, samples, end_to_end, per_layer,
        absent, attempted, failed, resolved,
    )
