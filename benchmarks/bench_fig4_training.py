"""Figure 4a-4e: training time of Pivot-Basic vs Pivot-Enhanced (§8.3.1).

Sweeps the number of clients m (4a), samples n (4b), per-client features
d̄ (4c), splits b (4d) and tree depth h (4e), reporting wall time and
modeled time for both protocols.

Shapes to reproduce from the paper:
* enhanced > basic everywhere (the Eq. 10 / private-selection overhead);
* basic grows slowly with n, enhanced linearly in n (4b);
* both grow linearly in d̄ and b with a stable gap (4c, 4d);
* both roughly double per extra depth level (4e);
* both grow with m (more communication per decryption/conversion) (4a).

    python benchmarks/bench_fig4_training.py
    python benchmarks/bench_fig4_training.py --transport asyncio
    pytest benchmarks/bench_fig4_training.py --benchmark-only

``--transport asyncio`` routes every protocol payload over real local TCP
sockets (``SocketTransport``), so the gap between the *modeled* LAN time
(rounds x latency + bytes / bandwidth) and the wall-clock cost of actually
moving the bytes through a socket stack becomes measurable; byte and round
counts are transport-invariant (the parity test pins this).
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from common import DEFAULTS, build_context, calibrated_costs, print_table, timed_run
from repro.core import TreeTrainer

SWEEPS = {
    "m": [2, 3, 4],  # paper: 2..10
    "n": [30, 60, 120],  # paper: 5K..200K
    "d_bar": [1, 2, 4],  # paper: 5..120
    "b": [1, 2, 4],  # paper: 2..32
    "h": [1, 2, 3],  # paper: 2..6
}

#: Transport for every sweep point (set by --transport).
TRANSPORT = "inmemory"

#: The training record's points: (name, protocol, transport, workload
#: overrides).  The h = 3 row next to the default h = 2 shows training
#: rounds growing with the depth: one level more, one set of per-level
#: flows more, however many nodes the level has.
RECORD_POINTS = (
    ("basic/inmemory", "basic", "inmemory", {}),
    ("basic/asyncio", "basic", "asyncio", {}),
    ("enhanced/inmemory", "enhanced", "inmemory", {}),
    ("basic/inmemory/h3", "basic", "inmemory", {"h": 3}),
)


def run_point(
    protocol: str,
    parameter: str,
    value: int,
    transport: str | None = None,
):
    params = {**DEFAULTS, parameter: value}
    context = build_context(
        protocol=protocol,
        transport=transport if transport is not None else TRANSPORT,
        **params,
    )
    costs = calibrated_costs(params["m"], context.config.keysize)
    try:
        return timed_run(lambda: TreeTrainer(context).fit(), context, costs)
    finally:
        context.close()


def run_transport_gap() -> list[list]:
    """Modeled-LAN vs real-socket gap at the default workload.

    Identical protocol runs over the in-memory queues and over real local
    sockets: bytes and rounds match by construction, so the wall-time
    delta is purely the cost of physically moving the bytes.
    """
    rows = []
    for protocol in ("basic", "enhanced"):
        memory = run_point(protocol, "n", DEFAULTS["n"], transport="inmemory")
        sockets = run_point(protocol, "n", DEFAULTS["n"], transport="asyncio")
        rows.append([
            protocol,
            memory.wall_seconds,
            sockets.wall_seconds,
            sockets.wall_seconds - memory.wall_seconds,
            memory.modeled_seconds,
        ])
    return rows


def run_tag_breakdown() -> list[list]:
    """Per-phase byte volumes from the serialization-backed bus.

    Every row is a tag of MessageBus.snapshot()["by_tag"]; the totals are
    *measured* sizes of real serialized payloads, and the final column
    checks them against the codec's arithmetic size formulas
    (measured == estimated, or the wire format drifted).
    """
    rows = []
    for protocol in ("basic", "enhanced"):
        context = build_context(protocol=protocol, **DEFAULTS)
        TreeTrainer(context).fit()
        snap = context.bus.snapshot()
        total = snap["bytes_measured"]
        for tag, n_bytes in sorted(
            snap["by_tag"].items(), key=lambda kv: -kv[1]
        ):
            rows.append([protocol, tag, n_bytes, f"{100.0 * n_bytes / total:.1f}%"])
        reconciled = snap["bytes_measured"] == snap["bytes_estimated"]
        rows.append([
            protocol, "TOTAL", total, "OK" if reconciled else "MISMATCH",
        ])
    return rows


def training_record(json_path: str | None = None) -> dict:
    """End-to-end training record for the perf trajectory (ROADMAP item 2).

    One fit per (protocol, transport) point at the DEFAULTS workload,
    recording wall/modeled seconds, measured bytes, rounds, the
    Ce/Cd/Cs/Cc tallies and the MPC engine's own accounting: its rounds,
    bytes and opened values, and the Beaver triples the dealer handed out
    (ROADMAP item 12a).  ``json_path`` persists it (CI writes
    ``BENCH_training.json`` and uploads it).  The record also
    double-checks the parity invariants the test suite pins: byte and round counts are
    transport-invariant, and measured bytes reconcile with the codec's
    size formulas.
    """
    record: dict[str, dict] = {"workload": dict(DEFAULTS)}
    for point, protocol, transport, overrides in RECORD_POINTS:
        params = {**DEFAULTS, **overrides}
        context = build_context(
            protocol=protocol, transport=transport, **params
        )
        costs = calibrated_costs(params["m"], context.config.keysize)
        mpc_before = context.engine.stats.snapshot()
        triples_before = context.engine.dealer.usage.triples
        try:
            result = timed_run(
                lambda: TreeTrainer(context).fit(), context, costs
            )
            snap = context.bus.snapshot()
            mpc = {
                key: value - mpc_before[key]
                for key, value in context.engine.stats.snapshot().items()
            }
            triples = context.engine.dealer.usage.triples - triples_before
        finally:
            context.close()
        assert snap["bytes_measured"] == snap["bytes_estimated"], (
            f"{protocol}/{transport}: measured bytes diverge from the "
            "codec's size formulas"
        )
        record[point] = {
            "h": params["h"],
            "wall_seconds": round(result.wall_seconds, 4),
            "modeled_seconds": round(result.modeled_seconds, 4),
            "bytes": snap["bytes"],
            "rounds": snap["rounds"],
            "ops": result.ops,
            "mpc_rounds": mpc["rounds"],
            "mpc_bytes": mpc["bytes"],
            "opened_values": mpc["opened_values"],
            "triples": triples,
        }
    for protocol in ("basic",):
        memory = record[f"{protocol}/inmemory"]
        sockets = record[f"{protocol}/asyncio"]
        for invariant in ("bytes", "rounds", "ops", "mpc_rounds", "mpc_bytes"):
            assert memory[invariant] == sockets[invariant], (
                f"{protocol}: {invariant} differ across transports — "
                "the deployment-parity guarantee regressed"
            )
    if json_path:
        Path(json_path).write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {json_path}")
    return record


def run_sweep(parameter: str) -> list[list]:
    rows = []
    for value in SWEEPS[parameter]:
        basic = run_point("basic", parameter, value)
        enhanced = run_point("enhanced", parameter, value)
        rows.append([
            f"{parameter}={value}",
            basic.wall_seconds,
            enhanced.wall_seconds,
            basic.modeled_seconds,
            enhanced.modeled_seconds,
            f"{enhanced.wall_seconds / basic.wall_seconds:.2f}x",
        ])
    return rows


def test_fig4b_enhanced_scales_with_n(benchmark):
    """Fig. 4b's key shape: enhanced training grows ~linearly in n while
    basic grows much more slowly (conversions are O(cdb), not O(n))."""

    def run():
        return (
            run_point("basic", "n", 30),
            run_point("basic", "n", 120),
            run_point("enhanced", "n", 30),
            run_point("enhanced", "n", 120),
        )

    basic_small, basic_large, enh_small, enh_large = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    basic_growth = basic_large.modeled_seconds / basic_small.modeled_seconds
    enhanced_growth = enh_large.modeled_seconds / enh_small.modeled_seconds
    assert enhanced_growth > basic_growth


def test_fig4a_enhanced_slower_than_basic(benchmark):
    def run():
        return run_point("basic", "m", 3), run_point("enhanced", "m", 3)

    basic, enhanced = benchmark.pedantic(run, rounds=1, iterations=1)
    assert enhanced.wall_seconds > basic.wall_seconds


def test_fig4e_depth_doubles_cost(benchmark):
    def run():
        return run_point("basic", "h", 1), run_point("basic", "h", 3)

    shallow, deep = benchmark.pedantic(run, rounds=1, iterations=1)
    assert deep.wall_seconds > 1.8 * shallow.wall_seconds


def main() -> None:
    global TRANSPORT
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--transport",
        choices=("inmemory", "asyncio"),
        default="inmemory",
        help="message transport for every sweep point (asyncio = real "
        "local sockets; byte/round counts are identical either way)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the end-to-end training record (wall, bytes, rounds "
        "per protocol/transport) to PATH (e.g. BENCH_training.json)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI check: emit only the training record (and its "
        "cross-transport parity assertions), skip the full sweeps",
    )
    args = parser.parse_args()
    TRANSPORT = args.transport

    if args.smoke:
        record = training_record(json_path=args.json)
        points = [k for k in record if k != "workload"]
        print(f"SMOKE OK: {len(points)} training points recorded "
              f"({', '.join(points)}); bytes/rounds/ops transport-invariant")
        return
    if args.json:
        training_record(json_path=args.json)

    header = ["sweep", "basic wall(s)", "enh wall(s)",
              "basic model(s)", "enh model(s)", "enh/basic"]
    for figure, parameter in [
        ("4a", "m"), ("4b", "n"), ("4c", "d_bar"), ("4d", "b"), ("4e", "h")
    ]:
        print_table(
            f"Figure {figure} — training time vs {parameter} "
            "(defaults: " + ", ".join(f"{k}={v}" for k, v in DEFAULTS.items()) + ")",
            header,
            run_sweep(parameter),
        )
    print("\nPaper shapes: Pivot-Basic < Pivot-Enhanced throughout; the gap "
          "widens with n (Fig. 4b) and is stable in d̄ and b (Fig. 4c-d).")
    print_table(
        "Per-phase network bytes — measured from serialized payloads "
        "(TOTAL row reconciles measured vs formula bytes)",
        ["protocol", "tag", "bytes", "share"],
        run_tag_breakdown(),
    )
    if TRANSPORT == "asyncio":
        print_table(
            "Modeled-LAN vs real-socket gap — identical protocol runs, "
            "in-memory queues vs SocketTransport (local TCP)",
            ["protocol", "inmemory wall(s)", "socket wall(s)",
             "socket overhead(s)", "modeled LAN(s)"],
            run_transport_gap(),
        )
        print("\nBytes and rounds are transport-invariant (pinned by the "
              "parity test); the socket overhead column is the real cost of "
              "moving the measured bytes through the local TCP stack.")


if __name__ == "__main__":
    main()
