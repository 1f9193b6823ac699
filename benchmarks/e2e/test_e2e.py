"""Self-test of the repo benchmark: ``pytest benchmarks/e2e`` (not tier-1, ~2 min).

Two ``--smoke`` runs must print exactly the metric names BENCHMARK.json
declares and agree on every integer; a checkout without ``src/`` must fail
without printing a result; ``compare`` must give each row the verdict its
docstring defines.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from compare import verdict  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
INTEGER_UNITS = {"count", "bytes", "rounds"}


def _smoke() -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", *SPEC["command"][1:], "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )


@pytest.fixture(scope="module")
def smoke_runs() -> list[dict[str, dict]]:
    runs = []
    for _ in range(2):
        done = _smoke()
        assert done.returncode == 0, done.stdout + done.stderr
        results = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
        runs.append({result["workload"]: result for result in results})
    return runs


def test_smoke_covers_every_declared_workload(smoke_runs):
    declared = [workload["name"] for workload in SPEC["workloads"]]
    for run in smoke_runs:
        assert list(run) == declared


def test_printed_names_are_exactly_the_declared_ones(smoke_runs):
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for result in smoke_runs[0].values():
        assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_integers_repeat_exactly(smoke_runs):
    first, second = smoke_runs
    for workload, result in first.items():
        for name, metric in result["metrics"].items():
            if metric["unit"] in INTEGER_UNITS:
                assert metric["value"] == second[workload]["metrics"][name]["value"], (
                    workload, name,
                )
        assert result["attempted"] == second[workload]["attempted"]


def test_end_to_end_metrics_are_never_zero(smoke_runs):
    for result in smoke_runs[0].values():
        for metric in SPEC["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0


def test_bare_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / HERE.relative_to(ROOT),
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "tall-basic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


@pytest.mark.parametrize(
    "parent, change, kwargs, expected",
    [
        ([10.0, 10.1, 9.9, 10.0], [10.2, 10.1, 10.3, 10.2], {}, "unchanged"),
        ([10.0, 10.1, 9.9, 10.0], [11.2, 11.1, 11.3, 11.2], {}, "regressed"),
        ([10.0, 10.1, 9.9, 10.0], [9.0, 9.1, 8.9, 9.0], {}, "improved"),
        ([10.0, 13.0, 8.0, 11.0], [10.5, 12.0, 9.0, 13.5], {}, "unresolved"),
        # Wide spread, but every change run beats every parent run.
        ([10.0, 13.0, 8.0, 11.0], [5.0, 6.0, 4.0, 5.5], {}, "improved"),
        ([100.0, 100.0], [100.0, 100.0], {"exact": True}, "unchanged"),
        ([100.0, 100.0], [101.0, 101.0], {"exact": True}, "regressed"),
        ([100.0, 100.0], [99.0, 99.0], {"exact": True}, "improved"),
        # 30% worse but under the absolute floor: set-up noise, not a regression.
        ([0.015, 0.016, 0.015], [0.020, 0.021, 0.020], {"floor": 0.05}, "unchanged"),
    ],
)
def test_compare_verdicts(parent, change, kwargs, expected):
    word, ratio = verdict(parent, change, better="lower", bound=0.08, **kwargs)
    assert word == expected, ratio
    assert "parent median" in ratio
