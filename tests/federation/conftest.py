"""Fixtures for the party-scoped federation API tests.

Sizes are deliberately tiny (real Paillier + MPC protocols run under every
test); the enhanced-protocol federations use the smallest key size the
depth validation admits.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import PivotConfig
from repro.data import make_classification, make_regression
from repro.federation import Federation, Party
from repro.tree import TreeParams

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

TEST_KEYSIZE = 256
PARAMS = TreeParams(max_depth=2, max_splits=2)


def split_parties(X, y, blocks=(2, 2)) -> list[Party]:
    """Build parties from contiguous column blocks; party 0 holds labels."""
    parties, start = [], 0
    for i, width in enumerate(blocks):
        cols = X[:, start : start + width]
        parties.append(Party(cols, labels=y if i == 0 else None))
        start += width
    assert start == X.shape[1]
    return parties


def make_federation(
    X,
    y,
    task="classification",
    protocol="basic",
    keysize=TEST_KEYSIZE,
    seed=7,
    params=PARAMS,
    blocks=(2, 2),
    **config_kwargs,
):
    config = PivotConfig(
        keysize=keysize,
        tree=params,
        seed=seed,
        protocol=protocol,
        **config_kwargs,
    )
    return Federation(split_parties(X, y, blocks), task=task, config=config)


@pytest.fixture(scope="session")
def tiny_classification():
    return make_classification(24, 4, n_classes=2, seed=11)


@pytest.fixture(scope="session")
def tiny_multiclass():
    return make_classification(24, 4, n_classes=3, seed=12)


@pytest.fixture(scope="session")
def tiny_regression():
    return make_regression(20, 4, noise=0.05, seed=13)


class PartySubprocess:
    """A real ``python -m repro.federation.runtime`` party subprocess."""

    def __init__(self, config_path: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.federation.runtime",
                "--config",
                str(config_path),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def wait(self, timeout: float = 60.0) -> int:
        return self.proc.wait(timeout=timeout)

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait(timeout=10.0)

    def ensure_dead(self) -> None:
        if self.alive:
            self.kill()
        if self.proc.stderr is not None:
            self.proc.stderr.close()
