"""The fast demos run to completion from a checkout.

Each demo runs as its own process with ``src`` on the import path, the way
a reader runs it. The robustness sweep runs with one run per noise
level; every other demo runs as it is (each takes a few seconds).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name: str, *args: str) -> str:
    src = str(ROOT / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py"), *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_metrics_tour_prints_the_hand_checked_values():
    out = run_demo("metrics_tour")
    assert "dice 0.500000" in out
    assert "RQ 0.6667  SQ 0.7000  PQ 0.4667" in out
    assert "p = 0.0625" in out


@pytest.mark.parametrize(
    "name", ["annotation_fusion", "phantom_gallery", "two_phase_pipeline", "external_predictor"]
)
def test_demo_exits_zero(name):
    run_demo(name)


def test_robustness_sweep_keeps_every_vertebra_without_noise():
    out = run_demo("robustness_sweep", "--runs", "1")
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[2:]}
    assert rows["0.00"] == ["1/1", "0.00"]
