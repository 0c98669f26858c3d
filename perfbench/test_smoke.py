"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY_DIMS = (128, 152, 32)


def _traced(wl):
    tracemalloc.start()
    try:
        return wl.traced_case(Tracer())
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sagittal,external", [(True, False), (False, True)])
def test_traced_decomposition_equals_run_pipeline(tmp_path, sagittal, external):
    spec = workloads.SegmentSpec(3, TINY_DIMS, sagittal=sagittal, external=external)
    wl = workloads.Segment(spec, seed=5, workdir=tmp_path)
    semantic, instance = wl.case()
    wl.check((semantic, instance))
    (t_sem, t_inst), counts = _traced(wl)
    assert np.array_equal(t_sem.data, semantic.data)
    assert np.array_equal(t_inst.data, instance.data)
    wl.check((t_sem, t_inst))
    if external:
        assert counts["pipeline.exchange_calls"] == counts["pipeline.patches"] + counts["assembly.cutouts"]
        assert counts["pipeline.exchange_bytes"] > 0


def test_standin_reproduces_ground_truth(tmp_path):
    spec = workloads.SegmentSpec(3, TINY_DIMS, sagittal=False, external=True)
    wl = workloads.Segment(spec, seed=2, workdir=tmp_path)
    semantic, _ = wl.case()
    assert np.array_equal(semantic.data, wl.gt_sem.data)


def test_standin_rejects_unknown_input(tmp_path):
    spec = workloads.SegmentSpec(3, TINY_DIMS, sagittal=False, external=True)
    wl = workloads.Segment(spec, seed=2, workdir=tmp_path)
    stranger = np.zeros((4, 4, 4), dtype=np.uint16)
    with pytest.raises(LookupError):
        workloads.standin.answer("instance", tmp_path / "tables", stranger)


def test_evaluation_matches_independent_oracle(tmp_path):
    wl = workloads.Evaluate(workloads.EvalSpec(3, TINY_DIMS), seed=4, workdir=tmp_path)
    report = wl.case()
    wl.check(report)
    wl.check_once()
    traced, counts = _traced(wl)
    assert traced == report
    assert counts["metrics.assd_calls"] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_toolkit_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, f"{HERE.name}/run.py", "--workload", "whole-spine", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
