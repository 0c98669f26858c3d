"""Benchmark of the spineseg toolkit on generated phantom workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the toolkit is imported from its
``src`` directory. One client in one process runs one case at a time
(a closed loop). Set-up builds the inputs from the seed three times, in
a child process that is waited for, and then runs a warm-up case;
set-up time is the median build plus the warm-up case. Cases then run
until the next one would end after ``--seconds``; at least three run
(two pairs when traced). Every case's output is checked.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, measured with tracing off. With
``--trace 1`` untraced and traced cases alternate, and the metrics are the
per-layer ones, each the median over traced cases; the spans are written
to ``.perfbench/trace-<workload>-<seed>.json``. The line before it holds
the machine context, which is reported and never gated.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150
MIN_CASES = 3
MIN_TRACED_PAIRS = 2

END_TO_END = {"case_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "nifti.read_s": "s",
    "nifti.write_s": "s",
    "nifti.bytes": "bytes",
    "volume.prepare_s": "s",
    "pipeline.tiling_self_s": "s",
    "pipeline.patches": "count",
    "pipeline.tiling_peak_mb": "MB",
    "pipeline.semantic_predictor_s": "s",
    "pipeline.exchange_calls": "count",
    "pipeline.exchange_s": "s",
    "pipeline.exchange_child_s": "s",
    "pipeline.exchange_bytes": "bytes",
    "assembly.s": "s",
    "assembly.centers_s": "s",
    "assembly.groups_s": "s",
    "assembly.reconcile_s": "s",
    "assembly.assign_s": "s",
    "assembly.predictor_s": "s",
    "assembly.cutouts": "count",
    "assembly.union_fallbacks": "count",
    "assembly.conflict_voxels": "count",
    "assembly.peak_mb": "MB",
    "postproc.consistency_s": "s",
    "postproc.holes_filled": "count",
    "postproc.orphans": "count",
    "postproc.peak_mb": "MB",
    "metrics.semantic_report_s": "s",
    "metrics.instance_report_s": "s",
    "metrics.assd_calls": "count",
    "metrics.edt_voxels": "count",
    "trace.overhead_s": "s",
}


def machine_context() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def calibration_s() -> float:
    """Median time to sort four million doubles: how fast this machine is now."""
    import numpy as np

    values = np.random.default_rng(0).random(4_000_000)
    times = []
    for _ in range(5):
        t = time.perf_counter()
        np.sort(values)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def layer_metrics(tr, case_id: int, counts: dict) -> dict:
    """Per-layer values of one traced case."""
    sem_pred = tr.total(case_id, "pipeline.semantic_predictor")
    inst_pred = tr.total(case_id, "assembly.predictor")
    external = "pipeline.exchange_calls" in counts
    values = {
        "nifti.read_s": tr.total(case_id, "nifti.read"),
        "nifti.write_s": tr.total(case_id, "nifti.write"),
        "volume.prepare_s": tr.total(case_id, "volume.prepare"),
        "pipeline.tiling_self_s": tr.self_time(case_id, "pipeline.tiling"),
        "pipeline.tiling_peak_mb": tr.peak_mb(case_id, "pipeline.tiling"),
        "pipeline.semantic_predictor_s": sem_pred,
        "pipeline.exchange_s": sem_pred + inst_pred if external else 0.0,
        "assembly.s": tr.total(case_id, "assembly"),
        "assembly.centers_s": tr.total(case_id, "assembly.centers"),
        "assembly.groups_s": tr.total(case_id, "assembly.groups"),
        "assembly.reconcile_s": tr.total(case_id, "assembly.reconcile"),
        "assembly.assign_s": tr.total(case_id, "assembly.assign"),
        "assembly.predictor_s": inst_pred,
        "assembly.peak_mb": tr.peak_mb(case_id, "assembly"),
        "postproc.consistency_s": tr.total(case_id, "postproc.consistency"),
        "postproc.peak_mb": tr.peak_mb(case_id, "postproc.consistency"),
        "metrics.semantic_report_s": tr.total(case_id, "metrics.semantic_report"),
        "metrics.instance_report_s": tr.total(case_id, "metrics.instance_report"),
    }
    values.update(counts)
    return values


def set_up(name: str, seed: int, workdir: Path, into: Path) -> None:
    """Build the workload SETUP_REPEATS times; pickle the last build, the
    median build time and the calibration time to ``into``.

    Runs in a child process of its own (see ``set_up_in_child``), so that
    the memory set-up takes stays out of the peak of the process that runs
    the cases.
    """
    import workloads

    times = []
    for _ in range(SETUP_REPEATS):
        wl = None
        t = time.perf_counter()
        wl = workloads.WORKLOADS[name](seed, workdir)
        times.append(time.perf_counter() - t)
    with open(into, "wb") as fh:
        pickle.dump((wl, statistics.median(times), calibration_s()), fh)


def set_up_in_child(name: str, seed: int, workdir: Path):
    """Run ``set_up`` in a child process and return what it built.

    ``subprocess.run`` waits for the child on every path out, and kills it
    first on a timeout or an exception, so no process outlives the run.
    The child's standard output goes to standard error, so that the last
    line of this process's standard output stays the result.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    into = workdir / "setup.pickle"
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
            "--seconds", "0", "--set-up-into", str(into)]
    subprocess.run(argv, stdout=sys.stderr, check=True, timeout=SETUP_TIMEOUT_S)
    with open(into, "rb") as fh:
        return pickle.load(fh)


def run(args) -> dict:
    import workloads
    from tracing import Tracer

    context = machine_context()
    context["loadavg_before"] = list(os.getloadavg())
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        wl, build_s, context["calibration_s"] = set_up_in_child(args.workload, args.seed, workdir)
        t = time.perf_counter()
        wl.check(wl.case())
        warm_up = time.perf_counter() - t
        setup_s = build_s + warm_up

        tracer = Tracer() if args.trace else None
        untraced, traced, layers = [], [], []
        attempted = failed = 0
        deadline = time.perf_counter() + args.seconds
        while True:
            for traced_now in ((False, True) if tracer else (False,)):
                attempted += 1
                t = time.perf_counter()
                try:
                    if traced_now:
                        tracer.case_id = attempted
                        tracemalloc.start()
                        try:
                            result, counts = wl.traced_case(tracer)
                        finally:
                            tracemalloc.stop()
                    else:
                        result = wl.case()
                    elapsed = time.perf_counter() - t
                    wl.check(result)
                except Exception:
                    failed += 1
                    elapsed = time.perf_counter() - t
                    traceback.print_exc()
                    counts = None
                (traced if traced_now else untraced).append(elapsed)
                if traced_now and counts is not None:
                    layers.append(layer_metrics(tracer, attempted, counts))
            step = statistics.median(untraced) + (statistics.median(traced) if traced else 0.0)
            if len(untraced) >= (MIN_TRACED_PAIRS if tracer else MIN_CASES) and time.perf_counter() + step > deadline:
                break

        correct = failed == 0
        try:
            wl.check_once()
        except workloads.CheckFailed:
            traceback.print_exc()
            correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    context["loadavg_after"] = list(os.getloadavg())
    context["case_times_s"] = untraced
    print(json.dumps({"context": context}))
    if tracer:
        values = {name: 0.0 for name in PER_LAYER}
        for name in values:
            samples = [case[name] for case in layers if name in case]
            if samples:
                values[name] = statistics.median(samples)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        tracer.write(
            OUT / f"trace-{args.workload}-{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "context": context, "untraced_s": untraced, "traced_s": traced},
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"case_s": statistics.median(untraced), "peak_rss_mb": rss_mb, "setup_s": setup_s}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set-up-into", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "spineseg" / "__init__.py").is_file():
        print(f"perfbench: no toolkit sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.set_up_into is not None:
        set_up(args.workload, args.seed, args.set_up_into.parent, args.set_up_into)
        return 0
    # A terminated run unwinds like an interrupted one, so the set-up
    # child and the exec: model processes are killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
