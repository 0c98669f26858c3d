"""The benchmark workloads: set-up, one case, its traced twin, and checks.

A workload object is built by set-up from the seed. ``case()`` is one
untraced case, ``traced_case(tracer)`` the same work decomposed into the
public calls of each layer with a span around each, and ``check(result)``
raises ``CheckFailed`` when an output is wrong. ``traced_case`` returns
the case's output and its per-layer counts.
"""

from __future__ import annotations

import json
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spineseg import (
    ExternalInstancePredictor,
    ExternalSemanticPredictor,
    NoiseSpec,
    OracleInstancePredictor,
    OracleSemanticPredictor,
    PhantomSpec,
    PipelineConfig,
    Volume,
    enforce_consistency,
    evaluate_segmentation,
    foreground_equal,
    generate_phantom,
    instance_report,
    predict_semantic,
    read_nifti,
    resample,
    run_pipeline,
    semantic_report,
    tile_volume,
    to_canonical,
    write_nifti,
)
from spineseg.assembly import (
    CUTOUT_SIZE,
    assign_disc_endplate_instances,
    collect_groups,
    cutout_window,
    find_corpus_centers,
    make_cutouts,
    reconcile,
)
from spineseg.labels import Structure
from spineseg.volume import reorient, window_view

import oracle
import standin

STANDIN = Path(standin.__file__).resolve()
NOISE = dict(p_erosion=0.1, p_labeldrop=0.1, p_downup=0.1)
SAGITTAL = ("S", "A", "L")


class CheckFailed(Exception):
    """A case produced a wrong output."""


@dataclass(frozen=True)
class SegmentSpec:
    n_vertebrae: int
    dims: tuple[int, int, int]  # the processing grid, which is the phantom's grid
    sagittal: bool  # store the input as (S, A, L) at twice the slice spacing
    external: bool  # both phases behind exec: commands running standin.py


@dataclass(frozen=True)
class EvalSpec:
    n_vertebrae: int
    dims: tuple[int, int, int]


def _prepare(vol: Volume, cfg: PipelineConfig) -> Volume:
    """What run_pipeline does before tiling: reorient, then resample."""
    work = to_canonical(vol)
    if cfg.target_spacing is not None:
        mode = "trilinear" if vol.kind == "intensity" else "nearest"
        work = resample(work, cfg.target_spacing, mode=mode)
    return work


def _corpus_centroids(gt_sem: Volume, gt_inst: Volume) -> dict[int, np.ndarray]:
    corpus = gt_sem.data == Structure.CORPUS
    ids = sorted(int(v) for v in np.unique(gt_inst.data) if 1 <= v < 100)
    return {v: np.argwhere(corpus & (gt_inst.data == v)).mean(axis=0) for v in ids}


class _Memo:
    """A deterministic stand-in predictor whose answers are kept by input key.

    The warm-up case fills the memo, so measured cases time the toolkit
    and not the phantom's corruption model. A key the memo has not seen
    is computed by the stand-in, so the answers never change.
    """

    def __init__(self, inner, key):
        self.inner = inner
        self.key = key
        self.answers = {}

    def predict(self, data, where):
        k = self.key(data, where)
        if k not in self.answers:
            out = np.asarray(self.inner.predict(data, where))
            out.flags.writeable = False
            self.answers[k] = out
        return self.answers[k]


def _semantic_key(patch, origin):
    return tuple(origin), patch.dims


def _instance_key(window, cutout):
    return cutout.index, cutout.center, cutout.origin, window.dims


class _StandinLog:
    """The per-call logs standin.py writes when called with --log."""

    def __init__(self, directory: Path):
        self.dir = directory
        self.dir.mkdir(parents=True, exist_ok=True)

    def drain(self) -> dict:
        totals = {"calls": 0, "child_s": 0.0, "bytes": 0}
        for path in sorted(self.dir.glob("*.json")):
            rec = json.loads(path.read_text())
            totals["calls"] += 1
            totals["child_s"] += rec["read_s"] + rec["model_s"] + rec["write_s"]
            totals["bytes"] += rec["in_bytes"] + rec["out_bytes"]
            path.unlink()
        return totals


class Segment:
    """Read the input NIfTI, run both phases, write both masks."""

    def __init__(self, spec: SegmentSpec, seed: int, workdir: Path):
        self.spec = spec
        intensity, self.gt_sem, self.gt_inst = generate_phantom(
            PhantomSpec(n_vertebrae=spec.n_vertebrae, dims=spec.dims, seed=seed)
        )
        # cutouts span the whole grid across x and z, as the default cutout
        # does on the default 256x384x64 phantom
        self.config = PipelineConfig(cutout_size=(spec.dims[0], CUTOUT_SIZE[1], spec.dims[2]))
        stored = intensity
        if spec.sagittal:
            d = intensity.data
            thick = 0.5 * (d[:, :, 0::2] + d[:, :, 1::2])
            spacing = (*intensity.spacing[:2], 2.0 * intensity.spacing[2])
            stored = reorient(Volume(thick, spacing, intensity.orientation), SAGITTAL)
        workdir.mkdir(parents=True, exist_ok=True)
        self.input_path = workdir / "input.nii.gz"
        self.out_dir = workdir / "out"
        self.out_dir.mkdir(exist_ok=True)
        write_nifti(stored, self.input_path)
        self.reference = None

        if spec.external:
            tables = workdir / "tables"
            self._write_tables(tables)
            exchange = workdir / "exchange"
            self.log = _StandinLog(workdir / "standin-log")

            def command(mode, log):
                argv = [sys.executable, str(STANDIN), mode, str(tables)]
                if log:
                    argv += ["--log", str(self.log.dir)]
                return shlex.join(argv) + " {input} {output}"

            self.sem_pred = ExternalSemanticPredictor(command("semantic", False), exchange)
            self.inst_pred = ExternalInstancePredictor(command("instance", False), exchange)
            self.traced_sem_pred = ExternalSemanticPredictor(command("semantic", True), exchange)
            self.traced_inst_pred = ExternalInstancePredictor(command("instance", True), exchange)
        else:
            noise = NoiseSpec(**NOISE, seed=seed)
            self.sem_pred = _Memo(OracleSemanticPredictor(self.gt_sem, noise), _semantic_key)
            self.inst_pred = _Memo(
                OracleInstancePredictor(self.gt_inst, self.gt_sem, noise), _instance_key
            )
            self.traced_sem_pred, self.traced_inst_pred = self.sem_pred, self.inst_pred
            self.log = None

    def _write_tables(self, tables: Path) -> None:
        """Digest tables for standin.py, built from the generated inputs."""
        cfg = self.config
        prepared = _prepare(read_nifti(self.input_path), cfg)
        dims = prepared.dims
        semantic = {}
        for origin in tile_volume(dims, cfg.tiling):
            sl = tuple(slice(o, min(o + p, d)) for o, p, d in zip(origin, cfg.tiling.patch_size, dims))
            semantic[standin.digest(prepared.data[sl].astype(np.float32))] = origin
        cutouts = make_cutouts(
            find_corpus_centers(self.gt_sem, cfg.min_volume_fraction), dims, cfg.cutout_size
        )
        instance = {
            standin.digest(window_view(self.gt_sem.data, c.origin, c.size).astype(np.uint16)): c.origin
            for c in cutouts
        }
        standin.save_tables(
            tables,
            self.gt_sem.data,
            self.gt_inst.data,
            semantic,
            instance,
            _corpus_centroids(self.gt_sem, self.gt_inst),
        )

    def _write(self, semantic: Volume, instance: Volume) -> None:
        write_nifti(semantic, self.out_dir / "semantic.nii.gz")
        write_nifti(instance, self.out_dir / "instance.nii.gz")

    def case(self):
        vol = read_nifti(self.input_path)
        semantic, instance, _ = run_pipeline(vol, self.sem_pred, self.inst_pred, self.config)
        self._write(semantic, instance)
        return semantic, instance

    def traced_case(self, tr):
        cfg = self.config
        if self.log is not None:
            self.log.drain()
        sem_pred = tr.wrap(self.traced_sem_pred, "pipeline.semantic_predictor")
        inst_pred = tr.wrap(self.traced_inst_pred, "assembly.predictor")
        with tr.span("nifti.read"):
            vol = read_nifti(self.input_path)
        with tr.span("volume.prepare"):
            work = _prepare(vol, cfg)
        with tr.span("pipeline.tiling", peak=True):
            semantic = predict_semantic(work, sem_pred, cfg.tiling)
        with tr.span("assembly", peak=True):
            instance, stats, n_cutouts = _assemble_in_steps(semantic, inst_pred, cfg, tr)
        with tr.span("postproc.consistency", peak=True):
            semantic, instance, consistency = enforce_consistency(semantic, instance)
        with tr.span("nifti.write"):
            self._write(semantic, instance)
        counts = {
            "nifti.bytes": self.input_path.stat().st_size
            + sum(p.stat().st_size for p in self.out_dir.glob("*.nii.gz")),
            "pipeline.patches": len(tile_volume(work.dims, cfg.tiling)),
            "assembly.cutouts": n_cutouts,
            "assembly.union_fallbacks": len(stats.union_fallbacks),
            "assembly.conflict_voxels": stats.conflict_voxels,
            "postproc.holes_filled": consistency.holes_filled,
            "postproc.orphans": len(consistency.orphans_assigned),
        }
        if self.log is not None:
            exchange = self.log.drain()
            counts["pipeline.exchange_calls"] = exchange["calls"]
            counts["pipeline.exchange_child_s"] = exchange["child_s"]
            counts["pipeline.exchange_bytes"] = exchange["bytes"]
        return (semantic, instance), counts

    def check(self, result) -> None:
        semantic, instance = result
        if not (semantic.same_grid(self.gt_sem) and instance.same_grid(self.gt_sem)):
            raise CheckFailed(f"masks are on {semantic.dims}/{semantic.spacing}, not the ground-truth grid")
        if not foreground_equal(semantic, instance):
            raise CheckFailed("semantic and instance foregrounds differ")
        if self.spec.external and not np.array_equal(semantic.data, self.gt_sem.data):
            raise CheckFailed("exec semantic output differs from ground truth")
        digests = (standin.digest(semantic.data), standin.digest(instance.data))
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            raise CheckFailed("masks differ from the run's first case")

    def check_once(self) -> None:
        pass


def _assemble_in_steps(semantic: Volume, predictor, cfg: PipelineConfig, tr):
    """``assemble`` as its public steps, one span each; returns the instance
    volume, the reconcile statistics and the number of cutouts."""
    with tr.span("assembly.centers"):
        centers = find_corpus_centers(semantic, cfg.min_volume_fraction)
    if not centers:
        raise CheckFailed("no corpus components found")
    cutouts = make_cutouts(centers, semantic.dims, cfg.cutout_size)
    predictions = []
    for cutout in cutouts:
        pred = np.asarray(predictor.predict(cutout_window(semantic, cutout), cutout))
        if pred.shape != cutout.size:
            raise CheckFailed(f"cutout {cutout.index}: prediction has shape {pred.shape}")
        predictions.append(pred)
    with tr.span("assembly.groups"):
        groups = collect_groups(cutouts, predictions)
    with tr.span("assembly.reconcile"):
        inst, stats = reconcile(groups, semantic.dims)
    with tr.span("assembly.assign"):
        inst, _ = assign_disc_endplate_instances(semantic, inst)
    return semantic.with_data(inst, kind="instance"), stats, len(cutouts)


class Evaluate:
    """Score a noisy pipeline output, made during set-up, against ground truth.

    Semantic noise can erase a whole structure on some seeds (the one-voxel
    endplate layers vanish under erosion or down-up), which changes the
    number of distance transforms a case runs by a third. So the semantic
    phase is exact and its output is shifted by one voxel along a seeded
    axis: every structure survives and none is compared with itself. The
    instance phase is noisy, and one vertebra is split into three slabs.
    """

    def __init__(self, spec: EvalSpec, seed: int, workdir: Path):
        intensity, self.ref_sem, self.ref_inst = generate_phantom(
            PhantomSpec(n_vertebrae=spec.n_vertebrae, dims=spec.dims, seed=seed)
        )
        noise = NoiseSpec(**NOISE, seed=seed)
        config = PipelineConfig(cutout_size=(spec.dims[0], CUTOUT_SIZE[1], spec.dims[2]))
        sem, inst, _ = run_pipeline(
            intensity,
            OracleSemanticPredictor(self.ref_sem),
            OracleInstancePredictor(self.ref_inst, self.ref_sem, noise),
            config,
        )
        self.pred_sem = sem.with_data(_shift(sem.data, axis=seed % 3, step=1 if seed % 2 else -1))
        vid = 1 + seed % spec.n_vertebrae
        self.pred_inst = inst.with_data(_split_vertebra(inst.data, self.ref_inst.data, vid))
        self.reference = None

    def case(self):
        return evaluate_segmentation(self.pred_sem, self.ref_sem, self.pred_inst, self.ref_inst)

    def traced_case(self, tr):
        with tr.span("metrics.semantic_report"):
            semantic = semantic_report(self.pred_sem, self.ref_sem)
        with tr.span("metrics.instance_report"):
            instances = instance_report(self.pred_inst, self.ref_inst)
        assd_calls = sum(e["ASSD"] is not None for e in semantic.values())
        assd_calls += sum(k["TP"] for k in instances.values())
        counts = {
            "metrics.assd_calls": assd_calls,
            "metrics.edt_voxels": 2 * int(np.prod(self.ref_sem.dims)) * assd_calls,
        }
        return {"semantic": semantic, "instances": instances}, counts

    def check(self, result) -> None:
        vertebra = result["instances"]["vertebra"]
        if vertebra["FN"] < 1 or vertebra["FP"] < 1:
            raise CheckFailed(f"the split vertebra is not seen: FP {vertebra['FP']}, FN {vertebra['FN']}")
        text = json.dumps(result, sort_keys=True)
        if self.reference is None:
            self.reference = text
        elif text != self.reference:
            raise CheckFailed("report differs from the run's first case")

    def check_once(self) -> None:
        """Compare the report with an independent recomputation."""
        expected = oracle.evaluate(self.pred_sem, self.ref_sem, self.pred_inst, self.ref_inst)
        problems = oracle.compare(json.loads(self.reference), expected, tol=1e-9)
        if problems:
            raise CheckFailed("report disagrees with the independent recomputation: " + "; ".join(problems[:5]))


def _shift(data: np.ndarray, axis: int, step: int) -> np.ndarray:
    """Move the array by ``step`` voxels along ``axis``; the vacated slab is 0."""
    out = np.zeros_like(data)
    src = [slice(None)] * 3
    dst = [slice(None)] * 3
    src[axis] = slice(0, -step) if step > 0 else slice(-step, None)
    dst[axis] = slice(step, None) if step > 0 else slice(0, step)
    out[tuple(dst)] = data[tuple(src)]
    return out


def _split_vertebra(pred: np.ndarray, ref: np.ndarray, vid: int) -> np.ndarray:
    """Relabel the predicted vertebra voxels inside reference vertebra
    ``vid`` as three slabs along y with fresh ids.

    Each slab covers about a third of the reference vertebra and nothing
    of any other, so the matching sees that vertebra as a false negative
    and the three slabs as false positives.
    """
    out = pred.copy()
    where = np.nonzero((ref == vid) & (out >= 1) & (out < 100))
    cuts = np.quantile(where[1], [1 / 3, 2 / 3])
    slab = np.searchsorted(cuts, where[1], side="right")
    out[where] = np.array([96, 97, 98], dtype=out.dtype)[slab]
    return out


WORKLOADS = {
    # paper's target data: sagittal whole-spine MRI, many labels and cutouts
    "whole-spine": lambda seed, wd: Segment(SegmentSpec(24, (128, 720, 32), True, False), seed, wd),
    # both phases behind exec: commands; NIfTI gzip I/O and process spawn
    "exec-default": lambda seed, wd: Segment(SegmentSpec(7, (128, 384, 32), False, True), seed, wd),
    # evaluation only: full-volume distance transforms inside assd
    "lumbar-eval": lambda seed, wd: Evaluate(EvalSpec(5, (128, 208, 32)), seed, wd),
}
