"""Two-phase segmentation pipeline with pluggable predictors.

Phase one predicts the 14-class semantic mask patch-wise over a sliding
grid, blending overlapping patches with a gaussian (or uniform) window.
Phase two assembles vertebra instances from corpus-centroid cutouts.
Predictors are in-process objects or external commands exchanging NIfTI
files, so any model framework can plug in without being imported here.
"""

from __future__ import annotations

import shlex
import subprocess
import tempfile
import time
import uuid
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .assembly import CUTOUT_SIZE, PredictorError, assemble, check_answer
from .labels import Structure
from .nifti import read_nifti, write_nifti
from .postproc import enforce_consistency
from .volume import Volume, resample, to_canonical

N_CLASSES = len(Structure)
DEFAULT_SPACING = (0.75, 0.75, 1.65)


@dataclass(frozen=True)
class TilingSpec:
    patch_size: tuple[int, int, int] = (256, 256, 64)
    overlap: float = 0.5
    blend: str = "gaussian"

    def __post_init__(self):
        if any(int(p) < 1 for p in self.patch_size):
            raise ValueError("patch_size entries must be >= 1")
        object.__setattr__(self, "patch_size", tuple(int(p) for p in self.patch_size))
        if not 0.0 <= self.overlap < 1.0:
            raise ValueError(f"overlap must be in [0, 1), got {self.overlap}")
        if self.blend not in ("gaussian", "uniform"):
            raise ValueError(f"blend must be 'gaussian' or 'uniform', got {self.blend!r}")


def _axis_positions(dim: int, patch: int, overlap: float) -> list[int]:
    if dim <= patch:
        return [0]
    stride = max(1, int(round(patch * (1.0 - overlap))))
    return [*range(0, dim - patch, stride), dim - patch]


def tile_volume(dims, spec: TilingSpec):
    """Deterministic list of patch origins covering every voxel."""
    axes = [_axis_positions(d, p, spec.overlap) for d, p in zip(dims, spec.patch_size)]
    return [(x, y, z) for x in axes[0] for y in axes[1] for z in axes[2]]


def _blend_window(shape, blend: str) -> np.ndarray:
    if blend == "uniform":
        return np.ones(shape, dtype=np.float32)
    w = np.ones(shape, dtype=np.float32)
    for axis, n in enumerate(shape):
        sigma = max(n / 8.0, 1.0)
        i = np.arange(n, dtype=np.float32)
        g = np.exp(-0.5 * ((i - (n - 1) / 2.0) / sigma) ** 2)
        w *= g.reshape([-1 if a == axis else 1 for a in range(3)])
    return w


def _accumulate(scores, weights, sl, w, out):
    if out.ndim == 3:
        for code in np.unique(out):
            scores[int(code)][sl] += w * (out == code)
    else:
        scores[:, sl[0], sl[1], sl[2]] += w * out
    weights[sl] += w


def predict_semantic(vol: Volume, predictor, spec: TilingSpec = TilingSpec(), return_scores: bool = False):
    """Tiled semantic prediction over the volume's own grid.

    ``predictor`` is one object or a sequence (an ensemble; their scores
    are averaged, which for identical members equals any single one).
    Each must provide ``predict(patch: Volume, origin) -> array`` where
    the array is either an integral label patch with values 0..14
    (integral floats are accepted) or finite per-class scores of shape
    ``(15,) + patch.dims``. Any other answer raises ``PredictorError``
    (see ``assembly.check_answer``). Argmax ties resolve to the smaller
    class code.
    """
    predictors = list(predictor) if isinstance(predictor, (list, tuple)) else [predictor]
    if not predictors:
        raise ValueError("need at least one predictor")
    dims = vol.dims
    scores = np.zeros((N_CLASSES,) + dims, dtype=np.float32)
    weights = np.zeros(dims, dtype=np.float32)
    for origin in tile_volume(dims, spec):
        sl = tuple(slice(o, min(o + p, d)) for o, p, d in zip(origin, spec.patch_size, dims))
        data = np.ascontiguousarray(vol.data[sl])
        patch = Volume(data, vol.spacing, vol.orientation, vol.kind)
        w = _blend_window(patch.dims, spec.blend)
        for p in predictors:
            out = check_answer(p.predict(patch, origin), patch.dims, N_CLASSES, scores_ok=True)
            _accumulate(scores, weights, sl, w, out)
    labels = np.argmax(scores, axis=0).astype(np.uint16)
    semantic = Volume(labels, vol.spacing, vol.orientation, "semantic")
    if return_scores:
        return semantic, scores / (weights * len(predictors))
    return semantic


def _substitute(command: str, in_path: Path, out_path: Path) -> list[str]:
    tokens = shlex.split(command)
    if any("{input}" in t or "{output}" in t for t in tokens):
        return [t.replace("{input}", str(in_path)).replace("{output}", str(out_path)) for t in tokens]
    return tokens + [str(in_path), str(out_path)]


class ExternalPredictor:
    """A semantic or instance model behind an external command.

    The input volume is written as ``in_<uuid>.nii.gz``; the command runs
    with the input and output paths substituted for ``{input}`` and
    ``{output}`` (or appended when no placeholder appears); the process
    answers with ``out_<uuid>.nii.gz`` (labels) or one
    ``out_<uuid>_c<k>.nii.gz`` per class (scores). Nonzero exit status,
    timeout, or missing output is a failure carrying the diagnostics; the
    answer itself is checked by the phase that asked for it.
    """

    def __init__(self, command: str, exchange_dir=None, timeout: float = 300.0):
        self.command = command
        self.timeout = timeout
        if exchange_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="spineseg-exchange-")
            self.exchange_dir = Path(self._tmp.name)
        else:
            self.exchange_dir = Path(exchange_dir)
            self.exchange_dir.mkdir(parents=True, exist_ok=True)

    def predict(self, volume: Volume, where) -> np.ndarray:
        """The command's answer for ``volume``; ``where`` (a patch origin or
        a cutout) is not passed on."""
        uid = uuid.uuid4().hex
        in_path = self.exchange_dir / f"in_{uid}.nii.gz"
        out_path = self.exchange_dir / f"out_{uid}.nii.gz"
        score_paths = [self.exchange_dir / f"out_{uid}_c{k}.nii.gz" for k in range(N_CLASSES)]
        write_nifti(volume, in_path)
        argv = _substitute(self.command, in_path, out_path)
        try:
            try:
                proc = subprocess.run(
                    argv, capture_output=True, text=True, timeout=self.timeout
                )
            except subprocess.TimeoutExpired:
                raise PredictorError(f"predictor timed out after {self.timeout}s: {argv}")
            except OSError as e:
                raise PredictorError(f"could not launch predictor {argv}: {e}")
            if proc.returncode != 0:
                raise PredictorError(
                    f"predictor exited with status {proc.returncode}: {argv}\n"
                    f"stdout: {proc.stdout[-2000:]}\nstderr: {proc.stderr[-2000:]}"
                )
            if out_path.exists():
                try:
                    return read_nifti(out_path).data
                except ValueError as e:
                    raise PredictorError(f"malformed predictor output {out_path.name}: {e}")
            if any(p.exists() for p in score_paths):
                missing = [p.name for p in score_paths if not p.exists()]
                if missing:
                    raise PredictorError(f"incomplete score output, missing {missing}")
                try:
                    planes = [read_nifti(p).data.astype(np.float32) for p in score_paths]
                except ValueError as e:
                    raise PredictorError(f"malformed score output: {e}")
                return np.stack(planes, axis=0)
            raise PredictorError(
                f"predictor wrote no output for {in_path.name}\n"
                f"stdout: {proc.stdout[-2000:]}\nstderr: {proc.stderr[-2000:]}"
            )
        finally:
            for p in [in_path, out_path, *score_paths]:
                p.unlink(missing_ok=True)


ExternalSemanticPredictor = ExternalInstancePredictor = ExternalPredictor


@dataclass(frozen=True)
class PipelineConfig:
    target_spacing: tuple[float, float, float] | None = DEFAULT_SPACING
    tiling: TilingSpec = TilingSpec()
    min_volume_fraction: float = 0.10
    cutout_size: tuple[int, int, int] = CUTOUT_SIZE

    def to_dict(self) -> dict:
        """Flat form for JSON, the tiling fields after ``target_spacing``."""
        return {
            "target_spacing": self.target_spacing,
            **asdict(self.tiling),
            "min_volume_fraction": self.min_volume_fraction,
            "cutout_size": self.cutout_size,
        }


@dataclass
class RunReport:
    input_dims: tuple[int, int, int] = (0, 0, 0)
    input_spacing: tuple[float, float, float] = (0.0, 0.0, 0.0)
    processing_dims: tuple[int, int, int] = (0, 0, 0)
    processing_spacing: tuple[float, float, float] = (0.0, 0.0, 0.0)
    n_patches: int = 0
    assembly: dict = field(default_factory=dict)
    consistency: dict = field(default_factory=dict)
    timings_s: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = asdict(self)
        for key in ("input_dims", "input_spacing", "processing_dims", "processing_spacing"):
            out[key] = list(out[key])
        return out


def run_pipeline(vol: Volume, semantic_predictor, instance_predictor, config: PipelineConfig | None = None):
    """Full run: canonical orientation, resampling, both phases, cleanup.

    Returns (semantic Volume, instance Volume, RunReport); output masks
    live on the processing grid (canonical orientation, target spacing).
    """
    cfg = config or PipelineConfig()
    report = RunReport(input_dims=vol.dims, input_spacing=tuple(float(s) for s in vol.spacing))
    timings = {}

    t = time.perf_counter()
    work = to_canonical(vol)
    if cfg.target_spacing is not None:
        mode = "trilinear" if vol.kind == "intensity" else "nearest"
        work = resample(work, cfg.target_spacing, mode=mode)
    timings["prepare"] = time.perf_counter() - t
    report.processing_dims = work.dims
    report.processing_spacing = tuple(float(s) for s in work.spacing)
    report.n_patches = len(tile_volume(work.dims, cfg.tiling))

    t = time.perf_counter()
    semantic = predict_semantic(work, semantic_predictor, cfg.tiling)
    timings["semantic"] = time.perf_counter() - t

    t = time.perf_counter()
    instance, asm = assemble(
        semantic,
        instance_predictor,
        min_volume_fraction=cfg.min_volume_fraction,
        cutout_size=cfg.cutout_size,
    )
    timings["instance"] = time.perf_counter() - t
    report.assembly = asm.to_dict()
    report.warnings.extend(asm.warnings)

    t = time.perf_counter()
    semantic, instance, consistency = enforce_consistency(semantic, instance)
    timings["consistency"] = time.perf_counter() - t
    report.consistency = consistency.to_dict()

    report.timings_s = {k: round(v, 4) for k, v in timings.items()}
    return semantic, instance, report
