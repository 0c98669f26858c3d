"""Two-phase segmentation pipeline with pluggable predictors.

Phase one predicts the 14-class semantic mask patch-wise over a sliding
grid, blending overlapping patches with a gaussian (or uniform) window.
Phase two assembles vertebra instances from corpus-centroid cutouts.
Predictors are in-process objects or external commands exchanging NIfTI
files, so any model framework can plug in without being imported here.
"""

from __future__ import annotations

import math
import mmap
import os
import shlex
import subprocess
import tempfile
import time
import uuid
from collections import deque
from contextlib import closing
from dataclasses import asdict, dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from .assembly import CUTOUT_SIZE, MIN_VOLUME_FRACTION, PredictorError, answers, assemble
from .labels import Structure
from .nifti import read_nifti, write_nifti
from .postproc import enforce_consistency
from .volume import Volume, checked_numbers, checked_spacing, checked_window_size, resample, to_canonical, usable_cpus

N_CLASSES = len(Structure)
DEFAULT_SPACING = (0.75, 0.75, 1.65)
# exec: calls running at once per predictor: measured on two cores with a
# numpy stand-in whose every child started a thread pool as wide as the
# machine; a model heavier than that, or on a GPU, would fight wider
_MAX_RUNNING = 2


@dataclass(frozen=True)
class TilingSpec:
    patch_size: tuple[int, int, int] = (256, 256, 64)
    overlap: float = 0.5
    blend: str = "gaussian"

    def __post_init__(self):
        object.__setattr__(self, "patch_size", checked_window_size(self.patch_size, "patch_size"))
        object.__setattr__(self, "overlap", checked_numbers(self.overlap, "overlap", ge=0, lt=1))
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


def _accumulate(scores, w, out):
    """Add one answer, blended by ``w``, to the class-first float32
    ``scores`` of a cell that has had a score answer. A cell with label
    answers alone never gets this buffer, 60 bytes a voxel: it holds
    1-byte votes, and ``_vote_into`` scores only where they disagree."""
    if out.ndim == 3:
        # only the labeled class gains; the others would add 0.0, a no-op
        scores[(out, *np.indices(out.shape, sparse=True))] += w
    else:
        scores += w * out


def _argmax_into(labels, scores):
    """Write the argmax over classes of ``scores`` into ``labels``; ties go to
    the smaller class code."""
    # np.argmax(scores, axis=0) copies the buffer; strict > keeps ties on the smaller code
    best = scores[0].copy()
    for code in range(1, N_CLASSES):
        labels[scores[code] > best] = code
        np.maximum(best, scores[code], out=best)


def _vote_into(labels, votes):
    """Resolve a cell from its label answers alone, into ``labels``.

    ``votes`` are ``(labels, w)`` pairs in accumulation order. Where every
    vote agrees the cell takes that label: the blend window is positive,
    so a class buffer would hold one positive class and zeros. Only the
    voxels where a vote differs from the first get class scores, a compact
    ``(15, n)`` array that gets the same float32 additions in the same
    order as a cell buffer; ties go to the smaller class code."""
    first = votes[0][0]
    labels[...] = first
    split = np.zeros(first.shape, dtype=bool)
    for lab, _ in votes[1:]:
        split |= lab != first
    n = np.count_nonzero(split)
    if n:
        scores = np.zeros((N_CLASSES, n), dtype=np.float32)
        columns = np.arange(n)
        for lab, w in votes:
            scores[lab[split], columns] += w[split]
        labels[split] = np.argmax(scores, axis=0)


def _add_to_cell(open_cells, cell, w, out):
    """Add one answer's part ``out`` of ``cell``, blended by ``w``, to what
    ``open_cells`` holds for the cell.

    While the cell has had label answers alone it holds their votes, each
    a uint8 copy (codes 0..14 fit, and no answer outlives its patch). The
    first score answer opens a class-first buffer and replays the votes
    into it, in order. The locals end with the call, so no vote outlives
    its cell."""
    held = open_cells.setdefault(cell, [])
    if isinstance(held, list):
        if out.ndim == 3:
            held.append((out.astype(np.uint8), w))
            return
        votes = held
        held = open_cells[cell] = _unbacked_zeros((N_CLASSES,) + cell[1])
        for lab, wl in votes:
            _accumulate(held, wl, lab)
    _accumulate(held, w, out)


def _unbacked_zeros(shape) -> np.ndarray:
    """float32 zeros in a private anonymous mapping of their own, whose
    pages go back to the system when the array is freed. ``np.zeros`` of
    a cell-sized array may instead come from the heap, which keeps its
    pages after the free."""
    buf = mmap.mmap(-1, 4 * math.prod(shape), flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buf, dtype=np.float32).reshape(shape)


def _box(origin, shape) -> tuple[slice, ...]:
    return tuple(slice(o, o + s) for o, s in zip(origin, shape))


def _patch_cells(origins, shape) -> list[list[tuple]]:
    """The cells each patch covers, as ``(origin, shape)`` pairs.

    The grid is cut at every patch start and stop on each axis, so a cell
    lies wholly inside or wholly outside each patch."""
    cuts = [sorted({o[a] + k * shape[a] for o in origins for k in (0, 1)}) for a in range(3)]

    def spans(a, start):
        inside = [c for c in cuts[a] if start <= c <= start + shape[a]]
        return [(lo, hi - lo) for lo, hi in zip(inside, inside[1:])]

    return [[tuple(zip(*spans3)) for spans3 in product(*(spans(a, o[a]) for a in range(3)))] for o in origins]


def predict_semantic(vol: Volume, predictor, spec: TilingSpec = TilingSpec()) -> Volume:
    """Tiled semantic prediction over the volume's own grid.

    ``predictor`` is one object or a sequence (an ensemble; their scores
    are averaged, which for identical members equals any single one).
    Each is called through ``assembly.answers``: it must provide
    ``predict(patch: Volume, origin) -> array`` or ``predict_many``, and
    gets a copy of each patch of its own. The array is either an integral
    label patch with values 0..14 (integral floats are accepted) or finite
    per-class scores of shape ``(15,) + patch.dims``. Any other answer
    raises ``PredictorError`` (see ``assembly.check_answer``). Argmax ties
    resolve to the smaller class code.

    The grid is cut into cells, the boxes between consecutive patch
    starts and stops on each axis, so every patch covers whole cells. A
    cell is resolved into the labels and freed once its last patch has
    answered. While its answers are all labels it holds votes, 1 byte
    per answer per voxel (a uint8 copy, so no answer outlives its patch)
    instead of 60 bytes of class scores, and ``_vote_into`` gives class
    scores only to the voxels where the votes disagree. The first score
    answer opens a class-first float32 buffer (``_unbacked_zeros``) and
    replays the votes into it. The window is positive, so a voxel where
    every vote agrees has one positive class; every other voxel sees the
    same float32 additions in the same order, patch by patch and member
    by member, as one full-grid buffer would, so the labels are exactly
    its argmax.
    """
    predictors = list(predictor) if isinstance(predictor, (list, tuple)) else [predictor]
    if not predictors:
        raise ValueError("need at least one predictor")
    dims = vol.dims
    origins = tile_volume(dims, spec)
    # every origin is at most dim - patch, so all patches share one shape
    shape = tuple(min(p, d) for p, d in zip(spec.patch_size, dims))
    w = _blend_window(shape, spec.blend)
    patch_cells = _patch_cells(origins, shape)
    last = {cell: i for i, cells in enumerate(patch_cells) for cell in cells}
    labels = np.zeros(dims, dtype=np.uint16)
    open_cells = {}

    def cut(origin):
        return vol.with_data(vol.data[_box(origin, shape)].copy())

    with closing(answers(predictors, cut, origins, shape, N_CLASSES, scores_ok=True)) as stream:
        # patch by patch, member by member: the accumulation order is fixed.
        # Not zip(origins, stream): its cached result tuple would keep the
        # answers of patch i - 2 alive while patch i is predicted
        for i, outs in enumerate(stream):
            origin = origins[i]
            for out in outs:
                for cell in patch_cells[i]:
                    local = _box([c - o for c, o in zip(cell[0], origin)], cell[1])
                    _add_to_cell(open_cells, cell, w[local], out[(..., *local)])
            for cell in patch_cells[i]:
                if last[cell] == i:
                    resolve = _vote_into if isinstance(open_cells[cell], list) else _argmax_into
                    resolve(labels[_box(*cell)], open_cells.pop(cell))
    return Volume(labels, vol.spacing, vol.orientation, "semantic")


def _substitute(command: str, in_path: Path, out_path: Path) -> list[str]:
    tokens = shlex.split(command)
    if any("{input}" in t or "{output}" in t for t in tokens):
        return [t.replace("{input}", str(in_path)).replace("{output}", str(out_path)) for t in tokens]
    return tokens + [str(in_path), str(out_path)]


class ExternalPredictor:
    """A semantic or instance model behind an external command.

    The input volume is written as ``in_<uuid>.nii.gz``, a gzip member
    stored uncompressed (deflate level 0), which any gzip reader opens; the
    command runs with the input and output paths substituted for
    ``{input}`` and ``{output}`` (or appended when no placeholder appears);
    the process answers with ``out_<uuid>.nii.gz`` (labels) or one
    ``out_<uuid>_c<k>.nii.gz`` per class (scores), gzipped or not.
    Nonzero exit status, timeout, or missing output is a failure carrying
    the diagnostics; the answer itself is checked by the phase that asked
    for it.

    Calls may run concurrently, up to two per predictor (2K for an
    ensemble of K), and their answers are used in input order. A command
    must not assume it runs alone; one that must can serialize itself,
    e.g. with ``flock``. Its output goes to ``log_<uuid>.std{out,err}``.
    """

    def __init__(self, command: str, exchange_dir=None, timeout: float = 300.0):
        self.command = command
        self.timeout = checked_numbers(timeout, "timeout", gt=0)
        # each call deletes its own uuid-named files, so the shared temp dir serves
        self.exchange_dir = Path(tempfile.gettempdir() if exchange_dir is None else exchange_dir)
        self.exchange_dir.mkdir(parents=True, exist_ok=True)

    def predict(self, volume: Volume, where) -> np.ndarray:
        """The command's answer for ``volume``; ``where`` (a patch origin or
        a cutout) is not passed on."""
        return next(self.predict_many([volume], [where]))

    def predict_many(self, volumes, wheres):
        """``predict`` over paired ``volumes`` and ``wheres``: answers in input
        order, up to two commands running at once, each call timed out from
        its own start. Inputs are stored, not deflated, gzip members. An
        error or ``close()`` kills and waits for the commands still running
        and deletes their exchange files."""
        window = min(_MAX_RUNNING, usable_cpus())
        running = deque()
        try:
            for volume, _ in zip(volumes, wheres, strict=True):
                if len(running) == window:
                    yield self._answer(running)
                uid = uuid.uuid4().hex
                stems = [f"in_{uid}", f"out_{uid}", *(f"out_{uid}_c{k}" for k in range(N_CLASSES))]
                paths = [self.exchange_dir / f"{stem}.nii.gz" for stem in stems]
                paths += [self.exchange_dir / f"log_{uid}.{s}" for s in ("stdout", "stderr")]
                call = _Call(paths, _substitute(self.command, *paths[:2]), volume.dims)
                running.append(call)  # from here on, every exit discards it
                # stored, not deflated: the child reads it back at once, and a float
                # patch shrinks by about a tenth for 30x the write time
                write_nifti(volume, paths[0], compresslevel=0)
                call.start = time.monotonic()
                # output goes to files: a pipe nobody reads yet would stall a chatty command
                with open(paths[-2], "wb") as out, open(paths[-1], "wb") as err:
                    try:
                        call.proc = subprocess.Popen(call.argv, stdout=out, stderr=err)
                    except OSError as e:
                        raise PredictorError(f"could not launch predictor {call.argv}: {e}")
            while running:
                yield self._answer(running)
        finally:
            for call in running:
                call.discard()

    def _answer(self, running: deque) -> np.ndarray:
        """The answer of the oldest call in ``running``, which leaves it."""
        call = running[0]
        proc, argv = call.proc, call.argv
        in_path, out_path, *score_paths, out_log, err_log = call.paths
        try:
            try:
                # a command that has ended is not late, however long it waited here
                proc.wait(timeout=max(call.start + self.timeout - time.monotonic(), 0))
            except subprocess.TimeoutExpired:
                raise PredictorError(f"predictor timed out after {self.timeout}s: {argv}")
            if proc.returncode != 0:
                raise PredictorError(
                    f"predictor exited with status {proc.returncode}: {argv}\n"
                    f"stdout: {_tail(out_log)}\nstderr: {_tail(err_log)}"
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
                for path, plane in zip(score_paths, planes):
                    if plane.shape != call.shape:
                        shapes = f"has shape {plane.shape}, not its input's {call.shape}"
                        raise PredictorError(f"score plane {path.name} {shapes}")
                return np.stack(planes, axis=0)
            raise PredictorError(
                f"predictor wrote no output for {in_path.name}\n"
                f"stdout: {_tail(out_log)}\nstderr: {_tail(err_log)}"
            )
        finally:
            running.popleft().discard()


def _tail(path: Path) -> str:
    """The last 2000 characters of a log, read from its end alone."""
    with open(path, "rb") as log:
        # 8000 bytes hold at least 2000 UTF-8 characters
        log.seek(max(log.seek(0, os.SEEK_END) - 8000, 0))
        return log.read().decode(errors="replace")[-2000:]


@dataclass
class _Call:
    """One ``exec:`` call: exchange files (input, outputs, logs), command,
    input shape and process."""

    paths: list[Path]
    argv: list[str]
    shape: tuple[int, int, int]
    start: float = 0.0
    proc: subprocess.Popen | None = None

    def discard(self) -> None:
        """Kill and wait for the command if it still runs; delete the files."""
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
        for p in self.paths:
            p.unlink(missing_ok=True)


@dataclass(frozen=True)
class PipelineConfig:
    target_spacing: tuple[float, float, float] | None = DEFAULT_SPACING
    tiling: TilingSpec = TilingSpec()
    min_volume_fraction: float = MIN_VOLUME_FRACTION
    cutout_size: tuple[int, int, int] = CUTOUT_SIZE

    def __post_init__(self):
        if self.target_spacing is not None:
            object.__setattr__(self, "target_spacing", checked_spacing(self.target_spacing, "target_spacing"))
        # NaN would drop every corpus component
        fraction = checked_numbers(self.min_volume_fraction, "min_volume_fraction", ge=0)
        object.__setattr__(self, "min_volume_fraction", fraction)
        object.__setattr__(self, "cutout_size", checked_window_size(self.cutout_size, "cutout_size"))

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

    ``vol`` is taken as an image whatever its kind or dtype (MRI files
    often store int16), so it is resampled trilinearly. Returns
    (semantic Volume, instance Volume, RunReport); output masks live on
    the processing grid (canonical orientation, target spacing).
    """
    cfg = config or PipelineConfig()
    report = RunReport(input_dims=vol.dims, input_spacing=tuple(float(s) for s in vol.spacing))
    timings = {}

    t = time.perf_counter()
    work = to_canonical(vol.with_data(vol.data, kind="intensity"))
    if cfg.target_spacing is not None:
        work = resample(work, cfg.target_spacing, mode="trilinear")
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
