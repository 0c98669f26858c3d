"""Instance assembly from a semantic mask.

The instance phase never sees image intensities. Fixed-size windows are
cut around each vertebral-corpus centroid; an instance predictor labels
each window with {1: vertebra above, 2: center vertebra, 3: vertebra
below}; the up-to-three predictions of every vertebra are reconciled by
majority vote in descending inter-prediction Dice agreement; finally
discs and endplate layers from the semantic mask join the instance mask
with ids keyed to the nearest vertebra above.
"""

from __future__ import annotations

from contextlib import ExitStack, closing
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import combinations, count

import numpy as np

from .labels import VERTEBRA_ID_MAX, Structure, checked_labels, is_vertebra_id, structure_instance_id, writable_instances
from .volume import (
    Volume,
    bounding_box,
    checked_window_size,
    concurrently,
    connected_components,
    label_centroids,
    overlap,
    window_view,
)

CUTOUT_SIZE = (248, 304, 64)
MIN_VOLUME_FRACTION = 0.10

LABEL_ABOVE, LABEL_CENTER, LABEL_BELOW = 1, 2, 3


class PredictorError(RuntimeError):
    """A predictor failed or answered outside its contract; the message
    carries the diagnostics."""


class TooManyVertebraeError(ValueError):
    """The semantic mask has more corpus components than there are
    vertebra ids, so no instance mask could tell them apart."""


def check_answer(answer, shape, n_labels: int, scores_ok: bool = False) -> np.ndarray:
    """A predictor's answer, checked against the output contract.

    A 3D answer of ``shape`` holds labels and passes ``checked_labels``
    (``exec:`` models may write float NIfTI labels). When ``scores_ok``, a
    4D answer of shape ``(n_labels,) + shape`` holds per-label scores and
    comes back as finite float32. Any other answer raises ``PredictorError``.
    """
    out = np.asarray(answer)
    shape = tuple(shape)
    if out.dtype.kind not in "biuf":
        raise PredictorError(f"predictor returned {out.dtype} values, not numbers")
    if scores_ok and out.ndim == 4:
        expected = (n_labels,) + shape
        if out.shape != expected:
            raise PredictorError(f"score answer has shape {out.shape}, expected {expected}")
        out = out.astype(np.float32, copy=False)
        if not np.isfinite(out).all():
            raise PredictorError("score answer contains non-finite values")
        return out
    if out.ndim != 3:
        raise PredictorError(f"predictor returned a {out.ndim}D array")
    if out.shape != shape:
        raise PredictorError(f"label answer has shape {out.shape}, expected {shape}")
    try:
        return checked_labels(out, n_labels)
    except ValueError as err:
        allowed = ", ".join(str(k) for k in range(n_labels))
        raise PredictorError(f"label answer is not in {{{allowed}}}: {err}") from None


def answers(predictors, cut, wheres, shape, n_labels: int, scores_ok: bool = False):
    """Every member's checked answer for each item of the sequence ``wheres``.

    Yields one tuple per ``where``, one ``check_answer``-ed answer per
    member of ``predictors``. Each member gets its own input
    ``cut(where)``, made lazily, so no member sees another's edits. A
    member with ``predict_many(volumes, wheres)`` streams through it; any
    other gets one ``predict(volume, where)`` per input. Closing the
    generator closes every member's stream, so an early exit stops running
    calls. Both phases call their models only through here.
    """
    with ExitStack() as stack:
        streams = []
        for p in predictors:
            many = getattr(p, "predict_many", None)
            if many is None:
                streams.append(map(p.predict, map(cut, wheres), wheres))
            else:
                streams.append(stack.enter_context(closing(many(map(cut, wheres), wheres))))
        for _, *outs in zip(wheres, *streams, strict=True):
            yield tuple(check_answer(out, shape, n_labels, scores_ok) for out in outs)


@dataclass(frozen=True)
class Cutout:
    """A fixed-size window anchored on one corpus centroid.

    ``center`` is the (unrounded) centroid in voxel coordinates; ``origin``
    is the window start after clamping, which may be negative when the
    volume is smaller than the window (the window is then zero-padded).
    """

    center: tuple[float, float, float]
    origin: tuple[int, int, int]
    size: tuple[int, int, int]
    index: int
    clamped: bool = False


def find_corpus_centers(semantic: Volume, min_volume_fraction: float = MIN_VOLUME_FRACTION):
    """Corpus-component centroids ordered superior to inferior.

    Components smaller than ``min_volume_fraction`` times the median
    component volume are treated as speckle and dropped.
    """
    corpus = semantic.data == Structure.CORPUS
    comps = connected_components(corpus, connectivity=26)
    if comps.count == 0:
        return []
    median = float(np.median(comps.sizes))
    centers = [
        comps.centroids[i]
        for i in range(comps.count)
        if comps.sizes[i] >= min_volume_fraction * median
    ]
    centers.sort(key=lambda c: c[1])
    return centers


def make_cutouts(centers, dims, size=CUTOUT_SIZE) -> list[Cutout]:
    """One window per centroid: shift-to-fit inside the volume when possible,
    centered with padding when the volume is smaller than the window."""
    size = checked_window_size(size, "cutout_size")
    cutouts = []
    for index, center in enumerate(centers, start=1):
        rounded = [int(round(c)) for c in center]
        origin = []
        clamped = False
        for axis in range(3):
            nominal = rounded[axis] - size[axis] // 2
            if dims[axis] >= size[axis]:
                fitted = min(max(nominal, 0), dims[axis] - size[axis])
                clamped = clamped or fitted != nominal
            else:
                # the window does not fit: center it and pad with zeros
                fitted = -((size[axis] - dims[axis]) // 2)
                clamped = True
            origin.append(fitted)
        cutouts.append(
            Cutout(
                center=tuple(float(c) for c in center),
                origin=tuple(origin),
                size=size,
                index=index,
                clamped=clamped,
            )
        )
    return cutouts


def cutout_window(vol: Volume, cutout: Cutout) -> Volume:
    data = window_view(vol.data, cutout.origin, cutout.size)
    return Volume(data, vol.spacing, vol.orientation, vol.kind)


@dataclass
class VertebraGroup:
    """All predictions that describe one vertebra, with their agreement.

    Gathered by window-index arithmetic: the center label of window k, the
    above label of window k+1, and the below label of window k-1. Only
    non-empty masks are kept, stacked along axis 0 over their union box,
    which starts at ``origin`` in volume indices and may leave the volume;
    agreement is their mean pairwise Dice (1.0 for a single mask).
    """

    target_index: int
    origin: tuple[int, int, int]
    masks: np.ndarray
    agreement: float


def collect_groups(cutouts: list[Cutout], predictions) -> list[VertebraGroup]:
    """Group per-window integer label predictions by the vertebra they describe.

    ``predictions`` is an iterable with one prediction per cutout. Each is
    cut down to its label masks (bounding box and crop) as it arrives and
    is not kept.
    """
    stream = iter(predictions)
    crops, n = {}, 0  # (window number, label) -> (origin, mask), for each label present
    # one flat zip: nested iterators' reused result tuples keep older answers alive
    for n, cutout, pred in zip(count(1), cutouts, stream):
        for label in range(1, LABEL_BELOW + 1):
            # three compares and projections per window take a quarter of the
            # time ndi.find_objects takes to visit the window voxel by voxel
            box = bounding_box(pred == label)
            if box is not None:
                crops[n, label] = (np.add(cutout.origin, [b.start for b in box]), pred[box] == label)
    if n != len(cutouts) or next(stream, None) is not None:
        raise ValueError("need exactly one prediction per cutout")
    groups = []
    for k in range(1, len(cutouts) + 1):
        keys = ((k, LABEL_CENTER), (k + 1, LABEL_ABOVE), (k - 1, LABEL_BELOW))
        placed = [crops[key] for key in keys if key in crops]
        if not placed:
            continue
        lo = np.min([o for o, _ in placed], axis=0)
        hi = np.max([o + m.shape for o, m in placed], axis=0)
        masks = np.zeros((len(placed), *(hi - lo)), dtype=bool)
        for layer, (o, m) in zip(masks, placed):
            layer[tuple(slice(a, a + s) for a, s in zip(o - lo, m.shape))] = m
        counts = [int(layer.sum()) for layer in masks]
        pairs = [2.0 * int((a & b).sum()) / (ca + cb) for (a, ca), (b, cb) in combinations(zip(masks, counts), 2)]
        agreement = float(np.mean(pairs)) if pairs else 1.0
        groups.append(VertebraGroup(k, tuple(int(v) for v in lo), masks, agreement))
    return groups


@dataclass
class ReconcileStats:
    conflict_voxels: int = 0
    union_fallbacks: list[int] = field(default_factory=list)
    dropped_targets: list[int] = field(default_factory=list)


def reconcile(groups: list[VertebraGroup], dims) -> tuple[np.ndarray, ReconcileStats]:
    """Fuse each group's predictions into one instance by majority vote.

    Groups are finalized from highest to lowest agreement (ties by target
    index) so the least consistent predictions are settled last; voxels a
    finalized instance already claimed never change hands. A voxel enters
    a group's fused mask when at least ceil(k/2) of its k predictions
    contain it; if that vote produces nothing unclaimed, the union of the
    predictions is used instead so no vertebra silently disappears.
    """
    out = np.zeros(tuple(dims), dtype=np.uint16)
    stats = ReconcileStats()
    order = sorted(groups, key=lambda g: (-g.agreement, g.target_index))
    for group in order:
        need = (len(group.masks) + 1) // 2
        inside = overlap((0, 0, 0), dims, group.origin, group.masks.shape[1:])
        if inside is None:
            stats.dropped_targets.append(group.target_index)
            continue
        box, clip = inside
        votes = group.masks[(slice(None), *clip)].sum(axis=0, dtype=np.int8)
        fused = votes >= need
        region = out[box]
        free = region == 0
        stats.conflict_voxels += int((fused & ~free).sum())
        final = fused & free
        if not final.any():
            final = (votes >= 1) & free
            if final.any():
                stats.union_fallbacks.append(group.target_index)
            else:
                stats.dropped_targets.append(group.target_index)
                continue
        region[final] = group.target_index
    return out, stats


def vertebra_centroids(semantic: np.ndarray, instance: np.ndarray) -> dict[int, np.ndarray]:
    """Index centroid of each vertebra id present, in increasing id order.

    A vertebra's centroid is the mean over its corpus voxels, or over all
    of its voxels when it has no corpus voxel.
    """
    vertebra = is_vertebra_id(instance)
    box = bounding_box(vertebra)
    if box is None:
        return {}
    # vertebra v's corpus voxels go under key v + VERTEBRA_ID_MAX (too big for int8)
    dtype = np.promote_types(instance.dtype, np.uint8)
    keyed = np.where(vertebra[box], instance[box], 0).astype(dtype, copy=False)
    keyed[(semantic[box] == Structure.CORPUS) & (keyed > 0)] += VERTEBRA_ID_MAX
    counts, centroids = label_centroids(keyed, 2 * VERTEBRA_ID_MAX, origin=[b.start for b in box])
    rest, corpus = counts[:VERTEBRA_ID_MAX], counts[VERTEBRA_ID_MAX:]
    return {
        int(i) + 1: centroids[i + VERTEBRA_ID_MAX if corpus[i] else i]
        for i in np.flatnonzero(rest + corpus)
    }


def vertebra_above(centroids: dict[int, np.ndarray], y: float) -> tuple[int, bool]:
    """The vertebra whose ``vertebra_centroids`` entry sits superior to
    height ``y`` (axis 1) at minimal distance, ties to the smaller id; ``(vertebra, flagged)``.

    With no vertebra above, the topmost vertebra is returned and flagged.
    """
    above = [v for v, c in centroids.items() if c[1] < y]
    if above:
        return min(above, key=lambda v: (y - centroids[v][1], v)), False
    return min(centroids, key=lambda v: (centroids[v][1], v)), True


def assign_disc_endplate_instances(semantic: Volume, vertebra_instances: np.ndarray):
    """Give disc and endplate components ids keyed to the vertebra above.

    Each connected component of the disc (endplate) class takes the disc
    (endplate) id of vertebra k on its voxels not yet claimed, where k is
    the vertebra that ``vertebra_above`` picks for the component's
    centroid. A component with no vertebra above is keyed to the topmost
    vertebra and flagged. The ids go into a copy of ``vertebra_instances``,
    widened when its dtype cannot hold them.
    """
    inst = writable_instances(vertebra_instances)
    codes = (Structure.IVD, Structure.ENDPLATE)

    def class_components():
        return [connected_components(semantic.data == code, connectivity=26) for code in codes]

    # the centroids read inst, the class components only the semantic mask;
    # one call labels both classes, so one thread does
    centroids, class_comps = concurrently(partial(vertebra_centroids, semantic.data, inst), class_components)
    flags = []
    if not centroids:
        return inst, [
            {"kind": "unassigned", "reason": "no vertebra instances", "code": int(code)}
            for code, comps in zip(codes, class_comps)
            if comps.count
        ]

    for code, comps in zip(codes, class_comps):
        lut = np.zeros(comps.count + 1, dtype=inst.dtype)
        for ci, centroid in enumerate(comps.centroids, start=1):
            k, flagged = vertebra_above(centroids, centroid[1])
            if flagged:
                flags.append({"kind": "no_vertebra_above", "code": int(code), "assigned_to": k})
            lut[ci] = structure_instance_id(code, k)
        region = inst[comps.box]
        free = (comps.labels > 0) & (region == 0)
        region[free] = lut[comps.labels[free]]
    return inst, flags


@dataclass
class AssemblyReport:
    cutouts: list[dict] = field(default_factory=list)
    groups: list[dict] = field(default_factory=list)
    missing_targets: list[int] = field(default_factory=list)
    conflict_voxels: int = 0
    union_fallbacks: list[int] = field(default_factory=list)
    assignment_flags: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def assemble(
    semantic: Volume,
    predictor,
    min_volume_fraction: float = MIN_VOLUME_FRACTION,
    cutout_size=CUTOUT_SIZE,
) -> tuple[Volume, AssemblyReport]:
    """Run the full instance phase on a semantic mask.

    The predictor is called through ``answers``, once per cutout, with a
    copy of the semantic window (a Volume) and the Cutout record, and must
    answer with an integral label array of the window's shape with values
    in {0, 1, 2, 3} (integral floats are accepted). Any other answer,
    scores included, raises ``PredictorError`` (see ``check_answer``).
    A ``cutout_size`` that is not 3 whole numbers >= 1 raises ValueError,
    and more than ``VERTEBRA_ID_MAX`` corpus centres raise
    ``TooManyVertebraeError`` before the predictor is called.
    """
    cutout_size = checked_window_size(cutout_size, "cutout_size")
    report = AssemblyReport()
    centers = find_corpus_centers(semantic, min_volume_fraction)
    empty = Volume(
        np.zeros(semantic.dims, dtype=np.uint16),
        semantic.spacing,
        semantic.orientation,
        "instance",
    )
    if not centers:
        report.warnings.append("no corpus components found; instance mask is empty")
        return empty, report
    if len(centers) > VERTEBRA_ID_MAX:
        raise TooManyVertebraeError(
            f"{len(centers)} corpus components found; vertebra ids stop at {VERTEBRA_ID_MAX}"
        )

    cutouts = make_cutouts(centers, semantic.dims, cutout_size)
    report.cutouts = [
        {
            "index": c.index,
            "center": [round(x, 3) for x in c.center],
            "origin": list(c.origin),
            "clamped": c.clamped,
        }
        for c in cutouts
    ]
    cut = partial(cutout_window, semantic)
    with closing(answers([predictor], cut, cutouts, cutout_size, LABEL_BELOW + 1)) as stream:
        groups = collect_groups(cutouts, (out for (out,) in stream))
    report.groups = [
        {"target_index": g.target_index, "n_predictions": len(g.masks), "agreement": g.agreement}
        for g in groups
    ]
    inst, stats = reconcile(groups, semantic.dims)
    report.conflict_voxels = stats.conflict_voxels
    report.union_fallbacks = stats.union_fallbacks

    inst, flags = assign_disc_endplate_instances(semantic, inst)
    report.assignment_flags = flags
    # reconcile writes only free voxels and the disc/endplate ids are not
    # vertebra ids, so every group reconcile did not drop is in the output
    placed = {g.target_index for g in groups} - set(stats.dropped_targets)
    report.missing_targets = sorted(set(range(1, len(cutouts) + 1)) - placed)
    if report.missing_targets:
        report.warnings.append(
            f"vertebra groups without output instance: {report.missing_targets}"
        )
    return semantic.with_data(inst, kind="instance"), report
