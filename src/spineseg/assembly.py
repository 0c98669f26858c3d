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

from dataclasses import dataclass, field

import numpy as np

from .labels import Structure, endplate_id, ivd_id
from .volume import Volume, bounding_box, connected_components, label_centroids, window_view

CUTOUT_SIZE = (248, 304, 64)

LABEL_ABOVE, LABEL_CENTER, LABEL_BELOW = 1, 2, 3


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


def find_corpus_centers(semantic: Volume, min_volume_fraction: float = 0.10):
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
                size=tuple(size),
                index=index,
                clamped=clamped,
            )
        )
    return cutouts


def cutout_window(vol: Volume, cutout: Cutout) -> Volume:
    data = window_view(vol.data, cutout.origin, cutout.size)
    return Volume(data, vol.spacing, vol.orientation, vol.kind)


@dataclass
class WindowMask:
    """A binary mask cropped to its bounding box, placed in volume space."""

    origin: tuple[int, int, int]
    mask: np.ndarray
    count: int

    @property
    def extent(self):
        return tuple((o, o + s) for o, s in zip(self.origin, self.mask.shape))


def window_pair_dice(a: WindowMask, b: WindowMask) -> float:
    lo = [max(ea[0], eb[0]) for ea, eb in zip(a.extent, b.extent)]
    hi = [min(ea[1], eb[1]) for ea, eb in zip(a.extent, b.extent)]
    if any(l >= h for l, h in zip(lo, hi)):
        inter = 0
    else:
        sa = tuple(slice(l - o, h - o) for l, h, o in zip(lo, hi, a.origin))
        sb = tuple(slice(l - o, h - o) for l, h, o in zip(lo, hi, b.origin))
        inter = int((a.mask[sa] & b.mask[sb]).sum())
    return 2.0 * inter / (a.count + b.count)


@dataclass
class VertebraGroup:
    """All predictions that describe one vertebra, with their agreement.

    Gathered by window-index arithmetic: the center label of window k, the
    above label of window k+1, and the below label of window k-1. Only
    non-empty masks are kept; agreement is the mean pairwise Dice (1.0
    when fewer than two predictions exist).
    """

    target_index: int
    predictions: list[WindowMask]
    agreement: float


def _window_mask(prediction: np.ndarray, label: int, cutout: Cutout) -> WindowMask | None:
    m = prediction == label
    box = bounding_box(m)
    if box is None:
        return None
    origin = tuple(cutout.origin[a] + box[a].start for a in range(3))
    crop = np.ascontiguousarray(m[box])
    return WindowMask(origin=origin, mask=crop, count=int(crop.sum()))


def collect_groups(cutouts: list[Cutout], predictions: list[np.ndarray]) -> list[VertebraGroup]:
    """Group per-window predictions by the vertebra they describe."""
    if len(cutouts) != len(predictions):
        raise ValueError("need exactly one prediction per cutout")
    n = len(cutouts)
    groups = []
    for k in range(1, n + 1):
        sources = (
            (k, LABEL_CENTER),
            (k + 1, LABEL_ABOVE),
            (k - 1, LABEL_BELOW),
        )
        masks = []
        for cut_index, label in sources:
            if not 1 <= cut_index <= n:
                continue
            wm = _window_mask(predictions[cut_index - 1], label, cutouts[cut_index - 1])
            if wm is not None:
                masks.append(wm)
        if not masks:
            continue
        if len(masks) < 2:
            agreement = 1.0
        else:
            scores = [
                window_pair_dice(masks[i], masks[j])
                for i in range(len(masks))
                for j in range(i + 1, len(masks))
            ]
            agreement = float(np.mean(scores))
        groups.append(VertebraGroup(target_index=k, predictions=masks, agreement=agreement))
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
        k = len(group.predictions)
        need = (k + 1) // 2
        lo = [min(wm.extent[a][0] for wm in group.predictions) for a in range(3)]
        hi = [max(wm.extent[a][1] for wm in group.predictions) for a in range(3)]
        lo = [max(0, l) for l in lo]
        hi = [min(d, h) for d, h in zip(dims, hi)]
        if any(l >= h for l, h in zip(lo, hi)):
            stats.dropped_targets.append(group.target_index)
            continue
        box = tuple(slice(l, h) for l, h in zip(lo, hi))
        votes = np.zeros(tuple(h - l for l, h in zip(lo, hi)), dtype=np.int8)
        for wm in group.predictions:
            wlo = [max(lo[a], wm.extent[a][0]) for a in range(3)]
            whi = [min(hi[a], wm.extent[a][1]) for a in range(3)]
            if any(l >= h for l, h in zip(wlo, whi)):
                continue
            dst = tuple(slice(l - lo[a], h - lo[a]) for a, (l, h) in enumerate(zip(wlo, whi)))
            src = tuple(slice(l - wm.origin[a], h - wm.origin[a]) for a, (l, h) in enumerate(zip(wlo, whi)))
            votes[dst] += wm.mask[src]
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


def vertebra_heights(semantic: np.ndarray, instance: np.ndarray) -> dict[int, float]:
    """Superior-inferior centroid (axis 1) of each vertebra id 1..99 present.

    A vertebra's centroid is the mean over its corpus voxels, or over all
    of its voxels when it has no corpus voxel.
    """
    vertebrae = np.where((instance >= 1) & (instance < 100), instance, 0)
    counts, centroids = label_centroids(vertebrae, 99)
    corpus_counts, corpus_centroids = label_centroids(
        np.where(semantic == Structure.CORPUS, vertebrae, 0), 99
    )
    return {
        int(i) + 1: float((corpus_centroids if corpus_counts[i] else centroids)[i, 1])
        for i in np.flatnonzero(counts)
    }


def vertebra_above(heights: dict[int, float], y: float) -> tuple[int, bool]:
    """The vertebra whose centroid sits superior to height ``y`` at minimal
    vertical distance, ties to the smaller id; ``(vertebra, flagged)``.

    With no vertebra above, the topmost vertebra is returned and flagged.
    """
    above = [v for v in heights if heights[v] < y]
    if above:
        return min(above, key=lambda v: (y - heights[v], v)), False
    return min(heights, key=lambda v: (heights[v], v)), True


def assign_disc_endplate_instances(semantic: Volume, vertebra_instances: np.ndarray):
    """Give disc and endplate components ids keyed to the vertebra above.

    Each connected component of the disc (endplate) class takes id 100+k
    (200+k) on its voxels not yet claimed, where k is the vertebra that
    ``vertebra_above`` picks for the component's centroid. A component
    with no vertebra above is keyed to the topmost vertebra and flagged.
    """
    inst = vertebra_instances.copy()
    heights = vertebra_heights(semantic.data, inst)
    flags = []
    if not heights:
        return inst, [
            {"kind": "unassigned", "reason": "no vertebra instances", "code": int(code)}
            for code in (Structure.IVD, Structure.ENDPLATE)
            if (semantic.data == code).any()
        ]

    for code, id_for in ((Structure.IVD, ivd_id), (Structure.ENDPLATE, endplate_id)):
        comps = connected_components(semantic.data == code, connectivity=26)
        lut = np.zeros(comps.count + 1, dtype=inst.dtype)
        for ci, centroid in enumerate(comps.centroids, start=1):
            k, flagged = vertebra_above(heights, centroid[1])
            if flagged:
                flags.append({"kind": "no_vertebra_above", "code": int(code), "assigned_to": k})
            lut[ci] = id_for(k)
        free = (comps.labels > 0) & (inst == 0)
        inst[free] = lut[comps.labels[free]]
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
        return {
            "cutouts": self.cutouts,
            "groups": self.groups,
            "missing_targets": self.missing_targets,
            "conflict_voxels": self.conflict_voxels,
            "union_fallbacks": self.union_fallbacks,
            "assignment_flags": self.assignment_flags,
            "warnings": self.warnings,
        }


def assemble(
    semantic: Volume,
    predictor,
    min_volume_fraction: float = 0.10,
    cutout_size=CUTOUT_SIZE,
) -> tuple[Volume, AssemblyReport]:
    """Run the full instance phase on a semantic mask.

    The predictor is called once per cutout with the semantic window (a
    Volume) and the Cutout record, and must return a label array over the
    window with values in {0, 1, 2, 3}.
    """
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
    predictions = []
    for cutout in cutouts:
        window = cutout_window(semantic, cutout)
        pred = np.asarray(predictor.predict(window, cutout))
        if pred.shape != cutout.size:
            raise ValueError(
                f"cutout {cutout.index}: predictor returned shape {pred.shape}, expected {cutout.size}"
            )
        predictions.append(pred)

    groups = collect_groups(cutouts, predictions)
    report.groups = [
        {"target_index": g.target_index, "n_predictions": len(g.predictions), "agreement": g.agreement}
        for g in groups
    ]
    inst, stats = reconcile(groups, semantic.dims)
    report.conflict_voxels = stats.conflict_voxels
    report.union_fallbacks = stats.union_fallbacks

    inst, flags = assign_disc_endplate_instances(semantic, inst)
    report.assignment_flags = flags
    present = {int(v) for v in np.unique(inst) if 1 <= v < 100}
    report.missing_targets = sorted(set(range(1, len(cutouts) + 1)) - present)
    if report.missing_targets:
        report.warnings.append(
            f"vertebra groups without output instance: {report.missing_targets}"
        )
    return semantic.with_data(inst, kind="instance"), report
