"""Core voxel-volume type plus reorientation, resampling, and mask utilities.

Volumes live on a canonical anatomical grid: axis 0 runs anterior to
posterior, axis 1 superior to inferior, and axis 2 left to right. An
orientation is written as one code per stored axis naming the direction
of increasing index, so the canonical orientation is ("P", "I", "R").
"""

from __future__ import annotations

import math
import numbers
import operator
import os
import threading
from dataclasses import dataclass, replace
from itertools import chain
from typing import Sequence

import numpy as np
import scipy.ndimage as ndi

CANONICAL_ORIENTATION = ("P", "I", "R")

#: code -> (RAS+ world axis, sign of increasing index along that axis)
AXIS_CODES = {
    "R": (0, +1.0),
    "L": (0, -1.0),
    "A": (1, +1.0),
    "P": (1, -1.0),
    "S": (2, +1.0),
    "I": (2, -1.0),
}

VOLUME_KINDS = ("intensity", "semantic", "instance")


def validate_orientation(codes: Sequence[str]) -> tuple[str, str, str]:
    codes = tuple(str(c).upper() for c in codes)
    if len(codes) != 3:
        raise ValueError(f"orientation needs exactly 3 axis codes, got {codes!r}")
    families = []
    for c in codes:
        if c not in AXIS_CODES:
            raise ValueError(f"unknown axis code {c!r}")
        families.append(AXIS_CODES[c][0])
    if len(set(families)) != 3:
        raise ValueError(f"orientation {codes!r} repeats an anatomical axis")
    return codes  # type: ignore[return-value]


def checked_numbers(value, name: str, n: int | None = None, *, whole=False, ge=None, gt=None, le=None, lt=None):
    """``value`` as one number, or as a tuple of ``n`` numbers when ``n`` is
    given: ints when ``whole``, floats otherwise. Each must be a real
    (no bool or string), finite, whole when ``whole``, and ``>= ge``,
    ``> gt``, ``<= le`` and ``< lt`` for each bound given; anything else
    raises ValueError naming ``name``, the rule and ``value``."""
    bounds = [(ge, ">=", operator.ge), (gt, ">", operator.gt), (le, "<=", operator.le), (lt, "<", operator.lt)]
    bounds = [(b, sign, test) for b, sign, test in bounds if b is not None]
    try:
        items = (value,) if n is None else tuple(value)
        # int() of NaN or an infinity raises, and a fraction differs from its int
        out = tuple(int(v) if whole else float(v) for v in items)
        ok = len(out) == (n or 1) and all(
            isinstance(v, numbers.Real) and not isinstance(v, bool) and v == w and math.isfinite(w)
            and all(test(w, b) for b, _, test in bounds)
            for v, w in zip(items, out)
        )
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        noun = "whole number" if whole else "finite real"
        rule = " and ".join(f"{sign} {b:g}" for b, sign, _ in bounds)
        if rule == "> 0" and not whole:
            noun, rule = "finite positive real", ""
        what = f"a {noun}" if n is None else f"{n} {noun}s"
        raise ValueError(f"{name} must be {what}{rule and ' ' + rule}, got {value!r}")
    return out if n is not None else out[0]


def checked_spacing(spacing, name: str = "spacing") -> tuple[float, float, float]:
    return checked_numbers(spacing, name, 3, gt=0)


def checked_window_size(size, name: str) -> tuple[int, int, int]:
    return checked_numbers(size, name, 3, whole=True, ge=1)


@dataclass(frozen=True, eq=False)
class Volume:
    """A dense 3D voxel grid with spacing (mm/voxel) and orientation.

    ``kind`` tells what the voxels mean: "intensity" for continuous data,
    "semantic" for structure codes, "instance" for instance ids. Label
    volumes must hold integers. Operations never mutate a volume in place.
    """

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    orientation: tuple[str, str, str] = CANONICAL_ORIENTATION
    kind: str = "intensity"

    def __post_init__(self):
        data = np.asarray(self.data)
        checked_window_size(data.shape, "data shape")
        spacing = checked_spacing(self.spacing)
        if self.kind not in VOLUME_KINDS:
            raise ValueError(f"kind must be one of {VOLUME_KINDS}, got {self.kind!r}")
        if self.kind != "intensity" and not np.issubdtype(data.dtype, np.integer):
            raise ValueError(f"{self.kind} volumes need an integer dtype, got {data.dtype}")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "orientation", validate_orientation(self.orientation))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def is_label(self) -> bool:
        return self.kind in ("semantic", "instance")

    def with_data(self, data: np.ndarray, kind: str | None = None) -> "Volume":
        return replace(self, data=data, kind=kind or self.kind)

    def same_grid(self, other: "Volume") -> bool:
        return (
            self.dims == other.dims
            and np.allclose(self.spacing, other.spacing)
            and self.orientation == other.orientation
        )


def as_array(x) -> np.ndarray:
    """The voxel array of a Volume, or ``x`` itself as an array."""
    return x.data if isinstance(x, Volume) else np.asarray(x)


def check_same_grid(a, b) -> None:
    """Raise ValueError unless two Volumes share a grid, or, when either
    side is a plain array, unless the two shapes agree."""
    if isinstance(a, Volume) and isinstance(b, Volume):
        if not a.same_grid(b):
            raise ValueError(
                f"volumes live on different grids: shape/spacing/orientation "
                f"{a.dims}/{a.spacing}/{a.orientation} vs {b.dims}/{b.spacing}/{b.orientation}"
            )
    elif as_array(a).shape != as_array(b).shape:
        raise ValueError(
            f"mask shapes differ, so they share no grid: {as_array(a).shape} vs {as_array(b).shape}"
        )


def reorient(vol: Volume, target: Sequence[str]) -> Volume:
    """Permute/flip axes so the volume's orientation matches ``target``.

    Pure axis shuffling: the voxel multiset is preserved and reorienting
    back to the source orientation restores the original volume.
    """
    target = validate_orientation(target)
    src_families = [AXIS_CODES[c][0] for c in vol.orientation]
    perm = []
    flips = []
    for code in target:
        family = AXIS_CODES[code][0]
        src_axis = src_families.index(family)
        perm.append(src_axis)
        flips.append(vol.orientation[src_axis] != code)
    data = np.transpose(vol.data, perm)
    slicer = tuple(slice(None, None, -1) if f else slice(None) for f in flips)
    data = np.ascontiguousarray(data[slicer])
    spacing = tuple(vol.spacing[p] for p in perm)
    return Volume(data, spacing, target, vol.kind)


def to_canonical(vol: Volume) -> Volume:
    return reorient(vol, CANONICAL_ORIENTATION)


def _nearest_indices(coords: np.ndarray, size: int) -> np.ndarray:
    # nearest voxel center, ties resolved toward the smaller index
    idx = np.ceil(coords - 0.5).astype(np.int64)
    return np.clip(idx, 0, size - 1)


def _linear_pass(data: np.ndarray, coords: np.ndarray, axis: int) -> np.ndarray:
    """1-D linear interpolation of float64 ``data`` along ``axis`` at the
    fractional indices ``coords``, clipped to the axis as
    ``map_coordinates(..., mode="nearest")`` does."""
    size = data.shape[axis]
    coords = np.clip(coords, 0, size - 1)
    lo = np.floor(coords).astype(np.intp)
    frac = (coords - lo).reshape([-1 if a == axis else 1 for a in range(data.ndim)])
    out = np.take(data, lo, axis=axis)
    out *= 1.0 - frac
    upper = np.take(data, np.minimum(lo + 1, size - 1), axis=axis)
    upper *= frac
    out += upper
    return out


def resample(vol: Volume, new_spacing: Sequence[float], mode: str = "nearest") -> Volume:
    """Resample onto a grid with ``new_spacing``, preserving physical extent.

    The grid is anchored at the physical corner of the volume: voxel i
    covers [i*s, (i+1)*s) along each axis, with its center at (i+0.5)*s.
    Output dims are round(dims*spacing/new_spacing), at least 1. Label
    volumes only accept nearest mode so no new label values can appear.
    Trilinear mode is separable: one float64 linear pass per axis whose
    grid changes, shrinking axes first, with edge voxels repeated beyond
    the volume, then cast once to the input dtype promoted to float32.
    """
    new_spacing = checked_spacing(new_spacing, "new_spacing")
    if mode not in ("nearest", "trilinear"):
        raise ValueError(f"mode must be 'nearest' or 'trilinear', got {mode!r}")
    if mode == "trilinear" and vol.is_label:
        raise ValueError("trilinear interpolation is not valid for label volumes")

    # NIfTI stores spacing as float32, so a volume read back from disk is
    # already on the target grid when its spacing is merely close to it
    if np.allclose(new_spacing, vol.spacing):
        return vol

    old_dims = vol.dims
    new_dims = tuple(
        max(1, int(round(d * s / ns)))
        for d, s, ns in zip(old_dims, vol.spacing, new_spacing)
    )
    # fractional source index of each output voxel center, per axis
    axis_coords = [
        ((np.arange(nd) + 0.5) * ns) / s - 0.5
        for nd, ns, s in zip(new_dims, new_spacing, vol.spacing)
    ]
    if mode == "nearest":
        ii = _nearest_indices(axis_coords[0], old_dims[0])
        jj = _nearest_indices(axis_coords[1], old_dims[1])
        kk = _nearest_indices(axis_coords[2], old_dims[2])
        data = vol.data[np.ix_(ii, jj, kk)]
    else:
        data = vol.data.astype(np.float64, copy=False)
        for axis in sorted(range(3), key=lambda a: new_dims[a] / old_dims[a]):
            # an axis sampled at its own voxel centers would be copied unchanged
            if not np.array_equal(axis_coords[axis], np.arange(old_dims[axis])):
                data = _linear_pass(data, axis_coords[axis], axis)
        data = data.astype(np.promote_types(vol.data.dtype, np.float32), copy=False)
    return Volume(np.ascontiguousarray(data), new_spacing, vol.orientation, vol.kind)


@dataclass
class ComponentSet:
    """Connected components of a binary mask.

    Ids are 1..count with no gaps, ordered by each component's minimum
    linear voxel index so the labeling is deterministic. ``labels`` holds
    the ids of the mask's bounding box only, which sits at ``box`` in the
    mask's grid; the grid is 0 outside it. An empty mask has an empty box
    at the origin. Centroids are in the grid's indices.
    """

    labels: np.ndarray
    box: tuple[slice, slice, slice]
    count: int
    sizes: np.ndarray
    centroids: list[tuple[float, float, float]]


def bounding_box(mask: np.ndarray) -> tuple[slice, slice, slice] | None:
    """The tight slice box around the True voxels of a 3D mask, or None
    when it has none.

    One ``any`` projection per axis: the first axis from whole planes,
    the other two from the OR of all planes, so no reduction runs along
    the short, contiguous last axis of the full mask.
    """
    mask = np.asarray(mask, dtype=bool)
    plane = mask.any(axis=0)
    box = []
    for hit in (mask.any(axis=(1, 2)), plane.any(axis=1), plane.any(axis=0)):
        idx = np.flatnonzero(hit)
        if idx.size == 0:
            return None
        box.append(slice(int(idx[0]), int(idx[-1]) + 1))
    return tuple(box)  # type: ignore[return-value]


def connected_components(mask: np.ndarray) -> ComponentSet:
    """Label the 26-connected components of a binary mask.

    Only the mask's bounding box is labeled and kept, as int32 (see
    ``ComponentSet``). ``ndi.label`` numbers components in C order of
    their first voxel, and C order within a box is C order of the grid,
    so the ids are those of a whole-grid labeling.
    """
    mask = np.asarray(mask, dtype=bool)
    box = bounding_box(mask) or (slice(0, 0),) * mask.ndim
    crop = mask[box]
    labels = np.empty(crop.shape, dtype=np.int32)
    n = ndi.label(crop, structure=np.ones((3, 3, 3), dtype=bool), output=labels)
    sizes, centroids = label_centroids(labels, n, origin=[b.start for b in box])
    centroids = [tuple(c) for c in centroids.tolist()]
    return ComponentSet(labels=labels, box=box, count=n, sizes=sizes, centroids=centroids)


def label_centroids(labels: np.ndarray, n: int, origin=(0, 0, 0)) -> tuple[np.ndarray, np.ndarray]:
    """Voxel counts and index centroids of ids 1..n in one pass.

    ``labels`` may be a box cut from a larger grid at index ``origin``;
    centroids are then in the grid's indices. Returns ``(counts,
    centroids)``: row ``i`` describes id ``i + 1``, and an id without
    voxels gets a NaN centroid. The origin is added to the integer
    indices before they are summed, and each coordinate sum adds integers
    in float64, which is exact, so a centroid equals the mean of the id's
    ``np.nonzero`` indices in the whole grid bit for bit. Adding the
    origin to the mean instead would round.
    """
    where = np.nonzero(labels)
    ids = labels[where].astype(np.intp)
    counts = np.bincount(ids, minlength=n + 1)[1 : n + 1]
    sums = [
        np.bincount(ids, weights=axis + start, minlength=n + 1)[1 : n + 1]
        for axis, start in zip(where, origin)
    ]
    with np.errstate(invalid="ignore"):
        centroids = np.stack(sums, axis=1) / counts[:, None]
    return counts, centroids


def fill_holes(mask: np.ndarray) -> np.ndarray:
    """Fill the holes of a mask: foreground never shrinks.

    A hole is a 6-connected background component with no voxel on any of
    the volume's six faces. One labeling of the background finds them all.
    """
    mask = np.asarray(mask) != 0
    background, n = ndi.label(~mask, structure=ndi.generate_binary_structure(3, 1))
    outside = np.zeros(n + 1, dtype=bool)
    for axis in range(mask.ndim):
        for index in (0, -1):
            outside[np.take(background, index, axis=axis)] = True
    # id 0 is the foreground, also where it covers a face
    outside[0] = False
    return ~outside[background]


def binary_erosion(mask: np.ndarray, radius: int) -> np.ndarray:
    """Erode by a Euclidean ball of the given voxel radius (>= 0).

    Space beyond the faces counts as background, so a voxel survives only
    with its whole ball inside the volume: a ball wider than the shortest
    axis empties the mask, and that answer comes without building it.
    """
    mask = np.asarray(mask) != 0
    if 2 * radius + 1 > min(mask.shape):
        return np.zeros_like(mask)
    grid = np.mgrid[-radius : radius + 1, -radius : radius + 1, -radius : radius + 1]
    return ndi.binary_erosion(mask, structure=(grid**2).sum(axis=0) <= radius**2, border_value=0)


def binary_closing(mask: np.ndarray) -> np.ndarray:
    """Closing by a 3x3x3 box that treats space beyond the boundary as open.

    The volume is padded by one voxel first, so closing near the faces
    behaves as if the mask floated in an infinite background instead of
    being clipped.
    """
    se = np.ones((3, 3, 3), dtype=bool)
    padded = np.pad(np.asarray(mask) != 0, 1, mode="constant", constant_values=False)
    closed = ndi.binary_erosion(ndi.binary_dilation(padded, structure=se), structure=se)
    return closed[1:-1, 1:-1, 1:-1]


def overlap(origin_a, shape_a, origin_b, shape_b):
    """Where two boxes placed in one index space (origins of any sign)
    share voxels: ``(slices into a, slices into b)``, or None if nowhere."""
    lo = [max(oa, ob) for oa, ob in zip(origin_a, origin_b)]
    hi = [min(oa + sa, ob + sb) for oa, sa, ob, sb in zip(origin_a, shape_a, origin_b, shape_b)]
    if any(l >= h for l, h in zip(lo, hi)):
        return None
    return tuple(
        tuple(slice(l - o, h - o) for l, h, o in zip(lo, hi, origin)) for origin in (origin_a, origin_b)
    )


def window_view(data: np.ndarray, origin, size) -> np.ndarray:
    """Copy a window starting at ``origin`` (any sign), zero-padded where it
    leaves the volume."""
    out = np.zeros(tuple(size), dtype=data.dtype)
    shared = overlap((0,) * data.ndim, data.shape, origin, size)
    if shared is not None:
        out[shared[1]] = data[shared[0]]
    return out


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the machine's CPU count, else 1."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def concurrently(*calls) -> list:
    """``[call() for call in calls]`` on ``width = min(len(calls),
    usable_cpus())`` threads, this one among them; the package starts
    threads nowhere else.

    Below a width of 2 every call runs here, in order. Otherwise
    ``width - 1`` workers start; thread k runs call k first, this one
    being thread 0, and then each thread takes the next call no thread
    has taken, in input order, until none is left. Once a call has
    failed no thread takes another, and its exception reaches the caller
    after every worker has ended. This thread works rather than waits,
    so one thread fewer allocates: each one gets its own malloc arena,
    which keeps the pages of the temporaries freed in it.
    """
    width = min(len(calls), usable_cpus())
    if width < 2:
        return [call() for call in calls]
    results, failures = [None] * len(calls), []
    untaken = iter(range(width, len(calls)))  # next() on it is atomic

    def run(first: int) -> None:
        try:
            for i in chain((first,), untaken):
                results[i] = calls[i]()
                if failures:
                    return
        except BaseException as e:
            failures.append(e)

    workers = [threading.Thread(target=run, args=(k,)) for k in range(1, width)]
    try:
        for worker in workers:
            worker.start()
        run(0)
    finally:
        for worker in workers:
            if worker.is_alive():  # one that never started cannot be joined
                worker.join()
    if failures:
        raise failures[0]
    return results
