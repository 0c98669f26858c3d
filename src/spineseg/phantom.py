"""Procedural spine phantoms with exact ground truth, plus the corruption
models that turn ground truth into deterministic stand-in predictors.

A phantom is built from geometric primitives on the canonical grid
(anterior→posterior, superior→inferior, left→right): ellipsoidal corpora,
a half-shell arcus behind the spinal canal, box-shaped processes,
concentric canal/cord cylinders running the full column height, elliptic
discs with one-voxel endplate layers above and below, and a tapering
sacrum wedge. Adjacent vertebrae listed in ``fuse_pairs`` share a corpus
bridge and count as a single instance unit, with no disc between them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np
import scipy.ndimage as ndi

from .assembly import LABEL_ABOVE, LABEL_BELOW, LABEL_CENTER, vertebra_centroids
from .labels import INSTANCE_ID_MAX, Structure, checked_labels, endplate_id, ivd_id, vertebra_id
from .pipeline import DEFAULT_SPACING
from .volume import Volume, binary_erosion, checked_numbers, overlap, window_view

DEFAULT_DIMS = (256, 384, 64)


def _check_fields(spec, *rules) -> None:
    """Store each field of ``spec`` as ``checked_numbers`` returns it, for
    ``rules`` of (space-separated field names, the rule for them)."""
    for names, rule in rules:
        for name in names.split():
            object.__setattr__(spec, name, checked_numbers(getattr(spec, name), name, **rule))


@dataclass(frozen=True)
class PhantomSpec:
    """Parameters of a synthetic spine; identical spec means identical phantom."""

    n_vertebrae: int = 7
    corpus_radii: tuple[float, float, float] = (13.0, 6.5, 14.0)
    disc_thickness: float = 4.0
    canal_radius: float = 7.0
    cord_radius: float = 3.5
    process_size: tuple[float, float, float] = (13.0, 6.0, 5.0)
    pitch: float = 20.0
    include_sacrum: bool = True
    fuse_pairs: tuple[tuple[int, int], ...] = ()
    seed: int = 0
    dims: tuple[int, int, int] = DEFAULT_DIMS
    spacing: tuple[float, float, float] = DEFAULT_SPACING

    def __post_init__(self):
        _check_fields(
            self,
            ("n_vertebrae", dict(whole=True, ge=3, le=24)),
            ("corpus_radii process_size spacing", dict(n=3, gt=0)),
            ("disc_thickness canal_radius cord_radius pitch", dict(gt=0)),
            ("seed", dict(whole=True, ge=0)),
            ("dims", dict(n=3, whole=True, ge=1)),
        )
        if not isinstance(self.include_sacrum, bool):
            raise ValueError(f"include_sacrum must be true or false, got {self.include_sacrum!r}")
        if self.disc_thickness >= self.pitch:
            raise ValueError("disc thickness must be smaller than the vertebra pitch")
        if self.cord_radius >= self.canal_radius:
            raise ValueError("cord radius must be smaller than the canal radius")
        if not isinstance(self.fuse_pairs, (list, tuple)):
            raise ValueError(f"fuse_pairs must be a list of [k, k+1] pairs, got {self.fuse_pairs!r}")
        pairs = (checked_numbers(p, "fuse_pairs entry", 2, whole=True, ge=1, le=self.n_vertebrae) for p in self.fuse_pairs)
        object.__setattr__(self, "fuse_pairs", tuple(pairs))
        for a, b in self.fuse_pairs:
            if b != a + 1:
                raise ValueError(f"fuse_pairs entries must be adjacent (k, k+1); got {(a, b)}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "PhantomSpec":
        return cls(**json.loads(text))


@dataclass(frozen=True)
class NoiseSpec:
    """Per-structure corruption levels mirroring the training augmentations:
    random erosion, random label drop (per connected region), and random
    downsample-then-upsample, each applied with 10% probability by default.
    ``boundary_jitter_mm`` moves each structure's mask by a random shift of
    up to that many millimetres per axis; voxels shifted past an edge are
    dropped, and nothing wraps around.
    """

    p_erosion: float = 0.1
    erosion_radius: int = 1
    p_labeldrop: float = 0.1
    p_downup: float = 0.1
    boundary_jitter_mm: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_fields(
            self,
            ("p_erosion p_labeldrop p_downup", dict(ge=0, le=1)),
            ("erosion_radius seed", dict(whole=True, ge=0)),
            ("boundary_jitter_mm", dict(ge=0)),
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "NoiseSpec":
        return cls(**json.loads(text))


def _axis_centers(dim: int, spacing: float) -> np.ndarray:
    return (np.arange(dim) + 0.5) * spacing


class _Painter:
    """First-wins painting of geometric regions into semantic/instance grids."""

    def __init__(self, dims, spacing):
        self.semantic = np.zeros(dims, dtype=np.uint16)
        self.instance = np.zeros(dims, dtype=np.uint16)
        self.centers = [_axis_centers(d, s) for d, s in zip(dims, spacing)]

    def box_for(self, lo_mm, hi_mm):
        out = []
        for axis in range(3):
            c = self.centers[axis]
            inside = np.nonzero((c >= lo_mm[axis]) & (c <= hi_mm[axis]))[0]
            if inside.size == 0:
                return None
            out.append(slice(int(inside[0]), int(inside[-1]) + 1))
        return tuple(out)

    def paint(self, code, instance_id, lo_mm, hi_mm, condition=None):
        box = self.box_for(lo_mm, hi_mm)
        if box is None:
            return
        if condition is None:
            mask = np.ones(tuple(s.stop - s.start for s in box), dtype=bool)
        else:
            coords = [self.centers[a][box[a]] for a in range(3)]
            x = coords[0][:, None, None]
            y = coords[1][None, :, None]
            z = coords[2][None, None, :]
            mask = condition(x, y, z)
        sub = self.semantic[box]
        sel = mask & (sub == 0)
        sub[sel] = code
        if instance_id:
            self.instance[box][sel] = instance_id


def generate_phantom(spec: PhantomSpec):
    """Build (intensity, semantic, instance) volumes for a phantom spec.

    Raises ValueError when the requested column does not fit the volume.
    """
    dims, spacing = spec.dims, spec.spacing
    extent = tuple(d * s for d, s in zip(dims, spacing))
    rx, ry, rz = spec.corpus_radii

    margin_y = 18.0
    sacrum_height = 28.0
    column_bottom = margin_y + spec.n_vertebrae * spec.pitch
    if spec.include_sacrum:
        column_bottom += sacrum_height
    if column_bottom + 2.0 > extent[1]:
        raise ValueError(
            f"{spec.n_vertebrae} vertebrae need {column_bottom + 2.0:.1f} mm of column, "
            f"volume has {extent[1]:.1f} mm"
        )

    corpus_x = 32.0 + rx
    canal_x = corpus_x + rx + 1.5 + spec.canal_radius
    arcus_inner = spec.canal_radius + 1.5
    arcus_outer = spec.canal_radius + 5.0
    z_mid = extent[2] / 2.0
    spinous_len, proc_h, proc_w = spec.process_size
    needed_x = canal_x + arcus_outer + spinous_len + 2.0
    if needed_x > extent[0]:
        raise ValueError(f"geometry needs {needed_x:.1f} mm anterior-posterior, volume has {extent[0]:.1f}")

    # fused neighbours share a unit, and a vertebra's instance id is its unit
    fused_after = {a for a, _ in spec.fuse_pairs}
    unit_of = {1: 1}
    for k in range(2, spec.n_vertebrae + 1):
        unit_of[k] = unit_of[k - 1] + (k - 1 not in fused_after)

    p = _Painter(dims, spacing)
    corpus_h = 2.0 * ry

    def band_top(k):
        return margin_y + (k - 1) * spec.pitch

    # vertebra levels: corpus + arcus + processes, instance id = fusion unit
    for k in range(1, spec.n_vertebrae + 1):
        top = band_top(k)
        yc = top + ry
        uid = vertebra_id(unit_of[k])

        p.paint(
            Structure.CORPUS,
            uid,
            (corpus_x - rx, top, z_mid - rz),
            (corpus_x + rx, top + corpus_h, z_mid + rz),
            lambda x, y, z, yc=yc: ((x - corpus_x) / rx) ** 2 + ((y - yc) / ry) ** 2 + ((z - z_mid) / rz) ** 2 <= 1.0,
        )
        if k in fused_after:
            # corpus bridge through the gap joins this level to the next
            p.paint(
                Structure.CORPUS,
                uid,
                (corpus_x - rx * 0.5, yc, z_mid - rz * 0.5),
                (corpus_x + rx * 0.5, yc + spec.pitch, z_mid + rz * 0.5),
                lambda x, y, z: ((x - corpus_x) / (rx * 0.5)) ** 2 + ((z - z_mid) / (rz * 0.5)) ** 2 <= 1.0,
            )

        arc_h = 0.8 * ry
        p.paint(
            Structure.ARCUS,
            uid,
            (canal_x, yc - arc_h, z_mid - arcus_outer),
            (canal_x + arcus_outer, yc + arc_h, z_mid + arcus_outer),
            lambda x, y, z: (
                (lambda r2: (r2 >= arcus_inner**2) & (r2 <= arcus_outer**2))((x - canal_x) ** 2 + (z - z_mid) ** 2)
            ),
        )
        sp_x0 = canal_x + arcus_outer - 0.5
        p.paint(
            Structure.SPINOUS_PROCESS,
            uid,
            (sp_x0, yc - proc_h / 2, z_mid - proc_w / 2),
            (sp_x0 + spinous_len, yc + proc_h / 2, z_mid + proc_w / 2),
        )
        art_x0, art_x1 = canal_x - 5.0, canal_x + 6.5
        art_zo, art_zi = 13.0, 7.0
        bot = top + corpus_h
        for code, sign in ((Structure.ARTICULAR_INFERIOR_LEFT, -1), (Structure.ARTICULAR_INFERIOR_RIGHT, +1)):
            z0, z1 = sorted((sign * art_zi, sign * art_zo))
            p.paint(code, uid, (art_x0, bot - 3.0, z_mid + z0), (art_x1, bot + 3.0, z_mid + z1))
        for code, sign in ((Structure.ARTICULAR_SUPERIOR_LEFT, -1), (Structure.ARTICULAR_SUPERIOR_RIGHT, +1)):
            z0, z1 = sorted((sign * art_zi, sign * art_zo))
            p.paint(code, uid, (art_x0, top - 3.0, z_mid + z0), (art_x1, top + 3.0, z_mid + z1))
        cost_zi, cost_zo = 14.0, 14.0 + 2.0 * proc_w
        for code, sign in ((Structure.COSTAL_PROCESS_LEFT, -1), (Structure.COSTAL_PROCESS_RIGHT, +1)):
            z0, z1 = sorted((sign * cost_zi, sign * cost_zo))
            p.paint(code, uid, (canal_x - 4.0, yc - 2.5, z_mid + z0), (canal_x + 4.0, yc + 2.5, z_mid + z1))

    # discs + endplate layers in every non-fused gap (including above sacrum)
    disc_rx, disc_rz = 0.9 * rx, 0.9 * rz
    n_gaps = spec.n_vertebrae if spec.include_sacrum else spec.n_vertebrae - 1
    disc_footprint = lambda x, z: ((x - corpus_x) / disc_rx) ** 2 + ((z - z_mid) / disc_rz) ** 2 <= 1.0
    for k in range(1, n_gaps + 1):
        if k in fused_after:
            continue
        gap_mid = band_top(k) + corpus_h + (spec.pitch - corpus_h) / 2.0
        d0, d1 = gap_mid - spec.disc_thickness / 2.0, gap_mid + spec.disc_thickness / 2.0
        uid = unit_of[k]
        p.paint(
            Structure.IVD,
            ivd_id(uid),
            (corpus_x - disc_rx, d0, z_mid - disc_rz),
            (corpus_x + disc_rx, d1, z_mid + disc_rz),
            lambda x, y, z: disc_footprint(x, z),
        )
        disc_rows = np.nonzero((p.centers[1] >= d0) & (p.centers[1] <= d1))[0]
        # endplates: the one-voxel rows just above and below the disc, inside the grid
        rows = [r for r in (disc_rows[0] - 1, disc_rows[-1] + 1) if 0 <= r < dims[1]] if disc_rows.size else []
        if rows:
            ys = p.centers[1][rows]
            p.paint(
                Structure.ENDPLATE,
                endplate_id(uid),
                (corpus_x - disc_rx, ys[0], z_mid - disc_rz),
                (corpus_x + disc_rx, ys[-1], z_mid + disc_rz),
                lambda x, y, z: np.isin(y, ys) & disc_footprint(x, z),
            )

    # canal and cord run the full column height (open tube ends)
    p.paint(
        Structure.SPINAL_CANAL,
        0,
        (canal_x - spec.canal_radius, 0.0, z_mid - spec.canal_radius),
        (canal_x + spec.canal_radius, extent[1], z_mid + spec.canal_radius),
        lambda x, y, z: (
            (lambda r2: (r2 > spec.cord_radius**2) & (r2 <= spec.canal_radius**2))(
                (x - canal_x) ** 2 + (z - z_mid) ** 2
            )
        ),
    )
    p.paint(
        Structure.SPINAL_CORD,
        0,
        (canal_x - spec.cord_radius, 0.0, z_mid - spec.cord_radius),
        (canal_x + spec.cord_radius, extent[1], z_mid + spec.cord_radius),
        lambda x, y, z: (x - canal_x) ** 2 + (z - z_mid) ** 2 <= spec.cord_radius**2,
    )

    if spec.include_sacrum:
        sac_top = band_top(spec.n_vertebrae + 1)
        x0, x1 = corpus_x - rx, canal_x + arcus_inner

        def sacrum_shape(x, y, z):
            f = 1.0 - (y - sac_top) / sacrum_height
            f = np.clip(f, 0.0, 1.0)
            half_w = (rz - 4.0) * f + 4.0
            return (x >= x0) & (x <= x0 + (x1 - x0) * f + 2.0) & (np.abs(z - z_mid) <= half_w)

        p.paint(
            Structure.SACRUM,
            0,
            (x0, sac_top, z_mid - rz),
            (x1 + 2.0, sac_top + sacrum_height, z_mid + rz),
            sacrum_shape,
        )

    rng = np.random.default_rng(spec.seed)
    base_values = np.array(
        [0.05, 0.55, 0.50, 0.45, 0.42, 0.42, 0.44, 0.44, 0.40, 0.40, 0.75, 0.70, 0.30, 0.60, 0.48],
        dtype=np.float32,
    )
    intensity = base_values[p.semantic] + rng.normal(0.0, 0.02, size=dims).astype(np.float32)

    vol_kwargs = dict(spacing=spacing, orientation=("P", "I", "R"))
    return (
        Volume(intensity, kind="intensity", **vol_kwargs),
        Volume(p.semantic, kind="semantic", **vol_kwargs),
        Volume(p.instance, kind="instance", **vol_kwargs),
    )


def _patch_seed(base_seed: int, token) -> int:
    seq = np.random.SeedSequence([int(base_seed), *[int(t) & 0xFFFFFFFF for t in token]])
    return int(seq.generate_state(1)[0])


def _corrupt_label(data: np.ndarray, value: int, box, noise: NoiseSpec, rng: np.random.Generator, spacing):
    """Corrupt the voxels of ``value`` inside its box (None when absent).

    Returns ``(crop, origin)``: the corrupted mask of the widened box and
    where it lands in ``data``, jitter included; or None for an absent
    label. Every probability and jitter draw is made even for an absent
    label, since a caller may share ``rng`` across labels.
    """
    # the box start is floored to even indices so the ::2 phase of the
    # downsample matches the full-grid result, and the high side gets two
    # voxels of slack for the upsample spill
    crop = origin = None
    if box is not None:
        box = tuple(slice((s.start // 2) * 2, min(s.stop + 2, dim)) for s, dim in zip(box, data.shape))
        crop = data[box] == value
        origin = np.array([s.start for s in box])
    if rng.random() < noise.p_erosion and noise.erosion_radius > 0 and crop is not None:
        crop = binary_erosion(crop, noise.erosion_radius)
    if noise.p_labeldrop > 0 and crop is not None:
        labels, count = ndi.label(crop, structure=ndi.generate_binary_structure(3, 3))
        keep = np.concatenate(([False], rng.random(count) >= noise.p_labeldrop))
        crop = keep[labels]
    if rng.random() < noise.p_downup and crop is not None:
        down = crop[::2, ::2, ::2]
        up = np.repeat(np.repeat(np.repeat(down, 2, axis=0), 2, axis=1), 2, axis=2)
        crop = up[tuple(slice(0, s) for s in crop.shape)]
    if noise.boundary_jitter_mm > 0:
        shift = [int(round(rng.uniform(-noise.boundary_jitter_mm, noise.boundary_jitter_mm) / s)) for s in spacing]
        if crop is not None:
            origin = origin + shift
    return None if crop is None else (crop, origin)


def _paint(out: np.ndarray, value: int, crop: np.ndarray, origin) -> None:
    """First-wins: write ``value`` where ``crop``, placed at ``origin``,
    meets background of ``out``; the part of ``crop`` outside ``out`` is lost."""
    shared = overlap((0,) * out.ndim, out.shape, origin, crop.shape)
    if shared is not None:
        region = out[shared[0]]
        region[crop[shared[1]] & (region == 0)] = value


def corrupt_semantic(gt: Volume, noise: NoiseSpec) -> Volume:
    """Apply the corruption model structure by structure.

    Each code (codes are non-negative) is corrupted with its own stream,
    then painted in increasing code order, first wins. Jitter moves the
    whole corrupted mask; voxels shifted past an edge are dropped, and
    nothing wraps around. Deterministic for a given (volume, noise) pair;
    with all probabilities and jitter at zero the input is returned
    unchanged. Output labels are a subset of the input labels.
    """
    if noise.p_erosion == 0 and noise.p_labeldrop == 0 and noise.p_downup == 0 and noise.boundary_jitter_mm == 0:
        return gt
    data = gt.data
    out = np.zeros_like(data)
    for code, box in enumerate(ndi.find_objects(data), start=1):
        if box is not None:
            rng = np.random.default_rng(_patch_seed(noise.seed, (code,)))
            _paint(out, code, *_corrupt_label(data, code, box, noise, rng, gt.spacing))
    return gt.with_data(out)


class OracleSemanticPredictor:
    """Semantic-model stand-in: returns (optionally corrupted) ground truth.

    Each patch gets its own corruption stream derived from the noise seed
    and the patch origin, so tiled prediction stays deterministic no
    matter how patches are ordered. The ground truth passes
    ``checked_labels`` (codes 0..14).
    """

    def __init__(self, gt_semantic: Volume, noise: NoiseSpec | None = None):
        self.gt = gt_semantic.with_data(checked_labels(gt_semantic.data, len(Structure)), kind="semantic")
        self.noise = noise

    def predict(self, patch: Volume, origin) -> np.ndarray:
        sl = tuple(slice(o, o + s) for o, s in zip(origin, patch.dims))
        window = self.gt.data[sl].copy()
        if self.noise is None:
            return window
        seeded = replace(self.noise, seed=_patch_seed(self.noise.seed, origin))
        vol = Volume(window, self.gt.spacing, self.gt.orientation, "semantic")
        return corrupt_semantic(vol, seeded).data


class OracleInstancePredictor:
    """Instance-model stand-in for cutout windows.

    Picks the vertebra whose corpus centroid (whole-vertebra centroid when
    no semantic mask is given) lies nearest the cutout's anchor center as
    label 2, its superior neighbor as label 1, and its inferior neighbor
    as label 3, reading shapes straight from the ground-truth instance
    mask (then corrupting them when noise is set). The instance mask
    passes ``checked_labels`` (ids 0..``INSTANCE_ID_MAX``).
    """

    def __init__(self, gt_instance: Volume, gt_semantic: Volume | None = None, noise: NoiseSpec | None = None):
        self.gt = gt_instance.with_data(checked_labels(gt_instance.data, INSTANCE_ID_MAX + 1), kind="instance")
        self.noise = noise
        semantic = gt_semantic.data if gt_semantic is not None else np.zeros_like(self.gt.data)
        self.centroids = vertebra_centroids(semantic, self.gt.data)
        self.vertebra_ids = list(self.centroids)

    def predict(self, patch: Volume, cutout) -> np.ndarray:
        out = np.zeros(patch.dims, dtype=np.uint16)
        if not self.vertebra_ids:
            return out
        center = np.asarray(cutout.center, dtype=np.float64)
        dists = {vid: float(np.linalg.norm(self.centroids[vid] - center)) for vid in self.vertebra_ids}
        mid = min(self.vertebra_ids, key=lambda v: (dists[v], v))

        # take(mode="clip") sends larger ids to the last entry and negative
        # ones to the first, both background
        lut = np.zeros(mid + 3, dtype=np.uint16)
        for label, vid in ((LABEL_ABOVE, mid - 1), (LABEL_CENTER, mid), (LABEL_BELOW, mid + 1)):
            if vid in self.centroids:
                lut[vid] = label
        out = lut.take(window_view(self.gt.data, cutout.origin, patch.dims), mode="clip")
        if self.noise is not None:
            rng = np.random.default_rng(_patch_seed(self.noise.seed, (cutout.index,)))
            corrupted = np.zeros_like(out)
            for label, box in enumerate(ndi.find_objects(out, max_label=LABEL_BELOW), start=1):
                piece = _corrupt_label(out, label, box, self.noise, rng, self.gt.spacing)
                if piece is not None:
                    _paint(corrupted, label, *piece)
            out = corrupted
        return out
