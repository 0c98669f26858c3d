"""Segmentation evaluation: overlap scores, surface distance, instance
matching, panoptic quality, and the paired significance test.

Masks may be passed as Volume objects (grids are then checked for
compatibility) or as plain boolean/integer arrays of equal shape. Each
report reads every overlap count from one label-pair table.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage as ndi

from .labels import LABEL_MAX, Structure, classify_instance_id
from .volume import Volume, as_array, check_same_grid, checked_spacing, usable_cpus

INSTANCE_KINDS = ("vertebra", "ivd", "endplate")


def dice(a, b) -> float:
    """Dice similarity 2|A∩B| / (|A|+|B|); 1.0 when both masks are empty."""
    check_same_grid(a, b)
    ma, mb = as_array(a) != 0, as_array(b) != 0
    size = int(ma.sum()) + int(mb.sum())
    if size == 0:
        return 1.0
    return 2.0 * int((ma & mb).sum()) / size


def iou(a, b) -> float:
    """Intersection over union; 1.0 when both masks are empty."""
    check_same_grid(a, b)
    ma, mb = as_array(a) != 0, as_array(b) != 0
    union = int((ma | mb).sum())
    if union == 0:
        return 1.0
    return int((ma & mb).sum()) / union


def surface_mask(mask: np.ndarray) -> np.ndarray:
    """Foreground voxels with a 6-neighbor background voxel or volume edge."""
    m = as_array(mask) != 0
    padded = np.pad(m, 1, constant_values=False)
    interior = np.ones(m.shape, dtype=bool)
    for axis in range(3):
        for shift in (slice(0, -2), slice(2, None)):
            idx = [slice(1, -1)] * 3
            idx[axis] = shift
            interior &= padded[tuple(idx)]
    return m & ~interior


def _spacing(a, b, spacing=None):
    """The given spacing, checked, else pred's, else ref's (when a Volume), else 1 mm."""
    if spacing is None:
        return next((x.spacing for x in (a, b) if isinstance(x, Volume)), (1.0, 1.0, 1.0))
    return checked_spacing(spacing)


def _distances(sa: np.ndarray, sb: np.ndarray, spacing) -> np.ndarray:
    """``distance_transform_edt(~sb, sampling=spacing)[sa]``, bit for bit.

    scipy is asked for the feature transform only; distances are then
    taken at the voxels of ``sa`` alone, with scipy's own float64 steps
    (int32 offset to the nearest ``sb`` voxel, cast, scaled per axis,
    squared, summed over the axes in order, square root), so no
    full-box distance map is ever made.
    """
    nearest = ndi.distance_transform_edt(~sb, sampling=spacing, return_distances=False, return_indices=True)
    d = (nearest[:, sa] - np.array(np.nonzero(sa), dtype=np.int32)).astype(np.float64)
    d *= np.asarray(spacing, dtype=np.float64).reshape(-1, 1)
    np.multiply(d, d, d)
    return np.sqrt(np.add.reduce(d, axis=0))


def _surface_distance(ma: np.ndarray, mb: np.ndarray, spacing) -> float:
    """ASSD of two non-empty boolean masks on the grid they are given on."""
    sa, sb = surface_mask(ma), surface_mask(mb)
    total = float(_distances(sa, sb, spacing).sum()) + float(_distances(sb, sa, spacing).sum())
    return total / (int(sa.sum()) + int(sb.sum()))


def _union_box(box_a, box_b, shape) -> tuple[slice, ...]:
    """The union of two boxes grown by one voxel and clipped to the volume."""
    return tuple(
        slice(max(min(a.start, b.start) - 1, 0), min(max(a.stop, b.stop) + 1, n))
        for a, b, n in zip(box_a, box_b, shape)
    )


def _label_assd(lp: np.ndarray, lr: np.ndarray, spacing):
    """A function of a list of ``(p, r)`` pairs, labels present on both
    sides, giving the ASSD of ``lp == p`` against ``lr == r`` for each, in
    input order. Each pair's masks are cut from the union box of its two
    labels; the boxes come from one ``find_objects`` per side and call.
    The pairs run on a thread pool as wide as the usable CPUs (scipy's
    transforms release the GIL), opened and closed by each call; every
    value is the same whatever the width."""

    def batch(pairs: list[tuple[int, int]]) -> list[float]:
        if not pairs:
            return []
        boxes_p, boxes_r = ndi.find_objects(lp), ndi.find_objects(lr)

        def one(pair: tuple[int, int]) -> float:
            p, r = pair
            box = _union_box(boxes_p[p - 1], boxes_r[r - 1], lp.shape)
            return _surface_distance(lp[box] == p, lr[box] == r, spacing)

        with ThreadPoolExecutor(min(len(pairs), usable_cpus())) as pool:
            return list(pool.map(one, pairs))

    return batch


def assd(a, b, spacing=None) -> float:
    """Average symmetric surface distance in millimetres.

    Surfaces are the 6-neighborhood boundaries of each mask; distances are
    exact Euclidean, averaged over both surface-to-surface directions.
    Both surfaces and the feature transforms are computed on the union
    box of the two masks grown by one voxel and clipped to the volume.
    That is exact: the box holds every surface voxel of both masks, and
    its margin is background wherever the box edge is not the volume
    edge, so each voxel is surface in the box exactly when it is in the
    whole volume. Distances are read at surface voxels only, and equal
    ``distance_transform_edt``'s bit for bit. The one pair runs as a
    batch of one on ``_label_assd``'s pool.
    """
    check_same_grid(a, b)
    spacing = _spacing(a, b, spacing)
    ma, mb = as_array(a) != 0, as_array(b) != 0
    if not ma.any() or not mb.any():
        raise ValueError("surface distance is undefined for an empty mask")
    # find_objects takes no bool array; the uint8 views cost no copy
    return _label_assd(ma.view(np.uint8), mb.view(np.uint8), spacing)([(1, 1)])[0]


def _labels(x) -> np.ndarray:
    """The label array of ``x`` as int64, checked to hold whole numbers in
    0..LABEL_MAX (bool and whole-number float arrays pass)."""
    arr = as_array(x)
    labels = arr.astype(np.int64)  # int64 + uint64 would be float
    if labels.size and (labels.min() < 0 or labels.max() > LABEL_MAX or not np.array_equal(labels, arr)):
        raise ValueError(f"labels must be whole numbers in 0..{LABEL_MAX}; found {arr.min()}..{arr.max()}")
    return labels


def _label_pairs(lp: np.ndarray, lr: np.ndarray) -> dict[tuple[int, int], int]:
    """Voxel count of every (pred label, ref label) pair, background included."""
    base = LABEL_MAX + 1
    uniq, counts = np.unique(lp * base + lr, return_counts=True)
    return {divmod(int(k), base): int(n) for k, n in zip(uniq, counts)}


def _compare(pred, ref, spacing=None):
    """``(table, label_assd)`` of two label masks on one grid: their
    ``_label_pairs`` table and their ``_label_assd``."""
    check_same_grid(pred, ref)
    lp, lr = _labels(pred), _labels(ref)
    return _label_pairs(lp, lr), _label_assd(lp, lr, _spacing(pred, ref, spacing))


def _sizes(table: dict) -> tuple[Counter, Counter]:
    """The table's marginals: voxels per pred label and per ref label."""
    size_p, size_r = Counter(), Counter()
    for (p, r), n in table.items():
        size_p[p] += n
        size_r[r] += n
    return size_p, size_r


def _of_kind(table: dict, kind: str | None) -> Counter:
    """The table with every label outside one id family counted as
    background (``kind=None`` keeps every label). Each nonzero label is
    classified, so an id outside all families raises ValueError."""
    labels = {v for pair in table for v in pair if v}
    kept = {v: v if kind is None or classify_instance_id(v)[0] == kind else 0 for v in labels}
    out = Counter()
    for (p, r), n in table.items():
        out[kept.get(p, 0), kept.get(r, 0)] += n
    return out


def dice_from_iou(value: float) -> float:
    return 2.0 * value / (1.0 + value)


@dataclass
class InstanceMatching:
    """One-to-one instance correspondence at IoU >= 0.5.

    ``pairs`` holds (predicted id, reference id, IoU) triples; unmatched
    predictions are false positives, unmatched references false negatives.
    """

    pairs: list[tuple[int, int, float]] = field(default_factory=list)
    unmatched_pred: list[int] = field(default_factory=list)
    unmatched_ref: list[int] = field(default_factory=list)

    @property
    def tp(self) -> int:
        return len(self.pairs)

    @property
    def fp(self) -> int:
        return len(self.unmatched_pred)

    @property
    def fn(self) -> int:
        return len(self.unmatched_ref)


def _match(table: dict) -> InstanceMatching:
    size_p, size_r = _sizes(table)
    candidates = []
    for (p, r), inter in table.items():
        if p and r:
            value = inter / (size_p[p] + size_r[r] - inter)
            if value >= 0.5:
                candidates.append((p, r, value))
    candidates.sort(key=lambda t: (-t[2], t[0], t[1]))

    used_p, used_r, pairs = set(), set(), []
    for p, r, value in candidates:
        if p in used_p or r in used_r:
            continue
        used_p.add(p)
        used_r.add(r)
        pairs.append((p, r, value))
    return InstanceMatching(
        pairs=pairs,
        unmatched_pred=sorted(set(size_p) - used_p - {0}),
        unmatched_ref=sorted(set(size_r) - used_r - {0}),
    )


def match_instances(pred, ref, kind: str | None = None) -> InstanceMatching:
    """Greedy one-to-one matching of instance ids by descending IoU.

    Above IoU 0.5 the partner of each instance is forced (no two disjoint
    predictions can both overlap one reference that much), so the greedy
    order only arbitrates exact-threshold ties. ``kind`` restricts the
    matching to one id family (vertebra, ivd, endplate).
    """
    return _match(_of_kind(_compare(pred, ref)[0], kind))


@dataclass
class PanopticScores:
    rq: float
    sq: float
    pq: float
    tp: int
    fp: int
    fn: int


def panoptic(matching: InstanceMatching) -> PanopticScores:
    """Recognition/segmentation/panoptic quality from an instance matching.

    RQ = TP/(TP + FP/2 + FN/2), SQ = mean matched IoU (0 with no matches),
    PQ = SQ * RQ. A matching with no instances on either side scores 1.0
    across the board (perfect vacuous agreement).
    """
    tp, fp, fn = matching.tp, matching.fp, matching.fn
    if tp + fp + fn == 0:
        return PanopticScores(rq=1.0, sq=1.0, pq=1.0, tp=0, fp=0, fn=0)
    rq = tp / (tp + 0.5 * fp + 0.5 * fn)
    sq = sum(v for _, _, v in matching.pairs) / tp if tp else 0.0
    return PanopticScores(rq=rq, sq=sq, pq=sq * rq, tp=tp, fp=fp, fn=fn)


@dataclass
class WilcoxonResult:
    statistic: float
    p_value: float
    n: int


def _exact_two_sided_p(doubled_ranks: np.ndarray, doubled_stat: int) -> float:
    """P over all 2^n sign patterns that W+ falls in either tail.

    Works on ranks doubled to integers (average ranks end in .5). The
    distribution of W+ is symmetric, so twice the lower tail suffices.
    """
    total = int(doubled_ranks.sum())
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in doubled_ranks:
        r = int(r)
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: total + 1 - r]
        counts += shifted
    tail = counts[: doubled_stat + 1].sum()
    return min(1.0, 2.0 * tail / counts.sum())


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their ranks."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    return (last - 0.5 * (counts - 1))[inverse]


def wilcoxon_signed_rank(x, y, exact_limit: int = 25) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped; tied absolute differences share average
    ranks; the statistic is min(W+, W-). The p-value is exact (full sign
    enumeration via counting) up to ``exact_limit`` retained pairs and a
    normal approximation with continuity and tie correction above that.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("paired samples must be equal-length 1D sequences")
    if x.size == 0:
        raise ValueError("need at least one pair")
    diff = x - y
    # a NaN difference is neither positive nor negative and would vanish from both sums
    if not np.isfinite(diff).all():
        raise ValueError("paired samples and their differences must be finite")
    diff = diff[diff != 0.0]
    n = diff.size
    if n == 0:
        return WilcoxonResult(statistic=0.0, p_value=1.0, n=0)

    ranks = _average_ranks(np.abs(diff))
    w_plus = float(ranks[diff > 0].sum())
    w_minus = float(ranks[diff < 0].sum())
    stat = min(w_plus, w_minus)

    if n <= exact_limit:
        doubled = np.rint(2.0 * ranks).astype(np.int64)
        p = _exact_two_sided_p(doubled, int(round(2.0 * stat)))
    else:
        mean = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        _, tie_counts = np.unique(np.abs(diff), return_counts=True)
        var -= float(((tie_counts**3 - tie_counts).sum())) / 48.0
        z = (stat - mean + 0.5) / math.sqrt(var)
        p = min(1.0, 2.0 * 0.5 * math.erfc(-z / math.sqrt(2.0)))
    return WilcoxonResult(statistic=stat, p_value=p, n=n)


def semantic_report(pred, ref, spacing=None) -> dict:
    """Per-structure DSC (always) and ASSD (when both sides non-empty)."""
    table, label_assd = _compare(pred, ref, spacing)
    size_p, size_r = _sizes(table)
    names = {int(s): s.name.lower() for s in Structure}
    codes = sorted((set(size_p) | set(size_r)) - {0})
    both = [code for code in codes if size_p[code] and size_r[code]]
    distances = dict(zip(both, label_assd([(code, code) for code in both])))
    return {
        names.get(code, str(code)): {
            "DSC": 2.0 * table.get((code, code), 0) / (size_p[code] + size_r[code]),
            "ASSD": distances.get(code),
        }
        for code in codes
    }


def instance_report(pred, ref, spacing=None) -> dict:
    """Panoptic scores plus global/instance-wise DSC and ASSD per id family."""
    table, label_assd = _compare(pred, ref, spacing)
    kind_tables = {kind: _of_kind(table, kind) for kind in INSTANCE_KINDS}
    matchings = {kind: _match(kind_table) for kind, kind_table in kind_tables.items()}
    pairs = [(p, r) for matching in matchings.values() for p, r, _ in matching.pairs]
    distances = dict(zip(pairs, label_assd(pairs)))  # an id is in one family and one pair
    out = {}
    for kind, kind_table in kind_tables.items():
        matching = matchings[kind]
        scores = panoptic(matching)
        inter = sum(n for (p, r), n in kind_table.items() if p and r)
        size = sum(n * ((p != 0) + (r != 0)) for (p, r), n in kind_table.items())
        pair_dsc = [dice_from_iou(value) for _, _, value in matching.pairs]
        pair_assd = [distances[p, r] for p, r, _ in matching.pairs]
        out[kind] = {
            "DSC": 2.0 * inter / size if size else 1.0,
            "instance_DSC": float(np.mean(pair_dsc)) if pair_dsc else None,
            "RQ": scores.rq,
            "SQ": scores.sq,
            "PQ": scores.pq,
            "ASSD": float(np.mean(pair_assd)) if pair_assd else None,
            "TP": scores.tp,
            "FP": scores.fp,
            "FN": scores.fn,
        }
    return out


def evaluate_segmentation(pred_sem, ref_sem, pred_inst=None, ref_inst=None, spacing=None) -> dict:
    """Full evaluation report: semantic per-structure plus optional instance part."""
    report = {"semantic": semantic_report(pred_sem, ref_sem, spacing=spacing)}
    if (pred_inst is None) != (ref_inst is None):
        raise ValueError("instance evaluation needs both predicted and reference volumes")
    if pred_inst is not None:
        report["instances"] = instance_report(pred_inst, ref_inst, spacing=spacing)
    return report
