"""Independent recomputation of ``evaluate_segmentation`` for the output check.

Surface distances come from a KD-tree over surface voxel centres in
millimetres, not from distance transforms; DSC, IoU and panoptic quality
come from counting voxel pairs. Only the definitions are shared with the
toolkit: 6-neighbour surfaces with the volume edge counted as background,
greedy one-to-one matching by descending IoU at IoU >= 0.5, and the
id ranges of the instance kinds.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage as ndi
from scipy.spatial import cKDTree

from spineseg.labels import Structure

KINDS = {"vertebra": (1, 99), "ivd": (101, 199), "endplate": (201, 299)}


def _surface_mm(mask: np.ndarray, spacing) -> np.ndarray:
    interior = ndi.binary_erosion(mask, structure=ndi.generate_binary_structure(3, 1), border_value=0)
    return np.argwhere(mask & ~interior) * np.asarray(spacing, dtype=np.float64)


def assd(a: np.ndarray, b: np.ndarray, spacing) -> float:
    pa, pb = _surface_mm(a, spacing), _surface_mm(b, spacing)
    da, _ = cKDTree(pb).query(pa)
    db, _ = cKDTree(pa).query(pb)
    return (float(da.sum()) + float(db.sum())) / (len(pa) + len(pb))


def _pair_counts(pa: np.ndarray, ra: np.ndarray):
    """Voxel counts of every (pred label, ref label) pair."""
    base = int(max(pa.max(), ra.max())) + 1
    keys = pa.astype(np.int64).ravel() * base + ra.astype(np.int64).ravel()
    uniq, counts = np.unique(keys, return_counts=True)
    return {(int(k) // base, int(k) % base): int(c) for k, c in zip(uniq, counts)}


def _sizes(pairs: dict) -> tuple[dict, dict]:
    """Voxel count of every label on each side."""
    size_p, size_r = {}, {}
    for (p, r), n in pairs.items():
        size_p[p] = size_p.get(p, 0) + n
        size_r[r] = size_r.get(r, 0) + n
    return size_p, size_r


def _semantic(pa, ra, spacing) -> dict:
    pairs = _pair_counts(pa, ra)
    size_p, size_r = _sizes(pairs)
    out = {}
    for code in sorted((set(size_p) | set(size_r)) - {0}):
        sp, sr = size_p.get(code, 0), size_r.get(code, 0)
        entry = {"DSC": 2.0 * pairs.get((code, code), 0) / (sp + sr)}
        entry["ASSD"] = assd(pa == code, ra == code, spacing) if sp and sr else None
        try:
            name = Structure(code).name.lower()
        except ValueError:
            name = str(code)
        out[name] = entry
    return out


def _instances(pa, ra, spacing) -> dict:
    out = {}
    for kind, (lo, hi) in KINDS.items():
        p = np.where((pa >= lo) & (pa <= hi), pa, 0)
        r = np.where((ra >= lo) & (ra <= hi), ra, 0)
        pairs = _pair_counts(p, r)
        size_p, size_r = _sizes(pairs)
        size_p.pop(0, None)
        size_r.pop(0, None)
        candidates = []
        for (i, j), n in pairs.items():
            if i and j:
                value = n / (size_p[i] + size_r[j] - n)
                if value >= 0.5:
                    candidates.append((-value, i, j))
        matched, used_p, used_r = [], set(), set()
        for neg, i, j in sorted(candidates):
            if i not in used_p and j not in used_r:
                used_p.add(i)
                used_r.add(j)
                matched.append((i, j, -neg))
        tp, fp, fn = len(matched), len(size_p) - len(used_p), len(size_r) - len(used_r)
        if tp + fp + fn == 0:
            rq = sq = 1.0
        else:
            rq = tp / (tp + 0.5 * fp + 0.5 * fn)
            sq = sum(v for _, _, v in matched) / tp if tp else 0.0
        both = sum(n for (i, j), n in pairs.items() if i and j)
        total = sum(size_p.values()) + sum(size_r.values())
        out[kind] = {
            "DSC": 2.0 * both / total if total else 1.0,
            "instance_DSC": float(np.mean([2 * v / (1 + v) for _, _, v in matched])) if matched else None,
            "RQ": rq,
            "SQ": sq,
            "PQ": rq * sq,
            "ASSD": float(np.mean([assd(pa == i, ra == j, spacing) for i, j, _ in matched])) if matched else None,
            "TP": tp,
            "FP": fp,
            "FN": fn,
        }
    return out


def evaluate(pred_sem, ref_sem, pred_inst, ref_inst) -> dict:
    spacing = pred_sem.spacing
    return {
        "semantic": _semantic(pred_sem.data, ref_sem.data, spacing),
        "instances": _instances(pred_inst.data, ref_inst.data, spacing),
    }


def compare(got, expected, tol: float, path: str = "") -> list[str]:
    """Every place where two reports differ by more than ``tol``."""
    if isinstance(expected, dict):
        if not isinstance(got, dict) or set(got) != set(expected):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got} != {sorted(expected)}"]
        return [d for k in expected for d in compare(got[k], expected[k], tol, f"{path}/{k}")]
    if expected is None or got is None:
        return [] if expected is got else [f"{path}: {got} != {expected}"]
    return [] if abs(got - expected) <= tol else [f"{path}: {got} != {expected}"]
