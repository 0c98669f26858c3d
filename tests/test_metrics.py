"""Metric implementations against brute-force oracles and hand fixtures."""

import json
import os
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import count, product

import numpy as np
import pytest
from scipy import ndimage as ndi

from spineseg.metrics import (
    InstanceMatching,
    assd,
    dice,
    dice_from_iou,
    evaluate_segmentation,
    instance_report,
    iou,
    match_instances,
    panoptic,
    semantic_report,
    surface_mask,
    wilcoxon_signed_rank,
    _distances,
    _label_pairs,
    _surface_distance,
)
from spineseg import metrics
from spineseg.labels import LABEL_MAX, Structure, classify_instance_id
from spineseg.volume import Volume


def oracle_dice_iou(a, b):
    inter = int((a & b).sum())
    sa, sb = int(a.sum()), int(b.sum())
    union = sa + sb - inter
    d = Fraction(2 * inter, sa + sb) if sa + sb else Fraction(1)
    i = Fraction(inter, union) if union else Fraction(1)
    return d, i


def oracle_surface(mask):
    """Foreground voxel is surface if any 6-neighbor is background or outside."""
    out = np.zeros(mask.shape, dtype=bool)
    offs = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    for idx in np.ndindex(*mask.shape):
        if not mask[idx]:
            continue
        for off in offs:
            nb = tuple(c + o for c, o in zip(idx, off))
            if any(x < 0 or x >= s for x, s in zip(nb, mask.shape)) or not mask[nb]:
                out[idx] = True
                break
    return out


def oracle_assd(a, b, spacing):
    sa = np.argwhere(oracle_surface(a)).astype(np.float64) * np.asarray(spacing)
    sb = np.argwhere(oracle_surface(b)).astype(np.float64) * np.asarray(spacing)
    d_ab = [np.sqrt(((p - sb) ** 2).sum(axis=1)).min() for p in sa]
    d_ba = [np.sqrt(((p - sa) ** 2).sum(axis=1)).min() for p in sb]
    return (sum(d_ab) + sum(d_ba)) / (len(sa) + len(sb))


class TestDiceIou:
    def test_identical_masks(self):
        m = np.zeros((4, 4, 4), dtype=bool)
        m[1:3, 1:3, 1:3] = True
        assert dice(m, m) == 1.0
        assert iou(m, m) == 1.0

    def test_disjoint_masks(self):
        a = np.zeros((4, 4, 4), dtype=bool)
        b = np.zeros((4, 4, 4), dtype=bool)
        a[0, 0, 0] = True
        b[3, 3, 3] = True
        assert dice(a, b) == 0.0
        assert iou(a, b) == 0.0

    def test_offset_cube_fixture(self):
        # 3x3x3 cubes shifted by one voxel: overlap 18, sizes 27 each
        a = np.zeros((5, 5, 5), dtype=bool)
        b = np.zeros((5, 5, 5), dtype=bool)
        a[0:3, 0:3, 0:3] = True
        b[1:4, 0:3, 0:3] = True
        assert dice(a, b) == 36 / 54
        assert iou(a, b) == 18 / 36

    def test_both_empty_convention(self):
        z = np.zeros((3, 3, 3), dtype=bool)
        assert dice(z, z) == 1.0
        assert iou(z, z) == 1.0

    def test_random_pairs_match_exact_rationals(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            shape = tuple(rng.integers(1, 12, size=3))
            a = rng.random(shape) < rng.uniform(0.1, 0.9)
            b = rng.random(shape) < rng.uniform(0.1, 0.9)
            d_frac, i_frac = oracle_dice_iou(a, b)
            assert dice(a, b) == float(d_frac)
            assert iou(a, b) == float(i_frac)
            assert abs(dice(a, b) - dice_from_iou(iou(a, b))) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a = rng.random((6, 6, 6)) < 0.4
        b = rng.random((6, 6, 6)) < 0.4
        assert dice(a, b) == dice(b, a)
        assert iou(a, b) == iou(b, a)

    def test_grid_mismatch_rejected(self):
        va = Volume(np.zeros((2, 2, 2), np.uint8), (1, 1, 1), kind="semantic")
        vb = Volume(np.zeros((2, 2, 2), np.uint8), (2, 1, 1), kind="semantic")
        with pytest.raises(ValueError):
            dice(va, vb)
        with pytest.raises(ValueError):
            iou(np.zeros((2, 2, 2)), np.zeros((3, 2, 2)))


class TestSurfaceAndAssd:
    def test_surface_of_cube(self):
        m = np.zeros((5, 5, 5), dtype=bool)
        m[1:4, 1:4, 1:4] = True
        s = surface_mask(m)
        assert s.sum() == 26  # 27 minus the single interior voxel
        assert not s[2, 2, 2]

    def test_volume_edge_counts_as_boundary(self):
        m = np.ones((5, 5, 5), dtype=bool)
        s = surface_mask(m)
        assert s.sum() == 125 - 27

    def test_surface_matches_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = rng.random((6, 6, 6)) < 0.5
            assert np.array_equal(surface_mask(m), oracle_surface(m))

    def test_identical_masks_zero(self):
        m = np.zeros((4, 4, 4), dtype=bool)
        m[1:3, 1:3, 1:3] = True
        assert assd(m, m) == 0.0

    def test_single_voxel_pair(self):
        a = np.zeros((1, 1, 3), dtype=bool)
        b = np.zeros((1, 1, 3), dtype=bool)
        a[0, 0, 0] = True
        b[0, 0, 2] = True
        assert assd(a, b, (1.0, 1.0, 1.0)) == 2.0
        assert abs(assd(a, b, (0.75, 0.75, 1.65)) - 3.3) < 1e-12

    def test_empty_mask_rejected(self):
        m = np.ones((2, 2, 2), dtype=bool)
        z = np.zeros((2, 2, 2), dtype=bool)
        with pytest.raises(ValueError):
            assd(m, z)
        with pytest.raises(ValueError):
            assd(z, m)

    def test_random_pairs_match_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            shape = tuple(rng.integers(2, 9, size=3))
            a = rng.random(shape) < 0.5
            b = rng.random(shape) < 0.5
            if not a.any() or not b.any():
                continue
            spacing = tuple(rng.uniform(0.5, 2.0, size=3).round(2))
            got = assd(a, b, spacing)
            want = oracle_assd(a, b, spacing)
            assert abs(got - want) < 1e-9
            assert abs(assd(b, a, spacing) - got) < 1e-12


def place(shape, *boxes):
    out = np.zeros(shape, dtype=np.int32)
    for value, box in boxes:
        out[box] = value
    return out


class TestMatching:
    def test_perfect_match(self):
        inst = place((6, 30, 6), *[(k, (slice(None), slice(5 * (k - 1), 5 * k - 1), slice(None))) for k in range(1, 6)])
        m = match_instances(inst, inst, kind="vertebra")
        assert m.tp == 5 and m.fp == 0 and m.fn == 0
        assert all(v == 1.0 for _, _, v in m.pairs)

    def test_missing_instance_is_fn(self):
        ref = place((4, 10, 4), (1, (slice(None), slice(0, 4), slice(None))), (2, (slice(None), slice(6, 10), slice(None))))
        pred = place((4, 10, 4), (1, (slice(None), slice(0, 4), slice(None))))
        m = match_instances(pred, ref, kind="vertebra")
        assert m.tp == 1 and m.fp == 0 and m.fn == 1
        assert m.unmatched_ref == [2]

    def test_split_prediction_yields_fp_and_fns(self):
        # refs of size 8 each; one pred of size 8 straddling half of each
        ref = place((2, 8, 1), (1, (slice(None), slice(0, 4), slice(None))), (2, (slice(None), slice(4, 8), slice(None))))
        pred = place((2, 8, 1), (1, (slice(None), slice(2, 6), slice(None))))
        m = match_instances(pred, ref, kind="vertebra")
        # IoU with each ref: 4/12 = 1/3 < 0.5
        assert m.tp == 0 and m.fp == 1 and m.fn == 2

    def test_exact_threshold_counts(self):
        # IoU exactly 0.5 must match
        ref = place((1, 4, 1), (1, (slice(None), slice(0, 2), slice(None))))
        pred = place((1, 4, 1), (1, (slice(None), slice(0, 4), slice(None))))
        m = match_instances(pred, ref, kind="vertebra")
        assert m.tp == 1
        assert m.pairs[0][2] == 0.5

    def test_kind_filter_separates_families(self):
        arr = place((2, 10, 2), (3, (slice(None), slice(0, 4), slice(None))), (103, (slice(None), slice(5, 8), slice(None))))
        m_vert = match_instances(arr, arr, kind="vertebra")
        m_ivd = match_instances(arr, arr, kind="ivd")
        assert [p[:2] for p in m_vert.pairs] == [(3, 3)]
        assert [p[:2] for p in m_ivd.pairs] == [(103, 103)]

    def test_greedy_prefers_higher_iou(self):
        # pred 1 overlaps ref 1 strongly and ref 2 exactly at the tie edge
        pred = place((1, 10, 1), (1, (slice(None), slice(0, 6), slice(None))))
        ref = place((1, 10, 1), (1, (slice(None), slice(0, 5), slice(None))), (2, (slice(None), slice(5, 7), slice(None))))
        m = match_instances(pred, ref, kind="vertebra")
        assert m.pairs[0][:2] == (1, 1)


class TestPanoptic:
    def test_acceptance_fixture_arithmetic(self):
        m = InstanceMatching(pairs=[(1, 1, 0.8), (2, 2, 0.6)], unmatched_pred=[3], unmatched_ref=[4])
        s = panoptic(m)
        assert abs(s.rq - 2 / 3) < 1e-9
        assert abs(s.sq - 0.7) < 1e-9
        assert abs(s.pq - 0.7 * 2 / 3) < 1e-9
        assert abs(s.pq - s.sq * s.rq) < 1e-12

    def test_fixture_from_real_masks(self):
        # instance 1: IoU 8/10; instance 2: IoU 6/10; plus one FP and one FN
        pred2 = np.zeros((1, 60, 1), dtype=np.int32)
        ref2 = np.zeros((1, 60, 1), dtype=np.int32)
        pred2[0, 0:9] = 1
        ref2[0, 1:10] = 1  # sizes 9,9 inter 8 union 10 -> 0.8
        pred2[0, 12:20] = 2
        ref2[0, 14:22] = 2  # sizes 8,8 inter 6 union 10 -> 0.6
        pred2[0, 30:34] = 3  # FP
        ref2[0, 40:44] = 4  # FN
        m = match_instances(pred2, ref2, kind="vertebra")
        assert sorted(v for _, _, v in m.pairs) == [0.6, 0.8]
        s = panoptic(m)
        assert abs(s.rq - 0.6667) < 1e-4
        assert abs(s.sq - 0.7000) < 1e-9
        assert abs(s.pq - 0.4667) < 1e-4

    def test_no_tp_scores_zero(self):
        m = InstanceMatching(pairs=[], unmatched_pred=[1, 2], unmatched_ref=[3, 4, 5])
        s = panoptic(m)
        assert s.rq == 0.0 and s.sq == 0.0 and s.pq == 0.0

    def test_vacuous_agreement(self):
        s = panoptic(InstanceMatching())
        assert s.rq == s.sq == s.pq == 1.0

    def test_perfect_five(self):
        m = InstanceMatching(pairs=[(k, k, 1.0) for k in range(1, 6)])
        s = panoptic(m)
        assert s.rq == s.sq == s.pq == 1.0


def oracle_wilcoxon(x, y):
    """Full 2^n enumeration of sign patterns; independent ranking."""
    from scipy.stats import rankdata

    d = np.asarray(x, float) - np.asarray(y, float)
    d = d[d != 0]
    n = d.size
    if n == 0:
        return 0.0, 1.0
    ranks = rankdata(np.abs(d))
    w_plus = ranks[d > 0].sum()
    w_minus = ranks[d < 0].sum()
    stat = min(w_plus, w_minus)
    count = 0
    for signs in product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if w <= stat + 1e-12:
            count += 1
    return stat, min(1.0, 2.0 * count / 2**n)


def oracle_wilcoxon_counted(x, y):
    """Exact two-sided p for n too large to enumerate: the number of sign
    patterns per W+ counted rank by rank, in Python integers."""
    from scipy.stats import rankdata

    d = np.asarray(x, float) - np.asarray(y, float)
    d = d[d != 0]
    ranks = [Fraction(r) for r in rankdata(np.abs(d))]
    stat = min(sum(r for r, v in zip(ranks, d) if v > 0), sum(r for r, v in zip(ranks, d) if v < 0))
    patterns = Counter({Fraction(0): 1})
    for r in ranks:
        grown = Counter(patterns)
        for w, n in patterns.items():
            grown[w + r] += n
        patterns = grown
    tail = sum(n for w, n in patterns.items() if w <= stat)
    return min(1.0, 2.0 * tail / 2 ** len(ranks))


class TestWilcoxon:
    def test_all_positive_n5_fixture(self):
        res = wilcoxon_signed_rank([2, 3, 4, 5, 6], [1, 1, 1, 1, 1])
        assert res.statistic == 0.0
        assert abs(res.p_value - 0.0625) < 1e-12

    def test_identical_samples(self):
        res = wilcoxon_signed_rank([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert res.n == 0

    def test_swap_symmetry(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        a = wilcoxon_signed_rank(x, y)
        b = wilcoxon_signed_rank(y, x)
        assert a.statistic == b.statistic
        assert a.p_value == b.p_value

    def test_matches_enumeration_small_n(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            x = rng.integers(-4, 5, size=n).astype(float)
            y = rng.integers(-4, 5, size=n).astype(float)
            got = wilcoxon_signed_rank(x, y)
            stat, p = oracle_wilcoxon(x, y)
            assert got.statistic == stat
            assert abs(got.p_value - p) < 1e-12

    def test_ties_get_average_ranks(self):
        # |diffs| = {1,1,2,2}: ranks {1.5,1.5,3.5,3.5}
        res = wilcoxon_signed_rank([1, -1, 2, 2], [0, 0, 0, 0])
        assert res.statistic == 1.5

    def test_approximation_close_to_exact_at_cutover(self):
        # the p-value is exact up to 25 pairs and approximated from 26 on
        rng = np.random.default_rng(23)
        x = rng.normal(0.4, 1.0, size=26)
        y = rng.normal(0.0, 1.0, size=26)
        assert metrics.EXACT_LIMIT == 25
        assert abs(wilcoxon_signed_rank(x[:25], y[:25]).p_value - oracle_wilcoxon_counted(x[:25], y[:25])) < 1e-12
        approx, exact = wilcoxon_signed_rank(x, y).p_value, oracle_wilcoxon_counted(x, y)
        assert 0 < abs(approx - exact) < 0.01

    def test_input_validation(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1, 2], [1])
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_samples(self, bad):
        # NaN differences counted as neither sign: 30 NaN pairs gave p = 4.6e-8
        with pytest.raises(ValueError, match="finite"):
            wilcoxon_signed_rank([bad] * 30, [0.0] * 30)
        with pytest.raises(ValueError, match="finite"):
            wilcoxon_signed_rank([1.0, 2.0, 3.0], [0.0, bad, 0.0])


class TestReports:
    def test_semantic_report_names_and_values(self):
        pred = np.zeros((2, 6, 2), dtype=np.int32)
        ref = np.zeros((2, 6, 2), dtype=np.int32)
        pred[:, 0:3, :] = 1
        ref[:, 0:3, :] = 1
        pred[:, 4:6, :] = 12
        ref[:, 3:5, :] = 12
        rep = semantic_report(pred, ref, spacing=(1, 1, 1))
        assert rep["corpus"]["DSC"] == 1.0
        assert rep["corpus"]["ASSD"] == 0.0
        assert rep["spinal_canal"]["DSC"] == 0.5

    def test_semantic_report_empty_side_has_no_assd(self):
        pred = np.zeros((2, 2, 2), dtype=np.int32)
        ref = np.zeros((2, 2, 2), dtype=np.int32)
        ref[0, 0, 0] = 5
        rep = semantic_report(pred, ref, spacing=(1, 1, 1))
        entry = rep["articular_inferior_right"]
        assert entry["DSC"] == 0.0
        assert entry["ASSD"] is None

    def test_instance_report_keys(self):
        inst = place((2, 12, 2), (1, (slice(None), slice(0, 5), slice(None))), (101, (slice(None), slice(6, 8), slice(None))))
        rep = instance_report(inst, inst, spacing=(1, 1, 1))
        for kind in ("vertebra", "ivd", "endplate"):
            entry = rep[kind]
            for key in ("DSC", "instance_DSC", "RQ", "SQ", "PQ", "ASSD", "TP", "FP", "FN"):
                assert key in entry
        assert rep["vertebra"]["RQ"] == 1.0
        assert rep["vertebra"]["instance_DSC"] == 1.0
        assert rep["endplate"]["TP"] == 0

    def test_pq_identity_on_generated_reports(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            pred = rng.integers(0, 4, size=(4, 8, 4)).astype(np.int32)
            ref = rng.integers(0, 4, size=(4, 8, 4)).astype(np.int32)
            e = instance_report(pred, ref, spacing=(1, 1, 1))["vertebra"]
            assert abs(e["PQ"] - e["SQ"] * e["RQ"]) < 1e-12

    def test_evaluate_requires_instance_pair(self):
        sem = np.zeros((2, 2, 2), dtype=np.int32)
        with pytest.raises(ValueError):
            evaluate_segmentation(sem, sem, pred_inst=sem)

    def test_one_sided_instance_pair_is_rejected_before_any_scoring(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("semantic_report ran before the instance pair was checked")

        monkeypatch.setattr(metrics, "semantic_report", never)
        sem = np.zeros((2, 2, 2), dtype=np.int32)
        for one_sided in ({"pred_inst": sem}, {"ref_inst": sem}):
            with pytest.raises(ValueError, match="needs both"):
                evaluate_segmentation(sem, sem, **one_sided)

    def test_evaluate_combined(self):
        sem = place((2, 6, 2), (1, (slice(None), slice(0, 3), slice(None))))
        inst = place((2, 6, 2), (1, (slice(None), slice(0, 3), slice(None))))
        rep = evaluate_segmentation(sem, sem, inst, inst, spacing=(1, 1, 1))
        assert "semantic" in rep and "instances" in rep


# --- the per-label evaluation that the label-pair table replaced -------------
# Kept verbatim in behaviour as the reference: one boolean mask per code or id,
# np.isin unions per id family, and surface distances over the whole volume.


def reference_assd(a, b, spacing):
    """``assd`` without the crop: both surfaces and both distance transforms
    over the whole grid."""
    ma, mb = np.asarray(a) != 0, np.asarray(b) != 0
    sa, sb = surface_mask(ma), surface_mask(mb)
    dist_to_b = ndi.distance_transform_edt(~sb, sampling=spacing)
    dist_to_a = ndi.distance_transform_edt(~sa, sampling=spacing)
    na, nb = int(sa.sum()), int(sb.sum())
    total = float(dist_to_b[sa].sum()) + float(dist_to_a[sb].sum())
    return total / (na + nb)


def _reference_ids_of_kind(arr, kind):
    ids = [int(v) for v in np.unique(arr) if v != 0]
    if kind is None:
        return ids
    return [v for v in ids if classify_instance_id(v)[0] == kind]


def reference_match_instances(pa, ra, kind=None):
    pred_ids = _reference_ids_of_kind(pa, kind)
    ref_ids = _reference_ids_of_kind(ra, kind)
    if kind is not None:
        pa = np.where(np.isin(pa, pred_ids), pa, 0)
        ra = np.where(np.isin(ra, ref_ids), ra, 0)
    pred_sizes = np.bincount(pa[pa > 0].astype(np.intp))
    ref_sizes = np.bincount(ra[ra > 0].astype(np.intp))
    both = (pa > 0) & (ra > 0)
    candidates = []
    if both.any():
        base = int(ra.max()) + 1
        keys = pa[both].astype(np.int64) * base + ra[both].astype(np.int64)
        for key, inter in zip(*np.unique(keys, return_counts=True)):
            p, r = int(key) // base, int(key) % base
            value = int(inter) / (int(pred_sizes[p]) + int(ref_sizes[r]) - int(inter))
            if value >= 0.5:
                candidates.append((p, r, value))
    candidates.sort(key=lambda t: (-t[2], t[0], t[1]))
    used_p, used_r, pairs = set(), set(), []
    for p, r, value in candidates:
        if p not in used_p and r not in used_r:
            used_p.add(p)
            used_r.add(r)
            pairs.append((p, r, value))
    return InstanceMatching(pairs, sorted(set(pred_ids) - used_p), sorted(set(ref_ids) - used_r))


def reference_semantic_report(pa, ra, spacing):
    codes = [int(c) for c in sorted(set(np.unique(pa)) | set(np.unique(ra))) if c != 0]
    entries = {}
    for code in codes:
        mp, mr = pa == code, ra == code
        entry = {"DSC": dice(mp, mr), "ASSD": reference_assd(mp, mr, spacing) if mp.any() and mr.any() else None}
        try:
            entries[Structure(code).name.lower()] = entry
        except ValueError:
            entries[str(code)] = entry
    return entries


def reference_instance_report(pa, ra, spacing):
    out = {}
    for kind in ("vertebra", "ivd", "endplate"):
        matching = reference_match_instances(pa, ra, kind)
        scores = panoptic(matching)
        union_p = np.isin(pa, _reference_ids_of_kind(pa, kind))
        union_r = np.isin(ra, _reference_ids_of_kind(ra, kind))
        pair_dsc = [dice_from_iou(v) for _, _, v in matching.pairs]
        pair_assd = [reference_assd(pa == p, ra == r, spacing) for p, r, _ in matching.pairs]
        out[kind] = {
            "DSC": dice(union_p, union_r),
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


KIND_IDS = {"vertebra": [1, 2, 3, 5, 99], "ivd": [101, 102, 103, 199], "endplate": [201, 202, 203, 255]}


def random_instance_mask(rng, shape, dtype):
    """Slabs of ids from a random subset of the three families (possibly none),
    so that IoUs of exactly 0.5 and families absent on one side both occur."""
    arr = np.zeros(shape, dtype=np.int64)
    for ids in KIND_IDS.values():
        if rng.random() < 0.35:
            continue
        for v in rng.choice(ids, size=int(rng.integers(1, 4)), replace=False):
            lo = int(rng.integers(0, shape[1]))
            arr[:, lo : lo + int(rng.integers(1, 4)), :] = v
    if rng.random() < 0.3:
        noise = rng.random(shape) < 0.1
        arr[noise] = rng.choice(KIND_IDS["vertebra"] + KIND_IDS["ivd"], size=int(noise.sum()))
    return arr.astype(dtype)


def random_semantic_mask(rng, shape, dtype):
    if rng.random() < 0.1:
        return np.zeros(shape, dtype=dtype)
    codes = rng.integers(0, 16, size=shape)  # 15 is outside the taxonomy: named "15"
    return (codes * (rng.random(shape) < rng.uniform(0.2, 0.9))).astype(dtype)


def random_evaluation_cases(n, seed=41):
    rng = np.random.default_rng(seed)
    dtypes = (np.uint8, np.uint16, np.int32, np.int64)
    for i in range(n):
        shape = tuple(int(v) for v in rng.integers(2, 9, size=3))
        dtype = dtypes[i % len(dtypes)]
        masks = [random_semantic_mask(rng, shape, dtype) for _ in range(2)]
        masks += [random_instance_mask(rng, shape, dtype) for _ in range(2)]
        if i % 7 == 0:
            masks[2] = np.zeros(shape, dtype=dtype)
        if i % 11 == 0:
            masks[3] = np.zeros(shape, dtype=dtype)
        spacing = tuple(float(v) for v in rng.uniform(0.5, 2.0, size=3).round(2))
        yield i, masks, spacing


class TestLabelPairTable:
    def test_reports_and_matchings_equal_the_per_label_reference(self):
        matched = ties = 0
        for i, (ps, rs, pi, ri), spacing in random_evaluation_cases(120):
            want = {
                "semantic": reference_semantic_report(ps, rs, spacing),
                "instances": reference_instance_report(pi, ri, spacing),
            }
            if i % 2:
                kinds = ("semantic", "semantic", "instance", "instance")
                got = evaluate_segmentation(*(Volume(m, spacing, kind=k) for m, k in zip((ps, rs, pi, ri), kinds)))
            else:
                got = evaluate_segmentation(ps, rs, pi, ri, spacing=spacing)
            assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True), f"case {i}"
            for kind in (None, "vertebra", "ivd", "endplate"):
                m, w = match_instances(pi, ri, kind=kind), reference_match_instances(pi, ri, kind)
                assert (m.pairs, m.unmatched_pred, m.unmatched_ref) == (w.pairs, w.unmatched_pred, w.unmatched_ref)
                matched += m.tp
                ties += sum(v == 0.5 for _, _, v in m.pairs)
        assert matched > 100 and ties > 5  # the cases exercise the matching and its 0.5 bound

    def test_pair_counts_in_ascending_pair_order(self):
        rng = np.random.default_rng(17)
        for trial in range(60):
            shape = tuple(int(n) for n in rng.integers(0, 9, size=3))
            highs = [int(rng.choice([1, 2, 15, 300, LABEL_MAX + 1])) for _ in range(2)]
            lp, lr = (rng.integers(0, h, size=shape, dtype=np.int64) for h in highs)
            if trial % 5 == 0:
                lp[...] = LABEL_MAX if trial % 10 else 0
            want = sorted(Counter(zip(lp.ravel().tolist(), lr.ravel().tolist())).items())
            got = _label_pairs(lp, lr)
            assert list(got.items()) == want, trial
            assert all(type(v) is int for pair, n in got.items() for v in (*pair, n))

    @pytest.mark.parametrize("bad_id", [100, 300])
    def test_ids_outside_every_family_still_raise(self, bad_id):
        arr = np.zeros((2, 4, 2), dtype=np.uint16)
        arr[:, 0] = 1
        arr[:, 2] = bad_id
        with pytest.raises(ValueError):
            instance_report(arr, arr, spacing=(1, 1, 1))
        with pytest.raises(ValueError):
            match_instances(arr, arr, kind="vertebra")
        assert match_instances(arr, arr).tp == 2  # kind=None classifies nothing

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "dtype, value",
        [
            (np.int16, -1),
            (np.int64, -7),
            (np.int32, 65536),
            (np.uint32, 2**32 - 1),
            (np.float32, 1.5),
            (np.float64, np.nan),
            (np.float32, np.inf),
            (np.float64, 1e30),
        ],
    )
    def test_labels_outside_the_stored_range_are_rejected(self, dtype, value):
        bad = np.zeros((2, 3, 2), dtype=dtype)
        bad[0, 0, 0] = value
        good = np.zeros((2, 3, 2), dtype=dtype)
        for report in (semantic_report, instance_report, match_instances):
            for pred, ref in ((bad, good), (good, bad)):
                with pytest.raises(ValueError, match="0..65535"):
                    report(pred, ref)

    def test_reports_take_spacing_like_assd(self):
        pred = np.zeros((1, 1, 4), dtype=np.uint16)
        ref = np.zeros((1, 1, 4), dtype=np.uint16)
        pred[0, 0, 0:2] = 1
        ref[0, 0, 0:3] = 1  # IoU 2/3: the vertebra pair matches
        ref_vol = Volume(ref, (2.0, 2.0, 2.0), kind="semantic")
        want = assd(pred, ref_vol)
        assert want == 2 * assd(pred, ref)
        assert semantic_report(pred, ref_vol)["corpus"]["ASSD"] == want
        assert instance_report(pred, ref_vol.with_data(ref, kind="instance"))["vertebra"]["ASSD"] == want

    @pytest.mark.parametrize("spacing", [(np.nan, 1, 1), (0, 1, 1), (-1, 1, 1), (np.inf, 1, 1), (1, 1)])
    def test_given_spacing_must_be_three_finite_positive_reals(self, spacing):
        mask = np.zeros((2, 3, 2), dtype=np.uint16)
        mask[0, 0:2, 0] = 1
        for metric in (assd, semantic_report, instance_report, evaluate_segmentation):
            with pytest.raises(ValueError, match="spacing must be 3 finite positive reals"):
                metric(mask, mask, spacing=spacing)


def _random_box(rng, shape):
    lo = [int(rng.integers(0, n)) for n in shape]
    return [slice(start, int(rng.integers(start + 1, n + 1))) for start, n in zip(lo, shape)]


def _speckle(rng, shape):
    """Random voxels of a random box, its first corner always set."""
    mask = np.zeros(shape, dtype=bool)
    box = tuple(_random_box(rng, shape))
    mask[box] = rng.random(mask[box].shape) < 0.6
    mask[tuple(s.start for s in box)] = True
    return mask


def crop_case(rng, i):
    """Two non-empty masks, a spacing and an integer dtype for case ``i``.

    The case kind cycles through a box on face ``i // 5 % 6`` of the
    volume, the whole volume, single voxels, blobs in opposite corners (the
    union box is the whole grid) and speckle in random boxes; every fourth
    grid is one voxel thin along some axis, and spacings are anisotropic.
    """
    shape = [int(v) for v in rng.integers(1, 13, size=3)]
    if i % 4 == 0:
        shape[i // 4 % 3] = 1
    shape = tuple(shape)
    a, b = _speckle(rng, shape), _speckle(rng, shape)
    kind = i % 5
    if kind == 0:
        face = i // 5 % 6
        box = _random_box(rng, shape)
        axis = face // 2
        box[axis] = slice(0, box[axis].stop) if face % 2 == 0 else slice(box[axis].start, shape[axis])
        a = np.zeros(shape, dtype=bool)
        a[tuple(box)] = True
    elif kind == 1:
        a = np.ones(shape, dtype=bool)
        if i % 2:
            b = a.copy()
    elif kind == 2:
        a, b = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
        a[tuple(int(rng.integers(0, n)) for n in shape)] = True
        b[tuple(int(rng.integers(0, n)) for n in shape)] = True
    elif kind == 3:
        a, b = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
        corner = rng.integers(0, 2, size=3)
        size = rng.integers(1, 4, size=3)
        a[tuple(slice(0, k) if c else slice(n - k, n) for c, k, n in zip(corner, size, shape))] = True
        b[tuple(slice(n - k, n) if c else slice(0, k) for c, k, n in zip(corner, size, shape))] = True
    spacing = tuple(float(v) for v in rng.uniform(0.3, 3.0, size=3))
    return a, b, spacing, (np.uint8, np.uint16, np.int64)[i % 3]


def _thinned(rng, mask):
    """``mask`` with about 15% of its voxels dropped, never emptied."""
    out = mask & (rng.random(mask.shape) >= 0.15)
    out[tuple(np.argwhere(mask)[0])] = True
    return out


class TestCroppedSurfaceDistance:
    """Surface distances run on the union box of the two masks plus a
    1-voxel margin, clipped to the volume; every value must equal the
    full-volume computation bit for bit."""

    def test_assd_equals_full_volume_reference(self):
        rng = np.random.default_rng(83)
        for i in range(200):
            a, b, spacing, dtype = crop_case(rng, i)
            for x, y in ((a, b), (b, a)):
                assert assd(x.astype(dtype), y.astype(dtype), spacing) == reference_assd(x, y, spacing), f"case {i}"

    def test_reports_equal_full_volume_reference(self):
        rng = np.random.default_rng(89)
        matched = 0
        for i in range(200):
            a, b, spacing, dtype = crop_case(rng, i)

            def paint(*masks):
                out = np.zeros(a.shape, dtype=np.int64)
                for mask, value in masks:
                    out[mask & (out == 0)] = value
                return out.astype(dtype)

            ps, rs = paint((a, 1), (b, 12)), paint((b, 1), (a, 12))
            pi, ri = paint((a, 1), (b, 101)), paint((_thinned(rng, a), 1), (_thinned(rng, b), 101))
            want = {
                "semantic": reference_semantic_report(ps, rs, spacing),
                "instances": reference_instance_report(pi, ri, spacing),
            }
            got = evaluate_segmentation(ps, rs, pi, ri, spacing=spacing)
            assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True), f"case {i}"
            matched += sum(entry["TP"] for entry in got["instances"].values())
        assert matched > 200  # the instance pairs' distances are exercised too


class TestNonIntegerLabelDtypes:
    """Bool and whole-number float label arrays score exactly like their
    uint16 copies; surface-distance boxes come from the checked int64
    labels, never from the caller's array."""

    @pytest.mark.parametrize("dtype", [bool, np.float32, np.float64])
    def test_reports_equal_their_uint16_copies(self, dtype):
        for i, masks, spacing in random_evaluation_cases(40, seed=43):
            masks = [m.astype(dtype) for m in masks]
            copies = [m.astype(np.uint16) for m in masks]
            for report, n in ((semantic_report, 2), (instance_report, 2), (evaluate_segmentation, 4)):
                got = report(*masks[:n], spacing=spacing)
                want = report(*copies[:n], spacing=spacing)
                assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True), f"case {i}"

    @pytest.mark.parametrize("dtype", [bool, np.float32, np.float64])
    def test_assd_equals_its_uint16_copy(self, dtype):
        rng = np.random.default_rng(47)
        for i in range(40):
            a, b, spacing, _ = crop_case(rng, i)
            want = assd(a.astype(np.uint16), b.astype(np.uint16), spacing)
            assert assd(a.astype(dtype), b.astype(dtype), spacing) == want, f"case {i}"


class TestDistancesAtSurfaceVoxels:
    """Distances come from the feature transform, read only where they are
    summed; each must equal scipy's distance map at that voxel bit for bit."""

    @pytest.mark.parametrize("spacing", [(0.75, 0.75, 1.65), (0.1, 0.7, 3.3), (1, 1, 1), 2.5])
    def test_each_distance_equals_the_distance_map(self, spacing):
        rng = np.random.default_rng(97)
        for i in range(100):
            a, b, _, _ = crop_case(rng, i)  # faces, whole grids, corners: masks on the volume edge
            for x, y in ((a, b), (b, a), (surface_mask(a), surface_mask(b))):
                want = ndi.distance_transform_edt(~y, sampling=spacing)[x]
                assert np.array_equal(_distances(x, y, spacing), want), f"case {i}"

    def test_peak_memory_per_box_voxel(self):
        n = 64
        grid = np.indices((n, n, n))
        a = ((grid - 28) ** 2).sum(axis=0) < 20**2
        b = ((grid - 36) ** 2).sum(axis=0) < 18**2
        tracemalloc.start()
        try:
            _surface_distance(a, b, (0.75, 0.75, 1.65))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n**3 < 24  # full-box float64 distance maps took 59


def shifted_phantom(phantom):
    """The phantom's semantic and instance masks, each scored against a
    copy of itself moved by one voxel: every structure has a distance."""
    _, sem, inst = phantom
    return (
        sem.with_data(np.roll(sem.data, 1, axis=1)),
        sem,
        inst.with_data(np.roll(inst.data, 1, axis=0)),
        inst,
    )


class TestPairPool:
    """Label pairs run through ``volume.concurrently``: as many threads as
    usable CPUs, the calling thread among them."""

    def test_reports_do_not_depend_on_the_cpu_count(self, at_cpus, fused_phantom, monkeypatch):
        volumes = shifted_phantom(fused_phantom)
        assd_pairs, batches = metrics._assd_pairs, []

        def recording(*args):
            batches[-1].add(threading.current_thread())
            return _surface_distance(*args)

        def batch(*args):
            batches.append(set())
            return assd_pairs(*args)

        monkeypatch.setattr(metrics, "_surface_distance", recording)
        monkeypatch.setattr(metrics, "_assd_pairs", batch)
        reports = {}
        for cpus in (1, 2, 4):
            batches.clear()
            reports[cpus] = json.dumps(at_cpus(cpus, lambda: evaluate_segmentation(*volumes))[0], sort_keys=True)
            # two batches, one per report, each on at most ``cpus`` threads
            assert len(batches) == 2 and all(1 <= len(threads) <= cpus for threads in batches)
        assert reports[1] == reports[2] == reports[4]

    def test_assd_starts_no_thread(self, at_cpus, fused_phantom, monkeypatch):
        _, sem, _ = fused_phantom
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
        corpus = sem.data == Structure.CORPUS
        value, _ = at_cpus(4, lambda: assd(np.roll(corpus, 1, axis=1), corpus))
        assert value > 0 and started == []

    def test_a_failing_pair_fails_the_report_and_leaves_no_thread(self, fused_phantom, monkeypatch):
        volumes = shifted_phantom(fused_phantom)
        calls = count()  # next() on it is atomic

        def failing(*args):
            if next(calls) == 2:
                raise RuntimeError("pair failed")
            return _surface_distance(*args)

        monkeypatch.setattr(metrics, "_surface_distance", failing)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="pair failed"):
            evaluate_segmentation(*volumes)
        assert threading.active_count() == before
