"""Cutout-based instance assembly: windows, grouping, voting, id assignment."""

import weakref

import numpy as np
import pytest
import scipy.ndimage as ndi

import spineseg.assembly as assembly
from spineseg.assembly import (
    Cutout,
    PredictorError,
    TooManyVertebraeError,
    VertebraGroup,
    assemble,
    assign_disc_endplate_instances,
    collect_groups,
    cutout_window,
    find_corpus_centers,
    make_cutouts,
    reconcile,
    vertebra_centroids,
)
from spineseg.labels import ENDPLATE_ID_BASE, IVD_ID_BASE, Structure
from spineseg.phantom import NoiseSpec, OracleInstancePredictor, PhantomSpec, generate_phantom
from spineseg.volume import Volume
from conftest import bounding_box


def make_volume(data, kind="semantic"):
    return Volume(np.asarray(data, dtype=np.uint16), (1.0, 1.0, 1.0), ("P", "I", "R"), kind)


def box_mask(shape, lo, hi):
    m = np.zeros(shape, dtype=bool)
    m[tuple(slice(a, b) for a, b in zip(lo, hi))] = True
    return m


class TestFindCorpusCenters:
    def test_standard_phantom_gives_ordered_centers(self, standard_phantom):
        _, sem, _ = standard_phantom
        centers = find_corpus_centers(sem)
        assert len(centers) == 7
        ys = [c[1] for c in centers]
        assert ys == sorted(ys)

    def test_fused_phantom_gives_one_less(self, fused_phantom):
        _, sem, _ = fused_phantom
        assert len(find_corpus_centers(sem)) == 4

    def test_speckle_is_dropped(self, standard_phantom):
        _, sem, _ = standard_phantom
        noisy = sem.data.copy()
        noisy[2:4, 2:4, 2] = Structure.CORPUS  # 8-voxel blob far from the column
        vol = sem.with_data(noisy)
        assert len(find_corpus_centers(vol)) == 7
        assert len(find_corpus_centers(vol, min_volume_fraction=0.0)) == 8

    def test_empty_mask(self, standard_phantom):
        _, sem, _ = standard_phantom
        assert find_corpus_centers(sem.with_data(np.zeros_like(sem.data))) == []


class TestMakeCutouts:
    def test_fit_inside_large_volume(self):
        dims = (256, 384, 64)
        size = (248, 304, 64)
        centers = [(128.0, 60.0, 32.0), (128.0, 200.0, 32.0), (128.0, 370.0, 32.0)]
        cutouts = make_cutouts(centers, dims, size)
        assert [c.index for c in cutouts] == [1, 2, 3]
        for c in cutouts:
            for a in range(3):
                assert 0 <= c.origin[a] <= dims[a] - size[a]
                nominal = int(round(c.center[a])) - size[a] // 2
                assert c.origin[a] == min(max(nominal, 0), dims[a] - size[a])
        # the middle window is unclamped along y, so it is centered there
        assert cutouts[1].origin[1] == 200 - 304 // 2

    def test_small_volume_gets_centered_padding(self):
        cutouts = make_cutouts([(50.0, 200.0, 16.0)], (100, 400, 32), (248, 304, 64))
        (c,) = cutouts
        assert c.origin[0] == -((248 - 100) // 2) == -74
        assert c.origin[2] == -((64 - 32) // 2) == -16
        assert 0 <= c.origin[1] <= 400 - 304
        assert c.clamped

    def test_window_is_zero_padded(self, standard_phantom):
        _, sem, inst = standard_phantom
        cut = Cutout(center=(10.0, 10.0, 10.0), origin=(-20, -20, -8), size=(64, 64, 32), index=1, clamped=True)
        win = cutout_window(inst, cut)
        assert win.dims == (64, 64, 32)
        assert not win.data[:20].any() and not win.data[:, :20].any() and not win.data[:, :, :8].any()
        assert np.array_equal(win.data[20:, 20:, 8:], inst.data[:44, :44, :24])


def pair_group(shift, side):
    """The one group of two windows ``shift`` apart along x: window 1 labels
    a cube of ``side`` as its center, window 2 the same cube as above."""
    size = (16, 8, 8)
    cutouts = [Cutout(center=(0.0, 0.0, 0.0), origin=(x, 0, 0), size=size, index=i) for i, x in ((1, 0), (2, shift))]
    predictions = [np.zeros(size, dtype=np.uint16) for _ in cutouts]
    predictions[0][:side, :side, :side] = 2
    predictions[1][:side, :side, :side] = 1
    (group,) = collect_groups(cutouts, predictions)
    return group


class TestPairwiseDice:
    def test_hand_value(self):
        g = pair_group(2, 4)
        # the two 4x4x4 cubes share a 2x4x4 slab
        assert g.agreement == 2 * 32 / 128
        assert g.origin == (0, 0, 0) and g.masks.shape == (2, 6, 4, 4)

    def test_disjoint_extents(self):
        g = pair_group(10, 2)
        assert g.agreement == 0.0
        assert g.masks.shape == (2, 12, 2, 2)


class TestCollectGroups:
    def test_zero_noise_phantom_groups(self, standard_phantom):
        _, sem, inst = standard_phantom
        centers = find_corpus_centers(sem)
        cutouts = make_cutouts(centers, sem.dims)
        oracle = OracleInstancePredictor(inst, sem)
        predictions = [oracle.predict(cutout_window(sem, c), c) for c in cutouts]
        groups = collect_groups(cutouts, predictions)
        assert [g.target_index for g in groups] == list(range(1, 8))
        by_target = {g.target_index: g for g in groups}
        assert len(by_target[1].masks) == 2
        assert len(by_target[7].masks) == 2
        for k in range(2, 7):
            assert len(by_target[k].masks) == 3
        assert all(g.agreement == pytest.approx(1.0) for g in groups)

    def test_agreement_is_mean_pairwise_dice(self):
        size = (16, 24, 8)
        cutouts = [
            Cutout(center=(8.0, 12.0, 4.0), origin=(0, 0, 0), size=size, index=1),
            Cutout(center=(8.0, 20.0, 4.0), origin=(0, 8, 0), size=size, index=2),
            Cutout(center=(8.0, 28.0, 4.0), origin=(0, 16, 0), size=size, index=3),
        ]
        # vertebra 2 in absolute coords: E = 4x4x4 box, F = its inner 2x2x2
        p1 = np.zeros(size, dtype=np.uint16)
        p1[5:7, 18:20, 3:5] = 3  # F, seen from above as "below"
        p2 = np.zeros(size, dtype=np.uint16)
        p2[4:8, 9:13, 2:6] = 2  # E as the center
        p3 = np.zeros(size, dtype=np.uint16)
        p3[4:8, 1:5, 2:6] = 1  # E, seen from below as "above"
        groups = collect_groups(cutouts, [p1, p2, p3])
        assert len(groups) == 1
        g = groups[0]
        assert g.target_index == 2
        assert len(g.masks) == 3
        d = 2 * 8 / (64 + 8)
        assert g.agreement == pytest.approx((1.0 + d + d) / 3)

    def test_single_prediction_agreement_is_one(self):
        cut = Cutout(center=(4.0, 4.0, 4.0), origin=(0, 0, 0), size=(8, 8, 8), index=1)
        pred = np.zeros((8, 8, 8), dtype=np.uint16)
        pred[2:5, 2:5, 2:5] = 2
        (g,) = collect_groups([cut], [pred])
        assert g.agreement == 1.0 and g.target_index == 1

    def test_empty_predictions_drop_the_target(self):
        cut = Cutout(center=(4.0, 4.0, 4.0), origin=(0, 0, 0), size=(8, 8, 8), index=1)
        assert collect_groups([cut], [np.zeros((8, 8, 8), dtype=np.uint16)]) == []

    def test_length_mismatch(self):
        cut = Cutout(center=(1.0, 1.0, 1.0), origin=(0, 0, 0), size=(2, 2, 2), index=1)
        for cutouts, n in (([], 1), ([cut], 0), ([cut], 2)):
            with pytest.raises(ValueError, match="one prediction per cutout"):
                collect_groups(cutouts, [np.zeros((2, 2, 2))] * n)
            with pytest.raises(ValueError, match="one prediction per cutout"):
                collect_groups(cutouts, (np.zeros((2, 2, 2)) for _ in range(n)))

    def test_equals_per_label_reference(self):
        rng = np.random.default_rng(11)
        for trial in range(40):
            n = int(rng.integers(1, 6))
            size = tuple(int(v) for v in rng.integers(3, 12, size=3))
            cutouts = [
                Cutout(
                    center=(0.0, 0.0, 0.0),
                    origin=tuple(int(v) for v in rng.integers(-4, 20, size=3)),
                    size=size,
                    index=k,
                )
                for k in range(1, n + 1)
            ]
            predictions = []
            for _ in range(n):
                pred = np.zeros(size, dtype=rng.choice([np.uint8, np.uint16, np.int64]))
                # each label is absent, a random box or scattered voxels;
                # all three absent leaves the window empty
                for label in (1, 2, 3):
                    kind = rng.integers(3)
                    if kind == 1:
                        lo = [int(rng.integers(0, d)) for d in size]
                        hi = [int(rng.integers(l + 1, d + 1)) for l, d in zip(lo, size)]
                        pred[tuple(slice(l, h) for l, h in zip(lo, hi))] = label
                    elif kind == 2:
                        pred[rng.random(size) < 0.1] = label
                predictions.append(pred)
            got = collect_groups(cutouts, predictions)
            want = reference_groups(cutouts, predictions)
            assert [g.target_index for g in got] == [g.target_index for g in want], trial
            for g, w in zip(got, want):
                assert g.origin == w.origin and g.agreement == w.agreement
                assert g.masks.dtype == w.masks.dtype and np.array_equal(g.masks, w.masks)


def reference_groups(cutouts, predictions):
    """``collect_groups`` as (cutout, label) masks pasted into a volume-space
    array, one layer each, with the agreement counted over the whole array."""
    n = len(cutouts)
    pad = 8  # room for windows that start left of the volume
    space = [pad + max(c.origin[a] + c.size[a] for c in cutouts) for a in range(3)]
    groups = []
    for k in range(1, n + 1):
        layers = []
        for cut_index, label in ((k, 2), (k + 1, 1), (k - 1, 3)):
            if not 1 <= cut_index <= n or not (predictions[cut_index - 1] == label).any():
                continue
            cut = cutouts[cut_index - 1]
            layer = np.zeros(space, dtype=bool)
            layer[tuple(slice(pad + o, pad + o + s) for o, s in zip(cut.origin, cut.size))] = (
                predictions[cut_index - 1] == label
            )
            layers.append(layer)
        if not layers:
            continue
        pairs = [
            2.0 * int((layers[i] & layers[j]).sum()) / int(layers[i].sum() + layers[j].sum())
            for i in range(len(layers))
            for j in range(i + 1, len(layers))
        ]
        agreement = float(np.mean(pairs)) if pairs else 1.0
        box = bounding_box(np.any(layers, axis=0))
        origin = tuple(b.start - pad for b in box)
        groups.append(VertebraGroup(k, origin, np.stack(layers)[(slice(None), *box)], agreement))
    return groups


def single_mask_group(target, agreement, origin, shape):
    return VertebraGroup(target, origin, np.ones((1, *shape), dtype=bool), agreement)


class TestReconcile:
    def test_majority_vote_recovers_exact_mask(self):
        # a 4x4x4 box E seen twice, and an eroded dissenter: its inner 2x2x2
        masks = np.ones((3, 4, 4, 4), dtype=bool)
        masks[2] = box_mask((4, 4, 4), (1, 1, 1), (3, 3, 3))
        group = VertebraGroup(target_index=2, origin=(4, 17, 2), masks=masks, agreement=1.0)
        out, stats = reconcile([group], (16, 40, 8))
        expected = np.zeros((16, 40, 8), dtype=np.uint16)
        expected[4:8, 17:21, 2:6] = 2  # two of three votes everywhere in E
        assert np.array_equal(out, expected)
        assert stats.conflict_voxels == 0
        assert stats.union_fallbacks == [] and stats.dropped_targets == []

    def test_higher_agreement_claims_contested_voxels_first(self):
        a = single_mask_group(1, 0.9, (0, 0, 0), (4, 6, 4))
        b = single_mask_group(2, 0.5, (0, 4, 0), (4, 6, 4))
        out, stats = reconcile([b, a], (8, 16, 8))
        assert (out[0:4, 0:6, 0:4] == 1).all()
        assert (out[0:4, 6:10, 0:4] == 2).all()
        assert stats.conflict_voxels == 4 * 2 * 4

    def test_agreement_tie_breaks_by_smaller_target(self):
        a = single_mask_group(1, 0.5, (0, 0, 0), (4, 6, 4))
        b = single_mask_group(2, 0.5, (0, 4, 0), (4, 6, 4))
        out, _ = reconcile([b, a], (8, 16, 8))
        assert (out[0:4, 4:6, 0:4] == 1).all()

    def test_union_fallback_when_vote_empties(self):
        masks = np.zeros((3, 5, 1, 1), dtype=bool)
        for i in range(3):
            masks[i, 2 * i] = True  # three single voxels two apart along x
        group = VertebraGroup(target_index=4, origin=(0, 0, 0), masks=masks, agreement=0.0)
        out, stats = reconcile([group], (8, 8, 8))
        assert int((out == 4).sum()) == 3
        assert stats.union_fallbacks == [4]

    def test_fully_claimed_target_is_dropped(self):
        a = single_mask_group(1, 0.9, (0, 0, 0), (4, 4, 4))
        b = single_mask_group(2, 0.1, (0, 0, 0), (4, 4, 4))
        out, stats = reconcile([a, b], (8, 8, 8))
        assert set(np.unique(out)) == {0, 1}
        assert stats.dropped_targets == [2]
        assert stats.conflict_voxels == 64

    def test_masks_clip_to_volume(self):
        g = single_mask_group(3, 1.0, (-2, -2, 0), (4, 4, 4))
        out, stats = reconcile([g], (8, 8, 8))
        assert int((out == 3).sum()) == 2 * 2 * 4
        assert stats.dropped_targets == []


class TestAssignDiscEndplate:
    def build(self):
        sem = np.zeros((12, 40, 8), dtype=np.uint16)
        inst = np.zeros_like(sem)
        sem[4:8, 8:12, 2:6] = Structure.CORPUS
        inst[4:8, 8:12, 2:6] = 2
        sem[4:8, 20:24, 2:6] = Structure.CORPUS
        inst[4:8, 20:24, 2:6] = 3
        return sem, inst

    def test_nearest_vertebra_above(self):
        sem, inst = self.build()
        sem[4:8, 14:17, 2:6] = Structure.IVD  # between vertebrae 2 and 3
        sem[4:8, 13, 2:6] = Structure.ENDPLATE
        sem[4:8, 27:29, 2:6] = Structure.IVD  # below vertebra 3
        out, flags = assign_disc_endplate_instances(make_volume(sem), inst)
        assert (out[4:8, 14:17, 2:6] == 102).all()
        assert (out[4:8, 13, 2:6] == 202).all()
        assert (out[4:8, 27:29, 2:6] == 103).all()
        assert flags == []

    def test_component_above_everything_is_flagged(self):
        sem, inst = self.build()
        sem[4:8, 2:4, 2:6] = Structure.IVD  # superior to both vertebrae
        out, flags = assign_disc_endplate_instances(make_volume(sem), inst)
        assert (out[4:8, 2:4, 2:6] == 102).all()  # keyed to the topmost vertebra
        assert len(flags) == 1
        assert flags[0]["kind"] == "no_vertebra_above"
        assert flags[0]["assigned_to"] == 2

    def test_no_vertebra_instances_at_all(self):
        sem = np.zeros((8, 16, 8), dtype=np.uint16)
        sem[2:5, 4:6, 2:5] = Structure.IVD
        inst = np.zeros_like(sem)
        out, flags = assign_disc_endplate_instances(make_volume(sem), inst)
        assert not out.any()
        assert flags and flags[0]["kind"] == "unassigned"

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8])
    def test_narrow_instance_dtype_is_widened(self, dtype):
        sem, inst = self.build()
        sem[4:8, 14:17, 2:6] = Structure.IVD
        sem[4:8, 13, 2:6] = Structure.ENDPLATE
        out, _ = assign_disc_endplate_instances(make_volume(sem), inst.astype(dtype))
        want, _ = assign_disc_endplate_instances(make_volume(sem), inst)
        assert np.iinfo(out.dtype).max >= 299
        assert np.array_equal(out, want)

    def test_existing_instances_are_never_overwritten(self):
        sem, inst = self.build()
        sem[4:8, 14:17, 2:6] = Structure.IVD
        inst[4, 14, 2] = 103  # pre-claimed voxel inside the disc
        out, _ = assign_disc_endplate_instances(make_volume(sem), inst)
        assert out[4, 14, 2] == 103
        assert (out[5:8, 14:17, 2:6] == 102).all()

    def test_equidistant_vertebrae_tie_to_smaller_id(self):
        # vertebrae 2 and 3 side by side at the same height
        sem = np.zeros((12, 30, 12), dtype=np.uint16)
        inst = np.zeros_like(sem)
        sem[2:4, 8:12, 2:4] = Structure.CORPUS
        inst[2:4, 8:12, 2:4] = 3
        sem[8:10, 8:12, 8:10] = Structure.CORPUS
        inst[8:10, 8:12, 8:10] = 2
        sem[5:7, 20:22, 5:7] = Structure.IVD  # below both
        sem[5:7, 2:4, 5:7] = Structure.ENDPLATE  # above both: the topmost tie
        out, flags = assign_disc_endplate_instances(make_volume(sem), inst)
        assert (out[5:7, 20:22, 5:7] == 102).all()
        assert (out[5:7, 2:4, 5:7] == 202).all()
        assert flags == [{"kind": "no_vertebra_above", "code": int(Structure.ENDPLATE), "assigned_to": 2}]

    def test_vertebra_with_corpus_uses_corpus_centroid(self):
        # vertebra 2's arcus reaches far down, so its whole-instance centroid
        # lies below the disc while its corpus centroid lies above it
        sem = np.zeros((12, 40, 12), dtype=np.uint16)
        inst = np.zeros_like(sem)
        sem[2:4, 2:4, 2:4] = Structure.CORPUS
        inst[2:4, 2:4, 2:4] = 1
        sem[2:4, 8:10, 2:4] = Structure.CORPUS
        sem[2:4, 10:38, 2:4] = Structure.ARCUS
        inst[2:4, 8:38, 2:4] = 2
        sem[8:10, 12:14, 8:10] = Structure.IVD
        out, _ = assign_disc_endplate_instances(make_volume(sem), inst)
        assert (out[8:10, 12:14, 8:10] == 102).all()

    def test_vertebra_without_corpus_uses_whole_instance_centroid(self):
        sem = np.zeros((12, 40, 8), dtype=np.uint16)
        inst = np.zeros_like(sem)
        sem[4:8, 8:12, 2:6] = Structure.ARCUS  # vertebra 1 has no corpus voxels
        inst[4:8, 8:12, 2:6] = 1
        sem[4:8, 20:23, 2:6] = Structure.IVD
        out, flags = assign_disc_endplate_instances(make_volume(sem), inst)
        assert (out[4:8, 20:23, 2:6] == 101).all()
        assert flags == []


def reference_vertebra_centroids(sem, inst):
    """Per-id full-volume scans: the mean ``np.nonzero`` index of each
    vertebra's corpus voxels, or of all its voxels when it has no corpus."""
    out = {}
    for vid in range(1, IVD_ID_BASE):
        corpus = (inst == vid) & (sem == Structure.CORPUS)
        mask = corpus if corpus.any() else inst == vid
        if mask.any():
            out[vid] = np.array([axis.mean() for axis in np.nonzero(mask)])
    return out


def reference_assign(sem, inst):
    """``assign_disc_endplate_instances`` on arrays, one full-volume scan per
    component; returns (instance, flags)."""
    inst = inst.copy()
    height = {v: c[1] for v, c in reference_vertebra_centroids(sem, inst).items()}
    codes = ((Structure.IVD, IVD_ID_BASE), (Structure.ENDPLATE, ENDPLATE_ID_BASE))
    if not height:
        return inst, [
            {"kind": "unassigned", "reason": "no vertebra instances", "code": int(code)}
            for code, _ in codes
            if (sem == code).any()
        ]
    flags = []
    for code, base in codes:
        labels, n = ndi.label(sem == code, structure=np.ones((3, 3, 3), dtype=bool))
        for ci in range(1, n + 1):
            comp = labels == ci
            y = np.nonzero(comp)[1].mean()
            above = [v for v in height if height[v] < y]
            if above:
                k = min(above, key=lambda v: (y - height[v], v))
            else:
                k = min(height, key=lambda v: (height[v], v))
                flags.append({"kind": "no_vertebra_above", "code": int(code), "assigned_to": k})
            inst[comp & (inst == 0)] = base + k
    return inst, flags


def random_boxes(rng, out, values, n):
    for _ in range(n):
        lo = [int(rng.integers(0, s - 1)) for s in out.shape]
        hi = [l + int(rng.integers(1, 7)) for l in lo]
        out[tuple(slice(a, b) for a, b in zip(lo, hi))] = rng.choice(values)
    return out


class TestVertebraCentroids:
    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.uint16, np.int64])
    def test_matches_per_id_means_bitwise(self, dtype):
        rng = np.random.default_rng(11)
        # vertebra ids up to 99 next to ids of 100 and above
        ids = [i for i in (1, 2, 5, 17, 98, 99, 100, 101, 127, 199, 201, 255, 299)
               if i <= np.iinfo(dtype).max]
        for _ in range(25):
            shape = tuple(int(s) for s in rng.integers(4, 14, size=3))
            present = rng.choice(ids, size=int(rng.integers(1, len(ids))), replace=False)
            inst = np.where(rng.random(shape) < 0.6, rng.choice(present, size=shape), 0).astype(dtype)
            sem = rng.integers(0, len(Structure), size=shape).astype(np.uint16)
            # some vertebrae have no corpus voxel and fall back to all voxels
            no_corpus = np.isin(inst, rng.choice(present, size=2)) & (sem == Structure.CORPUS)
            sem[no_corpus] = Structure.ARCUS
            got = vertebra_centroids(sem, inst)
            want = reference_vertebra_centroids(sem, inst)
            assert list(got) == list(want)
            for vid, centroid in want.items():
                assert got[vid].tobytes() == centroid.tobytes(), vid

    def test_box_far_from_the_origin(self):
        # centroids come from a box near the far corner of a full-size grid
        rng = np.random.default_rng(13)
        sem = np.zeros((256, 384, 64), dtype=np.uint16)
        inst = np.zeros_like(sem)
        far = (slice(197, 256), slice(301, 384), slice(37, 64))
        inst[far] = np.where(rng.random(inst[far].shape) < 0.5, rng.choice([3, 40, 99, 140], size=inst[far].shape), 0)
        sem[far] = np.where(rng.random(sem[far].shape) < 0.5, Structure.CORPUS, Structure.ARCUS)
        sem[inst == 40] = Structure.ARCUS  # vertebra 40 has no corpus voxel
        got = vertebra_centroids(sem, inst)
        want = reference_vertebra_centroids(sem, inst)
        assert list(got) == list(want) == [3, 40, 99]
        for vid, centroid in want.items():
            assert got[vid].tobytes() == centroid.tobytes(), vid

    def test_no_vertebra_id(self):
        inst = np.full((4, 5, 6), 101, dtype=np.uint16)
        assert vertebra_centroids(np.ones_like(inst), inst) == {}


class TestAssignAgainstReference:
    def test_random_layouts(self):
        rng = np.random.default_rng(4)
        sem_codes = [Structure.CORPUS, Structure.ARCUS, Structure.IVD, Structure.ENDPLATE,
                     Structure.SPINAL_CANAL]
        for _ in range(60):
            shape = (14, 40, 10)
            sem = random_boxes(rng, np.zeros(shape, np.uint16), sem_codes, int(rng.integers(3, 14)))
            inst = random_boxes(rng, np.zeros(shape, np.uint16), [1, 2, 3, 7, 99, 102, 203],
                                int(rng.integers(0, 9)))
            got, got_flags = assign_disc_endplate_instances(make_volume(sem), inst)
            want, want_flags = reference_assign(sem, inst)
            assert got.dtype == inst.dtype
            assert np.array_equal(got, want)
            assert got_flags == want_flags


class TestAssignCpuCount:
    def test_same_outputs_at_one_and_two_cpus(self, at_cpus, standard_phantom):
        """The centroids run on the calling thread and the disc and
        endplate components on a worker when two CPUs are usable."""
        rng = np.random.default_rng(8)
        sem_codes = [Structure.CORPUS, Structure.ARCUS, Structure.IVD, Structure.ENDPLATE]
        cases = []
        for _ in range(30):
            shape = (14, 40, 10)
            sem = random_boxes(rng, np.zeros(shape, np.uint16), sem_codes, int(rng.integers(3, 14)))
            inst = random_boxes(rng, np.zeros(shape, np.uint16), [1, 2, 3, 7, 99], int(rng.integers(0, 9)))
            cases.append((make_volume(sem), inst))
        _, sem, inst = standard_phantom
        cases.append((sem, np.where(inst.data < IVD_ID_BASE, inst.data, 0)))
        spied = [(assembly, "connected_components")]
        runs = [
            at_cpus(n, lambda: [assign_disc_endplate_instances(s, i) for s, i in cases], spied) for n in (1, 2)
        ]
        (one, worker_at_one), (two, worker_at_two) = runs
        assert not worker_at_one and worker_at_two
        assert np.array_equal(one[-1][0], inst.data)
        for (i1, f1), (i2, f2) in zip(one, two):
            assert i1.dtype == i2.dtype and np.array_equal(i1, i2)
            assert f1 == f2


class TestAssembleEndToEnd:
    def test_zero_noise_reconstruction_is_exact(self, standard_phantom):
        _, sem, inst = standard_phantom
        oracle = OracleInstancePredictor(inst, sem)
        out, report = assemble(sem, oracle)
        assert np.array_equal(out.data, inst.data)
        assert out.kind == "instance"
        assert report.missing_targets == []
        assert report.conflict_voxels == 0
        assert report.union_fallbacks == []
        assert all(g["agreement"] == pytest.approx(1.0) for g in report.groups)

    def test_zero_noise_reconstruction_with_fusion(self, fused_phantom):
        _, sem, inst = fused_phantom
        out, report = assemble(sem, OracleInstancePredictor(inst, sem))
        assert np.array_equal(out.data, inst.data)
        assert report.missing_targets == []

    def test_noisy_assembly_keeps_every_vertebra(self, standard_phantom):
        _, sem, inst = standard_phantom
        oracle = OracleInstancePredictor(inst, sem, noise=NoiseSpec(seed=123))
        out, report = assemble(sem, oracle)
        vert_ids = {int(v) for v in np.unique(out.data) if 1 <= v < 100}
        assert vert_ids == set(range(1, 8))

    def test_no_instance_answer_outlives_its_window(self):
        data = np.zeros((8, 36, 8), dtype=np.uint16)
        for y in range(0, 36, 6):
            data[2:6, y : y + 4, 2:6] = Structure.CORPUS  # six corpus blocks
        answers, alive = [], []

        class Keeper:
            def predict(self, window, cutout):
                alive.append(sum(ref() is not None for ref in answers))
                out = np.where(window.data == Structure.CORPUS, 2, 0)
                answers.append(weakref.ref(out))
                return out

        out, report = assemble(make_volume(data), Keeper(), cutout_size=(8, 8, 8))
        assert out.data.max() == 6 and report.missing_targets == []
        # the answer of the call before may still be on its way into grouping
        assert len(alive) == 6 and max(alive) <= 1, alive

    def test_empty_semantic_mask(self, standard_phantom):
        _, sem, _ = standard_phantom
        empty = sem.with_data(np.zeros_like(sem.data))
        out, report = assemble(empty, OracleInstancePredictor(empty, empty))
        assert not out.data.any()
        assert any("no corpus" in w for w in report.warnings)

    def test_report_round_trips_to_dict(self, standard_phantom):
        _, sem, inst = standard_phantom
        _, report = assemble(sem, OracleInstancePredictor(inst, sem))
        d = report.to_dict()
        assert {"cutouts", "groups", "missing_targets", "conflict_voxels"} <= set(d)
        assert len(d["cutouts"]) == 7

    @staticmethod
    def three_corpora():
        """Three corpora along axis 1 with a disc below each of the first two."""
        data = np.zeros((12, 40, 8), dtype=np.uint16)
        for y in (4, 16, 28):
            data[4:8, y : y + 4, 2:6] = Structure.CORPUS
        for y in (10, 22):
            data[4:8, y : y + 2, 2:6] = Structure.IVD
        return make_volume(data)

    @staticmethod
    def vertebrae_in(out):
        return {int(v) for v in np.unique(out.data) if 1 <= v < 100}

    def test_missing_targets_when_no_window_labels_a_vertebra(self):
        sem = self.three_corpora()

        class Blank:
            def predict(self, window, cutout):
                return np.zeros(window.dims, dtype=np.uint16)

        out, report = assemble(sem, Blank(), cutout_size=(12, 12, 8))
        assert report.groups == []
        assert report.missing_targets == [1, 2, 3]
        assert self.vertebrae_in(out) == set()
        assert "vertebra groups without output instance: [1, 2, 3]" in report.warnings

    def test_missing_targets_when_reconcile_drops_a_claimed_group(self):
        sem = self.three_corpora()
        block = (slice(4, 8), slice(4, 8), slice(2, 6))  # the first corpus

        class SameBlock:
            """Every window (the whole volume) labels the first corpus as its
            center vertebra."""

            def predict(self, window, cutout):
                out = np.zeros(window.dims, dtype=np.uint16)
                out[block] = 2
                return out

        out, report = assemble(sem, SameBlock(), cutout_size=sem.dims)
        assert [g["target_index"] for g in report.groups] == [1, 2, 3]
        assert report.missing_targets == [2, 3]
        assert self.vertebrae_in(out) == {1}
        assert (out.data[block] == 1).all()
        # the discs still take ids keyed to vertebra 1, which are not vertebra ids
        assert set(np.unique(out.data)) == {0, 1, 101}
        assert "vertebra groups without output instance: [2, 3]" in report.warnings

    def test_predictor_shape_is_validated(self, standard_phantom):
        _, sem, inst = standard_phantom

        class Bad:
            def predict(self, window, cutout):
                return np.zeros((2, 2, 2), dtype=np.uint16)

        with pytest.raises(PredictorError, match="expected"):
            assemble(sem, Bad())

    @pytest.mark.parametrize(
        "answer, match",
        [
            (lambda shape: np.full(shape, 7, dtype=np.uint16), "\\{0, 1, 2, 3\\}"),
            (lambda shape: np.full(shape, 2.5), "non-integral"),
            (lambda shape: np.full(shape, np.nan, dtype=np.float32), "non-integral"),
            (lambda shape: np.zeros((4,) + shape, dtype=np.float32), "4D"),
        ],
        ids=["label-7", "fraction", "nan", "scores"],
    )
    def test_predictor_labels_are_validated(self, answer, match):
        data = np.zeros((12, 16, 8), dtype=np.uint16)
        data[4:8, 6:10, 2:6] = Structure.CORPUS
        sem = make_volume(data)

        class Answer:
            def predict(self, window, cutout):
                return answer(window.dims)

        with pytest.raises(PredictorError, match=match):
            assemble(sem, Answer(), cutout_size=sem.dims)


class TestTooManyVertebrae:
    def test_more_corpora_than_vertebra_ids_fail_before_predicting(self):
        # 105 separate 4x2x4 corpus blocks, one voxel apart
        data = np.zeros((25, 63, 5), dtype=np.uint16)
        for x in range(0, 25, 5):
            for y in range(0, 63, 3):
                data[x : x + 4, y : y + 2, 0:4] = Structure.CORPUS
        sem = make_volume(data)
        assert len(find_corpus_centers(sem)) == 105

        class Never:
            def predict(self, window, cutout):
                raise AssertionError("the predictor was called")

        with pytest.raises(TooManyVertebraeError, match="105 corpus components"):
            assemble(sem, Never(), cutout_size=(8, 8, 5))

    def test_vertebra_id_max_corpora_still_assemble(self):
        data = np.zeros((25, 60, 5), dtype=np.uint16)
        for x in range(0, 25, 5):
            for y in range(0, 60, 3):
                data[x : x + 4, y : y + 2, 0:4] = Structure.CORPUS
        data[20:24, 57:59] = 0  # 99 blocks left

        class Center:
            def predict(self, window, cutout):
                return np.where(window.data == Structure.CORPUS, 2, 0)

        out, report = assemble(make_volume(data), Center(), cutout_size=(8, 8, 5))
        assert len(report.cutouts) == 99 and out.data.max() == 99


class TestCutoutSizeIsChecked:
    """``assemble`` and ``make_cutouts`` check the window size themselves,
    so a direct call with a bad size fails before any predictor call."""

    BAD_SIZES = [(10, 10), (0, 10, 10), (12, 10.5, 8), (12, float("inf"), 8), (12, float("nan"), 8), 12]

    class Never:
        def predict(self, window, cutout):
            raise AssertionError("the predictor was called")

    @pytest.mark.parametrize("size", BAD_SIZES)
    def test_assemble_raises_before_predicting(self, size):
        data = np.zeros((12, 16, 8), dtype=np.uint16)
        data[4:8, 6:10, 2:6] = Structure.CORPUS
        with pytest.raises(ValueError, match=r"cutout_size must be 3 whole numbers >= 1"):
            assemble(make_volume(data), self.Never(), cutout_size=size)

    def test_assemble_checks_without_corpus(self):
        with pytest.raises(ValueError, match="cutout_size"):
            assemble(make_volume(np.zeros((12, 16, 8))), self.Never(), cutout_size=(10, 10))

    @pytest.mark.parametrize("size", BAD_SIZES)
    def test_make_cutouts_raises(self, size):
        with pytest.raises(ValueError, match="cutout_size"):
            make_cutouts([(6.0, 8.0, 4.0)], (12, 16, 8), size)

    def test_whole_floats_are_taken_as_ints(self):
        (cut,) = make_cutouts([(6.0, 8.0, 4.0)], (12, 16, 8), (12.0, np.int64(10), 8))
        assert cut.size == (12, 10, 8) and all(type(n) is int for n in cut.size)
