"""Cutout-based instance assembly: windows, grouping, voting, id assignment."""

import numpy as np
import pytest

from spineseg.assembly import (
    Cutout,
    PredictorError,
    VertebraGroup,
    WindowMask,
    assemble,
    assign_disc_endplate_instances,
    collect_groups,
    cutout_window,
    find_corpus_centers,
    make_cutouts,
    reconcile,
    window_pair_dice,
)
from spineseg.labels import Structure
from spineseg.phantom import NoiseSpec, OracleInstancePredictor, PhantomSpec, generate_phantom
from spineseg.volume import Volume, bounding_box


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


class TestWindowPairDice:
    def test_hand_value(self):
        a = WindowMask(origin=(0, 0, 0), mask=np.ones((4, 4, 4), dtype=bool), count=64)
        b = WindowMask(origin=(2, 0, 0), mask=np.ones((4, 4, 4), dtype=bool), count=64)
        # overlap is a 2x4x4 slab
        assert window_pair_dice(a, b) == pytest.approx(2 * 32 / 128)

    def test_disjoint_extents(self):
        a = WindowMask(origin=(0, 0, 0), mask=np.ones((2, 2, 2), dtype=bool), count=8)
        b = WindowMask(origin=(10, 0, 0), mask=np.ones((2, 2, 2), dtype=bool), count=8)
        assert window_pair_dice(a, b) == 0.0


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
        assert len(by_target[1].predictions) == 2
        assert len(by_target[7].predictions) == 2
        for k in range(2, 7):
            assert len(by_target[k].predictions) == 3
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
        assert len(g.predictions) == 3
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
        with pytest.raises(ValueError, match="one prediction per cutout"):
            collect_groups([], [np.zeros((2, 2, 2))])

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
                assert g.agreement == w.agreement
                assert len(g.predictions) == len(w.predictions)
                for a, b in zip(g.predictions, w.predictions):
                    assert a.origin == b.origin and a.count == b.count
                    assert a.mask.dtype == b.mask.dtype and np.array_equal(a.mask, b.mask)


def reference_groups(cutouts, predictions):
    """``collect_groups`` as a full-window scan per (cutout, label)."""
    n = len(cutouts)
    groups = []
    for k in range(1, n + 1):
        masks = []
        for cut_index, label in ((k, 2), (k + 1, 1), (k - 1, 3)):
            if not 1 <= cut_index <= n:
                continue
            m = predictions[cut_index - 1] == label
            box = bounding_box(m)
            if box is None:
                continue
            origin = tuple(cutouts[cut_index - 1].origin[a] + box[a].start for a in range(3))
            crop = np.ascontiguousarray(m[box])
            masks.append(WindowMask(origin=origin, mask=crop, count=int(crop.sum())))
        if not masks:
            continue
        pairs = [
            window_pair_dice(masks[i], masks[j])
            for i in range(len(masks))
            for j in range(i + 1, len(masks))
        ]
        agreement = float(np.mean(pairs)) if pairs else 1.0
        groups.append(VertebraGroup(target_index=k, predictions=masks, agreement=agreement))
    return groups


def single_mask_group(target, agreement, origin, shape):
    mask = np.ones(shape, dtype=bool)
    wm = WindowMask(origin=origin, mask=mask, count=int(mask.sum()))
    return VertebraGroup(target_index=target, predictions=[wm], agreement=agreement)


class TestReconcile:
    def test_majority_vote_recovers_exact_mask(self):
        size = (16, 24, 8)
        cutouts = [
            Cutout(center=(8.0, 12.0, 4.0), origin=(0, 0, 0), size=size, index=1),
            Cutout(center=(8.0, 20.0, 4.0), origin=(0, 8, 0), size=size, index=2),
            Cutout(center=(8.0, 28.0, 4.0), origin=(0, 16, 0), size=size, index=3),
        ]
        p1 = np.zeros(size, dtype=np.uint16)
        p1[5:7, 18:20, 3:5] = 3  # an eroded dissenter
        p2 = np.zeros(size, dtype=np.uint16)
        p2[4:8, 9:13, 2:6] = 2
        p3 = np.zeros(size, dtype=np.uint16)
        p3[4:8, 1:5, 2:6] = 1
        groups = collect_groups(cutouts, [p1, p2, p3])
        out, stats = reconcile(groups, (16, 40, 8))
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
        masks = [
            WindowMask(origin=(i * 2, 0, 0), mask=np.ones((1, 1, 1), dtype=bool), count=1)
            for i in range(3)
        ]
        group = VertebraGroup(target_index=4, predictions=masks, agreement=0.0)
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
