"""Consistency enforcement between semantic and instance masks."""

import threading

import numpy as np
import pytest
import scipy.ndimage as ndi

import spineseg.assembly as assembly
import spineseg.postproc as postproc
import spineseg.volume
from spineseg.assembly import assemble, assign_disc_endplate_instances
from spineseg.labels import IVD_ID_BASE, Structure, endplate_id, ivd_id
from spineseg.phantom import (
    NoiseSpec,
    OracleInstancePredictor,
    OracleSemanticPredictor,
    PhantomSpec,
    generate_phantom,
)
from spineseg.pipeline import predict_semantic
from spineseg.postproc import enforce_consistency, foreground_equal
from spineseg.volume import Volume, concurrently, connected_components
from test_acceptance import random_inconsistent_pair
from conftest import bounding_box


def make_volume(data, kind="semantic"):
    return Volume(np.asarray(data, dtype=np.uint16), (1.0, 1.0, 1.0), ("P", "I", "R"), kind)


def fg_equal_oracle(sem, inst):
    relevant = np.isin(np.asarray(sem), list(range(1, 12)))
    return bool(np.array_equal(relevant, np.asarray(inst) > 0))


def random_pair(rng, shape=(20, 28, 10)):
    """Arbitrary (often inconsistent) semantic and instance masks."""
    sem = np.zeros(shape, dtype=np.uint16)
    inst = np.zeros(shape, dtype=np.uint16)
    for _ in range(int(rng.integers(3, 9))):
        lo = [int(rng.integers(0, s - 3)) for s in shape]
        side = [int(rng.integers(2, 7)) for _ in shape]
        box = tuple(slice(l, min(l + w, s)) for l, w, s in zip(lo, side, shape))
        sem[box] = int(rng.integers(0, 15))
    for _ in range(int(rng.integers(3, 9))):
        lo = [int(rng.integers(0, s - 3)) for s in shape]
        side = [int(rng.integers(2, 7)) for _ in shape]
        box = tuple(slice(l, min(l + w, s)) for l, w, s in zip(lo, side, shape))
        inst[box] = int(rng.choice([0, 1, 2, 3, 5, 101, 102, 201, 202]))
    return sem, inst


def reference_consistency(sem, inst):
    """``enforce_consistency`` on arrays as a loop of per-label full-volume
    scans, with scipy's own hole filling and labeling; returns (semantic,
    instance, report dict)."""
    sem, inst = sem.copy(), inst.copy()
    relevant_codes = list(range(1, 12))
    report = {"holes_filled": 0, "zeroed": 0, "orphans_assigned": [], "demoted_semantic": 0}

    def fill_every_label(arr):
        for value in sorted(int(v) for v in np.unique(arr) if v != 0):
            mask = arr == value
            box = bounding_box(mask)
            filled = ndi.binary_fill_holes(mask[box], structure=ndi.generate_binary_structure(3, 1))
            add = filled & (arr[box] == 0)
            arr[box][add] = value
            report["holes_filled"] += int(add.sum())

    fill_every_label(sem)
    fill_every_label(inst)
    relevant = np.isin(sem, relevant_codes)
    if not ((inst >= 1) & (inst < 100) & relevant).any() and relevant.any():
        report["demoted_semantic"] = int(relevant.sum())
        sem[relevant] = 0
        fill_every_label(sem)
    stray = (inst > 0) & ~np.isin(sem, relevant_codes)
    report["zeroed"] = int(stray.sum())
    inst[stray] = 0

    orphan = np.isin(sem, relevant_codes) & (inst == 0)
    if not orphan.any():
        return sem, inst, report
    height = {}
    for vid in sorted(int(v) for v in np.unique(inst) if 1 <= v < 100):
        corpus = (sem == Structure.CORPUS) & (inst == vid)
        height[vid] = float(np.nonzero(corpus if corpus.any() else inst == vid)[1].mean())
    labels, n = ndi.label(orphan, structure=np.ones((3, 3, 3), dtype=bool))
    for ci in range(1, n + 1):
        comp = labels == ci
        y = float(np.nonzero(comp)[1].mean())
        box = bounding_box(comp, margin=1)
        crop = comp[box]
        shell = ndi.binary_dilation(crop, structure=np.ones((3, 3, 3), dtype=bool)) & ~crop
        contact = inst[box][shell]
        contact = contact[contact > 0]
        if contact.size:
            target = int(np.argmax(np.bincount(contact)))
        else:
            above = [v for v in height if height[v] < y]
            if above:
                k = min(above, key=lambda v: (y - height[v], v))
            else:
                k = min(height, key=lambda v: (height[v], v))
            dominant = int(np.argmax(np.bincount(sem[comp])))
            target = {Structure.IVD: ivd_id(k), Structure.ENDPLATE: endplate_id(k)}.get(dominant, k)
        inst[comp & (inst == 0)] = target
        report["orphans_assigned"].append([int(comp.sum()), target])
    return sem, inst, report


def assert_matches_reference(sem, inst):
    got_sem, got_inst, report = enforce_consistency(sem, inst)
    want_sem, want_inst, want_report = reference_consistency(sem, inst)
    assert np.array_equal(got_sem, want_sem)
    assert np.array_equal(got_inst, want_inst)
    assert report.to_dict() == want_report


class TestForegroundEqual:
    def test_consistent_phantom(self, standard_phantom):
        _, sem, inst = standard_phantom
        assert foreground_equal(sem, inst)

    def test_detects_mismatch(self, standard_phantom):
        _, sem, inst = standard_phantom
        broken = inst.data.copy()
        broken[0, 0, 0] = 7  # instance voxel on background
        assert not foreground_equal(sem, inst.with_data(broken))

    def test_canal_cord_sacrum_do_not_count(self):
        sem = np.zeros((6, 6, 6), dtype=np.uint16)
        sem[1:3, 1:3, 1:3] = Structure.SPINAL_CANAL
        sem[4, 4, 4] = Structure.SACRUM
        inst = np.zeros_like(sem)
        assert foreground_equal(sem, inst)

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            sem, inst = random_pair(rng)
            assert foreground_equal(sem, inst) == fg_equal_oracle(sem, inst)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            foreground_equal(np.zeros((3, 3, 3)), np.zeros((3, 3, 4)))


class TestEnforceConsistency:
    def test_consistent_input_is_untouched(self, standard_phantom):
        _, sem, inst = standard_phantom
        sem2, inst2, report = enforce_consistency(sem, inst)
        assert np.array_equal(sem2.data, sem.data)
        assert np.array_equal(inst2.data, inst.data)
        assert report.holes_filled == 0
        assert report.zeroed == 0
        assert report.orphans_assigned == []
        assert report.demoted_semantic == 0

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8])
    def test_narrow_instance_dtype_is_widened(self, dtype):
        # one vertebra and an endplate slab it does not touch: the slab
        # becomes an orphan keyed to the vertebra, endplate id 201
        sem = np.zeros((8, 20, 8), dtype=np.uint16)
        sem[2:6, 2:6, 2:6] = Structure.CORPUS
        sem[2:6, 12:14, 2:6] = Structure.ENDPLATE
        inst = np.where(sem == Structure.CORPUS, 1, 0).astype(dtype)
        _, inst2, report = enforce_consistency(sem, inst)
        assert np.iinfo(inst2.dtype).max >= 299
        assert (inst2[2:6, 12:14, 2:6] == endplate_id(1)).all()
        assert report.orphans_assigned == [(32, endplate_id(1))]
        assert inst.dtype == dtype and inst.max() == 1  # the input is untouched

    def test_semantic_hole_is_filled(self):
        sem = np.zeros((8, 8, 8), dtype=np.uint16)
        sem[1:6, 1:6, 1:6] = Structure.SPINAL_CANAL
        sem[3, 3, 3] = 0
        inst = np.zeros_like(sem)
        sem2, _, report = enforce_consistency(sem, inst)
        assert sem2[3, 3, 3] == Structure.SPINAL_CANAL
        assert report.holes_filled == 1

    def test_instance_hole_is_filled_when_semantics_agree(self):
        sem = np.zeros((8, 8, 8), dtype=np.uint16)
        inst = np.zeros_like(sem)
        sem[1:6, 1:6, 1:6] = Structure.CORPUS
        inst[1:6, 1:6, 1:6] = 4
        inst[3, 3, 3] = 0  # semantic voxel left out of the instance
        sem2, inst2, report = enforce_consistency(sem, inst)
        assert inst2[3, 3, 3] == 4
        assert report.holes_filled == 1
        assert fg_equal_oracle(sem2, inst2)

    def test_stray_instance_voxels_are_zeroed(self):
        sem = np.zeros((8, 8, 8), dtype=np.uint16)
        inst = np.zeros_like(sem)
        sem[1:4, 1:4, 1:4] = Structure.CORPUS
        inst[1:4, 1:4, 1:4] = 2
        inst[6, 6, 6] = 2  # on background
        sem[6, 1, 1] = Structure.SPINAL_CANAL
        inst[6, 1, 1] = 2  # on a structure that carries no instances
        _, inst2, report = enforce_consistency(sem, inst)
        assert inst2[6, 6, 6] == 0 and inst2[6, 1, 1] == 0
        assert report.zeroed == 2

    def test_orphan_goes_to_majority_neighbor(self):
        # component touches instance 3 on ten voxels and instance 4 on two
        sem = np.zeros((12, 20, 6), dtype=np.uint16)
        inst = np.zeros_like(sem)
        sem[4:6, 8:13, 2] = Structure.ARCUS  # the orphan, 10 voxels
        sem[4:6, 8:13, 3] = Structure.CORPUS
        inst[4:6, 8:13, 3] = 3  # face contact: 10 voxels
        sem[4:6, 7, 2] = Structure.CORPUS
        inst[4:6, 7, 2] = 4  # edge contact: 2 voxels
        _, inst2, report = enforce_consistency(sem, inst)
        assert (inst2[4:6, 8:13, 2] == 3).all()
        assert report.orphans_assigned == [(10, 3)]

    def test_orphan_neighbor_tie_takes_smaller_id(self):
        sem = np.zeros((10, 10, 6), dtype=np.uint16)
        inst = np.zeros_like(sem)
        sem[4, 4:6, 2] = Structure.ARCUS  # orphan line of two voxels
        sem[3, 4:6, 2] = Structure.CORPUS
        inst[3, 4:6, 2] = 9
        sem[5, 4:6, 2] = Structure.CORPUS
        inst[5, 4:6, 2] = 7  # same contact count as id 9
        _, inst2, report = enforce_consistency(sem, inst)
        assert (inst2[4, 4:6, 2] == 7).all()

    def test_contactless_orphans_key_to_nearest_vertebra_above(self):
        sem = np.zeros((12, 40, 8), dtype=np.uint16)
        inst = np.zeros_like(sem)
        sem[4:8, 8:12, 2:6] = Structure.CORPUS
        inst[4:8, 8:12, 2:6] = 2
        sem[4:8, 20:24, 2:6] = Structure.CORPUS
        inst[4:8, 20:24, 2:6] = 3
        sem[4:6, 15:17, 2:4] = Structure.IVD  # floats between the two
        sem[4:6, 30:32, 2:4] = Structure.ENDPLATE  # floats below vertebra 3
        sem[9:11, 15:17, 6:8] = Structure.SPINOUS_PROCESS  # substructure, no contact
        sem2, inst2, report = enforce_consistency(sem, inst)
        assert (inst2[4:6, 15:17, 2:4] == 102).all()
        assert (inst2[4:6, 30:32, 2:4] == 203).all()
        assert (inst2[9:11, 15:17, 6:8] == 2).all()
        assert fg_equal_oracle(sem2, inst2)

    def test_demotes_semantics_when_no_instance_survives(self):
        sem = np.zeros((10, 10, 6), dtype=np.uint16)
        inst = np.zeros_like(sem)
        sem[2:5, 2:5, 2:4] = Structure.CORPUS  # nothing to attach these to
        sem[6:8, 6:8, 2:4] = Structure.SPINAL_CANAL
        sem2, inst2, report = enforce_consistency(sem, inst)
        assert not (sem2[2:5, 2:5, 2:4]).any()
        assert (sem2[6:8, 6:8, 2:4] == Structure.SPINAL_CANAL).all()  # kept
        assert report.demoted_semantic == 3 * 3 * 2
        assert fg_equal_oracle(sem2, inst2)

    def test_demotion_leaves_no_refillable_pocket(self):
        # instance-bearing blob enclosed in a canal cavity, no instances:
        # after demotion the pocket is filled, so a second pass is a no-op
        sem = np.zeros((9, 9, 9), dtype=np.uint16)
        sem[1:8, 1:8, 1:8] = Structure.SPINAL_CANAL
        sem[3:6, 3:6, 3:6] = 0
        sem[4, 4, 4] = Structure.CORPUS
        inst = np.zeros_like(sem)
        sem1, inst1, _ = enforce_consistency(sem, inst)
        assert (sem1[3:6, 3:6, 3:6] == Structure.SPINAL_CANAL).all()
        sem2, inst2, _ = enforce_consistency(sem1, inst1)
        assert np.array_equal(sem1, sem2) and np.array_equal(inst1, inst2)

    def test_idempotent_and_consistent_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            sem, inst = random_pair(rng)
            sem1, inst1, _ = enforce_consistency(sem, inst)
            assert fg_equal_oracle(sem1, inst1)
            sem2, inst2, _ = enforce_consistency(sem1, inst1)
            assert np.array_equal(sem1, sem2)
            assert np.array_equal(inst1, inst2)

    def test_matches_per_label_reference_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            assert_matches_reference(*random_inconsistent_pair(rng))

    def test_matches_per_label_reference_on_noisy_phantom(self):
        _, sem_gt, inst_gt = generate_phantom(PhantomSpec(n_vertebrae=5, dims=(128, 208, 32), seed=7))
        noise = NoiseSpec(p_erosion=0.1, p_labeldrop=0.1, p_downup=0.1, seed=7)
        sem = predict_semantic(sem_gt, OracleSemanticPredictor(sem_gt, noise))
        inst, _ = assemble(sem, OracleInstancePredictor(inst_gt, sem_gt, noise))
        _, _, report = enforce_consistency(sem, inst)
        assert report.orphans_assigned  # the orphan pass does run
        assert_matches_reference(sem.data, inst.data)

    def test_matches_per_label_reference_on_nested_labels(self):
        # each label encloses another label and an empty pocket: filling
        # takes the pocket and leaves the inner label alone
        sem = np.zeros((9, 9, 9), dtype=np.uint16)
        sem[1:8, 1:8, 1:8] = Structure.SPINAL_CANAL
        sem[2:4, 2:4, 2:4] = Structure.SPINAL_CORD
        sem[5, 5, 5] = 0
        inst = np.zeros_like(sem)
        sem[1:8, 1:8, 0] = Structure.CORPUS
        inst[1:8, 1:8, 0] = 4
        inst[3, 3, 0] = 5
        inst[5, 5, 0] = 0
        assert_matches_reference(sem, inst)
        sem2, inst2, _ = enforce_consistency(sem, inst)
        assert sem2[5, 5, 5] == Structure.SPINAL_CANAL and sem2[3, 3, 3] == Structure.SPINAL_CORD
        assert inst2[3, 3, 0] == 5 and inst2[5, 5, 0] == 4

    def test_matches_per_label_reference_on_corner_orphans(self):
        # an orphan in the first and in the last corner: each grown window
        # leaves the volume on all three axes. Each touches three voxels of
        # one id across its faces and three of another across its edges, a
        # tie that goes to the smaller id
        sem = np.zeros((5, 5, 5), dtype=np.uint16)
        inst = np.zeros_like(sem)
        for corner, face_id, edge_id in (((0, 0, 0), 3, 2), ((4, 4, 4), 4, 1)):
            step = 1 if corner[0] == 0 else -1
            sem[corner] = Structure.CORPUS
            for axis in range(3):
                face = np.array(corner)
                face[axis] += step
                edge = np.array(corner) + step
                edge[axis] -= step
                sem[tuple(face)] = sem[tuple(edge)] = Structure.CORPUS
                inst[tuple(face)], inst[tuple(edge)] = face_id, edge_id
        assert_matches_reference(sem, inst)
        _, inst2, report = enforce_consistency(sem, inst)
        assert inst2[0, 0, 0] == 2 and inst2[4, 4, 4] == 1
        assert report.orphans_assigned == [(1, 2), (1, 1)]

    def test_matches_per_label_reference_on_a_shared_contact(self):
        # two orphans two voxels apart; the instance voxel between them lies
        # in both shells and breaks each one's tie, so both must count it
        sem = np.zeros((4, 7, 4), dtype=np.uint16)
        inst = np.zeros_like(sem)
        sem[0, 1:6, 1] = Structure.CORPUS
        inst[0, 1:6:2, 1] = [6, 5, 7]
        assert_matches_reference(sem, inst)
        _, inst2, report = enforce_consistency(sem, inst)
        assert inst2[0, 2, 1] == 5 and inst2[0, 4, 1] == 5
        assert report.orphans_assigned == [(1, 5), (1, 5)]

    def test_matches_per_label_reference_on_a_contactless_face_orphan(self):
        # a disc (with one endplate voxel) on the x = 0 face touches no
        # instance, so its id comes from its codes and the vertebra above
        sem = np.zeros((8, 16, 6), dtype=np.uint16)
        inst = np.zeros_like(sem)
        sem[4:6, 2:4, 2:4] = Structure.CORPUS
        inst[4:6, 2:4, 2:4] = 1
        sem[0, 10:12, 2:4] = Structure.IVD
        sem[0, 12, 2] = Structure.ENDPLATE
        assert_matches_reference(sem, inst)
        _, inst2, report = enforce_consistency(sem, inst)
        assert (inst2[0, 10:13] == np.where(sem[0, 10:13] > 0, ivd_id(1), 0)).all()
        assert report.orphans_assigned == [(5, ivd_id(1))]

    def test_contactless_orphan_keys_to_corpus_centroid(self):
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
        _, inst2, _ = enforce_consistency(sem, inst)
        assert (inst2[8:10, 12:14, 8:10] == 102).all()

    def test_contactless_orphan_tie_takes_smaller_vertebra(self):
        # vertebrae 2 and 3 side by side at the same height, a disc below both
        sem = np.zeros((12, 30, 12), dtype=np.uint16)
        inst = np.zeros_like(sem)
        sem[2:4, 8:12, 2:4] = Structure.CORPUS
        inst[2:4, 8:12, 2:4] = 3
        sem[8:10, 8:12, 8:10] = Structure.CORPUS
        inst[8:10, 8:12, 8:10] = 2
        sem[5:7, 20:22, 5:7] = Structure.IVD
        sem[5:7, 2:4, 5:7] = Structure.ENDPLATE  # above both: the topmost tie
        _, inst2, report = enforce_consistency(sem, inst)
        assert (inst2[5:7, 20:22, 5:7] == 102).all()
        assert (inst2[5:7, 2:4, 5:7] == 202).all()

    def test_inputs_are_not_modified(self):
        rng = np.random.default_rng(3)
        sem, inst = random_pair(rng)
        sem0, inst0 = sem.copy(), inst.copy()
        enforce_consistency(sem, inst)
        assert np.array_equal(sem, sem0) and np.array_equal(inst, inst0)

    def test_volume_in_volume_out(self, standard_phantom):
        _, sem, inst = standard_phantom
        sem2, inst2, _ = enforce_consistency(sem, inst)
        assert isinstance(sem2, Volume) and isinstance(inst2, Volume)
        assert sem2.same_grid(sem) and inst2.kind == "instance"

    def test_grid_mismatch_raises(self):
        a = make_volume(np.zeros((4, 4, 4)))
        b = Volume(np.zeros((4, 4, 4), dtype=np.uint16), (2.0, 2.0, 2.0), ("P", "I", "R"), "instance")
        with pytest.raises(ValueError, match="grid"):
            enforce_consistency(a, b)


class TestCpuCount:
    """The hole fills, and then the centroids and orphan components, run
    in pairs on two threads when two CPUs are usable; nothing else may
    change."""

    @staticmethod
    def damaged_phantom(phantom):
        _, sem, inst = phantom
        sem, inst = sem.data.copy(), inst.data.copy()
        inst[(inst == 3) & (np.arange(sem.shape[1]) % 3 == 0)[None, :, None]] = 0  # orphans with contact
        inst[np.isin(inst, [102, 203])] = 0  # whole structures left to adopt
        inner = np.argwhere(ndi.binary_erosion(sem == Structure.CORPUS))
        sem[tuple(inner[len(inner) // 2])] = inst[tuple(inner[len(inner) // 3])] = 0  # a hole in each mask
        return sem, inst

    def test_same_outputs_at_one_and_two_cpus(self, at_cpus, standard_phantom):
        rng = np.random.default_rng(21)
        pairs = [random_pair(rng) for _ in range(30)] + [self.damaged_phantom(standard_phantom)]
        spied = [(postproc, "_fill_label_holes"), (postproc, "connected_components")]
        runs = [at_cpus(n, lambda: [enforce_consistency(s, i) for s, i in pairs], spied) for n in (1, 2)]
        (one, worker_at_one), (two, worker_at_two) = runs
        assert not worker_at_one and worker_at_two
        assert one[-1][2].holes_filled == 2 and len(one[-1][2].orphans_assigned) > 20
        for (s1, i1, r1), (s2, i2, r2) in zip(one, two):
            assert s1.dtype == s2.dtype and np.array_equal(s1, s2)
            assert i1.dtype == i2.dtype and np.array_equal(i1, i2)
            assert r1.to_dict() == r2.to_dict()


class TestLabelPassThreads:
    """Each of the three label-pass sites hands ``concurrently`` two calls:
    the first runs on the calling thread and the second on one worker,
    however many CPUs are usable. The assembly site's second call labels
    the disc and then the endplate class."""

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_first_call_here_second_on_one_worker(self, monkeypatch, standard_phantom, cpus):
        monkeypatch.setattr(spineseg.volume, "usable_cpus", lambda: cpus)
        sites, labeled = [], []

        def on_thread(threads, call):
            def run():
                threads.append(threading.current_thread())
                return call()

            return run

        def spied(*calls):
            sites.append([[] for _ in calls])
            return concurrently(*map(on_thread, sites[-1], calls))

        def class_components(mask, **kwargs):
            labeled.append(threading.current_thread())
            return connected_components(mask, **kwargs)

        for module in (postproc, assembly):
            monkeypatch.setattr(module, "concurrently", spied)
        monkeypatch.setattr(assembly, "connected_components", class_components)
        enforce_consistency(*TestCpuCount.damaged_phantom(standard_phantom))
        _, sem, inst = standard_phantom
        assign_disc_endplate_instances(sem, np.where(inst.data < IVD_ID_BASE, inst.data, 0))
        here = threading.current_thread()
        assert len(sites) == 3
        for first, second in sites:
            assert first == [here] and len(second) == 1 and second[0] is not here
        assert labeled == [sites[-1][1][0]] * 2
