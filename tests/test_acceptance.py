"""Acceptance gate: eight end-to-end criteria with pinned tolerances.

Each criterion is one test that prints a single ``[criterion N] ...:
PASS`` or ``FAIL`` line directly to the terminal (bypassing capture), so
a full run leaves one line per criterion. Criteria 1 and 2 run dozens of
full-size volumes and dominate the runtime; expect several minutes for
the module, single-threaded.

Expected values never come from the code under test: dice/iou are
checked against exact rational arithmetic, surface distances against a
KD-tree nearest-neighbor search, the signed-rank p against full sign
enumeration, and the pipeline against phantom ground truth.
"""

import json
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import scipy.ndimage as ndi
from scipy.spatial import cKDTree
from scipy.stats import rankdata

from spineseg.assembly import assemble
from spineseg.cli import main as cli_main
from spineseg.fusion import AnnotationSources, merge_sources, synthesize_endplates
from spineseg.labels import Structure
from spineseg.metrics import (
    assd,
    dice,
    instance_report,
    iou,
    match_instances,
    panoptic,
    wilcoxon_signed_rank,
)
from spineseg.nifti import write_nifti
from spineseg.phantom import (
    NoiseSpec,
    OracleInstancePredictor,
    OracleSemanticPredictor,
    PhantomSpec,
    generate_phantom,
)
from spineseg.pipeline import run_pipeline
from spineseg.postproc import enforce_consistency, foreground_equal
from spineseg.volume import Volume


@contextmanager
def criterion(capfd, num, title):
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"\n[criterion {num}] {title}: FAIL", flush=True)
        raise
    with capfd.disabled():
        print(f"\n[criterion {num}] {title}: PASS", flush=True)


def vertebra_ids(arr: np.ndarray) -> np.ndarray:
    return np.unique(arr[(arr >= 1) & (arr < 100)])


# --- criterion 1: zero-noise oracle predictors reproduce ground truth ---


@pytest.mark.slow
def test_criterion_1_oracle_end_to_end_equivalence(capfd):
    """20 seeded phantoms, 5..12 vertebrae, one fused pair; exact output,
    < 10 s wall time per default-size phantom."""
    import time

    with criterion(capfd, 1, "oracle end-to-end equivalence"):
        slowest = 0.0
        for i in range(20):
            n = 5 + i % 8
            fuse = ((3, 4),) if i == 7 else ()
            spec = PhantomSpec(n_vertebrae=n, fuse_pairs=fuse, seed=100 + i)
            intensity, sem_gt, inst_gt = generate_phantom(spec)

            t0 = time.perf_counter()
            sem, inst, report = run_pipeline(
                intensity,
                OracleSemanticPredictor(sem_gt),
                OracleInstancePredictor(inst_gt, sem_gt),
            )
            dt = time.perf_counter() - t0
            slowest = max(slowest, dt)

            assert (sem.data == sem_gt.data).all(), f"phantom {i}: semantic mismatch"
            assert (inst.data == inst_gt.data).all(), f"phantom {i}: instance mismatch"
            assert dt < 10.0, f"phantom {i}: {dt:.1f}s exceeds the 10s budget"
        assert slowest < 10.0


# --- criterion 2: no-skip/no-merge robustness under cutout noise ---


@pytest.mark.slow
def test_criterion_2_no_skip_no_merge_robustness(capfd):
    """100 seeded runs at 10% erosion/labeldrop/down-up per cutout: the
    vertebra count matches ground truth in >= 95 runs, and no run produces
    an instance overlapping two ground-truth vertebrae at IoU > 0.3 each."""
    with criterion(capfd, 2, "no-skip/no-merge robustness"):
        cache = {}

        def phantom(n, fused):
            key = (n, fused)
            if key not in cache:
                spec = PhantomSpec(n_vertebrae=n, fuse_pairs=((2, 3),) if fused else (), seed=0)
                cache[key] = generate_phantom(spec)[1:]
            return cache[key]

        clean = 0
        for i in range(100):
            sem_gt, inst_gt = phantom(5 + i % 8, i % 10 == 3)
            predictor = OracleInstancePredictor(inst_gt, sem_gt, NoiseSpec(seed=i))
            out, _ = assemble(sem_gt, predictor)

            got = vertebra_ids(out.data)
            want = vertebra_ids(inst_gt.data)
            clean += len(got) == len(want)

            # merge check: IoU of every (output id, gt id) pair via bincount
            vo = out.data.astype(np.int64)
            vg = inst_gt.data.astype(np.int64)
            om = (vo >= 1) & (vo < 100)
            gm = (vg >= 1) & (vg < 100)
            size_o = np.bincount(vo[om], minlength=100)
            size_g = np.bincount(vg[gm], minlength=100)
            joint = vo[om & gm] * 100 + vg[om & gm]
            hits = np.zeros(100, dtype=int)
            for key, inter in zip(*np.unique(joint, return_counts=True)):
                o, g = int(key) // 100, int(key) % 100
                if inter / (size_o[o] + size_g[g] - inter) > 0.3:
                    hits[o] += 1
            assert hits.max(initial=0) <= 1, f"run {i}: merged instance {hits.argmax()}"

        assert clean >= 95, f"only {clean}/100 runs kept the vertebra count"


# --- criterion 3: metric oracles ---


def oracle_surface(mask: np.ndarray) -> np.ndarray:
    cross = ndi.generate_binary_structure(3, 1)
    return mask & ~ndi.binary_erosion(mask, structure=cross, border_value=0)


def oracle_assd(a: np.ndarray, b: np.ndarray, spacing) -> float:
    sa = np.argwhere(oracle_surface(a)) * spacing
    sb = np.argwhere(oracle_surface(b)) * spacing
    da = cKDTree(sb).query(sa)[0]
    db = cKDTree(sa).query(sb)[0]
    return (da.sum() + db.sum()) / (len(sa) + len(sb))


def random_mask(rng, shape) -> np.ndarray:
    flavor = rng.integers(0, 3)
    if flavor == 0:
        mask = np.zeros(shape, dtype=bool)
        for _ in range(rng.integers(1, 4)):
            seed = tuple(rng.integers(0, s) for s in shape)
            mask[seed] = True
        mask = ndi.binary_dilation(mask, iterations=int(rng.integers(1, 6)))
    elif flavor == 1:
        mask = np.zeros(shape, dtype=bool)
        lo = [rng.integers(0, s) for s in shape]
        hi = [int(min(l + rng.integers(1, s + 1), s)) for l, s in zip(lo, shape)]
        mask[tuple(slice(l, h) for l, h in zip(lo, hi))] = True
    else:
        mask = rng.random(shape) < rng.uniform(0.05, 0.5)
    if not mask.any():
        mask[tuple(rng.integers(0, s) for s in shape)] = True
    return mask


def test_criterion_3_metric_oracle_equivalence(capfd):
    """1000 random pairs up to 32^3: dice/iou equal exact rationals, assd
    within 1e-9 mm of a KD-tree oracle, DSC = 2*IoU/(1+IoU) to 1e-12."""
    with criterion(capfd, 3, "metric oracle equivalence"):
        rng = np.random.default_rng(2026)
        for _ in range(1000):
            shape = tuple(int(rng.integers(4, 33)) for _ in range(3))
            spacing = tuple(float(rng.uniform(0.4, 3.0)) for _ in range(3))
            a = random_mask(rng, shape)
            b = random_mask(rng, shape)
            if rng.random() < 0.3:
                b = a ^ (rng.random(shape) < 0.05)
                if not b.any():
                    b = a.copy()

            inter = int((a & b).sum())
            union = int((a | b).sum())
            na, nb = int(a.sum()), int(b.sum())
            assert dice(a, b) == float(Fraction(2 * inter, na + nb))
            assert iou(a, b) == float(Fraction(inter, union))
            assert abs(dice(a, b) - 2 * iou(a, b) / (1 + iou(a, b))) <= 1e-12
            assert abs(assd(a, b, spacing) - oracle_assd(a, b, spacing)) <= 1e-9

        empty = np.zeros((5, 5, 5), dtype=bool)
        full = np.ones((5, 5, 5), dtype=bool)
        assert dice(empty, empty) == 1.0 and iou(empty, empty) == 1.0
        assert dice(empty, full) == 0.0 and iou(empty, full) == 0.0
        with pytest.raises(ValueError):
            assd(empty, full)


# --- criterion 4: panoptic arithmetic ---


def test_criterion_4_panoptic_arithmetic(capfd):
    """TP IoUs {0.8, 0.6} with FP=1, FN=1 give RQ 0.6667, SQ 0.7000,
    PQ 0.4667; PQ = SQ*RQ holds on every generated report."""
    with criterion(capfd, 4, "panoptic arithmetic"):
        pred = np.zeros((1, 45, 1), dtype=np.uint16)
        ref = np.zeros((1, 45, 1), dtype=np.uint16)
        ref[0, 0:9, 0] = 1        # 9 voxels
        pred[0, 1:10, 0] = 1      # 9 voxels, 8 shared -> IoU 8/10
        ref[0, 15:23, 0] = 2      # 8 voxels
        pred[0, 17:25, 0] = 2     # 8 voxels, 6 shared -> IoU 6/10
        pred[0, 30:33, 0] = 3     # false positive
        ref[0, 36:39, 0] = 4      # false negative

        scores = panoptic(match_instances(pred, ref))
        assert scores.tp == 2 and scores.fp == 1 and scores.fn == 1
        assert abs(scores.rq - Fraction(2, 3)) <= 1e-9
        assert abs(scores.sq - Fraction(7, 10)) <= 1e-9
        assert abs(scores.pq - Fraction(7, 15)) <= 1e-9
        assert (round(scores.rq, 4), round(scores.sq, 4), round(scores.pq, 4)) == (
            0.6667,
            0.7000,
            0.4667,
        )

        rng = np.random.default_rng(7)
        for _ in range(50):
            shape = (8, 24, 8)
            p = rng.choice([0, 1, 2, 3, 101, 102, 201], size=shape).astype(np.uint16)
            r = rng.choice([0, 1, 2, 3, 101, 102, 201], size=shape).astype(np.uint16)
            report = instance_report(p, r, spacing=(1.0, 1.0, 1.0))
            for entry in report.values():
                assert abs(entry["PQ"] - entry["SQ"] * entry["RQ"]) <= 1e-12
        vacuous = panoptic(match_instances(np.zeros((2, 2, 2), np.uint16), np.zeros((2, 2, 2), np.uint16)))
        assert (vacuous.rq, vacuous.sq, vacuous.pq) == (1.0, 1.0, 1.0)


# --- criterion 5: signed-rank exactness ---


def oracle_signed_rank_p(x: np.ndarray, y: np.ndarray) -> float:
    diff = (np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64))
    diff = diff[diff != 0.0]
    n = diff.size
    if n == 0:
        return 1.0
    ranks = rankdata(np.abs(diff), method="average")
    observed = min(float(ranks[diff > 0].sum()), float(ranks[diff < 0].sum()))
    hits = 0
    for signs in product((False, True), repeat=n):
        w_plus = float(ranks[list(signs)].sum())
        hits += w_plus <= observed
    return min(1.0, 2.0 * hits / 2**n)


def test_criterion_5_wilcoxon_exactness(capfd):
    """Exact p equals full 2^n sign enumeration (n <= 10, 200 random
    samples) to 1e-12; the all-positive n=5 fixture gives p = 0.0625."""
    with criterion(capfd, 5, "signed-rank exactness"):
        y5 = np.zeros(5)
        x5 = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert abs(wilcoxon_signed_rank(x5, y5).p_value - 0.0625) <= 1e-12

        rng = np.random.default_rng(11)
        for i in range(200):
            n = 1 + i % 10
            if i % 2:
                x = rng.normal(size=n)
                y = rng.normal(size=n)
            else:
                x = rng.integers(-2, 3, size=n).astype(float)
                y = rng.integers(-2, 3, size=n).astype(float)
            got = wilcoxon_signed_rank(x, y).p_value
            want = oracle_signed_rank_p(x, y)
            assert abs(got - want) <= 1e-12, f"sample {i}: {got} vs {want}"


# --- criterion 6: post-processing contract ---


def random_inconsistent_pair(rng):
    shape = (20, 28, 10)
    sem = np.zeros(shape, dtype=np.uint16)
    inst = np.zeros(shape, dtype=np.uint16)
    for target, values in ((sem, list(range(15))), (inst, [0, 1, 2, 3, 5, 101, 102, 201, 202])):
        for _ in range(int(rng.integers(4, 10))):
            lo = [int(rng.integers(0, s - 2)) for s in shape]
            hi = [int(min(l + rng.integers(2, 9), s)) for l, s in zip(lo, shape)]
            box = tuple(slice(l, h) for l, h in zip(lo, hi))
            target[box] = rng.choice(values)
    return sem, inst


def test_criterion_6_postprocessing_contract(capfd):
    """enforce_consistency is idempotent and leaves matching foregrounds on
    100 randomized pairs; stray instance voxels vanish and unlabeled
    components get adopted by the majority neighbor."""
    with criterion(capfd, 6, "post-processing contract"):
        rng = np.random.default_rng(3)
        for _ in range(100):
            sem, inst = random_inconsistent_pair(rng)
            s1, i1, _ = enforce_consistency(sem, inst)
            assert foreground_equal(s1, i1)
            s2, i2, rep2 = enforce_consistency(s1, i1)
            assert (s1 == s2).all() and (i1 == i2).all()
            assert rep2.holes_filled == 0 and rep2.zeroed == 0
            assert not rep2.orphans_assigned

        # stray voxel: instance labels on background and on the canal vanish
        sem = np.zeros((8, 8, 8), dtype=np.uint16)
        inst = np.zeros((8, 8, 8), dtype=np.uint16)
        sem[2:4, 2:4, 2:4] = Structure.CORPUS
        inst[2:4, 2:4, 2:4] = 3
        inst[6, 6, 6] = 3                      # on background
        sem[0, 0, 0] = Structure.SPINAL_CANAL  # not instance-relevant
        inst[0, 0, 0] = 3
        _, i1, rep = enforce_consistency(sem, inst)
        assert i1[6, 6, 6] == 0 and i1[0, 0, 0] == 0
        assert rep.zeroed == 2

        # orphan: an unlabeled arcus strip joins its only touching vertebra
        sem = np.zeros((8, 10, 8), dtype=np.uint16)
        inst = np.zeros((8, 10, 8), dtype=np.uint16)
        sem[2:5, 2:5, 2:5] = Structure.CORPUS
        inst[2:5, 2:5, 2:5] = 4
        sem[2:5, 5:7, 2:5] = Structure.ARCUS
        s1, i1, rep = enforce_consistency(sem, inst)
        assert (i1[2:5, 5:7, 2:5] == 4).all()
        assert rep.orphans_assigned == [(18, 4)]


# --- criterion 7: annotation fusion rules ---


def test_criterion_7_annotation_fusion(capfd):
    """Base labels are never overwritten except canal -> cord; the endplate
    sheet fixture converts exactly the enclosed background sheet."""
    with criterion(capfd, 7, "annotation fusion rules"):
        shape = (6, 8, 6)
        grid = ((1.0, 1.0, 1.0), ("P", "I", "R"), "semantic")
        base = np.zeros(shape, dtype=np.uint16)
        base[1:3, 1:5, 1:5] = Structure.CORPUS
        base[4:6, 1:7, 1:5] = Structure.SPINAL_CANAL
        sub = np.zeros(shape, dtype=np.uint16)
        sub[1:4, 1:5, 1:5] = Structure.ARCUS        # half collides with corpus
        cord = np.zeros(shape, dtype=np.uint16)
        cord[3:6, 1:4, 1:5] = 1                     # covers arcus zone and canal

        merged = merge_sources(
            AnnotationSources(
                Volume(base, *grid), Volume(sub, *grid), Volume(cord, *grid)
            )
        )
        out = merged.data
        assert (out[1:3, 1:5, 1:5] == Structure.CORPUS).all()      # base kept
        assert (out[3, 1:5, 1:5] == Structure.ARCUS).all()         # sub on background only
        assert (out[4:6, 1:4, 1:5] == Structure.SPINAL_CORD).all() # canal -> cord
        assert (out[4:6, 4:7, 1:5] == Structure.SPINAL_CANAL).all()
        # cord never displaces a non-canal label
        assert not ((base > 0) & (base != Structure.SPINAL_CANAL) & (out != base)).any()

        sheet = np.zeros((8, 9, 8), dtype=np.uint16)
        sheet[1:7, 1:4, 1:7] = Structure.CORPUS
        sheet[1:7, 5:8, 1:7] = Structure.IVD
        fused = synthesize_endplates(Volume(sheet, *grid))
        expected = sheet.copy()
        expected[1:7, 4, 1:7] = Structure.ENDPLATE
        assert (fused.data == expected).all()


# --- criterion 8: evaluation interface names ---


def test_criterion_8_evaluation_names(capfd, tmp_path):
    """Dataset-scale results need real scans and trained models and are out
    of scope; the evaluate command must still emit the exact metric names
    (DSC, RQ, SQ, PQ, ASSD) those tables use."""
    with criterion(capfd, 8, "evaluation metric names"):
        _, sem, inst = generate_phantom(PhantomSpec(n_vertebrae=4, dims=(160, 192, 32), seed=5))
        write_nifti(sem, tmp_path / "sem.nii.gz")
        write_nifti(inst, tmp_path / "inst.nii.gz")
        code = cli_main([
            "evaluate",
            "--pred", str(tmp_path / "sem.nii.gz"),
            "--ref", str(tmp_path / "sem.nii.gz"),
            "--pred-instance", str(tmp_path / "inst.nii.gz"),
            "--ref-instance", str(tmp_path / "inst.nii.gz"),
            "--json", str(tmp_path / "eval.json"),
            "--csv", str(tmp_path / "eval.csv"),
        ])
        assert code == 0

        result = json.loads((tmp_path / "eval.json").read_text())
        for entry in result["semantic"].values():
            assert set(entry) == {"DSC", "ASSD"}
        for kind in ("vertebra", "ivd", "endplate"):
            entry = result["instances"][kind]
            assert set(entry) == {"DSC", "instance_DSC", "RQ", "SQ", "PQ", "ASSD", "TP", "FP", "FN"}

        header = (tmp_path / "eval.csv").read_text().splitlines()[0]
        assert header == "scope,DSC,RQ,SQ,PQ,ASSD"
