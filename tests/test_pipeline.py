"""Tiling, blended tiled prediction, external predictors, full runs."""

import gc
import gzip
import itertools
import json
import os
import textwrap
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import spineseg
import spineseg.assembly as assembly
import spineseg.pipeline as pipeline
import spineseg.postproc as postproc
from spineseg.assembly import assemble, check_answer
from spineseg.labels import Structure
from spineseg.nifti import read_nifti, write_nifti
from spineseg.phantom import NoiseSpec, OracleInstancePredictor, OracleSemanticPredictor, PhantomSpec, generate_phantom
from spineseg.pipeline import (
    ExternalInstancePredictor,
    ExternalPredictor,
    ExternalSemanticPredictor,
    PipelineConfig,
    PredictorError,
    TilingSpec,
    _axis_positions,
    _blend_window,
    predict_semantic,
    run_pipeline,
    tile_volume,
)
from spineseg.postproc import foreground_equal
from spineseg.volume import Volume, reorient


def make_volume(data, kind="semantic", spacing=(1.0, 1.0, 1.0)):
    dtype = np.float32 if kind == "intensity" else np.uint16
    return Volume(np.asarray(data, dtype=dtype), spacing, ("P", "I", "R"), kind)


def reference_axis_positions(dim, patch, overlap):
    """The original stepping loop: advance by the stride, clamp the last
    origin to ``dim - patch`` and stop there."""
    if dim <= patch:
        return [0]
    stride = max(1, int(round(patch * (1.0 - overlap))))
    last = dim - patch
    positions = []
    p = 0
    while True:
        positions.append(min(p, last))
        if positions[-1] == last:
            return positions
        p += stride


class TestTileVolume:
    def test_axis_positions_match_the_stepping_loop(self):
        for patch in (1, 2, 3, 7, 16, 31, 64, 128, 256):
            for overlap in (0.0, 0.1, 0.25, 0.5, 0.66, 0.75, 0.99):
                for dim in range(1, 260):
                    want = reference_axis_positions(dim, patch, overlap)
                    assert _axis_positions(dim, patch, overlap) == want, (dim, patch, overlap)

    def test_exact_fit_is_single_patch(self):
        spec = TilingSpec()
        assert tile_volume((256, 256, 64), spec) == [(0, 0, 0)]

    def test_half_overlap_long_axis(self):
        spec = TilingSpec(overlap=0.5)
        origins = tile_volume((384, 256, 64), spec)
        assert sorted({o[0] for o in origins}) == [0, 128]
        assert len(origins) == 2

    def test_small_volume_single_clamped_patch(self):
        assert tile_volume((100, 100, 10), TilingSpec()) == [(0, 0, 0)]

    def test_every_voxel_is_covered(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            dims = tuple(int(rng.integers(4, 80)) for _ in range(3))
            patch = tuple(int(rng.integers(3, 40)) for _ in range(3))
            overlap = float(rng.choice([0.0, 0.25, 0.5, 0.75]))
            spec = TilingSpec(patch_size=patch, overlap=overlap)
            cover = np.zeros(dims, dtype=np.int32)
            for o in tile_volume(dims, spec):
                sl = tuple(slice(a, min(a + p, d)) for a, p, d in zip(o, patch, dims))
                cover[sl] += 1
            assert (cover >= 1).all(), (dims, patch, overlap)

    def test_interior_double_coverage_at_half_overlap(self):
        spec = TilingSpec(patch_size=(16, 16, 16), overlap=0.5)
        dims = (48, 16, 16)
        cover = np.zeros(dims, dtype=np.int32)
        for o in tile_volume(dims, spec):
            sl = tuple(slice(a, a + p) for a, p in zip(o, spec.patch_size))
            cover[sl] += 1
        assert (cover[8:40] >= 2).all()

    def test_deterministic_order(self):
        spec = TilingSpec(patch_size=(16, 16, 16), overlap=0.5)
        origins = tile_volume((40, 40, 16), spec)
        assert origins == sorted(origins)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="overlap"):
            TilingSpec(overlap=1.0)
        with pytest.raises(ValueError, match="blend"):
            TilingSpec(blend="cubic")
        with pytest.raises(ValueError, match="patch_size"):
            TilingSpec(patch_size=(0, 16, 16))

    @pytest.mark.parametrize(
        "patch_size", [(8, 8), (8, 8, 8, 8), (8, 8.5, 8), (8, -1, 8)], ids=["2d", "4d", "fraction", "negative"]
    )
    def test_patch_size_is_three_whole_numbers(self, patch_size):
        with pytest.raises(ValueError, match="patch_size must be 3 whole numbers >= 1"):
            TilingSpec(patch_size=patch_size)


class ConstantLabeler:
    """Labels every voxel of the patch with a fixed code."""

    def __init__(self, code):
        self.code = code

    def predict(self, patch, origin):
        return np.full(patch.dims, self.code, dtype=np.uint16)


class OriginSwitchLabeler:
    """Different constant label depending on the patch origin."""

    def predict(self, patch, origin):
        code = 1 if origin[0] == 0 else 2
        return np.full(patch.dims, code, dtype=np.uint16)


class TestPredictSemantic:
    def test_oracle_identity_single_patch(self, standard_phantom):
        img, sem, _ = standard_phantom
        spec = TilingSpec(patch_size=sem.dims)
        out = predict_semantic(img, OracleSemanticPredictor(sem), spec)
        assert np.array_equal(out.data, sem.data)

    def test_oracle_identity_tiled(self, standard_phantom):
        img, sem, _ = standard_phantom
        out = predict_semantic(img, OracleSemanticPredictor(sem), TilingSpec())
        assert np.array_equal(out.data, sem.data)
        assert out.kind == "semantic"

    def test_ensemble_of_identical_predictors_matches_single(self, standard_phantom):
        img, sem, _ = standard_phantom
        spec = TilingSpec()
        single = predict_semantic(img, OracleSemanticPredictor(sem), spec)
        triple = predict_semantic(img, [OracleSemanticPredictor(sem)] * 3, spec)
        assert np.array_equal(single.data, triple.data)

    def test_agreeing_overlap_equals_either_alone(self):
        vol = make_volume(np.zeros((48, 8, 8)), kind="intensity")
        spec = TilingSpec(patch_size=(32, 8, 8), overlap=0.5, blend="uniform")
        out = predict_semantic(vol, ConstantLabeler(5), spec)
        assert (out.data == 5).all()

    def test_gaussian_blend_crossover_at_midpoint(self):
        # two patches disagree; each voxel takes the label of the nearer
        # patch center, so the switch happens halfway between the centers
        vol = make_volume(np.zeros((48, 8, 8)), kind="intensity")
        spec = TilingSpec(patch_size=(32, 8, 8), overlap=0.5, blend="gaussian")
        out = predict_semantic(vol, OriginSwitchLabeler(), spec)
        # centers at x=15.5 and x=31.5: voxels at x<=23 nearer the first
        assert (out.data[:24] == 1).all()
        assert (out.data[24:] == 2).all()

    def test_scores_predictor(self, standard_phantom):
        img, sem, _ = standard_phantom

        class OneHotScores:
            def predict(self, patch, origin):
                sl = tuple(slice(o, o + s) for o, s in zip(origin, patch.dims))
                window = sem.data[sl]
                return np.stack([(window == c).astype(np.float32) for c in range(15)])

        out = predict_semantic(img, OneHotScores(), TilingSpec())
        assert np.array_equal(out.data, sem.data)

    def test_rejects_bad_labels_and_shapes(self):
        vol = make_volume(np.zeros((8, 8, 8)), kind="intensity")
        spec = TilingSpec(patch_size=(8, 8, 8))

        with pytest.raises(PredictorError, match="outside"):
            predict_semantic(vol, ConstantLabeler(15), spec)

        class WrongShape:
            def predict(self, patch, origin):
                return np.zeros((4, 4, 4), dtype=np.uint16)

        with pytest.raises(PredictorError, match="shape"):
            predict_semantic(vol, WrongShape(), spec)

        class TwoD:
            def predict(self, patch, origin):
                return np.zeros((8, 8), dtype=np.uint16)

        with pytest.raises(PredictorError, match="2D"):
            predict_semantic(vol, TwoD(), spec)

        class Answer:
            def __init__(self, answer):
                self.answer = answer

            def predict(self, patch, origin):
                return self.answer

        # a NaN score would win the argmax and silently pick a class
        scores = np.zeros((15, 8, 8, 8), dtype=np.float32)
        scores[7, 0, 0, 0] = np.nan
        with pytest.raises(PredictorError, match="non-finite"):
            predict_semantic(vol, Answer(scores), spec)
        # fractional labels must not be truncated to a class code
        with pytest.raises(PredictorError, match="non-integral"):
            predict_semantic(vol, Answer(np.full((8, 8, 8), 1.5, dtype=np.float32)), spec)
        nan_labels = np.zeros((8, 8, 8), dtype=np.float32)
        nan_labels[3, 3, 3] = np.nan
        with pytest.raises(PredictorError, match="non-integral"):
            predict_semantic(vol, Answer(nan_labels), spec)
        with pytest.raises(PredictorError, match="outside"):
            predict_semantic(vol, Answer(np.full((8, 8, 8), -1, dtype=np.int16)), spec)
        with pytest.raises(PredictorError, match="shape"):
            predict_semantic(vol, Answer(np.zeros((14, 8, 8, 8), dtype=np.float32)), spec)

    def test_integral_float_labels_are_accepted(self):
        labels = np.random.default_rng(3).integers(0, 15, size=(16, 8, 8))
        vol = make_volume(np.zeros(labels.shape), kind="intensity")

        class FloatLabels:
            def predict(self, patch, origin):
                sl = tuple(slice(o, o + s) for o, s in zip(origin, patch.dims))
                return labels[sl].astype(np.float32)

        out = predict_semantic(vol, FloatLabels(), TilingSpec(patch_size=(8, 8, 8), overlap=0.0))
        assert np.array_equal(out.data, labels)

    def test_needs_a_predictor(self):
        vol = make_volume(np.zeros((8, 8, 8)), kind="intensity")
        with pytest.raises(ValueError, match="at least one"):
            predict_semantic(vol, [], TilingSpec(patch_size=(8, 8, 8)))


class Scribbler:
    """Answers like ``inner``, then overwrites its input in place; keeps
    the sum of every input it was given."""

    def __init__(self, inner):
        self.inner = inner
        self.sums = []

    def predict(self, vol, where):
        self.sums.append(int(vol.data.sum()))
        out = self.inner.predict(vol, where)
        vol.data[...] = 7
        return out


class TestPredictorInputs:
    @pytest.mark.parametrize("dims, patch", [
        ((8, 8, 8), (4, 4, 4)),  # a tiled ensemble: every patch cut from the grid
        ((4, 4, 8), (4, 4, 8)),  # one patch covering the grid
        ((8, 4, 8), (2, 4, 8)),  # slabs spanning y and z, C-contiguous in the grid
    ])
    def test_members_and_caller_never_see_an_edit(self, dims, patch):
        vol = make_volume(np.ones(dims))
        members = [Scribbler(ConstantLabeler(1)) for _ in range(2)]
        predict_semantic(vol, members, TilingSpec(patch_size=patch, overlap=0.0))
        assert (vol.data == 1).all()
        for m in members:
            assert m.sums == [int(np.prod(patch))] * (np.prod(dims) // np.prod(patch)), m.sums


def reference_accumulate(scores, sl, w, out):
    """The per-code accumulation: one full-patch ``w * (out == code)`` per
    label code."""
    if out.ndim == 3:
        for code in np.unique(out):
            scores[int(code)][sl] += w * (out == code)
    else:
        scores[:, sl[0], sl[1], sl[2]] += w * out


def reference_predict_semantic(vol, predictors, spec):
    """Tiled prediction with the full-buffer ``np.argmax``: (labels, raw
    scores)."""
    scores = np.zeros((15,) + vol.dims, dtype=np.float32)
    for origin in tile_volume(vol.dims, spec):
        sl = tuple(slice(o, min(o + p, d)) for o, p, d in zip(origin, spec.patch_size, vol.dims))
        patch = Volume(np.ascontiguousarray(vol.data[sl]), vol.spacing, vol.orientation, vol.kind)
        w = _blend_window(patch.dims, spec.blend)
        for p in predictors:
            out = check_answer(p.predict(patch, origin), patch.dims, 15, scores_ok=True)
            reference_accumulate(scores, sl, w, out)
    labels = np.argmax(scores, axis=0).astype(np.uint16)
    return labels, scores


class RandomAnswers:
    """A fresh random answer for every patch, the same for the same origin.

    Label answers use few codes so that blended classes tie exactly;
    ``"extreme"`` scores are 0 or +-3e38, which overflow to +-inf where
    patches overlap.
    """

    LABEL_DTYPES = {"uint8": np.uint8, "uint16": np.uint16, "int64": np.int64,
                    "bool": bool, "float32": np.float32}

    def __init__(self, seed, kind):
        self.seed = seed
        self.kind = kind

    def predict(self, patch, origin):
        rng = np.random.default_rng([self.seed, *origin])
        if self.kind == "scores":
            return rng.integers(0, 3, size=(15,) + patch.dims).astype(np.float32)
        if self.kind == "extreme":
            return rng.choice(np.float32([-3e38, 0.0, 3e38]), size=(15,) + patch.dims)
        high = 2 if self.kind == "bool" else 15
        codes = rng.choice(rng.permutation(high)[:3], size=patch.dims)
        return codes.astype(self.LABEL_DTYPES[self.kind])


def same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))


class TestTilingAgainstReference:
    KINDS = ["scores", "extreme", *RandomAnswers.LABEL_DTYPES]

    def random_case(self, rng, trial):
        dims = tuple(int(n) for n in rng.integers(3, 21, size=3))
        spec = TilingSpec(
            patch_size=tuple(int(n) for n in rng.integers(4, 13, size=3)),
            overlap=float(rng.choice([0.0, 0.25, 0.5])),
            blend=str(rng.choice(["gaussian", "uniform"])),
        )
        members = [RandomAnswers(trial * 10 + m, str(rng.choice(self.KINDS)))
                   for m in range(int(rng.integers(1, 4)))]
        return make_volume(np.zeros(dims), kind="intensity"), members, spec

    def test_labels_match_the_full_argmax(self, monkeypatch):
        # how each cell was resolved: by label votes alone, by a score buffer
        # alone, or by a buffer that the votes so far were replayed into
        resolved = {"votes": 0, "buffer": 0, "replayed": 0}
        fresh = set()

        def vote_into(labels, votes):
            resolved["votes"] += 1
            return vote_into.inner(labels, votes)

        def unbacked_zeros(shape):
            buf = unbacked_zeros.inner(shape)
            fresh.add(id(buf))
            return buf

        def accumulate(scores, w, out):
            # a fresh buffer's first addition is a replayed vote or the score answer
            if id(scores) in fresh:
                fresh.discard(id(scores))
                resolved["replayed" if out.ndim == 3 else "buffer"] += 1
            return accumulate.inner(scores, w, out)

        for wrapper in (vote_into, unbacked_zeros, accumulate):
            name = "_" + wrapper.__name__
            wrapper.inner = getattr(pipeline, name)
            monkeypatch.setattr(pipeline, name, wrapper)
        rng = np.random.default_rng(11)
        kinds_seen, ties, infinities = set(), 0, 0
        for trial in range(100):
            vol, members, spec = self.random_case(rng, trial)
            with np.errstate(over="ignore", invalid="ignore"):
                want_labels, raw = reference_predict_semantic(vol, members, spec)
                got = predict_semantic(vol, members, spec)
            assert same_bits(got.data, want_labels), trial
            kinds_seen.update(m.kind for m in members)
            top = raw.max(axis=0)
            ties += int(((raw == top).sum(axis=0) > 1).sum())
            infinities += int(np.isinf(raw).sum())
        assert kinds_seen == set(self.KINDS)
        assert ties > 1000 and infinities > 100
        assert min(resolved.values()) > 0, resolved

    def test_ties_go_to_the_smaller_code(self):
        vol = make_volume(np.zeros((16, 4, 4)), kind="intensity")
        spec = TilingSpec(patch_size=(8, 4, 4), overlap=0.0, blend="uniform")

        class Tied:
            def predict(self, patch, origin):
                out = np.zeros((15,) + patch.dims, dtype=np.float32)
                out[[4, 9] if origin[0] == 0 else [12, 3]] = 1.0
                return out

        assert (predict_semantic(vol, Tied(), spec).data == [[[4]]] * 8 + [[[3]]] * 8).all()

    def test_tiling_holds_one_score_buffer(self):
        dims = (32, 96, 16)
        vol = make_volume(np.zeros(dims), kind="intensity")
        spec = TilingSpec(patch_size=(32, 48, 16), overlap=0.5)
        predictor = RandomAnswers(5, "uint8")
        buffer = 15 * np.prod(dims) * 4
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            predict_semantic(vol, predictor, spec)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * buffer, (peak, buffer)

    def test_label_tiling_holds_a_few_cells(self):
        # label votes are traced numpy arrays; seven patches along axis 1
        # cut the grid into eight cells
        dims = (32, 192, 16)
        vol = make_volume(np.zeros(dims), kind="intensity")
        spec = TilingSpec(patch_size=(32, 48, 16), overlap=0.5)
        predictor = RandomAnswers(5, "uint8")
        buffer = 15 * np.prod(dims) * 4
        want, _ = reference_predict_semantic(vol, [predictor], spec)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = predict_semantic(vol, predictor, spec)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert same_bits(got.data, want)
        assert peak < 0.5 * buffer, (peak, buffer)

    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("dims, patch", [
        ((8, 40, 8), (8, 16, 8)),  # overlap along one axis
        ((20, 20, 20), (8, 8, 8)),  # overlap along all three
    ], ids=["one-axis", "three-axes"])
    def test_label_tiling_opens_no_score_buffer(self, members, dims, patch, monkeypatch):
        def no_buffer(shape):
            raise AssertionError(f"a score buffer of shape {shape} was opened")

        vol = make_volume(np.zeros(dims), kind="intensity")
        spec = TilingSpec(patch_size=patch, overlap=0.5)
        predictors = [RandomAnswers(40 + m, "uint8") for m in range(members)]
        want, _ = reference_predict_semantic(vol, predictors, spec)
        monkeypatch.setattr(pipeline, "_unbacked_zeros", no_buffer)
        assert same_bits(predict_semantic(vol, predictors, spec).data, want)

    @pytest.mark.parametrize("kinds", [
        ["uint8", "scores"],  # label votes, then a score answer in the same patch
        ["scores", "uint16"],  # a score buffer, then label answers into it
        ["late-scores"],  # labels on the first patch, scores on the later ones
    ], ids=["label-then-score", "score-then-label", "score-on-a-later-patch"])
    def test_score_answer_after_label_votes_matches_the_reference(self, kinds):
        class LateScores:
            def predict(self, patch, origin):
                kind = "uint8" if origin == (0, 0, 0) else "scores"
                return RandomAnswers(60, kind).predict(patch, origin)

        vol = make_volume(np.zeros((12, 12, 12)), kind="intensity")
        spec = TilingSpec(patch_size=(8, 8, 8), overlap=0.5)
        predictors = [LateScores() if k == "late-scores" else RandomAnswers(50 + m, k)
                      for m, k in enumerate(kinds)]
        want, _ = reference_predict_semantic(vol, predictors, spec)
        assert same_bits(predict_semantic(vol, predictors, spec).data, want)

    @pytest.mark.parametrize("codes", [(9, 4), (4, 9)])
    def test_disagreeing_labels_of_equal_weight_go_to_the_smaller_code(self, codes):
        vol = make_volume(np.zeros((16, 4, 4)), kind="intensity")
        spec = TilingSpec(patch_size=(8, 4, 4), overlap=0.5, blend="uniform")
        out = predict_semantic(vol, [ConstantLabeler(c) for c in codes], spec)
        assert (out.data == 4).all()

    def test_no_label_answer_outlives_its_patch(self):
        # every cell of the inner grid is covered by up to eight patches
        vol = make_volume(np.zeros((20, 20, 20)), kind="intensity")
        spec = TilingSpec(patch_size=(8, 8, 8), overlap=0.5)
        stale = []

        class Remembered:
            def __init__(self):
                self.given = []

            def predict(self, patch, origin):
                # the previous patch's answers may still be in flight
                stale.extend(ref() is not None for ref in self.given[:-1])
                out = np.zeros(patch.dims, dtype=np.uint8)
                self.given.append(weakref.ref(out))
                return out

        members = [Remembered(), Remembered()]
        predict_semantic(vol, members, spec)
        assert [len(m.given) for m in members] == [4**3] * 2
        assert stale and not any(stale)
        assert all(ref() is None for m in members for ref in m.given)

    @pytest.mark.parametrize("blend", ["gaussian", "uniform"])
    def test_blend_window_is_positive(self, blend):
        # each axis factor is at least exp(-8), so a window is at least
        # exp(-24): a voxel where every label answer agrees has one positive class
        floor = np.float32(np.exp(-8.0)) * np.float32(1 - 1e-6)
        for n in range(1, 513):
            for axis in range(3):
                factor = _blend_window(tuple(n if a == axis else 1 for a in range(3)), blend)
                assert factor.min() >= floor, (n, axis)
        for shape in [(512, 512, 4), (7, 9, 8), (1, 2, 3)]:
            assert _blend_window(shape, blend).min() >= floor ** 3 > 0, shape

    @pytest.mark.parametrize("members", [1, 3])
    def test_cut_patches_are_dropped_once_every_member_has_them(self, members):
        vol = make_volume(np.zeros((4, 96, 4)), kind="intensity")
        spec = TilingSpec(patch_size=(4, 8, 4), overlap=0.5)
        seen, alive = [], []

        class Counting:
            def predict(self, patch, origin):
                seen.append(weakref.ref(patch))
                alive.append(len({id(p) for p in (ref() for ref in seen) if p is not None}))
                return np.zeros(patch.dims, dtype=np.uint8)

        predict_semantic(vol, [Counting() for _ in range(members)], spec)
        assert len(seen) == 23 * members
        assert max(alive) <= 2, alive


def write_script(tmp_path, name, body):
    """A predictor script that imports the spineseg package this suite tests,
    whether or not that package is installed."""
    package_root = Path(spineseg.__file__).resolve().parents[1]
    path = tmp_path / name
    path.write_text(f"import sys\nsys.path.insert(0, {str(package_root)!r})\n" + textwrap.dedent(body))
    return path


IDENTITY_SCRIPT = """
    import sys
    from spineseg.nifti import read_nifti, write_nifti
    vol = read_nifti(sys.argv[1])
    write_nifti(vol, sys.argv[2])
"""

SCORES_SCRIPT = """
    import sys
    import numpy as np
    from spineseg.nifti import read_nifti, write_nifti
    vol = read_nifti(sys.argv[1])
    out = sys.argv[2]
    for k in range(15):
        plane = (vol.data == k).astype(np.float32)
        score = vol.with_data(plane, kind="intensity")
        write_nifti(score, out.replace(".nii.gz", "_c%d.nii.gz" % k))
"""


@pytest.fixture()
def small_semantic():
    data = np.zeros((20, 24, 12), dtype=np.uint16)
    data[4:10, 4:10, 4:10] = Structure.CORPUS
    data[4:10, 12:16, 4:10] = Structure.IVD
    data[14:18, :, 2:6] = Structure.SPINAL_CANAL
    return make_volume(data)


# Every child logs "<start> <end>" to <log dir>/<pid>.log (or its pid
# alone when it starts) and sleeps less the later its call comes.
ORDERED_SEMANTIC_SCRIPT = """
    import os, time
    start = time.time()
    from spineseg.nifti import read_nifti, write_nifti
    vol = read_nifti(sys.argv[1])
    time.sleep(0.2 * (5 - int(vol.data.max())))
    write_nifti(vol, sys.argv[2])
    with open(os.path.join(sys.argv[3], "%d.log" % os.getpid()), "w") as log:
        log.write("%r %r" % (start, time.time()))
"""

ORDERED_INSTANCE_SCRIPT = """
    import os, time
    start = time.time()
    from spineseg.nifti import read_nifti, write_nifti
    vol = read_nifti(sys.argv[1])
    corpus = vol.data == 1
    time.sleep(25.6 / corpus.sum())
    write_nifti(vol.with_data(2 * corpus.astype("u2")), sys.argv[2])
    with open(os.path.join(sys.argv[3], "%d.log" % os.getpid()), "w") as log:
        log.write("%r %r" % (start, time.time()))
"""

FIRST_FAILS_SCRIPT = """
    import os, time
    open(os.path.join(sys.argv[3], "%d.log" % os.getpid()), "w").close()
    from spineseg.nifti import read_nifti, write_nifti
    vol = read_nifti(sys.argv[1])
    if vol.data.max() == 1:
        if sys.argv[4] == "exit":
            sys.exit(3)
        write_nifti(vol.with_data(vol.data + 19), sys.argv[2])  # label 20 is no class
    else:
        time.sleep(30)
"""


FIRST_ANSWERS_SCRIPT = """
    import os, time
    open(os.path.join(sys.argv[3], "%d.log" % os.getpid()), "w").close()
    from spineseg.nifti import read_nifti, write_nifti
    vol = read_nifti(sys.argv[1])
    if vol.data.max() != 1:
        time.sleep(30)
    write_nifti(vol, sys.argv[2])
"""


# Writes 200 KiB to stderr first; the call on label 1 then takes 2 s, the
# one on label 2 none. Logs "<start> <end>" to <log dir>/<label>.log.
CHATTY_SCRIPT = """
    import os, time
    start = time.time()
    sys.stderr.write("x" * 200 * 1024)
    sys.stderr.flush()
    from spineseg.nifti import read_nifti, write_nifti
    vol = read_nifti(sys.argv[1])
    k = int(vol.data.max())
    time.sleep(2.0 if k == 1 else 0.0)
    write_nifti(vol, sys.argv[2])
    with open(os.path.join(sys.argv[3], "%d.log" % k), "w") as log:
        log.write("%r %r" % (start, time.time()))
"""


# Copies its input to the path in its third argument, then answers with it.
KEEP_INPUT_SCRIPT = """
    import shutil
    shutil.copy(sys.argv[1], sys.argv[3])
    shutil.copy(sys.argv[1], sys.argv[2])
"""

# About 20 MB of stderr, then the tail a diagnosis should show; exits 3.
FLOODING_SCRIPT = """
    sys.stderr.write("x" * 20_000_000 + "the true tail")
    sys.stderr.flush()
    sys.exit(3)
"""


class Echo:
    def predict(self, patch, origin):
        return patch.data


class Thresholder:
    """Corpus where the patch is brighter than 100; keeps each patch's kind
    and a copy of its voxels."""

    def __init__(self):
        self.patches = []

    def predict(self, patch, origin):
        self.patches.append((patch.kind, patch.data.copy()))
        return np.where(patch.data > 100, Structure.CORPUS, 0).astype(np.uint16)


class CenterCorpus:
    def predict(self, window, cutout):
        return 2 * (window.data == Structure.CORPUS).astype(np.uint16)


def numbered_patches():
    """Four disjoint 8^3 patches, the k-th filled with label k."""
    data = np.repeat(np.arange(1, 5), 8)[:, None, None] * np.ones((1, 8, 8))
    return make_volume(data), TilingSpec(patch_size=(8, 8, 8), overlap=0.0)


def growing_corpora():
    """Four corpus boxes down axis 1, the k-th of 32k voxels, one per 16x16x8 cutout."""
    data = np.zeros((16, 64, 8), dtype=np.uint16)
    for k, y in enumerate((8, 24, 40, 56), start=1):
        data[2 : 2 + 2 * k, y - 2 : y + 2, 2:6] = Structure.CORPUS
    return make_volume(data)


def script_predictor(tmp_path, body, *args, timeout=300.0):
    """An ``exec:`` predictor exchanging in ``tmp_path / "xchg"`` and running
    ``body`` with the input, the output and ``args`` as its arguments."""
    script = write_script(tmp_path, "model.py", body)
    command = " ".join(["python3", str(script), "{input}", "{output}", *map(str, args)])
    return ExternalPredictor(command, tmp_path / "xchg", timeout)


def logged_children(log_dir):
    """{pid: (start, end) or ()} from the children's logs."""
    return {
        int(p.stem): tuple(float(t) for t in p.read_text().split())
        for p in Path(log_dir).glob("*.log")
    }


def most_at_once(spans):
    """The largest number of (start, end) spans open at one time."""
    events = sorted([(start, 1) for start, _ in spans] + [(end, -1) for _, end in spans])
    return max(itertools.accumulate(step for _, step in events))


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestExternalPredictors:
    def test_package_exports_the_class_and_its_aliases(self):
        from spineseg import ExternalInstancePredictor, ExternalPredictor, ExternalSemanticPredictor

        assert ExternalPredictor is ExternalSemanticPredictor is ExternalInstancePredictor
        assert "ExternalPredictor" in spineseg.__all__

    def test_label_round_trip(self, tmp_path, small_semantic):
        script = write_script(tmp_path, "identity.py", IDENTITY_SCRIPT)
        pred = ExternalSemanticPredictor(
            f"python3 {script} {{input}} {{output}}", exchange_dir=tmp_path / "xchg"
        )
        spec = TilingSpec(patch_size=small_semantic.dims)
        out = predict_semantic(small_semantic, pred, spec)
        assert np.array_equal(out.data, small_semantic.data)

    def test_appended_arguments_form(self, tmp_path, small_semantic):
        script = write_script(tmp_path, "identity.py", IDENTITY_SCRIPT)
        pred = ExternalSemanticPredictor(f"python3 {script}", exchange_dir=tmp_path / "xchg")
        spec = TilingSpec(patch_size=small_semantic.dims)
        out = predict_semantic(small_semantic, pred, spec)
        assert np.array_equal(out.data, small_semantic.data)

    def test_score_files_protocol(self, tmp_path, small_semantic):
        script = write_script(tmp_path, "scores.py", SCORES_SCRIPT)
        pred = ExternalSemanticPredictor(
            f"python3 {script} {{input}} {{output}}", exchange_dir=tmp_path / "xchg"
        )
        spec = TilingSpec(patch_size=small_semantic.dims)
        out = predict_semantic(small_semantic, pred, spec)
        assert np.array_equal(out.data, small_semantic.data)

    def test_exchange_files_are_cleaned_up(self, tmp_path, small_semantic):
        script = write_script(tmp_path, "identity.py", IDENTITY_SCRIPT)
        xchg = tmp_path / "xchg"
        pred = ExternalSemanticPredictor(f"python3 {script} {{input}} {{output}}", exchange_dir=xchg)
        predict_semantic(small_semantic, pred, TilingSpec(patch_size=small_semantic.dims))
        assert list(xchg.iterdir()) == []

    def test_nonzero_exit_raises_with_diagnostics(self, tmp_path, small_semantic):
        script = write_script(
            tmp_path,
            "fail.py",
            """
            import sys
            print("boom detail", file=sys.stderr)
            sys.exit(3)
            """,
        )
        pred = ExternalSemanticPredictor(f"python3 {script} {{input}} {{output}}", exchange_dir=tmp_path)
        with pytest.raises(PredictorError, match="status 3") as err:
            pred.predict(small_semantic, (0, 0, 0))
        assert "boom detail" in str(err.value)

    def test_missing_output_raises(self, tmp_path, small_semantic):
        script = write_script(tmp_path, "noop.py", "pass\n")
        pred = ExternalSemanticPredictor(f"python3 {script} {{input}} {{output}}", exchange_dir=tmp_path)
        with pytest.raises(PredictorError, match="no output"):
            pred.predict(small_semantic, (0, 0, 0))

    def test_malformed_output_raises(self, tmp_path, small_semantic):
        script = write_script(
            tmp_path,
            "junk.py",
            """
            import sys
            open(sys.argv[2], "wb").write(b"not a volume")
            """,
        )
        pred = ExternalSemanticPredictor(f"python3 {script} {{input}} {{output}}", exchange_dir=tmp_path)
        with pytest.raises(PredictorError, match="malformed"):
            pred.predict(small_semantic, (0, 0, 0))

    @pytest.mark.parametrize(
        "damage",
        ["blob[: len(blob) // 2]", "blob[:-8] + bytes([blob[-8] ^ 1]) + blob[-7:]"],
        ids=["cut", "crc"],
    )
    def test_corrupt_output_raises(self, tmp_path, small_semantic, damage):
        # a model killed while it writes its answer leaves half a gzip stream;
        # a flipped bit shows only in the CRC-32 trailer
        script = write_script(
            tmp_path,
            "damage.py",
            f"""
            from spineseg.nifti import read_nifti, write_nifti
            write_nifti(read_nifti(sys.argv[1]), sys.argv[2])
            blob = open(sys.argv[2], "rb").read()
            open(sys.argv[2], "wb").write({damage})
            """,
        )
        pred = ExternalSemanticPredictor(f"python3 {script} {{input}} {{output}}", exchange_dir=tmp_path)
        with pytest.raises(PredictorError, match="malformed predictor output .*corrupt gzip stream"):
            pred.predict(small_semantic, (0, 0, 0))

    def test_default_exchange_leaves_no_file_and_no_warning(self, tmp_path, small_semantic):
        noted = tmp_path / "input.txt"
        script = write_script(
            tmp_path,
            "noting.py",
            """
            from spineseg.nifti import read_nifti, write_nifti
            write_nifti(read_nifti(sys.argv[1]), sys.argv[2])
            open(sys.argv[3], "w").write(sys.argv[1])
            """,
        )
        pred = ExternalSemanticPredictor(f"python3 {script} {{input}} {{output}} {noted}")
        assert np.array_equal(pred.predict(small_semantic, (0, 0, 0)), small_semantic.data)
        exchanged = Path(noted.read_text())
        uid = exchanged.name[len("in_") : -len(".nii.gz")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del pred
            gc.collect()
        assert [str(w.message) for w in caught] == []
        assert list(exchanged.parent.glob(f"*{uid}*")) == []

    def test_timeout_raises(self, tmp_path, small_semantic):
        script = write_script(tmp_path, "slow.py", "import time\ntime.sleep(30)\n")
        pred = ExternalSemanticPredictor(
            f"python3 {script} {{input}} {{output}}", exchange_dir=tmp_path, timeout=0.5
        )
        with pytest.raises(PredictorError, match="timed out"):
            pred.predict(small_semantic, (0, 0, 0))

    # NaN would turn the timeout off; zero or less would fail every call
    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 0.0, -1.0])
    def test_timeout_must_be_finite_and_positive(self, tmp_path, timeout):
        with pytest.raises(ValueError, match="timeout must be a finite positive"):
            ExternalPredictor("true", exchange_dir=tmp_path / "xchg", timeout=timeout)
        assert not (tmp_path / "xchg").exists()

    def test_answers_are_used_in_input_order(self, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        vol, spec = numbered_patches()
        got = predict_semantic(vol, script_predictor(tmp_path, ORDERED_SEMANTIC_SCRIPT, logs), spec)
        assert np.array_equal(got.data, predict_semantic(vol, Echo(), spec).data)

        semantic = growing_corpora()
        inst_pred = script_predictor(tmp_path, ORDERED_INSTANCE_SCRIPT, logs)
        got, got_report = assemble(semantic, inst_pred, cutout_size=(16, 16, 8))
        want, want_report = assemble(semantic, CenterCorpus(), cutout_size=(16, 16, 8))
        assert np.array_equal(got.data, want.data)
        assert got_report.to_dict() == want_report.to_dict()
        assert len(want_report.cutouts) == 4 and set(np.unique(want.data)) >= {1, 2, 3, 4}
        assert len(logged_children(logs)) == 8

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
    def test_calls_overlap(self, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        vol, spec = numbered_patches()
        predict_semantic(vol, script_predictor(tmp_path, ORDERED_SEMANTIC_SCRIPT, logs), spec)
        spans = sorted(logged_children(logs).values())
        assert len(spans) == 4
        assert any(later[0] < earlier[1] for earlier, later in zip(spans, spans[1:])), spans

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
    def test_chatty_call_runs_on_while_an_older_one_is_awaited(self, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        vol, _ = numbered_patches()
        patches = [vol.with_data(vol.data[8 * k : 8 * k + 8]) for k in range(2)]
        pred = script_predictor(tmp_path, CHATTY_SCRIPT, logs, timeout=10.0)
        answers = list(pred.predict_many(patches, [(0, 0, 0), (8, 0, 0)]))
        assert [a.max() for a in answers] == [1, 2]
        spans = logged_children(logs)
        # a pipe would hold the second call at its write until the first was answered
        assert spans[2][1] < spans[1][1] - 1.0, spans
        assert list(pred.exchange_dir.iterdir()) == []

    def test_at_most_two_calls_per_member_run_at_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(32)), raising=False)
        vol, spec = numbered_patches()
        members = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            members.append(script_predictor(tmp_path / name, ORDERED_SEMANTIC_SCRIPT, tmp_path / name))
        got = predict_semantic(vol, members, spec)
        assert np.array_equal(got.data, predict_semantic(vol, Echo(), spec).data)
        spans = {name: list(logged_children(tmp_path / name).values()) for name in ("a", "b")}
        assert [len(s) for s in spans.values()] == [4, 4]
        assert max(most_at_once(s) for s in spans.values()) <= 2, spans
        assert most_at_once(spans["a"] + spans["b"]) <= 4, spans

    @pytest.mark.parametrize("failure", ["exit", "label"])
    def test_failure_stops_every_running_call(self, failure, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        vol, spec = numbered_patches()
        pred = script_predictor(tmp_path, FIRST_FAILS_SCRIPT, logs, failure)
        t = time.perf_counter()
        with pytest.raises(PredictorError, match="status 3" if failure == "exit" else "outside"):
            predict_semantic(vol, pred, spec)
        assert time.perf_counter() - t < 15
        assert list(pred.exchange_dir.iterdir()) == []
        pids = logged_children(logs)
        assert pids and not any(alive(pid) for pid in pids)

    def test_a_failing_member_stops_every_member_call(self, tmp_path):
        # member a answers its first call, then sleeps; member b's first call fails
        vol, spec = numbered_patches()
        members = []
        for name, body, args in (("a", FIRST_ANSWERS_SCRIPT, ()), ("b", FIRST_FAILS_SCRIPT, ("exit",))):
            (tmp_path / name).mkdir()
            members.append(script_predictor(tmp_path / name, body, tmp_path / name, *args))
        t = time.perf_counter()
        with pytest.raises(PredictorError, match="status 3"):
            predict_semantic(vol, members, spec)
        assert time.perf_counter() - t < 15
        for m in members:
            assert list(m.exchange_dir.iterdir()) == []
        pids = {**logged_children(tmp_path / "a"), **logged_children(tmp_path / "b")}
        assert pids and not any(alive(pid) for pid in pids)

    def test_closing_the_stream_stops_every_running_call(self, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        vol, spec = numbered_patches()
        patches = [vol.with_data(vol.data[8 * k : 8 * k + 8]) for k in range(4)]
        pred = script_predictor(tmp_path, FIRST_FAILS_SCRIPT, logs, "label")
        stream = pred.predict_many(patches, [(8 * k, 0, 0) for k in range(4)])
        assert next(stream).max() == 20
        t = time.perf_counter()
        stream.close()
        assert time.perf_counter() - t < 15
        assert list(pred.exchange_dir.iterdir()) == []
        assert not any(alive(pid) for pid in logged_children(logs))

    def test_exchange_input_is_stored_gzip(self, tmp_path, small_semantic):
        kept = tmp_path / "kept.nii.gz"
        pred = script_predictor(tmp_path, KEEP_INPUT_SCRIPT, kept)
        assert np.array_equal(pred.predict(small_semantic, (0, 0, 0)), small_semantic.data)
        with gzip.open(kept, "rb") as f:
            blob = f.read()
        write_nifti(small_semantic, tmp_path / "level1.nii.gz")
        with gzip.open(tmp_path / "level1.nii.gz", "rb") as f:
            assert blob == f.read()
        # stored, not deflated: this mostly-empty patch would shrink to a few percent
        assert kept.stat().st_size >= len(blob)

    def test_failure_reads_only_the_end_of_a_huge_log(self, tmp_path, small_semantic):
        pred = script_predictor(tmp_path, FLOODING_SCRIPT)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with pytest.raises(PredictorError, match="status 3") as err:
                pred.predict(small_semantic, (0, 0, 0))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert str(err.value).endswith("x" * 1000 + "the true tail")
        assert peak < 2**20, peak

    def test_instance_labels_validated(self, tmp_path, small_semantic):
        script = write_script(
            tmp_path,
            "badlabels.py",
            """
            import sys
            import numpy as np
            from spineseg.nifti import read_nifti, write_nifti
            vol = read_nifti(sys.argv[1])
            write_nifti(vol.with_data(np.full(vol.dims, 7, dtype=np.uint16)), sys.argv[2])
            """,
        )
        pred = ExternalInstancePredictor(f"python3 {script} {{input}} {{output}}", exchange_dir=tmp_path)
        with pytest.raises(PredictorError, match="\\{0, 1, 2, 3\\}"):
            assemble(small_semantic, pred, cutout_size=small_semantic.dims)


class TestRunPipeline:
    def test_zero_noise_end_to_end(self, standard_phantom):
        img, sem, inst = standard_phantom
        sem_out, inst_out, report = run_pipeline(
            img,
            OracleSemanticPredictor(sem),
            OracleInstancePredictor(inst, sem),
        )
        assert np.array_equal(sem_out.data, sem.data)
        assert np.array_equal(inst_out.data, inst.data)
        assert report.warnings == []
        assert report.n_patches == 2
        assert report.consistency["holes_filled"] == 0
        assert report.consistency["zeroed"] == 0
        assert set(report.timings_s) == {"prepare", "semantic", "instance", "consistency"}
        assert foreground_equal(sem_out, inst_out)

    def test_same_outputs_at_one_and_two_cpus(self, at_cpus):
        img, sem, inst = generate_phantom(PhantomSpec(n_vertebrae=5, dims=(128, 208, 32), seed=5))
        noise = NoiseSpec(seed=1)
        cfg = PipelineConfig(cutout_size=(128, 304, 32))

        def run():
            return run_pipeline(img, OracleSemanticPredictor(sem, noise), OracleInstancePredictor(inst, sem, noise), cfg)

        spied = [(assembly, "connected_components"), (postproc, "_fill_label_holes")]
        (one, worker_at_one), (two, worker_at_two) = (at_cpus(n, run, spied) for n in (1, 2))
        assert not worker_at_one and worker_at_two
        for a, b in zip(one[:2], two[:2]):
            assert a.data.dtype == b.data.dtype and np.array_equal(a.data, b.data)
        reports = [{**r.to_dict(), "timings_s": None} for r in (one[2], two[2])]
        assert reports[0] == reports[1] and reports[0]["consistency"]["orphans_assigned"]

    def test_non_canonical_input_is_reoriented(self, standard_phantom):
        img, sem, inst = standard_phantom
        rotated = reorient(img, ("R", "A", "S"))
        sem_out, inst_out, report = run_pipeline(
            rotated,
            OracleSemanticPredictor(sem),
            OracleInstancePredictor(inst, sem),
        )
        assert sem_out.orientation == ("P", "I", "R")
        assert np.array_equal(sem_out.data, sem.data)
        assert np.array_equal(inst_out.data, inst.data)

    def test_predictors_cannot_edit_the_input(self):
        # canonical and at target spacing: prepare hands the caller's array on
        truth = growing_corpora()
        img = Volume(truth.data.astype(np.float32), pipeline.DEFAULT_SPACING, ("P", "I", "R"))
        before = img.data.copy()

        class Truth:
            def predict(self, patch, origin):
                return truth.data[tuple(slice(o, o + n) for o, n in zip(origin, patch.dims))]

        cfg = PipelineConfig(tiling=TilingSpec(patch_size=img.dims), cutout_size=(16, 16, 8))
        want = run_pipeline(img, Truth(), CenterCorpus(), cfg)
        got = run_pipeline(img, Scribbler(Truth()), Scribbler(CenterCorpus()), cfg)
        assert np.array_equal(img.data, before)
        for a, b in zip(want[:2], got[:2]):
            assert np.array_equal(a.data, b.data)
        assert len(want[2].assembly["cutouts"]) == 4

    def test_integer_stored_image_is_resampled_as_an_image(self, tmp_path):
        # MRI files often store integers, which read_nifti takes for labels;
        # the same values stored as float32 must give the same patches
        data = np.zeros((12, 32, 5))
        for y in (4, 12, 20, 28):
            data[3:9, y - 2 : y + 2, 1:4] = 200
        runs = []
        for dtype in (np.uint16, np.float32):
            path = tmp_path / f"{np.dtype(dtype).name}.nii.gz"
            # write_nifti stores label volumes as uint16 and images as float32
            kind = "semantic" if dtype == np.uint16 else "intensity"
            write_nifti(Volume(data.astype(dtype), (1.5, 1.5, 3.3), ("P", "I", "R"), kind), path)
            labeler = Thresholder()
            cfg = PipelineConfig(cutout_size=(24, 16, 10))
            sem, inst, _ = run_pipeline(read_nifti(path), labeler, CenterCorpus(), cfg)
            runs.append((labeler.patches, sem.data, inst.data))
        assert read_nifti(tmp_path / "uint16.nii.gz").kind == "semantic"
        (stored_int, *masks_int), (stored_float, *masks_float) = runs
        assert len(stored_int) == len(stored_float) == 1
        for (kind_i, patch_i), (kind_f, patch_f) in zip(stored_int, stored_float):
            assert kind_i == kind_f == "intensity"
            assert patch_i.dtype == patch_f.dtype == np.float32 and np.array_equal(patch_i, patch_f)
            assert (patch_f % 1 != 0).any()  # interpolated, not nearest
        for a, b in zip(masks_int, masks_float):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert set(np.unique(masks_float[1])) == {0, 1, 2, 3, 4}

    def test_empty_input_gives_empty_masks_and_warning(self, standard_phantom):
        img, sem, _ = standard_phantom
        blank = sem.with_data(np.zeros_like(sem.data))
        empty_img = img.with_data(np.zeros_like(img.data))
        sem_out, inst_out, report = run_pipeline(
            empty_img,
            OracleSemanticPredictor(blank),
            OracleInstancePredictor(blank.with_data(np.zeros_like(blank.data), kind="instance"), blank),
        )
        assert not sem_out.data.any()
        assert not inst_out.data.any()
        assert any("no corpus" in w for w in report.warnings)

    def test_run_report_serializes(self, standard_phantom):
        img, sem, inst = standard_phantom
        _, _, report = run_pipeline(
            img, OracleSemanticPredictor(sem), OracleInstancePredictor(inst, sem)
        )
        d = report.to_dict()
        assert d["processing_dims"] == [256, 384, 64]
        assert d["assembly"]["groups"]
        json.dumps(d)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("cutout_size", (10, 10), "cutout_size must be 3 whole numbers"),
            ("cutout_size", (0, 10, 10), "cutout_size must be 3 whole numbers"),
            ("cutout_size", (-4, 10, 10), "cutout_size must be 3 whole numbers"),
            ("cutout_size", (128, 10.5, 32), "cutout_size must be 3 whole numbers"),
            ("target_spacing", (0, 1, 1), "target_spacing must be 3 finite positive reals"),
            ("target_spacing", (float("nan"), 1, 1), "target_spacing must be 3 finite positive reals"),
            ("min_volume_fraction", float("nan"), "min_volume_fraction must be finite and >= 0"),
            ("min_volume_fraction", float("inf"), "min_volume_fraction must be finite and >= 0"),
            ("min_volume_fraction", -0.1, "min_volume_fraction must be finite and >= 0"),
        ],
        ids=[
            "cutout-2d", "cutout-zero", "cutout-negative", "cutout-fraction", "spacing-zero",
            "spacing-nan", "fraction-nan", "fraction-inf", "fraction-negative",
        ],
    )
    def test_config_is_checked_when_built(self, field, value, match):
        # these used to surface only inside assemble, after a full semantic phase
        with pytest.raises(ValueError, match=match):
            PipelineConfig(**{field: value})

    def test_config_keeps_valid_values(self):
        cfg = PipelineConfig(target_spacing=[1, 2, 3], min_volume_fraction=0, cutout_size=[16, 16, 8])
        assert cfg.target_spacing == (1.0, 2.0, 3.0) and cfg.cutout_size == (16, 16, 8)
        assert PipelineConfig(target_spacing=None).target_spacing is None

    def test_config_serializes_flat_in_fixed_order(self):
        assert json.dumps(PipelineConfig().to_dict()) == (
            '{"target_spacing": [0.75, 0.75, 1.65], "patch_size": [256, 256, 64], '
            '"overlap": 0.5, "blend": "gaussian", "min_volume_fraction": 0.1, '
            '"cutout_size": [248, 304, 64]}'
        )
        assert PipelineConfig(target_spacing=None).to_dict()["target_spacing"] is None
