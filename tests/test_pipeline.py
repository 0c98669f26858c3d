"""Tiling, blended tiled prediction, external predictors, full runs."""

import json
import textwrap
from pathlib import Path

import numpy as np
import pytest

import spineseg
from spineseg.assembly import assemble
from spineseg.labels import Structure
from spineseg.phantom import NoiseSpec, OracleInstancePredictor, OracleSemanticPredictor
from spineseg.pipeline import (
    ExternalInstancePredictor,
    ExternalSemanticPredictor,
    PipelineConfig,
    PredictorError,
    TilingSpec,
    _axis_positions,
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

    def test_scores_predictor_and_normalization(self, standard_phantom):
        img, sem, _ = standard_phantom

        class OneHotScores:
            def predict(self, patch, origin):
                sl = tuple(slice(o, o + s) for o, s in zip(origin, patch.dims))
                window = sem.data[sl]
                return np.stack([(window == c).astype(np.float32) for c in range(15)])

        out, scores = predict_semantic(img, OneHotScores(), TilingSpec(), return_scores=True)
        assert np.array_equal(out.data, sem.data)
        assert scores.shape == (15,) + sem.dims
        assert np.allclose(scores.sum(axis=0), 1.0, atol=1e-5)

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


class TestExternalPredictors:
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

    def test_timeout_raises(self, tmp_path, small_semantic):
        script = write_script(tmp_path, "slow.py", "import time\ntime.sleep(30)\n")
        pred = ExternalSemanticPredictor(
            f"python3 {script} {{input}} {{output}}", exchange_dir=tmp_path, timeout=0.5
        )
        with pytest.raises(PredictorError, match="timed out"):
            pred.predict(small_semantic, (0, 0, 0))

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

    def test_config_serializes_flat_in_fixed_order(self):
        assert json.dumps(PipelineConfig().to_dict()) == (
            '{"target_spacing": [0.75, 0.75, 1.65], "patch_size": [256, 256, 64], '
            '"overlap": 0.5, "blend": "gaussian", "min_volume_fraction": 0.1, '
            '"cutout_size": [248, 304, 64]}'
        )
        assert PipelineConfig(target_spacing=None).to_dict()["target_spacing"] is None
