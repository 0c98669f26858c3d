"""Command line behavior: exit codes, produced files, reproducibility."""

import json
import os
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import spineseg
from spineseg import cli
from conftest import corrupt_gzip, two_pass_order_sensitive
from test_pipeline import alive, write_script
from spineseg.cli import main
from spineseg.labels import Structure
from spineseg.nifti import read_nifti, write_nifti
from spineseg.phantom import NoiseSpec, PhantomSpec
from spineseg.pipeline import PipelineConfig
from spineseg.volume import Volume


def run_cli(*args):
    """Invoke main() and normalize argparse's SystemExit to an exit code."""
    try:
        return main([str(a) for a in args])
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2


PHANTOM_ARGS = ("--vertebrae", 4, "--seed", 5, "--dims", "160,192,32")


@pytest.fixture(scope="module")
def phantom_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "ph"
    assert run_cli("phantom", "--out-dir", out, *PHANTOM_ARGS) == 0
    return out


class TestParsing:
    def test_version_exits_zero(self, capsys):
        assert run_cli("--version") == 0
        assert "spineseg" in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self):
        assert run_cli() == 2

    def test_unknown_subcommand_is_usage_error(self):
        assert run_cli("frobnicate") == 2


class TestPhantom:
    def test_writes_all_artifacts(self, phantom_dir):
        names = {p.name for p in phantom_dir.iterdir()}
        assert names == {
            "intensity.nii.gz",
            "semantic.nii.gz",
            "instance.nii.gz",
            "labels.json",
            "run.json",
        }

    def test_run_json_records_resolved_spec(self, phantom_dir):
        run = json.loads((phantom_dir / "run.json").read_text())
        assert run["command"] == "phantom"
        assert run["seed"] == 5
        spec = PhantomSpec(**{
            k: tuple(v) if isinstance(v, list) else v for k, v in run["config"].items()
        })
        assert spec.n_vertebrae == 4 and spec.dims == (160, 192, 32)

    def test_labels_json_covers_taxonomy(self, phantom_dir):
        entries = json.loads((phantom_dir / "labels.json").read_text())
        by_code = {e["code"]: e for e in entries}
        assert by_code[1]["name"] == "corpus"
        assert by_code[13]["name"] == "spinal_cord"

    def test_rerun_is_byte_identical(self, phantom_dir, tmp_path):
        again = tmp_path / "again"
        assert run_cli("phantom", "--out-dir", again, *PHANTOM_ARGS) == 0
        for name in ("intensity.nii.gz", "semantic.nii.gz", "instance.nii.gz"):
            assert (again / name).read_bytes() == (phantom_dir / name).read_bytes()

    def test_generated_seed_is_recorded(self, tmp_path):
        assert run_cli("phantom", "--out-dir", tmp_path / "p", "--vertebrae", 3,
                       "--dims", "160,192,32") == 0
        run = json.loads((tmp_path / "p" / "run.json").read_text())
        assert isinstance(run["seed"], int)
        assert run["config"]["seed"] == run["seed"]

    def test_fused_pair_collapses_one_instance(self, tmp_path):
        out = tmp_path / "f"
        assert run_cli("phantom", "--out-dir", out, "--vertebrae", 4, "--seed", 1,
                       "--fuse", "2,3", "--dims", "160,192,32") == 0
        inst = read_nifti(out / "instance.nii.gz").data
        vert_ids = np.unique(inst[(inst >= 1) & (inst < 100)])
        assert len(vert_ids) == 3

    def test_invalid_count_is_usage_error(self, tmp_path):
        assert run_cli("phantom", "--out-dir", tmp_path / "x", "--vertebrae", 1) == 2

    def test_bad_dims_is_usage_error(self, tmp_path):
        assert run_cli("phantom", "--out-dir", tmp_path / "x", "--dims", "1,2") == 2

    def test_column_taller_than_volume_is_usage_error(self, tmp_path):
        assert run_cli("phantom", "--out-dir", tmp_path / "x", "--vertebrae", 13) == 2

    def test_spec_file_round_trip(self, phantom_dir, tmp_path):
        spec = PhantomSpec(n_vertebrae=4, seed=5, dims=(160, 192, 32))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        out = tmp_path / "from_spec"
        assert run_cli("phantom", "--out-dir", out, "--spec", spec_path) == 0
        assert (out / "instance.nii.gz").read_bytes() == (
            phantom_dir / "instance.nii.gz"
        ).read_bytes()

    def test_missing_spec_file_is_usage_error(self, tmp_path):
        assert run_cli("phantom", "--out-dir", tmp_path / "x",
                       "--spec", tmp_path / "nope.json") == 2

    def test_invalid_spec_file_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n_vertebrae": 99}))
        assert run_cli("phantom", "--out-dir", tmp_path / "x", "--spec", bad) == 2

    @pytest.mark.parametrize(
        "source, seed, message",
        [("flag", -3, "invalid phantom parameters"), ("spec", 2.5, "invalid phantom spec")],
        ids=["flag", "spec"],
    )
    def test_bad_seed_is_usage_error(self, tmp_path, capsys, source, seed, message):
        args = ("--seed", seed)
        if source == "spec":
            args = ("--spec", tmp_path / "spec.json")
            args[1].write_text(json.dumps({"n_vertebrae": 4, "seed": seed}))
        assert run_cli("phantom", "--out-dir", tmp_path / "x", *args) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "source, key, value, message",
        [
            ("spec", "dims", [256.5, 384, 64], "invalid phantom spec: dims must be 3 whole numbers"),
            ("spec", "dims", [256, 384], "invalid phantom spec: dims must be 3 whole numbers"),
            ("spec", "spacing", [0.75, "x", 1.65], "invalid phantom spec: spacing must be 3 finite positive"),
            ("spec", "spacing", [-0.75, 0.75, 1.65], "invalid phantom spec: spacing must be 3 finite positive"),
            ("spec", "n_vertebrae", 7.5, "invalid phantom spec: n_vertebrae must be a whole number"),
            ("flag", "--spacing", "-0.75,0.75,1.65", "invalid phantom parameters: spacing must be 3 finite"),
            # this one wrote a phantom without discs or endplates, exit 0
            ("spec", "disc_thickness", float("nan"), "invalid phantom spec: disc_thickness must be a finite positive"),
            # these two said "'NoneType' object is not iterable" and "'int' object is not iterable"
            ("spec", "fuse_pairs", None, "invalid phantom spec: fuse_pairs must be a list of [k, k+1] pairs, got None"),
            ("spec", "fuse_pairs", 5, "invalid phantom spec: fuse_pairs must be a list of [k, k+1] pairs, got 5"),
        ],
        ids=[
            "fractional-dims", "two-dims", "text-spacing", "negative-spacing", "fractional-count", "negative-flag",
            "nan-disc", "null-fuse-pairs", "number-fuse-pairs",
        ],
    )
    def test_bad_grid_or_count_is_usage_error(self, tmp_path, capsys, source, key, value, message):
        args = (f"{key}={value}",)  # one token: argparse would read "-0.75,..." as a flag
        if source == "spec":
            args = ("--spec", tmp_path / "spec.json")
            args[1].write_text(json.dumps({key: value}))
        assert run_cli("phantom", "--out-dir", tmp_path / "x", *args) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


def split_sources(gt: Volume):
    """Carve a ground-truth semantic mask into the three annotation sources."""
    base = gt.data.copy()
    base[~np.isin(base, (1, 11, 12, 14))] = 0
    base[gt.data == Structure.SPINAL_CORD] = Structure.SPINAL_CANAL
    sub = np.where(np.isin(gt.data, range(2, 10)), gt.data, 0).astype(np.uint16)
    cord = (gt.data == Structure.SPINAL_CORD).astype(np.uint16)
    return (
        gt.with_data(base, kind="semantic"),
        gt.with_data(sub, kind="semantic"),
        gt.with_data(cord, kind="semantic"),
    )


class TestFuse:
    @pytest.fixture()
    def source_paths(self, phantom_dir, tmp_path):
        gt = read_nifti(phantom_dir / "semantic.nii.gz")
        paths = []
        for name, vol in zip(("base", "sub", "cord"), split_sources(gt)):
            p = tmp_path / f"{name}.nii.gz"
            write_nifti(vol, p)
            paths.append(p)
        return paths

    def test_reassembles_split_annotation(self, phantom_dir, tmp_path, source_paths):
        out = tmp_path / "fused" / "mask.nii.gz"
        assert run_cli("fuse", "--base", source_paths[0], "--substructures",
                       source_paths[1], "--cord", source_paths[2], "--out", out) == 0
        gt = read_nifti(phantom_dir / "semantic.nii.gz").data
        fused = read_nifti(out).data
        keep = gt != Structure.ENDPLATE
        assert (fused[keep] == gt[keep]).all()

        summary = json.loads((tmp_path / "fused" / "fuse_summary.json").read_text())
        assert summary["canal_overwritten_by_cord"] == int((gt == 13).sum())
        assert summary["substructure_voxels_suppressed"] == 0
        assert summary["label_voxels"]["corpus"] == int((gt == 1).sum())
        sources = [read_nifti(p) for p in source_paths]
        assert summary["order_sensitive_voxels"] == two_pass_order_sensitive(*sources)
        assert (tmp_path / "fused" / "run.json").exists()

    def test_synthesized_endplates_counted(self, tmp_path):
        # corpus slab over disc slab with a one-voxel gap sheet between them;
        # cord laid on the sheet keeps endplate out of those voxels, which
        # are order-sensitive: synthesis before the cord would have taken them
        base = np.zeros((8, 9, 8), dtype=np.uint16)
        base[1:7, 1:4, 1:7] = Structure.CORPUS
        base[1:7, 5:8, 1:7] = Structure.IVD
        empty = np.zeros_like(base)
        vol = Volume(base, (1.0, 1.0, 1.0), ("P", "I", "R"), "semantic")
        for cord_voxels in (0, 4):
            cord = np.zeros_like(base)
            cord[3:5, 4, 3 : 3 + cord_voxels // 2] = 1
            case = tmp_path / f"cord{cord_voxels}"
            case.mkdir()
            for name, arr in (("base", base), ("sub", empty), ("cord", cord)):
                write_nifti(vol.with_data(arr, kind="semantic"), case / f"{name}.nii.gz")
            out = case / "mask.nii.gz"
            assert run_cli("fuse", "--base", case / "base.nii.gz",
                           "--substructures", case / "sub.nii.gz",
                           "--cord", case / "cord.nii.gz", "--out", out) == 0
            sheet = read_nifti(out).data[1:7, 4, 1:7]
            assert (sheet[cord[1:7, 4, 1:7] > 0] == Structure.SPINAL_CORD).all()
            assert (sheet[cord[1:7, 4, 1:7] == 0] == Structure.ENDPLATE).all()
            labels = {"corpus": 108, "ivd": 108, "endplate": 36 - cord_voxels}
            if cord_voxels:
                labels["spinal_cord"] = cord_voxels
            sources = [read_nifti(case / f"{name}.nii.gz") for name in ("base", "sub", "cord")]
            assert two_pass_order_sensitive(*sources) == cord_voxels
            assert json.loads((case / "fuse_summary.json").read_text()) == {
                "label_voxels": labels,
                "canal_overwritten_by_cord": 0,
                "substructure_voxels_suppressed": 0,
                "endplate_voxels_synthesized": 36 - cord_voxels,
                "order_sensitive_voxels": cord_voxels,
            }

    def test_missing_source_is_usage_error(self, tmp_path, source_paths):
        assert run_cli("fuse", "--base", tmp_path / "absent.nii.gz",
                       "--substructures", source_paths[1], "--cord", source_paths[2],
                       "--out", tmp_path / "o.nii.gz") == 2

    def test_mismatched_grids_fail(self, tmp_path, source_paths):
        small = Volume(np.zeros((4, 4, 4), dtype=np.uint16), (1, 1, 1),
                       ("P", "I", "R"), "semantic")
        write_nifti(small, tmp_path / "small.nii.gz")
        assert run_cli("fuse", "--base", source_paths[0],
                       "--substructures", tmp_path / "small.nii.gz",
                       "--cord", source_paths[2], "--out", tmp_path / "o.nii.gz") == 1

    @pytest.mark.parametrize("index, name", [(0, "base"), (1, "substructure")])
    def test_label_outside_the_taxonomy_leaves_no_output(self, tmp_path, source_paths, capsys, index, name):
        paths = list(source_paths)
        vol = read_nifti(paths[index])
        data = vol.data.copy()
        data[0, 0, 0] = 20
        paths[index] = tmp_path / "bad.nii.gz"
        write_nifti(vol.with_data(data), paths[index])
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert run_cli("fuse", "--base", paths[0], "--substructures", paths[1],
                       "--cord", paths[2], "--out", out_dir / "f.nii.gz") == 1
        assert list(out_dir.iterdir()) == []
        assert f"{name} annotation: labels must be whole numbers in 0..14; found 0..20" in capsys.readouterr().err


class TestSegment:
    def test_oracle_run_reproduces_ground_truth(self, phantom_dir, tmp_path, capsys):
        out = tmp_path / "seg"
        code = run_cli(
            "segment", "--input", phantom_dir / "intensity.nii.gz",
            "--semantic", f"oracle:{phantom_dir / 'semantic.nii.gz'}",
            "--instance", f"oracle:{phantom_dir / 'instance.nii.gz'}",
            "--out-dir", out, "--spacing", "keep",
        )
        assert code == 0
        for name in ("semantic", "instance"):
            got = read_nifti(out / f"{name}.nii.gz").data
            want = read_nifti(phantom_dir / f"{name}.nii.gz").data
            assert (got == want).all()
        run = json.loads((out / "run.json").read_text())
        assert run["command"] == "segment"
        report = run["report"]
        assert set(report["timings_s"]) == {"prepare", "semantic", "instance", "consistency"}
        assert report["processing_dims"] == [160, 192, 32]
        assert len(report["assembly"]["groups"]) == 4
        assert run_cli("report", out / "run.json") == 0
        assert "assembly: 0 conflict voxels; vertebrae on union fallback: none\n" in capsys.readouterr().out

    def test_default_flags_record_the_default_config(self, phantom_dir, tmp_path):
        out = tmp_path / "seg"
        inputs = {
            "input": str(phantom_dir / "intensity.nii.gz"),
            "semantic": f"oracle:{phantom_dir / 'semantic.nii.gz'}",
            "instance": f"oracle:{phantom_dir / 'instance.nii.gz'}",
        }
        args = [f"--{k}={v}" for k, v in inputs.items()]
        assert run_cli("segment", *args, "--out-dir", out) == 0
        config = json.loads((out / "run.json").read_text())["config"]
        assert config == {**inputs, **json.loads(json.dumps(PipelineConfig().to_dict()))}

    def test_noise_spec_attaches_to_oracle(self, phantom_dir, tmp_path):
        noise = tmp_path / "noise.json"
        noise.write_text(NoiseSpec(p_erosion=0.0, p_labeldrop=0.0, p_downup=0.0,
                                   seed=3).to_json())
        out = tmp_path / "seg"
        code = run_cli(
            "segment", "--input", phantom_dir / "intensity.nii.gz",
            "--semantic", f"oracle:{phantom_dir / 'semantic.nii.gz'},{noise}",
            "--instance", f"oracle:{phantom_dir / 'instance.nii.gz'}",
            "--out-dir", out, "--spacing", "keep",
        )
        assert code == 0

    def test_failed_write_leaves_the_previous_run(self, phantom_dir, tmp_path, monkeypatch, capsys):
        out = tmp_path / "seg"
        common = ("--input", phantom_dir / "intensity.nii.gz",
                  "--instance", f"oracle:{phantom_dir / 'instance.nii.gz'}",
                  "--out-dir", out, "--spacing", "keep")
        assert run_cli("segment", "--semantic", f"oracle:{phantom_dir / 'semantic.nii.gz'}", *common) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        noise = tmp_path / "noise.json"
        noise.write_text(NoiseSpec().to_json())
        real_write = cli.write_nifti

        def write_nifti_without_room(vol, path, **kwargs):
            if Path(path).name == "instance.nii.gz":
                raise OSError(28, "No space left on device")
            real_write(vol, path, **kwargs)

        monkeypatch.setattr(cli, "write_nifti", write_nifti_without_room)
        noisy = f"oracle:{phantom_dir / 'semantic.nii.gz'},{noise}"
        assert run_cli("segment", "--semantic", noisy, *common) == 1
        assert "could not write" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["instance.nii.gz", "run.json", "semantic.nii.gz"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failing_external_predictor_exits_one(self, phantom_dir, tmp_path):
        code = run_cli(
            "segment", "--input", phantom_dir / "intensity.nii.gz",
            "--semantic", "exec:false",
            "--instance", f"oracle:{phantom_dir / 'instance.nii.gz'}",
            "--out-dir", tmp_path / "seg", "--spacing", "keep",
        )
        assert code == 1
        assert not (tmp_path / "seg").exists()

    def test_external_run_leaves_only_its_outputs(self, phantom_dir, tmp_path):
        # one patch covers the grid, and the model answers it with the ground truth
        model = write_script(tmp_path, "model.py", "import shutil\nshutil.copy(sys.argv[3], sys.argv[2])\n")
        out = tmp_path / "seg"
        code = run_cli(
            "segment", "--input", phantom_dir / "intensity.nii.gz",
            "--semantic", f"exec:{sys.executable} {model} {{input}} {{output}} {phantom_dir / 'semantic.nii.gz'}",
            "--instance", f"oracle:{phantom_dir / 'instance.nii.gz'}",
            "--out-dir", out, "--spacing", "keep", "--patch", "160,192,32",
        )
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["instance.nii.gz", "run.json", "semantic.nii.gz"]

    def test_int16_image_with_a_negative_background(self, tmp_path):
        # MRI files often store int16, which read_nifti takes for labels; the
        # model must still get an image, negative voxels included
        data = np.full((16, 48, 8), -145, dtype=np.int16)
        for y in (8, 24, 40):
            data[4:12, y - 3 : y + 3, 2:6] = 724
        image = tmp_path / "image.nii"
        # write_nifti stores labels as uint16; the header then says int16
        write_nifti(Volume(data.view(np.uint16), kind="semantic"), image)
        raw = bytearray(image.read_bytes())
        struct.pack_into("<h", raw, 70, 4)  # datatype code 4: int16
        image.write_bytes(bytes(raw))
        assert read_nifti(image).data.min() == -145
        truth = np.zeros(data.shape, dtype=np.uint16)
        for k, y in enumerate((8, 24, 40), start=1):
            truth[4:12, y - 3 : y + 3, 2:6] = k
        write_nifti(Volume(truth, kind="instance"), tmp_path / "truth.nii.gz")
        # the model labels as corpus what is brighter than 0
        model = write_script(tmp_path, "model.py", """
            import numpy as np
            from spineseg.nifti import read_nifti, write_nifti
            vol = read_nifti(sys.argv[1])
            write_nifti(vol.with_data((vol.data > 0).astype(np.uint16), kind="semantic"), sys.argv[2])
            """)
        out = tmp_path / "seg"
        code = run_cli(
            "segment", "--input", image,
            "--semantic", f"exec:{sys.executable} {model} {{input}} {{output}}",
            "--instance", f"oracle:{tmp_path / 'truth.nii.gz'}",
            "--out-dir", out, "--spacing", "keep", "--patch", "16,48,8",
        )
        assert code == 0
        assert np.array_equal(read_nifti(out / "semantic.nii.gz").data, np.where(data > 0, Structure.CORPUS, 0))
        assert np.array_equal(read_nifti(out / "instance.nii.gz").data, truth)

    @pytest.mark.parametrize("role", ["semantic", "instance"])
    def test_fractional_oracle_ground_truth_fails_naming_the_file(self, phantom_dir, tmp_path, capsys, role):
        truth = read_nifti(phantom_dir / f"{role}.nii.gz")
        bad = tmp_path / "half.nii.gz"
        write_nifti(truth.with_data(truth.data.astype(np.float32) + 0.5, kind="intensity"), bad)
        oracles = {r: f"oracle:{phantom_dir / f'{r}.nii.gz'}" for r in ("semantic", "instance")}
        oracles[role] = f"oracle:{bad}"
        code = run_cli(
            "segment", "--input", phantom_dir / "intensity.nii.gz",
            "--semantic", oracles["semantic"], "--instance", oracles["instance"],
            "--out-dir", tmp_path / "seg",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"invalid {role} oracle ground truth {bad}: labels must be whole numbers" in err
        assert not (tmp_path / "seg").exists()

    def test_unknown_scheme_is_usage_error(self, phantom_dir, tmp_path):
        code = run_cli(
            "segment", "--input", phantom_dir / "intensity.nii.gz",
            "--semantic", "model:weights.pt",
            "--instance", f"oracle:{phantom_dir / 'instance.nii.gz'}",
            "--out-dir", tmp_path / "seg",
        )
        assert code == 2

    def test_missing_input_is_usage_error(self, phantom_dir, tmp_path):
        code = run_cli(
            "segment", "--input", tmp_path / "absent.nii.gz",
            "--semantic", f"oracle:{phantom_dir / 'semantic.nii.gz'}",
            "--instance", f"oracle:{phantom_dir / 'instance.nii.gz'}",
            "--out-dir", tmp_path / "seg",
        )
        assert code == 2

    @pytest.mark.parametrize("spacing", ["nan,1,1", "inf,1,1", "0,1,1"])
    def test_bad_spacing_is_usage_error(self, phantom_dir, tmp_path, spacing):
        code = run_cli(
            "segment", "--input", phantom_dir / "intensity.nii.gz",
            "--semantic", f"oracle:{phantom_dir / 'semantic.nii.gz'}",
            "--instance", f"oracle:{phantom_dir / 'instance.nii.gz'}",
            "--out-dir", tmp_path / "seg", "--spacing", spacing,
        )
        assert code == 2

    @pytest.mark.parametrize("timeout", ["nan", "0", "-1", "inf"])
    def test_bad_external_timeout_is_usage_error(self, phantom_dir, tmp_path, timeout, capsys):
        code = run_cli(
            "segment", "--input", phantom_dir / "intensity.nii.gz",
            "--semantic", "exec:true",
            "--instance", f"oracle:{phantom_dir / 'instance.nii.gz'}",
            "--out-dir", tmp_path / "seg", "--timeout", timeout,
        )
        assert code == 2
        assert "timeout must be a finite positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("seed", -1), ("seed", 2.5), ("boundary_jitter_mm", float("nan"))],
        ids=["seed--1", "seed-2.5", "jitter-nan"],  # NaN jitter used to turn jitter off unseen
    )
    def test_bad_noise_spec_is_usage_error(self, phantom_dir, tmp_path, capsys, field, value):
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps({field: value}))
        code = run_cli(
            "segment", "--input", phantom_dir / "intensity.nii.gz",
            "--semantic", f"oracle:{phantom_dir / 'semantic.nii.gz'},{noise}",
            "--instance", f"oracle:{phantom_dir / 'instance.nii.gz'}",
            "--out-dir", tmp_path / "seg",
        )
        assert code == 2
        assert f"invalid noise spec {noise}: {field} must be" in capsys.readouterr().err

    def test_bad_overlap_is_usage_error(self, phantom_dir, tmp_path):
        code = run_cli(
            "segment", "--input", phantom_dir / "intensity.nii.gz",
            "--semantic", f"oracle:{phantom_dir / 'semantic.nii.gz'}",
            "--instance", f"oracle:{phantom_dir / 'instance.nii.gz'}",
            "--out-dir", tmp_path / "seg", "--overlap", "1.5",
        )
        assert code == 2


class TestEvaluate:
    def test_self_comparison_is_perfect(self, phantom_dir, tmp_path, capsys):
        sem = phantom_dir / "semantic.nii.gz"
        inst = phantom_dir / "instance.nii.gz"
        json_path = tmp_path / "eval.json"
        csv_path = tmp_path / "eval.csv"
        code = run_cli("evaluate", "--pred", sem, "--ref", sem,
                       "--pred-instance", inst, "--ref-instance", inst,
                       "--json", json_path, "--csv", csv_path)
        assert code == 0
        result = json.loads(json_path.read_text())
        for entry in result["semantic"].values():
            if entry["DSC"] is not None:
                assert entry["DSC"] == 1.0
        vert = result["instances"]["vertebra"]
        assert vert["PQ"] == 1.0 and vert["TP"] == 4 and vert["FP"] == 0

        lines = csv_path.read_text().splitlines()
        assert lines[0] == "scope,DSC,RQ,SQ,PQ,ASSD"
        assert any(line.startswith("instance/vertebra,1.000000") for line in lines)

    def test_semantic_only(self, phantom_dir, tmp_path):
        sem = phantom_dir / "semantic.nii.gz"
        json_path = tmp_path / "eval.json"
        assert run_cli("evaluate", "--pred", sem, "--ref", sem, "--json", json_path) == 0
        assert "instances" not in json.loads(json_path.read_text())

    def test_one_sided_instance_args_is_usage_error(self, phantom_dir, tmp_path):
        sem = phantom_dir / "semantic.nii.gz"
        code = run_cli("evaluate", "--pred", sem, "--ref", sem,
                       "--pred-instance", phantom_dir / "instance.nii.gz",
                       "--json", tmp_path / "e.json")
        assert code == 2

    def test_grid_mismatch_leaves_no_partial_output(self, phantom_dir, tmp_path):
        small = Volume(np.zeros((4, 4, 4), dtype=np.uint16), (1, 1, 1),
                       ("P", "I", "R"), "semantic")
        write_nifti(small, tmp_path / "small.nii.gz")
        json_path = tmp_path / "eval.json"
        code = run_cli("evaluate", "--pred", phantom_dir / "semantic.nii.gz",
                       "--ref", tmp_path / "small.nii.gz", "--json", json_path)
        assert code == 1
        assert not json_path.exists()

    def test_label_outside_the_stored_range_exits_one(self, tmp_path):
        data = np.zeros((4, 4, 4), dtype=np.uint16)
        data[0, 0, 0] = 65535  # reads back as -1 once the header says int16
        path = tmp_path / "negative.nii"
        write_nifti(Volume(data, kind="semantic"), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<h", raw, 70, 4)  # datatype code 4: int16
        path.write_bytes(bytes(raw))
        assert read_nifti(path).data.min() == -1
        json_path = tmp_path / "eval.json"
        assert run_cli("evaluate", "--pred", path, "--ref", path, "--json", json_path) == 1
        assert not json_path.exists()


    @pytest.mark.parametrize("how", ["cut", "method", "deflate", "crc", "stored", "tail"])
    def test_corrupt_gzip_input_exits_one(self, phantom_dir, tmp_path, capsys, how):
        raw = tmp_path / "sem.nii"
        write_nifti(read_nifti(phantom_dir / "semantic.nii.gz"), raw)
        broken = tmp_path / "sem.nii.gz"
        broken.write_bytes(corrupt_gzip(raw.read_bytes(), how))
        json_path = tmp_path / "eval.json"
        assert run_cli("evaluate", "--pred", broken, "--ref", raw, "--json", json_path) == 1
        assert "could not read predicted mask" in capsys.readouterr().err
        assert not json_path.exists()


# Notes its pid in <pid dir>/<pid>, then sleeps past any test's patience.
SLEEPING_MODEL = """
import os, sys, time
open(os.path.join(sys.argv[3], str(os.getpid())), "w").close()
time.sleep(120)
"""


class TestTermination:
    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGHUP], ids=["TERM", "HUP"])
    def test_signal_kills_the_models_and_deletes_their_files(self, phantom_dir, tmp_path, signum):
        model = tmp_path / "model.py"
        model.write_text(SLEEPING_MODEL)
        pids = tmp_path / "pids"
        pids.mkdir()
        out = tmp_path / "seg"
        # exchange files go to the system temporary directory
        exchange = tmp_path / "tmp"
        exchange.mkdir()
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(spineseg.__file__).resolve().parents[1]),
            "TMPDIR": str(exchange),
        }
        run = subprocess.Popen(
            [
                sys.executable, "-m", "spineseg.cli", "segment",
                "--input", phantom_dir / "intensity.nii.gz",
                "--semantic", f"exec:{sys.executable} {model} {{input}} {{output}} {pids}",
                "--instance", f"oracle:{phantom_dir / 'instance.nii.gz'}",
                "--out-dir", out, "--spacing", "keep",
            ],
            env=env,
            stderr=subprocess.DEVNULL,
        )
        recorded = []
        try:
            deadline = time.monotonic() + 60
            # one CPU runs one call at a time, so one pid is all there may be
            while not recorded and run.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
                recorded = [int(p.name) for p in pids.iterdir()]
            assert recorded, "no model call started"
            assert any(p.name.startswith("in_") for p in exchange.iterdir())
            run.send_signal(signum)
            assert run.wait(timeout=60) != 0
            recorded = [int(p.name) for p in pids.iterdir()]
            assert not [pid for pid in recorded if alive(pid)]
            assert sorted(p.name for p in exchange.iterdir() if p.name.startswith(("in_", "log_"))) == []
            assert not out.exists()
        finally:
            run.kill()
            run.wait()
            for pid in recorded:
                if alive(pid):
                    os.kill(pid, signal.SIGKILL)


class TestReport:
    def test_run_json_summary(self, phantom_dir, capsys):
        assert run_cli("report", phantom_dir / "run.json") == 0
        out = capsys.readouterr().out
        assert "run: phantom" in out
        assert "n_vertebrae: 4" in out

    def test_evaluation_summary(self, phantom_dir, tmp_path, capsys):
        sem = phantom_dir / "semantic.nii.gz"
        inst = phantom_dir / "instance.nii.gz"
        json_path = tmp_path / "eval.json"
        run_cli("evaluate", "--pred", sem, "--ref", sem, "--pred-instance", inst, "--ref-instance", inst,
                "--json", json_path)
        capsys.readouterr()
        assert run_cli("report", json_path) == 0
        out = capsys.readouterr().out
        assert "semantic metrics" in out
        assert "corpus: DSC 1.0000" in out
        # the paper's headline figure is the instance-wise vertebra Dice
        assert "vertebra: DSC 1.0000, instance DSC 1.0000, RQ 1.0000, SQ 1.0000, PQ 1.0000, ASSD 0.0000 mm, " in out

    def test_instance_line_shows_missing_figures_as_na(self, tmp_path, capsys):
        entry = dict(DSC=0.0, instance_DSC=None, RQ=0.0, SQ=0.0, PQ=0.0, ASSD=None, TP=0, FP=1, FN=1)
        json_path = tmp_path / "eval.json"
        json_path.write_text(json.dumps({"instances": {"vertebra": entry}}))
        assert run_cli("report", json_path) == 0
        assert "vertebra: DSC 0.0000, instance DSC n/a, RQ 0.0000, SQ 0.0000, PQ 0.0000, ASSD n/a, TP 0" in (
            capsys.readouterr().out
        )

    def test_assembly_decisions(self, tmp_path, capsys):
        flags = [{"kind": "no_vertebra_above", "code": int(code), "assigned_to": 1}
                 for code in (Structure.IVD, Structure.IVD, Structure.ENDPLATE)]
        flags.append({"kind": "unassigned", "reason": "no vertebra instances", "code": int(Structure.IVD)})
        assembly = dict(groups=[], conflict_voxels=12, union_fallbacks=[3, 5], assignment_flags=flags)
        report = dict(processing_dims=[8, 8, 8], processing_spacing=[1.0, 1.0, 1.0], n_patches=1, assembly=assembly)
        json_path = tmp_path / "run.json"
        json_path.write_text(json.dumps({"command": "segment", "report": report}))
        assert run_cli("report", json_path) == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("assembly: 12 conflict voxels; vertebrae on union fallback: 3, 5")
        assert lines[start + 1 : start + 4] == [
            "  no vertebra above: 1 endplate component",
            "  no vertebra above: 2 ivd components",
            "  unassigned: 1 ivd component",
        ]

    def test_cutouts_and_shared_origins(self, tmp_path, capsys):
        cutouts = [dict(index=i, center=[0.0, 0.0, 0.0], origin=origin, clamped=clamped)
                   for i, origin, clamped in [(1, [0, 0, 0], True), (2, [0, 0, 0], True), (3, [0, 8, 0], False),
                                              (4, [0, 16, 0], True), (5, [0, 16, 0], True)]]
        report = dict(processing_dims=[8, 8, 8], processing_spacing=[1.0, 1.0, 1.0], n_patches=1,
                      assembly=dict(cutouts=cutouts))
        json_path = tmp_path / "run.json"
        json_path.write_text(json.dumps({"command": "segment", "report": report}))
        assert run_cli("report", json_path) == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("cutouts: 5, 4 clamped")
        assert lines[start + 1 : start + 3] == [
            "  cutouts 1, 2 share origin [0, 0, 0]: identical windows",
            "  cutouts 4, 5 share origin [0, 16, 0]: identical windows",
        ]

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run_cli("report", tmp_path / "nope.json") == 2

    def test_non_json_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        assert run_cli("report", bad) == 2

    def test_unrecognized_payload_is_usage_error(self, tmp_path):
        weird = tmp_path / "weird.json"
        weird.write_text(json.dumps({"answer": 42}))
        assert run_cli("report", weird) == 2

    def test_json_that_is_not_an_object_is_usage_error(self, tmp_path):
        weird = tmp_path / "list.json"
        weird.write_text(json.dumps([1, 2]))
        assert run_cli("report", weird) == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"report": [1, 2]},
            {"semantic": {"corpus": 5}},
            {"report": {"n_patches": 1}},
            {"config": [1]},
        ],
    )
    def test_malformed_section_is_usage_error(self, tmp_path, capsys, payload):
        weird = tmp_path / "weird.json"
        weird.write_text(json.dumps(payload))
        assert run_cli("report", weird) == 2
        assert "unrecognized report format" in capsys.readouterr().err
