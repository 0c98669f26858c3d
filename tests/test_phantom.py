"""Synthetic spine generation and the corruption model."""

from dataclasses import replace

import numpy as np
import pytest

from spineseg.labels import Structure, is_instance_relevant
from spineseg.phantom import (
    NoiseSpec,
    _patch_seed,
    OracleInstancePredictor,
    OracleSemanticPredictor,
    PhantomSpec,
    corrupt_semantic,
    generate_phantom,
)
from spineseg.volume import Volume, binary_erosion, connected_components, fill_holes
from spineseg.assembly import Cutout, find_corpus_centers, make_cutouts, cutout_window
from conftest import bounding_box


def hole_free(mask):
    box = bounding_box(mask)
    if box is None:
        return True
    crop = mask[box]
    return bool(np.array_equal(fill_holes(crop), crop))


class TestSpecValidation:
    def test_json_round_trip(self):
        spec = PhantomSpec(n_vertebrae=5, fuse_pairs=((2, 3),), seed=11)
        assert PhantomSpec.from_json(spec.to_json()) == spec

    def test_noise_json_round_trip(self):
        noise = NoiseSpec(p_erosion=0.2, boundary_jitter_mm=1.5, seed=3)
        assert NoiseSpec.from_json(noise.to_json()) == noise

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_vertebrae=2),
            dict(n_vertebrae=25),
            dict(disc_thickness=25.0),  # >= pitch
            dict(cord_radius=8.0),  # >= canal radius
            dict(fuse_pairs=((2, 4),)),
            dict(fuse_pairs=((7, 8),)),  # out of range for 7 vertebrae
            dict(canal_radius=-1.0),
            dict(seed=-3),
            dict(seed=2.5),
            dict(dims=(256.5, 384, 64)),
            dict(dims=(256, 384)),
            dict(spacing=(0.75, "x", 1.65)),
            dict(spacing=(-0.75, 0.75, 1.65)),
            dict(n_vertebrae=7.5),
            # accepted before every field went through the number rule
            dict(disc_thickness=float("nan")),  # a phantom without discs or endplates
            dict(canal_radius=float("nan")),  # a phantom without most of its structures
            dict(fuse_pairs=((1.5, 2.5),)),  # ignored
            dict(corpus_radii=(13.0, 6.5)),  # "not enough values to unpack" in generate_phantom
            dict(process_size=(13.0, 6.0)),
            dict(include_sacrum="no"),  # a string is true
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError, match=rf"^{'|'.join(kwargs)}|^(disc thickness|cord radius)"):
            PhantomSpec(**kwargs)

    def test_fields_are_stored_as_the_rule_returns_them(self):
        spec = PhantomSpec(corpus_radii=[13, 6.5, 14], pitch=20, fuse_pairs=[[2.0, 3]], dims=[256.0, 384, 64])
        assert spec.corpus_radii == (13.0, 6.5, 14.0) and type(spec.pitch) is float
        assert spec.fuse_pairs == ((2, 3),) and spec.dims == (256, 384, 64)
        assert all(type(v) is int for v in (*spec.fuse_pairs[0], *spec.dims))
        # integer-valued reals are written back as floats, and read back equal
        assert '"pitch": 20.0' in spec.to_json() and PhantomSpec.from_json(spec.to_json()) == spec

    def test_noise_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="p_erosion"):
            NoiseSpec(p_erosion=1.5)
        with pytest.raises(ValueError, match="erosion_radius"):
            NoiseSpec(erosion_radius=-1)

    @pytest.mark.parametrize("spec", [PhantomSpec, NoiseSpec])
    def test_seed_is_a_whole_number_at_least_zero(self, spec):
        assert spec(seed=2.0).seed == 2 and type(spec(seed=np.int64(2)).seed) is int
        for bad in (-1, 2.5, float("nan"), float("inf"), "3", None):
            with pytest.raises(ValueError, match="seed must be a whole number >= 0"):
                spec(seed=bad)

    def test_too_many_vertebrae_for_volume(self):
        with pytest.raises(ValueError, match="mm of column"):
            generate_phantom(PhantomSpec(n_vertebrae=13))

    def test_twelve_vertebrae_fit(self):
        _, sem, inst = generate_phantom(PhantomSpec(n_vertebrae=12, seed=1))
        vert_ids = {int(v) for v in np.unique(inst.data) if 1 <= v < 100}
        assert vert_ids == set(range(1, 13))


class TestGeneratePhantom:
    def test_deterministic(self):
        spec = PhantomSpec(n_vertebrae=4, seed=5)
        a = generate_phantom(spec)
        b = generate_phantom(spec)
        for va, vb in zip(a, b):
            assert np.array_equal(va.data, vb.data)

    def test_volume_kinds_and_grid(self, standard_phantom):
        img, sem, inst = standard_phantom
        assert img.kind == "intensity" and sem.kind == "semantic" and inst.kind == "instance"
        assert img.same_grid(sem) and sem.same_grid(inst)
        assert sem.orientation == ("P", "I", "R")

    def test_all_structures_present(self, standard_phantom):
        _, sem, _ = standard_phantom
        present = {int(c) for c in np.unique(sem.data)}
        assert present == set(range(15))  # background plus all 14 structures

    def test_instance_id_layout(self, standard_phantom):
        _, _, inst = standard_phantom
        ids = {int(v) for v in np.unique(inst.data) if v != 0}
        assert ids == set(range(1, 8)) | set(range(101, 108)) | set(range(201, 208))

    def test_instance_semantic_foreground_agreement(self, standard_phantom):
        _, sem, inst = standard_phantom
        relevant = is_instance_relevant(sem.data)
        assert np.array_equal(relevant, inst.data > 0)

    def test_corpus_components_ordered(self, standard_phantom):
        _, sem, inst = standard_phantom
        comps = connected_components(sem.data == Structure.CORPUS)
        assert comps.count == 7
        ys = sorted(c[1] for c in comps.centroids)
        assert all(b - a > 10 for a, b in zip(ys, ys[1:]))

    def test_each_label_is_hole_free(self, standard_phantom):
        _, sem, inst = standard_phantom
        for code in np.unique(sem.data):
            if code:
                assert hole_free(sem.data == code), f"semantic code {code} has holes"
        for vid in np.unique(inst.data):
            if vid:
                assert hole_free(inst.data == vid), f"instance {vid} has holes"

    def test_fused_pair_is_one_unit(self, fused_phantom):
        _, sem, inst = fused_phantom
        comps = connected_components(sem.data == Structure.CORPUS)
        assert comps.count == 4
        vert_ids = {int(v) for v in np.unique(inst.data) if 1 <= v < 100}
        assert vert_ids == {1, 2, 3, 4}
        # no disc inside the fused unit: one less disc than with five separate bodies
        ivd_ids = {int(v) for v in np.unique(inst.data) if 100 < v < 200}
        assert ivd_ids == {101, 102, 103, 104}

    def test_two_fused_pairs_number_units_top_down(self):
        _, sem, inst = generate_phantom(PhantomSpec(n_vertebrae=6, fuse_pairs=((1, 2), (4, 5)), seed=2))
        # one spinous process per vertebra level, none touching the next
        comps = connected_components(sem.data == Structure.SPINOUS_PROCESS)
        assert comps.count == 6
        order = sorted(range(comps.count), key=lambda i: comps.centroids[i][1])
        ids = [int(np.unique(inst.data[comps.box][comps.labels == i + 1]).item()) for i in order]
        assert ids == [1, 1, 2, 3, 3, 4]

    def test_intensity_tracks_structure(self, standard_phantom):
        img, sem, _ = standard_phantom
        fg = img.data[sem.data == Structure.CORPUS].mean()
        bg = img.data[sem.data == 0].mean()
        assert fg > bg + 0.3


class TestCorruptSemantic:
    def make_volume(self, data):
        return Volume(np.asarray(data, dtype=np.uint16), (1.0, 1.0, 1.0), ("P", "I", "R"), "semantic")

    def test_zero_noise_is_identity(self, standard_phantom):
        _, sem, _ = standard_phantom
        assert corrupt_semantic(sem, NoiseSpec.none()) is sem

    def test_deterministic(self, standard_phantom):
        _, sem, _ = standard_phantom
        noise = NoiseSpec(seed=9)
        a = corrupt_semantic(sem, noise)
        b = corrupt_semantic(sem, noise)
        assert np.array_equal(a.data, b.data)

    def test_labels_subset_and_shrink_only_structures(self, standard_phantom):
        _, sem, _ = standard_phantom
        out = corrupt_semantic(sem, NoiseSpec(seed=4))
        assert set(np.unique(out.data)) <= set(np.unique(sem.data))
        assert out.dims == sem.dims and out.spacing == sem.spacing

    def test_full_erosion_shaves_one_layer(self):
        data = np.zeros((9, 9, 9), dtype=np.uint16)
        data[2:7, 2:7, 2:7] = Structure.SPINAL_CORD
        vol = self.make_volume(data)
        noise = NoiseSpec(p_erosion=1.0, erosion_radius=1, p_labeldrop=0.0, p_downup=0.0)
        out = corrupt_semantic(vol, noise)
        expected = np.zeros_like(data)
        expected[3:6, 3:6, 3:6] = Structure.SPINAL_CORD
        assert np.array_equal(out.data, expected)

    def test_certain_labeldrop_clears_everything(self):
        data = np.zeros((8, 8, 8), dtype=np.uint16)
        data[1:3, 1:3, 1:3] = Structure.SPINAL_CORD
        data[5:7, 5:7, 5:7] = Structure.SPINAL_CANAL
        vol = self.make_volume(data)
        noise = NoiseSpec(p_erosion=0.0, p_labeldrop=1.0, p_downup=0.0)
        out = corrupt_semantic(vol, noise)
        assert not out.data.any()

    def test_certain_downup_matches_direct_computation(self):
        rng = np.random.default_rng(0)
        data = (rng.random((10, 11, 12)) < 0.4).astype(np.uint16) * Structure.SACRUM
        vol = self.make_volume(data)
        noise = NoiseSpec(p_erosion=0.0, p_labeldrop=0.0, p_downup=1.0)
        out = corrupt_semantic(vol, noise)
        mask = data == Structure.SACRUM
        up = mask[::2, ::2, ::2]
        for axis in range(3):
            up = np.repeat(up, 2, axis=axis)
        expected = up[: mask.shape[0], : mask.shape[1], : mask.shape[2]]
        assert np.array_equal(out.data == Structure.SACRUM, expected)

    def test_jitter_never_wraps_and_never_grows(self, standard_phantom):
        _, sem, _ = standard_phantom
        noise = NoiseSpec(p_erosion=0.0, p_labeldrop=0.0, p_downup=0.0, boundary_jitter_mm=3.0, seed=2)
        out = corrupt_semantic(sem, noise)
        assert int((out.data > 0).sum()) <= int((sem.data > 0).sum())
        assert np.array_equal(out.data, corrupt_semantic(sem, noise).data)


class TestOraclePredictors:
    def test_semantic_oracle_returns_exact_window(self, standard_phantom):
        _, sem, _ = standard_phantom
        pred = OracleSemanticPredictor(sem)
        patch = Volume(sem.data[10:74, 20:84, 0:32], sem.spacing, sem.orientation, "semantic")
        out = pred.predict(patch, (10, 20, 0))
        assert np.array_equal(out, sem.data[10:74, 20:84, 0:32])

    def test_semantic_oracle_noise_is_per_origin_deterministic(self, standard_phantom):
        _, sem, _ = standard_phantom
        noise = NoiseSpec(seed=3)
        patch = Volume(sem.data[10:74, 20:84, 0:32], sem.spacing, sem.orientation, "semantic")
        a = OracleSemanticPredictor(sem, noise).predict(patch, (10, 20, 0))
        b = OracleSemanticPredictor(sem, noise).predict(patch, (10, 20, 0))
        assert np.array_equal(a, b)

    def test_instance_oracle_labels_neighbors(self, standard_phantom):
        _, sem, inst = standard_phantom
        centers = find_corpus_centers(sem)
        cutouts = make_cutouts(centers, sem.dims)
        oracle = OracleInstancePredictor(inst, sem)

        first = oracle.predict(cutout_window(inst, cutouts[0]), cutouts[0])
        assert set(np.unique(first)) == {0, 2, 3}  # nothing above the top vertebra

        mid = oracle.predict(cutout_window(inst, cutouts[3]), cutouts[3])
        assert set(np.unique(mid)) == {0, 1, 2, 3}

        last = oracle.predict(cutout_window(inst, cutouts[-1]), cutouts[-1])
        assert set(np.unique(last)) == {0, 1, 2}  # sacrum is not a vertebra instance

    def test_instance_oracle_center_matches_ground_truth(self, standard_phantom):
        _, sem, inst = standard_phantom
        centers = find_corpus_centers(sem)
        cutouts = make_cutouts(centers, sem.dims)
        oracle = OracleInstancePredictor(inst, sem)
        cut = cutouts[3]
        out = oracle.predict(cutout_window(inst, cut), cut)
        window = cutout_window(inst, cut).data
        assert np.array_equal(out == 2, window == 4)
        assert np.array_equal(out == 1, window == 3)
        assert np.array_equal(out == 3, window == 5)

    def test_instance_oracle_noise_deterministic(self, standard_phantom):
        _, sem, inst = standard_phantom
        centers = find_corpus_centers(sem)
        cut = make_cutouts(centers, sem.dims)[2]
        noise = NoiseSpec(seed=8)
        window = cutout_window(inst, cut)
        a = OracleInstancePredictor(inst, sem, noise).predict(window, cut)
        b = OracleInstancePredictor(inst, sem, noise).predict(window, cut)
        assert np.array_equal(a, b)
        assert set(np.unique(a)) <= {0, 1, 2, 3}


# --- the noise model written with full-volume masks, as the reference ---


def reference_corrupt_binary(mask, noise, rng, spacing):
    """One label's corruption on a full-size mask: crop to the bounding box
    widened to an even start and two voxels of slack, erode, drop
    components, down/up-sample, then shift with np.roll and clear the
    wrapped slabs. Every probability and jitter draw is made even for an
    empty mask."""
    box = bounding_box(mask)
    if box is not None:
        box = tuple(slice((s.start // 2) * 2, min(s.stop + 2, dim)) for s, dim in zip(box, mask.shape))
        sub = mask[box].copy()
    else:
        sub = None
    if rng.random() < noise.p_erosion and noise.erosion_radius > 0 and sub is not None:
        sub = binary_erosion(sub, noise.erosion_radius)
    if noise.p_labeldrop > 0 and sub is not None:
        comps = connected_components(sub)
        for cid in range(1, comps.count + 1):
            if rng.random() < noise.p_labeldrop:
                sub[comps.box][comps.labels == cid] = False
    if rng.random() < noise.p_downup and sub is not None:
        down = sub[::2, ::2, ::2]
        up = np.repeat(np.repeat(np.repeat(down, 2, axis=0), 2, axis=1), 2, axis=2)
        sub = up[tuple(slice(0, s) for s in sub.shape)]
    if sub is None:
        out = mask.copy()
    else:
        out = np.zeros_like(mask)
        out[box] = sub
    if noise.boundary_jitter_mm > 0:
        shift = [int(round(rng.uniform(-noise.boundary_jitter_mm, noise.boundary_jitter_mm) / s)) for s in spacing]
        if any(shift):
            out = np.roll(out, shift, axis=(0, 1, 2))
            for axis, dv in enumerate(shift):
                idx = [slice(None)] * 3
                if dv > 0:
                    idx[axis] = slice(0, dv)
                elif dv < 0:
                    idx[axis] = slice(dv, None)
                else:
                    continue
                out[tuple(idx)] = False
    return out


def reference_corrupt_semantic(gt, noise):
    if noise.p_erosion == 0 and noise.p_labeldrop == 0 and noise.p_downup == 0 and noise.boundary_jitter_mm == 0:
        return gt
    data = gt.data
    out = np.zeros_like(data)
    for code in sorted(int(c) for c in np.unique(data) if c != 0):
        rng = np.random.default_rng(_patch_seed(noise.seed, (code,)))
        mask = reference_corrupt_binary(data == code, noise, rng, gt.spacing)
        out[mask & (out == 0)] = code
    return gt.with_data(out)


def reference_instance_predict(oracle, patch, cutout):
    """``OracleInstancePredictor.predict`` with one full-window scan per
    label and one shared generator across the three labels."""
    out = np.zeros(patch.dims, dtype=np.uint16)
    if not oracle.vertebra_ids:
        return out
    center = np.asarray(cutout.center, dtype=np.float64)
    mid = min(oracle.vertebra_ids, key=lambda v: (float(np.linalg.norm(oracle.centroids[v] - center)), v))
    window = cutout_window(oracle.gt, cutout).data
    for label, vid in ((1, mid - 1), (2, mid), (3, mid + 1)):
        if vid in oracle.centroids:
            out[window == vid] = label
    if oracle.noise is not None:
        seeded = replace(oracle.noise, seed=_patch_seed(oracle.noise.seed, (cutout.index,)))
        rng = np.random.default_rng(seeded.seed)
        corrupted = np.zeros_like(out)
        for label in (1, 2, 3):
            mask = reference_corrupt_binary(out == label, seeded, rng, oracle.gt.spacing)
            corrupted[mask & (corrupted == 0)] = label
        out = corrupted
    return out


def random_noise(rng, seed):
    """Each probability at 0, 0.5 or 1, erosion radius 0-2, jitter on or off."""
    p_erosion, p_labeldrop, p_downup = rng.choice([0.0, 0.5, 1.0], size=3)
    return NoiseSpec(
        p_erosion=float(p_erosion),
        erosion_radius=int(rng.integers(0, 3)),
        p_labeldrop=float(p_labeldrop),
        p_downup=float(p_downup),
        boundary_jitter_mm=float(rng.choice([0.0, 1.5, 3.0])),
        seed=seed,
    )


class TestNoiseModelReference:
    def test_corrupt_semantic_matches_reference(self):
        rng = np.random.default_rng(61)
        for case in range(240):
            shape = tuple(int(d) for d in rng.integers(1, 15, size=3))
            dtype = rng.choice([np.uint8, np.uint16, np.int32])
            data = np.zeros(shape, dtype=dtype)
            if case % 8:  # every eighth volume stays empty
                # non-negative codes with gaps, painted as overlapping boxes and speckle
                for code in rng.choice(np.arange(1, 40), size=int(rng.integers(1, 5)), replace=False):
                    for _ in range(int(rng.integers(1, 4))):
                        lo = rng.integers(0, shape)
                        hi = lo + rng.integers(1, 8, size=3)
                        data[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] = code
                    data[rng.random(shape) < 0.05] = code
            spacing = tuple(float(s) for s in rng.choice([0.5, 1.0, 2.0], size=3))
            gt = Volume(data, spacing, ("P", "I", "R"), "semantic")
            noise = random_noise(rng, seed=case)
            got = corrupt_semantic(gt, noise).data
            want = reference_corrupt_semantic(gt, noise).data
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), f"case {case}: {noise}"

    def test_instance_oracle_matches_reference(self):
        rng = np.random.default_rng(67)
        # four vertebrae stacked along axis 1 with their discs between
        inst = np.zeros((10, 40, 9), dtype=np.uint16)
        for k in range(1, 5):
            rows = slice(10 * (k - 1), 10 * (k - 1) + 7)
            inst[:, rows][rng.random(inst[:, rows].shape) < 0.7] = k
            inst[2:8, 10 * (k - 1) + 7 : 10 * k - 1, 2:7] = 100 + k
        gapped = np.where(inst == 2, 0, inst)  # vertebra 2 missing: 1 has none below, 3 none above
        for gt in (inst, gapped):
            vol = Volume(gt, (1.0, 2.0, 1.5), ("P", "I", "R"), "instance")
            for case in range(40):
                center = (4.5, float(rng.integers(0, 40)), 4.0)
                size = tuple(int(d) for d in rng.integers(4, 24, size=3))
                origin = tuple(int(o) for o in rng.integers(-4, 8, size=3))
                origin = (origin[0], int(center[1]) - size[1] // 2, origin[2])
                cut = Cutout(center=center, origin=origin, size=size, index=case + 1)
                oracle = OracleInstancePredictor(vol, noise=random_noise(rng, seed=case))
                patch = cutout_window(vol, cut)
                assert np.array_equal(oracle.predict(patch, cut), reference_instance_predict(oracle, patch, cut))

    def test_instance_oracle_matches_reference_at_the_column_ends(self, standard_phantom):
        # the top cutout has no vertebra above it, the bottom one none below
        _, sem, inst = standard_phantom
        cutouts = make_cutouts(find_corpus_centers(sem), sem.dims)
        for seed, cut in enumerate((cutouts[0], cutouts[-1])):
            noise = NoiseSpec(p_erosion=0.5, p_labeldrop=0.5, p_downup=0.5, boundary_jitter_mm=2.0, seed=seed)
            oracle = OracleInstancePredictor(inst, sem, noise)
            patch = cutout_window(inst, cut)
            assert np.array_equal(oracle.predict(patch, cut), reference_instance_predict(oracle, patch, cut))
