"""Volume core ops against brute-force oracles."""

import threading
import tracemalloc

import numpy as np
import pytest
import scipy.ndimage as ndi

import spineseg.volume
from spineseg.nifti import read_nifti, write_nifti
from spineseg.volume import (
    CANONICAL_ORIENTATION,
    Volume,
    bounding_box,
    concurrently,
    connected_components,
    fill_holes,
    overlap,
    reorient,
    resample,
    to_canonical,
    window_view,
)

_CODE_VEC = {
    "R": (0, +1),
    "L": (0, -1),
    "A": (1, +1),
    "P": (1, -1),
    "S": (2, +1),
    "I": (2, -1),
}


def oracle_reorient(data, src, dst):
    """Voxel-by-voxel reorientation working in world axis coordinates."""
    out_shape = [0, 0, 0]
    for d_axis, code in enumerate(dst):
        fam = _CODE_VEC[code][0]
        s_axis = [_CODE_VEC[c][0] for c in src].index(fam)
        out_shape[d_axis] = data.shape[s_axis]
    out = np.zeros(out_shape, dtype=data.dtype)
    for idx in np.ndindex(*data.shape):
        # world position of this voxel along each anatomical family
        world = {}
        for s_axis, code in enumerate(src):
            fam, sgn = _CODE_VEC[code]
            pos = idx[s_axis] if sgn > 0 else data.shape[s_axis] - 1 - idx[s_axis]
            world[fam] = pos
        tgt = [0, 0, 0]
        for d_axis, code in enumerate(dst):
            fam, sgn = _CODE_VEC[code]
            pos = world[fam]
            tgt[d_axis] = pos if sgn > 0 else out_shape[d_axis] - 1 - pos
        out[tuple(tgt)] = data[idx]
    return out


def all_orientations():
    from itertools import permutations, product

    fams = ["RL", "AP", "SI"]
    for perm in permutations(range(3)):
        for signs in product(range(2), repeat=3):
            yield tuple(fams[perm[a]][signs[a]] for a in range(3))


class TestReorient:
    def test_axis_swap_exhaustive_small(self):
        rng = np.random.default_rng(7)
        data = rng.integers(0, 100, size=(2, 3, 4)).astype(np.int32)
        vol = Volume(data, (1.0, 2.0, 3.0), ("P", "I", "R"), kind="semantic")
        for dst in all_orientations():
            got = reorient(vol, dst)
            want = oracle_reorient(data, ("P", "I", "R"), dst)
            assert got.data.shape == want.shape
            assert np.array_equal(got.data, want), dst

    def test_round_trip_restores(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            src = list(all_orientations())[rng.integers(0, 48)]
            data = rng.integers(0, 50, size=tuple(rng.integers(2, 6, size=3))).astype(np.int16)
            vol = Volume(data, (0.5, 1.0, 1.5), src, kind="semantic")
            canon = to_canonical(vol)
            back = reorient(canon, src)
            assert np.array_equal(back.data, data)
            assert back.spacing == vol.spacing

    def test_voxel_multiset_preserved(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 9, size=(3, 4, 5)).astype(np.int32)
        vol = Volume(data, orientation=("I", "R", "A"), kind="semantic")
        out = to_canonical(vol)
        assert np.array_equal(np.sort(out.data.ravel()), np.sort(data.ravel()))

    def test_spacing_follows_axes(self):
        data = np.zeros((2, 3, 4), dtype=np.float32)
        vol = Volume(data, (0.5, 1.0, 2.0), ("R", "P", "I"))
        out = to_canonical(vol)
        # P takes old axis 1, I old axis 2, R old axis 0
        assert out.spacing == (1.0, 2.0, 0.5)
        assert out.dims == (3, 4, 2)

    def test_identity_when_already_canonical(self):
        vol = Volume(np.ones((2, 2, 2), np.int32), kind="instance")
        out = to_canonical(vol)
        assert np.array_equal(out.data, vol.data)
        assert out.orientation == CANONICAL_ORIENTATION

    def test_rejects_bad_codes(self):
        vol = Volume(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            reorient(vol, ("P", "I", "Q"))
        with pytest.raises(ValueError):
            reorient(vol, ("P", "P", "R"))
        with pytest.raises(ValueError):
            reorient(vol, ("P", "A", "R"))


def oracle_resample_nearest(data, spacing, new_spacing):
    """Nearest voxel-center lookup, ties to the smaller index, per voxel."""
    new_dims = tuple(
        max(1, int(round(d * s / ns))) for d, s, ns in zip(data.shape, spacing, new_spacing)
    )
    out = np.zeros(new_dims, dtype=data.dtype)
    for idx in np.ndindex(*new_dims):
        src = []
        for a in range(3):
            center = (idx[a] + 0.5) * new_spacing[a]
            # distances to all source voxel centers on this axis
            cands = [(abs(center - (i + 0.5) * spacing[a]), i) for i in range(data.shape[a])]
            cands.sort()  # ties break to the smaller index
            src.append(cands[0][1])
        out[idx] = data[tuple(src)]
    return out


class TestResample:
    def test_against_bruteforce_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            dims = tuple(rng.integers(2, 7, size=3))
            spacing = tuple(float(x) for x in rng.uniform(0.5, 2.5, size=3).round(2))
            new_spacing = tuple(float(x) for x in rng.uniform(0.5, 2.5, size=3).round(2))
            data = rng.integers(0, 30, size=dims).astype(np.int32)
            vol = Volume(data, spacing, kind="semantic")
            got = resample(vol, new_spacing)
            want = oracle_resample_nearest(data, spacing, new_spacing)
            assert got.data.shape == want.shape
            assert np.array_equal(got.data, want)

    def test_halving_spacing_doubles_dims(self):
        data = np.arange(4 * 4 * 4, dtype=np.int32).reshape(4, 4, 4)
        vol = Volume(data, (2.0, 2.0, 2.0), kind="semantic")
        out = resample(vol, (1.0, 1.0, 1.0))
        assert out.dims == (8, 8, 8)
        # each source voxel expands into a 2x2x2 block
        assert np.array_equal(out.data, np.kron(data, np.ones((2, 2, 2), dtype=np.int32)))

    def test_identity_on_equal_spacing(self):
        data = np.random.default_rng(0).integers(0, 5, size=(3, 3, 3)).astype(np.int32)
        vol = Volume(data, (0.75, 0.75, 1.65), kind="instance")
        out = resample(vol, (0.75, 0.75, 1.65))
        assert out is vol

    def test_identity_after_nifti_round_trip(self, tmp_path):
        # NIfTI stores spacing as float32: 1.65 mm reads back as 1.6499999...
        vol = Volume(np.zeros((3, 4, 5), dtype=np.float32), (0.75, 0.75, 1.65))
        write_nifti(vol, tmp_path / "v.nii.gz")
        back = read_nifti(tmp_path / "v.nii.gz")
        assert back.spacing != (0.75, 0.75, 1.65)
        assert resample(back, (0.75, 0.75, 1.65), mode="trilinear") is back

    def test_no_new_labels_nearest(self):
        rng = np.random.default_rng(5)
        data = rng.choice([0, 3, 7, 11], size=(6, 5, 4)).astype(np.int32)
        vol = Volume(data, (1.0, 1.3, 0.8), kind="semantic")
        out = resample(vol, (0.6, 0.9, 1.7))
        assert set(np.unique(out.data)) <= set(np.unique(data))

    def test_trilinear_rejected_for_labels(self):
        vol = Volume(np.zeros((2, 2, 2), np.int32), kind="semantic")
        with pytest.raises(ValueError):
            resample(vol, (0.5, 0.5, 0.5), mode="trilinear")

    def test_trilinear_linear_ramp_exact(self):
        # a linear intensity field must be reproduced exactly inside the volume
        i, j, k = np.mgrid[0:8, 0:8, 0:8].astype(np.float64)
        data = 2.0 * i + 3.0 * j - k
        vol = Volume(data, (1.0, 1.0, 1.0))
        out = resample(vol, (0.5, 0.5, 0.5), mode="trilinear")
        ii, jj, kk = np.mgrid[0:16, 0:16, 0:16].astype(np.float64)
        want = 2.0 * ((ii + 0.5) * 0.5 - 0.5) + 3.0 * ((jj + 0.5) * 0.5 - 0.5) - ((kk + 0.5) * 0.5 - 0.5)
        interior = (slice(1, 15),) * 3
        assert np.allclose(out.data[interior], want[interior], atol=1e-9)

    def test_physical_extent_preserved(self):
        vol = Volume(np.zeros((10, 20, 30)), (1.5, 0.5, 1.0))
        out = resample(vol, (1.0, 1.0, 1.0))
        assert out.dims == (15, 10, 30)

    def test_trilinear_matches_map_coordinates(self):
        rng = np.random.default_rng(23)
        axes_seen = set()
        for trial in range(80):
            dims = tuple(int(n) for n in rng.integers(1, 10, size=3))
            spacing = tuple(float(x) for x in rng.uniform(0.4, 3.0, size=3))
            # scale each axis up, down or not at all
            new_spacing = tuple(s * float(rng.choice([0.37, 0.5, 1.0, 1.9, 3.0])) for s in spacing)
            if np.allclose(new_spacing, spacing):
                continue
            # edge voxels far from the rest, so a wrong clip at the faces shows
            data = rng.normal(size=dims) + 100.0 * (np.indices(dims).sum(axis=0) == 0)
            vol = Volume(data.astype(np.float32), spacing)
            got = resample(vol, new_spacing, mode="trilinear")
            want = reference_trilinear(vol.data, spacing, new_spacing)
            assert got.data.dtype == np.float32, trial
            assert got.dims == want.shape, trial
            # float64 passes, one cast at the end: within a float32 ulp of the float64 reference
            np.testing.assert_array_max_ulp(got.data, want.astype(np.float32), maxulp=1)
            axes_seen.update(np.sign(np.subtract(got.dims, dims)).tolist())
        assert axes_seen == {-1, 0, 1}

    @pytest.mark.parametrize("dtype, want", [
        (np.float32, np.float32), (np.int16, np.float32), (np.uint8, np.float32),
        (np.float64, np.float64), (np.int32, np.float64),
    ])
    def test_trilinear_keeps_float32_and_never_returns_integers(self, dtype, want):
        vol = Volume(np.arange(24).reshape(2, 3, 4).astype(dtype), (1.0, 1.0, 1.0))
        assert resample(vol, (1.0, 0.5, 2.0), mode="trilinear").data.dtype == want

    def test_trilinear_weights_along_the_one_changed_axis(self):
        data = np.random.default_rng(2).normal(size=(5, 6, 7))
        out = resample(Volume(data, (1.0, 2.0, 1.0)), (1.0, 1.0, 1.0), mode="trilinear")
        assert out.dims == (5, 12, 7)
        # output row 2m + 1 sits a quarter voxel past source row m
        assert np.array_equal(out.data[:, 1:-1:2], data[:, :-1] * 0.75 + data[:, 1:] * 0.25)
        assert np.array_equal(out.data[:, 0], data[:, 0])


def reference_trilinear(data, spacing, new_spacing):
    """Trilinear resampling by ``map_coordinates`` on a full coordinate grid."""
    new_dims = tuple(
        max(1, int(round(d * s / ns))) for d, s, ns in zip(data.shape, spacing, new_spacing)
    )
    axis_coords = [
        ((np.arange(nd) + 0.5) * ns) / s - 0.5 for nd, ns, s in zip(new_dims, new_spacing, spacing)
    ]
    grid = np.meshgrid(*axis_coords, indexing="ij")
    return ndi.map_coordinates(data.astype(np.float64), np.stack(grid), order=1, mode="nearest")


def oracle_components(mask, connectivity):
    """Flood fill from each unvisited voxel; ids by minimum linear index."""
    if connectivity == 6:
        offs = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    else:
        offs = [
            (a, b, c)
            for a in (-1, 0, 1)
            for b in (-1, 0, 1)
            for c in (-1, 0, 1)
            if (a, b, c) != (0, 0, 0)
        ]
    labels = np.zeros(mask.shape, dtype=np.int32)
    next_id = 0
    for flat in range(mask.size):
        idx = np.unravel_index(flat, mask.shape)
        if not mask[idx] or labels[idx]:
            continue
        next_id += 1
        stack = [idx]
        labels[idx] = next_id
        while stack:
            cur = stack.pop()
            for off in offs:
                nb = tuple(c + o for c, o in zip(cur, off))
                if any(x < 0 or x >= s for x, s in zip(nb, mask.shape)):
                    continue
                if mask[nb] and not labels[nb]:
                    labels[nb] = next_id
                    stack.append(nb)
    return labels, next_id


def edge_masks():
    """Masks at the edges of the box and hole logic, by name."""
    rng = np.random.default_rng(31)
    masks = {
        "all foreground": np.ones((4, 5, 3), dtype=bool),
        "all background": np.zeros((4, 5, 3), dtype=bool),
        "one voxel": np.ones((1, 1, 1), dtype=bool),
    }
    for shape in ((1, 7, 6), (6, 1, 5), (5, 6, 1), (1, 1, 9)):
        masks[f"axis of length 1 {shape}"] = rng.random(shape) < 0.5
    # a hollow box: once on the face x = 0 only, once touching no face
    one_face = np.zeros((7, 7, 7), dtype=bool)
    one_face[0:5, 1:6, 1:6] = True
    one_face[1:4, 2:5, 2:5] = False
    masks["touching one face"] = one_face
    masks["touching no face"] = np.roll(one_face, 1, axis=0)
    far = np.zeros((9, 10, 8), dtype=bool)
    far[5:, 6:, 4:] = rng.random((4, 4, 4)) < 0.6
    masks["box far from the origin"] = far
    return masks


def far_corner_voxel():
    mask = np.zeros((256, 384, 64), dtype=bool)
    mask[-1, -1, -1] = True
    return mask


class TestBoundingBox:
    def test_against_index_extremes(self):
        rng = np.random.default_rng(17)
        masks = [rng.random(rng.integers(1, 9, size=3)) < p for p in (0.02, 0.1, 0.5, 1.0) for _ in range(20)]
        masks += list(edge_masks().values())
        for mask in masks:
            nz = np.nonzero(mask)
            want = None if nz[0].size == 0 else tuple(slice(int(a.min()), int(a.max()) + 1) for a in nz)
            assert bounding_box(mask) == want

    def test_empty_mask_has_no_box(self):
        assert bounding_box(np.zeros((3, 4, 5), dtype=bool)) is None

    def test_far_corner_voxel(self):
        assert bounding_box(far_corner_voxel()) == (slice(255, 256), slice(383, 384), slice(63, 64))


def assert_box_labels(cs, want_labels):
    """``cs.labels`` is the oracle's whole-grid labeling cut to ``cs.box``,
    the oracle has no component outside that box, and the box is tight."""
    assert cs.labels.dtype == np.int32
    assert np.array_equal(cs.labels, want_labels[cs.box])
    outside = want_labels.copy()
    outside[cs.box] = 0
    assert not outside.any()
    assert cs.box == (bounding_box(want_labels > 0) or (slice(0, 0),) * 3)


class TestConnectedComponents:
    def test_corner_touch_disconnected_at_6(self):
        mask = np.zeros((2, 2, 2), dtype=bool)
        mask[0, 0, 0] = mask[1, 1, 1] = True
        assert connected_components(mask, connectivity=6).count == 2
        assert connected_components(mask, connectivity=26).count == 1

    def test_edge_touch_disconnected_at_6(self):
        mask = np.zeros((2, 2, 1), dtype=bool)
        mask[0, 0, 0] = mask[1, 1, 0] = True
        assert connected_components(mask, connectivity=6).count == 2
        assert connected_components(mask, connectivity=26).count == 1

    def test_against_floodfill_oracle(self):
        rng = np.random.default_rng(29)
        for conn in (6, 26):
            masks = [rng.random(size=(6, 7, 5)) < 0.3 for _ in range(10)]
            # larger masks over a range of densities pin the id order, which
            # comes from ndi.label unchanged
            masks += [rng.random(size=rng.integers(10, 21, size=3)) < p for p in (0.1, 0.25, 0.4, 0.55, 0.7)]
            for mask in masks:
                got = connected_components(mask, connectivity=conn)
                want_labels, want_n = oracle_components(mask, conn)
                assert got.count == want_n
                assert_box_labels(got, want_labels)

    def test_ids_ordered_by_min_linear_index(self):
        mask = np.zeros((1, 1, 9), dtype=bool)
        mask[0, 0, 6] = True
        mask[0, 0, 0] = True
        mask[0, 0, 3] = True
        cs = connected_components(mask, connectivity=6)
        assert cs.count == 3
        assert cs.box == (slice(0, 1), slice(0, 1), slice(0, 7))
        assert cs.labels.tolist() == [[[1, 0, 0, 2, 0, 0, 3]]]

    def test_sizes_and_centroids(self):
        mask = np.zeros((4, 4, 4), dtype=bool)
        mask[0:2, 0, 0] = True  # size 2, centroid (0.5, 0, 0)
        mask[3, 3, 3] = True  # size 1
        cs = connected_components(mask, connectivity=6)
        assert list(cs.sizes) == [2, 1]
        assert cs.centroids[0] == (0.5, 0.0, 0.0)
        assert cs.centroids[1] == (3.0, 3.0, 3.0)

    def test_centroids_equal_index_means_exactly(self):
        # a full-size grid makes the coordinate sums large
        rng = np.random.default_rng(5)
        masks = [rng.random((9, 11, 7)) < p for p in (0.2, 0.5, 0.8)]
        big = np.zeros((256, 384, 64), dtype=bool)
        for _ in range(12):
            lo = rng.integers(0, (250, 370, 60))
            hi = lo + rng.integers(1, (120, 200, 40))
            big[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] = rng.random() < 0.8
        masks.append(big)
        for mask in masks:
            cs = connected_components(mask, connectivity=6)
            assert cs.count > 0
            labels, n = ndi.label(mask, structure=ndi.generate_binary_structure(3, 1))
            assert cs.count == n
            assert_box_labels(cs, labels)
            for ci in range(1, cs.count + 1):
                idx = np.nonzero(labels == ci)
                assert cs.centroids[ci - 1] == tuple(float(a.mean()) for a in idx)
                assert cs.sizes[ci - 1] == idx[0].size

    def test_empty_mask(self):
        cs = connected_components(np.zeros((3, 3, 3), dtype=bool))
        assert cs.count == 0
        assert cs.box == (slice(0, 0),) * 3 and cs.labels.shape == (0, 0, 0)
        assert cs.sizes.shape == (0,) and cs.centroids == []

    @pytest.mark.parametrize("name", list(edge_masks()))
    def test_edges_against_floodfill_oracle(self, name):
        mask = edge_masks()[name]
        for conn in (6, 26):
            got = connected_components(mask, connectivity=conn)
            want_labels, want_n = oracle_components(mask, conn)
            assert got.count == want_n
            assert_box_labels(got, want_labels)
            for ci in range(1, want_n + 1):
                idx = np.nonzero(want_labels == ci)
                assert got.centroids[ci - 1] == tuple(float(a.mean()) for a in idx)
                assert got.sizes[ci - 1] == idx[0].size

    def test_far_corner_voxel_of_a_full_size_grid(self):
        mask = far_corner_voxel()
        cs = connected_components(mask)
        assert cs.count == 1 and list(cs.sizes) == [1]
        assert cs.centroids == [(255.0, 383.0, 63.0)]
        assert_box_labels(cs, mask.astype(np.int32))
        assert cs.labels.shape == (1, 1, 1)

    def test_centroids_exact_in_a_box_far_from_the_origin(self):
        # large coordinate sums from a box that starts far from index 0
        rng = np.random.default_rng(23)
        mask = np.zeros((256, 384, 64), dtype=bool)
        for _ in range(10):
            lo = rng.integers((181, 257, 29), (250, 378, 60))
            hi = lo + rng.integers(1, (40, 60, 20))
            mask[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] = True
        mask[248:, 376:, 56:] = rng.random((8, 8, 8)) < 0.3
        cs = connected_components(mask, connectivity=6)
        labels, n = ndi.label(mask, structure=ndi.generate_binary_structure(3, 1))
        assert cs.count == n > 10
        assert_box_labels(cs, labels)
        for ci in range(1, n + 1):
            idx = np.nonzero(labels == ci)
            assert cs.centroids[ci - 1] == tuple(float(a.mean()) for a in idx)

    def test_memory_is_set_by_the_box_not_the_grid(self):
        mask = np.zeros((256, 384, 64), dtype=bool)
        mask[3:11, 5:21, 2:10] = np.random.default_rng(2).random((8, 16, 8)) < 0.4
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cs = connected_components(mask)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert cs.box == (slice(3, 11), slice(5, 21), slice(2, 10))
        # about 27 KB: 4 KB of box labels plus the axis projections of the
        # grid; a whole-grid int32 labeling peaked at 31 MB
        assert peak < 256 * 1024, peak


class TestConcurrently:
    @staticmethod
    def recorder(log, name):
        def call():
            log.append((name, threading.get_ident()))
            return name

        return call

    def test_first_here_rest_in_order_on_one_worker(self, monkeypatch):
        monkeypatch.setattr(spineseg.volume, "usable_cpus", lambda: 2)
        log = []
        before = threading.active_count()
        out = concurrently(*(self.recorder(log, name) for name in "abcd"))
        assert out == ["a", "b", "c", "d"]
        threads = dict(log)
        assert threads["a"] == threading.get_ident()
        assert threads["b"] == threads["c"] == threads["d"] != threading.get_ident()
        assert [name for name, _ in log if name != "a"] == ["b", "c", "d"]
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus, names", [(1, "abc"), (2, "a")], ids=["one-cpu", "one-call"])
    def test_runs_here_in_order(self, monkeypatch, cpus, names):
        monkeypatch.setattr(spineseg.volume, "usable_cpus", lambda: cpus)
        log = []
        assert concurrently(*(self.recorder(log, name) for name in names)) == list(names)
        assert log == [(name, threading.get_ident()) for name in names]

    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_an_exception_reaches_the_caller_and_no_thread_is_left(self, monkeypatch, failing):
        monkeypatch.setattr(spineseg.volume, "usable_cpus", lambda: 2)
        log = []

        def fail():
            log.append(("fail", threading.get_ident()))
            raise KeyError("from a task")

        calls = [self.recorder(log, name) for name in "abc"]
        calls[failing] = fail
        before = threading.active_count()
        with pytest.raises(KeyError, match="from a task"):
            concurrently(*calls)
        assert threading.active_count() == before
        assert len({thread for _, thread in log}) == 2


def brute_force_overlap(origin_a, shape_a, origin_b, shape_b):
    """Corresponding (a, b) flat indices of the voxels two boxes share,
    found by painting both into one large array."""
    pad = 40
    canvas_a = np.full((120, 120, 120), -1)
    canvas_b = np.full((120, 120, 120), -1)
    for canvas, origin, shape in ((canvas_a, origin_a, shape_a), (canvas_b, origin_b, shape_b)):
        place = tuple(slice(o + pad, o + pad + s) for o, s in zip(origin, shape))
        canvas[place] = np.arange(int(np.prod(shape))).reshape(shape)
    both = (canvas_a >= 0) & (canvas_b >= 0)
    return sorted(zip(canvas_a[both].tolist(), canvas_b[both].tolist()))


class TestOverlap:
    def check(self, origin_a, shape_a, origin_b, shape_b):
        want = brute_force_overlap(origin_a, shape_a, origin_b, shape_b)
        got = overlap(origin_a, shape_a, origin_b, shape_b)
        if got is None:
            assert want == []
            return
        ids_a = np.arange(int(np.prod(shape_a))).reshape(shape_a)[got[0]]
        ids_b = np.arange(int(np.prod(shape_b))).reshape(shape_b)[got[1]]
        assert ids_a.size > 0
        assert sorted(zip(ids_a.ravel().tolist(), ids_b.ravel().tolist())) == want

    def test_random_boxes(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            origins = rng.integers(-20, 30, size=(2, 3))
            shapes = rng.integers(1, 25, size=(2, 3))
            self.check(tuple(origins[0]), tuple(shapes[0]), tuple(origins[1]), tuple(shapes[1]))

    def test_negative_origins(self):
        self.check((-5, -3, -7), (10, 6, 20), (0, 0, 0), (4, 4, 4))
        self.check((-5, -3, -7), (10, 6, 20), (-8, -1, -2), (4, 9, 3))

    def test_disjoint_boxes(self):
        assert overlap((0, 0, 0), (4, 4, 4), (10, 0, 0), (4, 4, 4)) is None
        assert overlap((-6, 0, 0), (4, 4, 4), (0, 0, 0), (4, 4, 4)) is None

    def test_boxes_touching_at_an_edge_share_nothing(self):
        assert overlap((0, 0, 0), (4, 4, 4), (4, 0, 0), (4, 4, 4)) is None
        assert overlap((0, 0, 0), (4, 4, 4), (0, -3, 0), (4, 3, 4)) is None
        self.check((0, 0, 0), (4, 4, 4), (3, 3, 3), (4, 4, 4))

    def test_window_view_pads_outside_the_volume(self):
        data = np.arange(1, 4 * 5 * 6 + 1).reshape(4, 5, 6)
        rng = np.random.default_rng(12)
        for _ in range(100):
            origin = tuple(int(v) for v in rng.integers(-8, 8, size=3))
            size = tuple(int(v) for v in rng.integers(1, 12, size=3))
            want = np.zeros(size, dtype=data.dtype)
            for idx in np.ndindex(*size):
                src = tuple(o + i for o, i in zip(origin, idx))
                if all(0 <= v < d for v, d in zip(src, data.shape)):
                    want[idx] = data[src]
            got = window_view(data, origin, size)
            assert got.dtype == data.dtype and np.array_equal(got, want)


def oracle_fill_holes(mask):
    """Flood the background from the boundary (6-conn); unreached bg is hole."""
    from collections import deque

    outside = np.zeros(mask.shape, dtype=bool)
    dq = deque()
    for idx in np.ndindex(*mask.shape):
        if any(x == 0 or x == s - 1 for x, s in zip(idx, mask.shape)):
            if not mask[idx] and not outside[idx]:
                outside[idx] = True
                dq.append(idx)
    offs = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    while dq:
        cur = dq.popleft()
        for off in offs:
            nb = tuple(c + o for c, o in zip(cur, off))
            if any(x < 0 or x >= s for x, s in zip(nb, mask.shape)):
                continue
            if not mask[nb] and not outside[nb]:
                outside[nb] = True
                dq.append(nb)
    return mask | ~outside


class TestFillHoles:
    def test_hollow_cube_filled(self):
        mask = np.zeros((5, 5, 5), dtype=bool)
        mask[1:4, 1:4, 1:4] = True
        mask[2, 2, 2] = False
        out = fill_holes(mask)
        assert out[2, 2, 2]
        assert out.sum() == 27

    def test_open_channel_not_filled(self):
        # a tube through the whole volume stays open
        mask = np.ones((5, 5, 5), dtype=bool)
        mask[2, 2, :] = False
        out = fill_holes(mask)
        assert np.array_equal(out, mask)

    def test_against_floodfill_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(12):
            mask = rng.random(size=(7, 6, 5)) < 0.45
            got = fill_holes(mask)
            want = oracle_fill_holes(mask)
            assert np.array_equal(got, want)

    def test_foreground_never_shrinks(self):
        rng = np.random.default_rng(43)
        mask = rng.random(size=(8, 8, 8)) < 0.4
        out = fill_holes(mask)
        assert np.all(out[mask])

    def test_idempotent(self):
        rng = np.random.default_rng(47)
        mask = rng.random(size=(6, 6, 6)) < 0.5
        once = fill_holes(mask)
        assert np.array_equal(fill_holes(once), once)

    @pytest.mark.parametrize("name", list(edge_masks()))
    def test_edges_against_floodfill_oracle(self, name):
        mask = edge_masks()[name]
        assert np.array_equal(fill_holes(mask), oracle_fill_holes(mask))

    def test_hollow_boxes_on_one_face_and_on_none_are_filled(self):
        masks = edge_masks()
        for name in ("touching one face", "touching no face"):
            mask = masks[name]
            assert fill_holes(mask).sum() == mask.sum() + 27

    def test_no_background_stays_full(self):
        assert fill_holes(np.ones((3, 4, 5), dtype=bool)).all()

    def test_far_corner_voxel_of_a_full_size_grid(self):
        mask = far_corner_voxel()
        assert np.array_equal(fill_holes(mask), mask)


class TestVolumeValidation:
    def test_rejects_non_3d(self):
        with pytest.raises(ValueError):
            Volume(np.zeros((2, 2)))

    def test_rejects_float_labels(self):
        with pytest.raises(ValueError):
            Volume(np.zeros((2, 2, 2), dtype=np.float32), kind="semantic")

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            Volume(np.zeros((2, 2, 2)), spacing=(1.0, 0.0, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_spacing(self, bad):
        with pytest.raises(ValueError, match="finite positive"):
            Volume(np.zeros((2, 2, 2)), spacing=(bad, 1.0, 1.0))
        # an infinite target spacing used to give a (1, 8, 8) volume
        with pytest.raises(ValueError, match="finite positive"):
            resample(Volume(np.zeros((8, 8, 8))), (bad, 1.0, 1.0), "trilinear")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Volume(np.zeros((2, 2, 2)), kind="labels")
