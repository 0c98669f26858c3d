"""Annotation-source merging and endplate synthesis."""

from collections import deque

import numpy as np
import pytest

from conftest import two_pass_order_sensitive
from spineseg.fusion import AnnotationSources, fuse_sources, merge_sources, synthesize_endplates
from spineseg.labels import Structure
from spineseg.volume import Volume


def make_volume(data, kind="semantic"):
    return Volume(np.asarray(data, dtype=np.uint16), (1.0, 1.0, 1.0), ("P", "I", "R"), kind)


def shift_dilate(mask, offsets):
    out = np.zeros_like(mask)
    for dx, dy, dz in offsets:
        src = [slice(None)] * 3
        dst = [slice(None)] * 3
        for a, d in enumerate((dx, dy, dz)):
            if d > 0:
                src[a], dst[a] = slice(0, mask.shape[a] - d), slice(d, None)
            elif d < 0:
                src[a], dst[a] = slice(-d, None), slice(0, mask.shape[a] + d)
        out[tuple(dst)] |= mask[tuple(src)]
    return out


BOX = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)]
CROSS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


def oracle_endplates(data):
    """Expected endplate voxels, by shift-based morphology and BFS flood fill."""
    corpus = data == Structure.CORPUS
    ivd = data == Structure.IVD
    ci = corpus | ivd
    # closing with a 3x3x3 box on a one-voxel-padded canvas
    pad = np.pad(ci, 1)
    grown = shift_dilate(pad, BOX)
    eroded = ~shift_dilate(~grown, BOX)
    closed = eroded[1:-1, 1:-1, 1:-1]
    # fill: voxels not reachable from the border through ~closed (6-conn)
    outside = np.zeros_like(closed)
    queue = deque()
    for idx in np.argwhere(~closed):
        if (idx == 0).any() or (idx == np.array(closed.shape) - 1).any():
            t = tuple(idx)
            if not outside[t]:
                outside[t] = True
                queue.append(t)
    while queue:
        x, y, z = queue.popleft()
        for dx, dy, dz in CROSS:
            n = (x + dx, y + dy, z + dz)
            if all(0 <= n[a] < closed.shape[a] for a in range(3)):
                if not closed[n] and not outside[n]:
                    outside[n] = True
                    queue.append(n)
    filled = closed | ~outside
    candidates = filled & ~ci & (data == 0)
    near_corpus = shift_dilate(corpus, CROSS)
    near_ivd = shift_dilate(ivd, CROSS)
    return candidates & near_corpus & near_ivd


class TestMergeSources:
    def build(self):
        base = np.zeros((8, 10, 6), dtype=np.uint16)
        base[2:5, 2:5, 2:5] = Structure.CORPUS
        base[2:5, 6:8, 2:5] = Structure.SPINAL_CANAL
        sub = np.zeros_like(base)
        cord = np.zeros_like(base)
        return base, sub, cord

    def sources(self, base, sub, cord):
        return AnnotationSources(make_volume(base), make_volume(sub), make_volume(cord))

    def test_substructures_never_overwrite_base(self):
        base, sub, cord = self.build()
        sub[2:6, 2:6, 2:5] = Structure.ARCUS  # partly over corpus
        out = merge_sources(self.sources(base, sub, cord))
        assert (out.data[2:5, 2:5, 2:5] == Structure.CORPUS).all()
        assert (out.data[5, 2:6, 2:5] == Structure.ARCUS).all()

    def test_cord_overwrites_canal_only(self):
        base, sub, cord = self.build()
        cord[3, 6:8, 3] = 1  # inside the canal
        cord[3, 3, 3] = 1  # inside the corpus
        cord[7, 1, 1] = 1  # on background
        out = merge_sources(self.sources(base, sub, cord))
        assert (out.data[3, 6:8, 3] == Structure.SPINAL_CORD).all()
        assert out.data[3, 3, 3] == Structure.CORPUS
        assert out.data[7, 1, 1] == Structure.SPINAL_CORD

    def test_empty_base_gives_pure_overlay(self):
        base, sub, cord = self.build()
        base[:] = 0
        sub[1:3, 1:3, 1:3] = Structure.COSTAL_PROCESS_LEFT
        cord[6, 6, 3] = 1
        out = merge_sources(self.sources(base, sub, cord))
        assert (out.data[1:3, 1:3, 1:3] == Structure.COSTAL_PROCESS_LEFT).all()
        assert out.data[6, 6, 3] == Structure.SPINAL_CORD
        assert int((out.data > 0).sum()) == 8 + 1

    def test_no_label_loses_voxels(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            base = np.zeros((10, 10, 8), dtype=np.uint16)
            sub = np.zeros_like(base)
            cord = np.zeros_like(base)
            for arr, codes in ((base, [1, 11, 12, 14]), (sub, list(range(2, 11)))):
                for _ in range(4):
                    lo = [int(rng.integers(0, s - 2)) for s in arr.shape]
                    box = tuple(slice(l, l + int(rng.integers(1, 4))) for l in lo)
                    arr[box] = int(rng.choice(codes))
            cord[rng.random(cord.shape) < 0.05] = 1
            out = merge_sources(self.sources(base, sub, cord)).data
            for code in np.unique(base):
                if code == Structure.SPINAL_CANAL:
                    assert ((base == code) <= ((out == code) | (out == Structure.SPINAL_CORD))).all()
                elif code:
                    assert ((base == code) <= (out == code)).all()
            kept_sub = (sub > 0) & (base == 0)
            assert (out[kept_sub] == sub[kept_sub]).all()
            cord_target = (cord > 0) & (((base == 0) & (sub == 0)) | (base == Structure.SPINAL_CANAL))
            assert (out[cord_target] == Structure.SPINAL_CORD).all()

    def test_mismatched_grids_rejected(self):
        base, sub, cord = self.build()
        small = make_volume(np.zeros((4, 4, 4), dtype=np.uint16))
        with pytest.raises(ValueError, match="grid"):
            AnnotationSources(make_volume(base), small, make_volume(cord))


class TestSynthesizeEndplates:
    def test_one_voxel_sheet_becomes_endplate(self):
        data = np.zeros((5, 5, 5), dtype=np.uint16)
        data[:, 0:2, :] = Structure.CORPUS
        data[:, 3:5, :] = Structure.IVD  # one-voxel gap at y=2, open laterally
        out = synthesize_endplates(make_volume(data))
        assert (out.data[:, 2, :] == Structure.ENDPLATE).all()
        assert int((out.data == Structure.ENDPLATE).sum()) == 25
        assert np.array_equal(out.data == Structure.CORPUS, data == Structure.CORPUS)
        assert np.array_equal(out.data == Structure.IVD, data == Structure.IVD)

    def test_matches_flood_fill_oracle(self):
        fixtures = []
        data = np.zeros((5, 5, 5), dtype=np.uint16)
        data[:, 0:2, :] = Structure.CORPUS
        data[:, 3:5, :] = Structure.IVD
        fixtures.append(data)
        rng = np.random.default_rng(11)
        for _ in range(15):
            d = np.zeros((9, 9, 9), dtype=np.uint16)
            for code in (Structure.CORPUS, Structure.IVD):
                for _ in range(3):
                    lo = [int(rng.integers(0, 6)) for _ in range(3)]
                    box = tuple(slice(l, l + int(rng.integers(2, 4))) for l in lo)
                    d[box] = code
            fixtures.append(d)
        for data in fixtures:
            out = synthesize_endplates(make_volume(data))
            expected = oracle_endplates(data)
            got = (out.data == Structure.ENDPLATE) & (data != Structure.ENDPLATE)
            assert np.array_equal(got, expected)

    def test_direct_contact_is_unchanged(self):
        data = np.zeros((5, 5, 5), dtype=np.uint16)
        data[:, 0:2, :] = Structure.CORPUS
        data[:, 2:4, :] = Structure.IVD
        vol = make_volume(data)
        assert synthesize_endplates(vol) is vol

    def test_two_voxel_gap_is_not_a_transition(self):
        # after closing, gap voxels touch only one of the two classes each
        data = np.zeros((5, 6, 5), dtype=np.uint16)
        data[:, 0:2, :] = Structure.CORPUS
        data[:, 4:6, :] = Structure.IVD
        out = synthesize_endplates(make_volume(data))
        assert not (out.data == Structure.ENDPLATE).any()

    def test_labeled_gap_voxels_are_preserved(self):
        data = np.zeros((5, 5, 5), dtype=np.uint16)
        data[:, 0:2, :] = Structure.CORPUS
        data[:, 3:5, :] = Structure.IVD
        data[2, 2, 2] = Structure.SPINAL_CANAL
        out = synthesize_endplates(make_volume(data))
        assert out.data[2, 2, 2] == Structure.SPINAL_CANAL
        assert int((out.data == Structure.ENDPLATE).sum()) == 24

    def test_enclosed_pocket_converts_where_touching_both(self):
        data = np.zeros((7, 7, 7), dtype=np.uint16)
        data[1:6, 1:5, 1:6] = Structure.CORPUS
        data[3, 3, 3] = 0  # pocket inside the corpus
        data[1:6, 5, 1:6] = Structure.IVD
        out = synthesize_endplates(make_volume(data))
        assert out.data[3, 3, 3] == 0  # touches corpus only
        data[3, 4, 3] = 0  # extend the pocket to the disc boundary
        out = synthesize_endplates(make_volume(data))
        assert out.data[3, 4, 3] == Structure.ENDPLATE  # corpus sides, disc above
        assert out.data[3, 3, 3] == 0

    def test_missing_class_returns_input(self):
        data = np.zeros((4, 4, 4), dtype=np.uint16)
        data[1:3, 1:3, 1:3] = Structure.CORPUS
        vol = make_volume(data)
        assert synthesize_endplates(vol) is vol

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = np.zeros((9, 9, 9), dtype=np.uint16)
            for code in (Structure.CORPUS, Structure.IVD):
                for _ in range(3):
                    lo = [int(rng.integers(0, 6)) for _ in range(3)]
                    box = tuple(slice(l, l + int(rng.integers(2, 4))) for l in lo)
                    d[box] = code
            once = synthesize_endplates(make_volume(d))
            twice = synthesize_endplates(once)
            assert np.array_equal(once.data, twice.data)


class TestFuseSources:
    def check(self, base, sub, cord):
        vols = [make_volume(a) for a in (base, sub, cord)]
        merged, fused, order_sensitive = fuse_sources(AnnotationSources(*vols))
        want_merged = merge_sources(AnnotationSources(*vols))
        assert np.array_equal(merged.data, want_merged.data)
        assert np.array_equal(fused.data, synthesize_endplates(want_merged).data)
        assert order_sensitive == two_pass_order_sensitive(*vols)
        return fused.data, order_sensitive

    def test_cord_on_endplate_layer_canal_and_base_endplate(self):
        # corpus over disc with a one-voxel sheet between them; along the
        # sheet: cord on background (endplate had synthesis gone first),
        # cord on canal (canal either way), cord on a base endplate
        # (endplate either way)
        base = np.zeros((8, 9, 8), dtype=np.uint16)
        base[1:7, 1:4, 1:7] = Structure.CORPUS
        base[1:7, 5:8, 1:7] = Structure.IVD
        base[2, 4, 2] = Structure.SPINAL_CANAL
        base[3, 4, 3] = Structure.ENDPLATE
        cord = np.zeros_like(base)
        cord[2, 4, 2:5] = 1
        cord[3, 4, 3] = 1
        fused, order_sensitive = self.check(base, np.zeros_like(base), cord)
        assert fused[2, 4, 2] == fused[2, 4, 3] == fused[2, 4, 4] == Structure.SPINAL_CORD
        assert fused[3, 4, 3] == Structure.ENDPLATE
        assert order_sensitive == 3

    def test_matches_the_two_pass_count_on_random_sources(self):
        rng = np.random.default_rng(8)
        shape = (10, 10, 10)
        on_layer = 0
        for _ in range(40):
            base = np.zeros(shape, dtype=np.uint16)
            sub = np.zeros(shape, dtype=np.uint16)
            cord = np.zeros(shape, dtype=np.uint16)
            # corpus over disc across a gap of 0-2 voxels, then random boxes
            top = int(rng.integers(1, 4))
            gap = int(rng.integers(0, 3))
            base[1:9, top : top + 3, 1:9] = Structure.CORPUS
            base[1:9, top + 3 + gap : top + 6 + gap, 1:9] = Structure.IVD
            for arr, codes in ((base, (10, 11, 12, 1)), (sub, (2, 5, 10, 13)), (cord, (1, 1))):
                for code in codes:
                    lo = rng.integers(0, 8, size=3)
                    hi = lo + rng.integers(1, 5, size=3)
                    arr[tuple(slice(a, b) for a, b in zip(lo, hi))] = code
            fused, _ = self.check(base, sub, cord)
            # cord voxels on the one-voxel sheet, where synthesis first
            # would have put endplate
            sheet = np.zeros(shape, dtype=bool)
            sheet[:, top + 3, :] = gap == 1
            on_layer += int((sheet & (fused == Structure.SPINAL_CORD) & (base == 0) & (sub == 0)).sum())
        assert on_layer > 20
