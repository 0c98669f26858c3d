"""NIfTI codec tests.

The orientation-decoding fixtures are built byte-by-byte in this file,
straight from the published NIfTI-1 header layout, so they exercise the
reader against an independent construction rather than the package's own
writer.
"""

import builtins
import gzip
import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from spineseg.nifti import NiftiError, read_nifti, write_nifti
from spineseg.volume import Volume
from conftest import corrupt_gzip


def make_header(
    dims,
    pixdim=(1.0, 1.0, 1.0),
    datatype=2,
    bitpix=8,
    sform=None,
    qform=None,
    qfac=1.0,
    magic=b"n+1\x00",
    endian="<",
    ndim=3,
    extra_dims=(1, 1, 1, 1),
    vox_offset=352.0,
    scale=(1.0, 0.0),
):
    """Assemble a raw 348-byte NIfTI-1 header field by field."""
    h = bytearray(348)
    struct.pack_into(endian + "i", h, 0, 348)
    dim = [ndim, *dims, *extra_dims][:8]
    struct.pack_into(endian + "8h", h, 40, *dim)
    struct.pack_into(endian + "h", h, 70, datatype)
    struct.pack_into(endian + "h", h, 72, bitpix)
    struct.pack_into(endian + "8f", h, 76, qfac, *pixdim, 0, 0, 0, 0)
    struct.pack_into(endian + "f", h, 108, vox_offset)
    struct.pack_into(endian + "2f", h, 112, *scale)  # scl_slope, scl_inter
    if sform is not None:
        struct.pack_into(endian + "2h", h, 252, 0, 2)
        struct.pack_into(endian + "4f", h, 280, *sform[0])
        struct.pack_into(endian + "4f", h, 296, *sform[1])
        struct.pack_into(endian + "4f", h, 312, *sform[2])
    elif qform is not None:
        struct.pack_into(endian + "2h", h, 252, 1, 0)
        struct.pack_into(endian + "3f", h, 256, *qform)
    h[344:348] = magic
    return bytes(h)


def write_raw(path, header, data, endian="<"):
    body = np.asarray(data).astype(np.asarray(data).dtype.newbyteorder(endian))
    path.write_bytes(header + b"\x00" * 4 + body.tobytes(order="F"))


class TestRoundTrip:
    def test_label_volume_value_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 215, size=(3, 3, 3)).astype(np.uint16)
        vol = Volume(data, (0.75, 0.75, 1.65), ("P", "I", "R"), kind="instance")
        p = tmp_path / "v.nii.gz"
        write_nifti(vol, p)
        back = read_nifti(p)
        assert back.kind == "semantic" and np.array_equal(back.data, data)
        assert back.orientation == ("P", "I", "R")
        assert back.dims == vol.dims
        # header spacing fields are float32 by format
        assert back.spacing == tuple(float(np.float32(s)) for s in vol.spacing)

    def test_uncompressed_nii(self, tmp_path):
        data = np.arange(24, dtype=np.int32).reshape(2, 3, 4)
        vol = Volume(data, (1.0, 2.0, 0.5), ("I", "R", "A"), kind="semantic")
        p = tmp_path / "v.nii"
        write_nifti(vol, p)
        back = read_nifti(p)
        assert np.array_equal(back.data, data)
        assert back.orientation == ("I", "R", "A")
        assert back.spacing == (1.0, 2.0, 0.5)

    def test_intensity_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(4, 5, 6)).astype(np.float32)
        vol = Volume(data, (1.0, 1.0, 1.0))
        p = tmp_path / "v.nii.gz"
        write_nifti(vol, p)
        back = read_nifti(p)
        assert back.kind == "intensity"
        assert np.array_equal(back.data, data)

    def test_all_canonical_orientations_roundtrip(self, tmp_path):
        from itertools import permutations, product

        data = np.arange(8, dtype=np.uint16).reshape(2, 2, 2)
        fams = ["RL", "AP", "SI"]
        for perm in permutations(range(3)):
            for signs in product(range(2), repeat=3):
                codes = tuple(fams[perm[a]][signs[a]] for a in range(3))
                vol = Volume(data, (1.0, 2.0, 3.0), codes, kind="semantic")
                p = tmp_path / "o.nii"
                write_nifti(vol, p)
                assert read_nifti(p).orientation == codes

    @pytest.mark.parametrize("name", ["v.nii", "v.nii.gz", "short.nii.gz"])
    def test_read_closes_every_file_it_opens(self, name, tmp_path, monkeypatch):
        path = tmp_path / name
        if name.startswith("short"):
            path.write_bytes(gzip.compress(b"\x00" * 20))
        else:
            write_nifti(Volume(np.ones((2, 3, 4), dtype=np.uint16), kind="semantic"), path)
        opened = []
        real_open = builtins.open

        def recording_open(*args, **kwargs):
            fh = real_open(*args, **kwargs)
            opened.append(fh)
            return fh

        monkeypatch.setattr(builtins, "open", recording_open)
        if name.startswith("short"):
            with pytest.raises(NiftiError):
                read_nifti(path)
        else:
            read_nifti(path)
        monkeypatch.undo()
        assert opened
        assert all(fh.closed for fh in opened)

    def test_gzip_output_is_unchanged(self, tmp_path):
        # the bytes of level-1 output from zlib's deflate; a user's masks
        # must not change with how the toolkit's own exchange files are written
        i, j, k = np.indices((24, 40, 12))
        labels = np.where((i - 12) ** 2 + (j % 10 - 5) ** 2 < 20, 1 + j // 10, 0).astype(np.uint16)
        intensity = (100 * labels + (7 * i + 3 * j + k) % 13).astype(np.float32)
        want = {
            "labels": "b0e56947f32436cd5c0bea9513a16bbc451939a4a6dd20b62382e8b1e3d8438b",
            "intensity": "0d834516f7853aa19635a5a88880b1645500b8883883dc0b08e8f4fce7d8178b",
        }
        for name, data, kind in (("labels", labels, "semantic"), ("intensity", intensity, "intensity")):
            path = tmp_path / f"{name}.nii.gz"
            write_nifti(Volume(data, (0.75, 0.75, 1.65), ("P", "I", "R"), kind=kind), path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == want[name], name

    @pytest.mark.parametrize("shape", [(1, 1, 1), (1, 37, 1), (5, 1, 3), (3, 16, 2), (4, 33, 5), (2, 50, 1)])
    def test_voxels_equal_one_fortran_order_copy(self, shape, tmp_path):
        # write_nifti copies the voxels in slabs along axis 1; the bytes
        # must be those of one whole-array copy, whatever the axis length
        rng = np.random.default_rng(sum(shape))
        cases = [
            ("semantic", rng.integers(0, 65536, size=shape).astype(np.uint16), "<u2"),
            ("instance", rng.integers(0, 300, size=shape[::-1]).astype(np.int64).T, "<u2"),
            ("intensity", rng.normal(size=shape).astype(np.float32), "<f4"),
            ("intensity", rng.normal(size=shape), "<f4"),
        ]
        for kind, data, dtype in cases:
            path = tmp_path / "v.nii"
            write_nifti(Volume(data, kind=kind), path)
            want = np.empty(data.shape, dtype=dtype, order="F")
            want[...] = data
            assert path.read_bytes()[352:] == want.tobytes(order="F"), (kind, data.dtype)

    def test_label_range_guard(self, tmp_path):
        vol = Volume(np.full((2, 2, 2), 70000, dtype=np.int64), kind="instance")
        with pytest.raises(NiftiError):
            write_nifti(vol, tmp_path / "v.nii")

    def test_axis_longer_than_int16_raises(self, tmp_path):
        vol = Volume(np.zeros((1, 40000, 1), np.uint16), kind="semantic")
        with pytest.raises(NiftiError, match="axis 1 has 40000 voxels; NIfTI-1 stores at most 32767"):
            write_nifti(vol, tmp_path / "v.nii")


def traced_peak(fn):
    """``fn()`` and the tracemalloc peak it reached above what was held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestOneCopyEachWay:
    """A write holds the file image once; a read holds the file's bytes and
    one array (64^3 float32, payload 1 MiB)."""

    DIMS = (64, 64, 64)
    PAYLOAD = 4 * 64**3

    @pytest.fixture()
    def vol(self):
        data = np.random.default_rng(0).normal(size=self.DIMS).astype(np.float32)
        return Volume(data, kind="intensity")

    def test_nii_write(self, vol, tmp_path):
        _, peak = traced_peak(lambda: write_nifti(vol, tmp_path / "v.nii"))
        assert peak < 1.5 * self.PAYLOAD, peak / self.PAYLOAD

    @pytest.mark.parametrize("name", ["v.nii", "v.nii.gz"])
    def test_read(self, name, vol, tmp_path):
        write_nifti(vol, tmp_path / name)
        back, peak = traced_peak(lambda: read_nifti(tmp_path / name))
        assert peak < 2.5 * self.PAYLOAD, peak / self.PAYLOAD
        assert np.array_equal(back.data, vol.data)
        assert back.data.flags.writeable and back.data.flags.c_contiguous

    @pytest.mark.parametrize("endian", ["<", ">"])
    def test_single_column_reads_back_writable(self, endian, tmp_path):
        # the F-order view of a 1x1xN file is C-contiguous as well
        path = tmp_path / "col.nii"
        hdr = make_header((1, 1, 9), datatype=512, bitpix=16, endian=endian)
        write_raw(path, hdr, np.arange(9, dtype=np.uint16).reshape(1, 1, 9), endian)
        back = read_nifti(path).data
        assert back.ravel().tolist() == list(range(9))
        back[0, 0, 0] = 7  # raises on a read-only array


class TestHandBuiltFixtures:
    def test_sform_orientation_decoding(self, tmp_path):
        # col0 -> superior (+z) * 2.0, col1 -> left (-x) * 0.5, col2 -> anterior (+y) * 1.25
        sform = [
            (0.0, -0.5, 0.0, 10.0),
            (0.0, 0.0, 1.25, -4.0),
            (2.0, 0.0, 0.0, 7.5),
        ]
        data = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4, order="F")
        hdr = make_header((2, 3, 4), pixdim=(2.0, 0.5, 1.25), sform=sform)
        p = tmp_path / "f.nii"
        write_raw(p, hdr, data)
        vol = read_nifti(p)
        assert vol.orientation == ("S", "L", "A")
        assert vol.spacing == (2.0, 0.5, 1.25)
        assert vol.dims == (2, 3, 4)
        assert np.array_equal(vol.data, data)
        assert vol.data[1, 0, 0] == 1  # first axis fastest in the file

    def test_qform_identity_with_negative_qfac(self, tmp_path):
        # b = c = d = 0 is the identity rotation; qfac flips the third column
        data = np.zeros((2, 2, 2), dtype=np.uint8)
        hdr = make_header((2, 2, 2), pixdim=(1.5, 2.5, 3.5), qform=(0.0, 0.0, 0.0), qfac=-1.0)
        p = tmp_path / "q.nii"
        write_raw(p, hdr, data)
        vol = read_nifti(p)
        assert vol.orientation == ("R", "A", "I")
        assert vol.spacing == (1.5, 2.5, 3.5)

    def test_qform_quarter_turn_about_z(self, tmp_path):
        # quaternion (a=b=c=0 except a=d=sqrt(.5)) rotates x->y, y->-x
        s = np.sqrt(0.5)
        data = np.zeros((3, 3, 3), dtype=np.uint8)
        hdr = make_header((3, 3, 3), pixdim=(1.0, 1.0, 1.0), qform=(0.0, 0.0, s), qfac=1.0)
        p = tmp_path / "q2.nii"
        write_raw(p, hdr, data)
        vol = read_nifti(p)
        assert vol.orientation == ("A", "L", "S")

    def test_no_form_falls_back_to_pixdim(self, tmp_path):
        data = np.zeros((2, 2, 2), dtype=np.uint8)
        hdr = make_header((2, 2, 2), pixdim=(0.8, 0.9, 1.1))
        p = tmp_path / "n.nii"
        write_raw(p, hdr, data)
        vol = read_nifti(p)
        assert vol.orientation == ("R", "A", "S")
        spacing32 = tuple(float(np.float32(x)) for x in (0.8, 0.9, 1.1))
        assert vol.spacing == spacing32

    def test_big_endian_file(self, tmp_path):
        data = np.arange(8, dtype=np.int16).reshape(2, 2, 2, order="F")
        hdr = make_header((2, 2, 2), datatype=4, bitpix=16, endian=">")
        p = tmp_path / "be.nii"
        write_raw(p, hdr, data, endian=">")
        vol = read_nifti(p)
        assert np.array_equal(vol.data, data)
        assert vol.data.dtype == np.int16

    def test_gzipped_fixture(self, tmp_path):
        data = np.arange(8, dtype=np.uint8).reshape(2, 2, 2, order="F")
        hdr = make_header((2, 2, 2))
        blob = hdr + b"\x00" * 4 + data.tobytes(order="F")
        p = tmp_path / "z.nii.gz"
        with open(p, "wb") as fh:
            with gzip.GzipFile(fileobj=fh, mode="wb") as gz:
                gz.write(blob)
        vol = read_nifti(p)
        assert np.array_equal(vol.data, data)

    @pytest.mark.parametrize("name", ["v.nii", "v.nii.gz"])
    @pytest.mark.parametrize("vox_offset", [0.0, 348.0, 350.0])
    def test_voxels_never_start_before_the_extension_flag_ends(self, tmp_path, name, vox_offset):
        # a single file holds the 348-byte header, then a 4-byte extension flag
        data = np.arange(120, dtype=np.uint16).reshape(4, 5, 6)
        got = []
        for offset in (vox_offset, 352.0):
            blob = make_header(data.shape, datatype=512, bitpix=16, vox_offset=offset) + bytes(4) + data.tobytes("F")
            p = tmp_path / f"{offset}-{name}"
            p.write_bytes(gzip.compress(blob, mtime=0) if name.endswith(".gz") else blob)
            got.append(read_nifti(p).data)
        assert np.array_equal(got[0], got[1]) and np.array_equal(got[0], data)


def same_array(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b)


class TestScaleFields:
    DATA = np.arange(24, dtype=np.uint16).reshape(2, 3, 4, order="F")

    def read(self, tmp_path, scale):
        p = tmp_path / "scaled.nii"
        write_raw(p, make_header((2, 3, 4), datatype=512, bitpix=16, scale=scale), self.DATA)
        return read_nifti(p)

    # nibabel writes NaN/NaN by default; a slope of 0 or inf also means unscaled
    @pytest.mark.parametrize("scale", [(np.nan, np.nan), (0.0, 3.0), (np.inf, np.nan)],
                             ids=["nan-nan", "zero-slope", "inf-slope"])
    def test_unscaled_fields_keep_the_stored_voxels(self, scale, tmp_path):
        vol = self.read(tmp_path, scale)
        assert vol.kind == "semantic"
        assert same_array(vol.data, self.DATA)

    def test_slope_and_intercept_scale(self, tmp_path):
        vol = self.read(tmp_path, (2.0, 1.0))
        assert vol.kind == "intensity"
        assert same_array(vol.data, self.DATA.astype(np.float32) * 2 + 1)

    @pytest.mark.parametrize("slope", [1.0, 2.0])
    def test_finite_slope_with_nan_intercept_raises(self, slope, tmp_path):
        with pytest.raises(NiftiError, match="scl_inter"):
            self.read(tmp_path, (slope, np.nan))


class TestRejections:
    def test_truncated_data(self, tmp_path):
        data = np.arange(64, dtype=np.uint16).reshape(4, 4, 4)
        vol = Volume(data, kind="semantic")
        p = tmp_path / "t.nii"
        write_nifti(vol, p)
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) - 60])
        with pytest.raises(NiftiError, match="truncated"):
            read_nifti(p)

    @pytest.mark.parametrize("name", ["v.nii", "v.nii.gz"])
    @pytest.mark.parametrize(
        "dims, vox_offset, held",
        [((30000,) * 3, 352.0, "16 of 54000000000000"), ((2, 2, 2), float("inf"), "0 of 16")],
        ids=["54TB-claimed", "offset-inf"],
    )
    def test_header_claims_more_than_the_file_holds(self, tmp_path, name, dims, vox_offset, held):
        # sixteen voxel bytes follow the header; nothing is allocated for the claim
        blob = make_header(dims, datatype=512, bitpix=16, vox_offset=vox_offset) + bytes(4 + 16)
        p = tmp_path / name
        p.write_bytes(gzip.compress(blob, mtime=0) if name.endswith(".gz") else blob)
        with pytest.raises(NiftiError, match=rf"truncated data section \({held} bytes\)"):
            read_nifti(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "h.nii"
        p.write_bytes(b"\x00" * 100)
        with pytest.raises(NiftiError, match="header"):
            read_nifti(p)

    @pytest.mark.parametrize("how", ["cut", "method", "deflate", "crc", "stored", "tail"])
    def test_corrupt_gzip_stream(self, tmp_path, how):
        raw = tmp_path / "v.nii"
        write_nifti(Volume(np.arange(4096, dtype=np.uint16).reshape(16, 16, 16), kind="semantic"), raw)
        p = tmp_path / "v.nii.gz"
        p.write_bytes(corrupt_gzip(raw.read_bytes(), how))
        with pytest.raises(NiftiError, match="v.nii.gz: corrupt gzip stream"):
            read_nifti(p)

    def test_4d_rejected(self, tmp_path):
        hdr = make_header((2, 2, 2), ndim=4, extra_dims=(5, 1, 1, 1))
        p = tmp_path / "4d.nii"
        write_raw(p, hdr, np.zeros((2, 2, 2, 5), dtype=np.uint8))
        with pytest.raises(NiftiError, match="4D"):
            read_nifti(p)

    def test_trailing_singleton_dims_accepted(self, tmp_path):
        hdr = make_header((2, 3, 4), ndim=4, extra_dims=(1, 1, 1, 1))
        data = np.arange(24, dtype=np.uint8).reshape(2, 3, 4, order="F")
        p = tmp_path / "s.nii"
        write_raw(p, hdr, data)
        assert read_nifti(p).dims == (2, 3, 4)

    def test_unsupported_datatype(self, tmp_path):
        hdr = make_header((2, 2, 2), datatype=128, bitpix=24)  # RGB
        p = tmp_path / "rgb.nii"
        write_raw(p, hdr, np.zeros((2, 2, 2), dtype=np.uint8))
        with pytest.raises(NiftiError, match="datatype"):
            read_nifti(p)

    def test_bad_magic(self, tmp_path):
        hdr = make_header((2, 2, 2), magic=b"ni1\x00")
        p = tmp_path / "m.nii"
        write_raw(p, hdr, np.zeros((2, 2, 2), dtype=np.uint8))
        with pytest.raises(NiftiError, match="magic"):
            read_nifti(p)

    def test_not_nifti(self, tmp_path):
        p = tmp_path / "x.nii"
        p.write_bytes(b"A" * 400)
        with pytest.raises(NiftiError, match="sizeof_hdr"):
            read_nifti(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("form", ["sform", "pixdim"])
    def test_non_finite_spacing_rejected(self, bad, form, tmp_path):
        if form == "sform":
            hdr = make_header((2, 2, 2), sform=[(bad, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
        else:
            hdr = make_header((2, 2, 2), pixdim=(bad, 1.0, 1.0))
        p = tmp_path / "s.nii"
        write_raw(p, hdr, np.zeros((2, 2, 2), dtype=np.uint8))
        with pytest.raises(NiftiError, match="voxel spacing"):
            read_nifti(p)

    def test_oblique_45_degree_affine_rejected(self, tmp_path):
        # two columns share the same dominant world axis
        sform = [
            (1.0, 1.0, 0.0, 0.0),
            (0.0, 0.0, 1.0, 0.0),
            (0.0, 0.0, 0.0, 0.0),
        ]
        hdr = make_header((2, 2, 2), sform=sform)
        p = tmp_path / "ob.nii"
        write_raw(p, hdr, np.zeros((2, 2, 2), dtype=np.uint8))
        with pytest.raises(NiftiError):
            read_nifti(p)
