"""Minimal NIfTI-1 reader/writer for single 3D images (.nii / .nii.gz).

Covers exactly what the toolkit needs: integer label volumes round-trip
value-exactly (stored as unsigned 16-bit), intensity volumes as float32,
spacing and orientation carried in the standard affine fields. Reading
decodes orientation codes from the sform when present, the qform
quaternion otherwise, and falls back to pixdim with RAS axes when the
file carries neither. Both endiannesses are accepted on read; files are
written little-endian with an sform.
"""

from __future__ import annotations

import gzip
import struct
import zlib
from pathlib import Path

import numpy as np

from .labels import LABEL_MAX, checked_labels
from .volume import AXIS_CODES, Volume, checked_spacing

HEADER_SIZE = 348
DATA_OFFSET = HEADER_SIZE + 4  # the header, then the 4-byte extension flag
MAGIC_SINGLE = b"n+1\x00"

# NIfTI-1 datatype code -> numpy dtype (endian applied at read time)
_DTYPES = {
    2: "u1",
    4: "i2",
    8: "i4",
    16: "f4",
    64: "f8",
    256: "i1",
    512: "u2",
    768: "u4",
    1024: "i8",
}
_LABEL_CODE = 512  # uint16
_INTENSITY_CODE = 16  # float32
_GZIP_LEVEL = 1  # about 6x faster than level 9; a label mask still shrinks to about 2% of raw
_COPY_SLAB = 16  # axis-1 planes per voxel copy in write_nifti
_DIM_MAX = 32767  # the header stores each axis length as int16


class NiftiError(ValueError):
    """Raised for malformed, truncated, or unsupported NIfTI files."""


def _open_for_read(path: Path):
    with open(path, "rb") as raw:
        gzipped = raw.read(2) == b"\x1f\x8b"
    return gzip.open(path, "rb") if gzipped else open(path, "rb")


def _affine_to_codes(affine3: np.ndarray) -> tuple[str, str, str]:
    """Dominant world axis per voxel axis; must form a bijection."""
    codes = []
    taken = set()
    for j in range(3):
        col = affine3[:, j]
        if not np.any(col):
            raise NiftiError("affine has a zero column; orientation undefined")
        i = int(np.argmax(np.abs(col)))
        if i in taken:
            raise NiftiError("affine maps two voxel axes to the same world axis")
        taken.add(i)
        sign = 1.0 if col[i] > 0 else -1.0
        codes.append(next(c for c, info in AXIS_CODES.items() if info == (i, sign)))
    return tuple(codes)  # type: ignore[return-value]


def _quaternion_matrix(b: float, c: float, d: float, qfac: float) -> np.ndarray:
    a_sq = 1.0 - (b * b + c * c + d * d)
    a = np.sqrt(a_sq) if a_sq > 0 else 0.0
    rot = np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - b * b - c * c],
        ]
    )
    rot[:, 2] *= -1.0 if qfac < 0 else 1.0
    return rot


def read_nifti(path, kind: str | None = None) -> Volume:
    """Read a single-file NIfTI-1 volume.

    ``kind`` overrides the inferred volume kind; by default integer data
    becomes "semantic" and floating-point data "intensity". Rejects 4D
    images, unsupported datatypes, and malformed or truncated files.
    """
    path = Path(path)
    with _open_for_read(path) as fh:
        # to the end: the gzip reader checks each member's CRC-32 and length there
        try:
            raw = fh.read()
        except (EOFError, gzip.BadGzipFile, zlib.error) as e:
            raise NiftiError(f"{path.name}: corrupt gzip stream: {e}") from None
    if len(raw) < HEADER_SIZE:
        raise NiftiError(f"{path.name}: file shorter than a NIfTI-1 header")
    header = raw[:HEADER_SIZE]

    (sizeof_hdr,) = struct.unpack("<i", header[0:4])
    if sizeof_hdr == 348:
        end = "<"
    elif struct.unpack(">i", header[0:4])[0] == 348:
        end = ">"
    else:
        raise NiftiError(f"{path.name}: not a NIfTI-1 file (sizeof_hdr != 348)")

    magic = header[344:348]
    if magic != MAGIC_SINGLE:
        raise NiftiError(f"{path.name}: unsupported magic {magic!r}; need single-file 'n+1'")

    dim = struct.unpack(end + "8h", header[40:56])
    ndim = dim[0]
    if ndim < 3:
        raise NiftiError(f"{path.name}: need a 3D image, header says {ndim}D")
    if any(d > 1 for d in dim[4 : 1 + max(3, ndim)]):
        raise NiftiError(f"{path.name}: 4D+ images are not supported")
    dims = tuple(int(d) for d in dim[1:4])
    if min(dims) < 1:
        raise NiftiError(f"{path.name}: non-positive dimension in {dims}")

    (datatype,) = struct.unpack(end + "h", header[70:72])
    if datatype not in _DTYPES:
        raise NiftiError(f"{path.name}: unsupported datatype code {datatype}")
    dt = np.dtype(end + _DTYPES[datatype])

    pixdim = struct.unpack(end + "8f", header[76:108])
    (vox_offset,) = struct.unpack(end + "f", header[108:112])
    scl_slope, scl_inter = struct.unpack(end + "2f", header[112:120])
    qform_code, sform_code = struct.unpack(end + "2h", header[252:256])

    if sform_code > 0:
        srow = struct.unpack(end + "12f", header[280:328])
        affine3 = np.array(srow, dtype=np.float64).reshape(3, 4)[:, :3]
    elif qform_code > 0:
        qb, qc, qd = struct.unpack(end + "3f", header[256:268])
        qfac = pixdim[0] if pixdim[0] != 0 else 1.0
        rot = _quaternion_matrix(qb, qc, qd, qfac)
        affine3 = rot * np.array(pixdim[1:4], dtype=np.float64)
    else:
        diag = np.abs(np.array(pixdim[1:4], dtype=np.float64))
        diag[diag == 0] = 1.0
        affine3 = np.diag(diag)

    orientation = _affine_to_codes(affine3)
    norms = [float(np.linalg.norm(affine3[:, j])) for j in range(3)]
    try:
        spacing = checked_spacing(norms, "voxel spacing")
    except ValueError as e:
        raise NiftiError(f"{path.name}: {e}")

    # no voxel comes before DATA_OFFSET (a NaN offset included); an offset
    # past the end (infinity included) leaves no voxels, not an OverflowError
    offset = int(min(vox_offset if vox_offset >= DATA_OFFSET else DATA_OFFSET, len(raw)))
    count = int(np.prod(dims))
    nbytes = count * dt.itemsize
    if len(raw) - offset < nbytes:
        raise NiftiError(f"{path.name}: truncated data section ({len(raw) - offset} of {nbytes} bytes)")
    view = np.frombuffer(raw, dtype=dt, count=count, offset=offset).reshape(dims, order="F")
    # one copy, always: ascontiguousarray would hand back the read-only
    # buffer whenever the view is C-contiguous too (dims like 1x1xN)
    data = np.array(view, dtype=dt.newbyteorder("="), order="C")
    # nibabel's rule: a zero or non-finite slope (NaN by default) means unscaled
    if scl_slope != 0.0 and np.isfinite(scl_slope):
        if not np.isfinite(scl_inter):
            raise NiftiError(f"{path.name}: scl_slope {scl_slope} with a non-finite scl_inter {scl_inter}")
        if (scl_slope, scl_inter) != (1.0, 0.0):
            data = data.astype(np.float32) * scl_slope + scl_inter
    if kind is None:
        kind = "semantic" if np.issubdtype(data.dtype, np.integer) else "intensity"
    return Volume(data, spacing, orientation, kind)


def _build_affine(vol: Volume) -> np.ndarray:
    affine = np.zeros((3, 4), dtype=np.float64)
    for j, code in enumerate(vol.orientation):
        axis, sign = AXIS_CODES[code]
        affine[axis, j] = sign * vol.spacing[j]
    return affine


def write_nifti(vol: Volume, path, *, compresslevel: int = _GZIP_LEVEL) -> None:
    """Write a volume as single-file NIfTI-1; gzip when the name ends .gz,
    at ``compresslevel`` (default 1) with a zero timestamp, so equal
    volumes give equal files. Level 0 stores the voxels uncompressed in a
    valid gzip member, for files that are read back at once.

    Label volumes are stored as unsigned 16-bit integers, intensity
    volumes as float32. The orientation/spacing go into the sform.
    """
    path = Path(path)
    data = np.asarray(vol.data)
    if vol.is_label:
        try:
            data = checked_labels(data, LABEL_MAX + 1)
        except ValueError as err:
            raise NiftiError(f"label volume does not fit unsigned 16-bit: {err}") from None
        dtype, datatype = np.dtype("<u2"), _LABEL_CODE
    else:
        dtype, datatype = np.dtype("<f4"), _INTENSITY_CODE

    for axis, n in enumerate(vol.dims):
        if n > _DIM_MAX:
            raise NiftiError(f"axis {axis} has {n} voxels; NIfTI-1 stores at most {_DIM_MAX} per axis")
    affine = _build_affine(vol)
    # header, four zero extension bytes and the voxels in one buffer
    blob = bytearray(DATA_OFFSET + data.size * dtype.itemsize)
    struct.pack_into("<i", blob, 0, HEADER_SIZE)
    struct.pack_into("<8h", blob, 40, 3, *vol.dims, 1, 1, 1, 1)
    struct.pack_into("<h", blob, 70, datatype)
    struct.pack_into("<h", blob, 72, 8 * dtype.itemsize)  # bitpix
    struct.pack_into("<8f", blob, 76, 1.0, *vol.spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", blob, 108, float(DATA_OFFSET))  # vox_offset
    struct.pack_into("<2f", blob, 112, 1.0, 0.0)  # scl_slope, scl_inter
    blob[123] = 2  # xyzt_units: millimetres
    struct.pack_into("<2h", blob, 252, 0, 1)  # qform off, sform on
    struct.pack_into("<4f", blob, 280, *affine[0])
    struct.pack_into("<4f", blob, 296, *affine[1])
    struct.pack_into("<4f", blob, 312, *affine[2])
    blob[344:348] = MAGIC_SINGLE
    voxels = np.ndarray(vol.dims, dtype=dtype, buffer=blob, offset=DATA_OFFSET, order="F")
    # slabs along axis 1 keep the C-order source and the Fortran-order
    # target near in memory; one whole-array copy strides across planes
    for j in range(0, voxels.shape[1], _COPY_SLAB):
        voxels[:, j : j + _COPY_SLAB] = data[:, j : j + _COPY_SLAB]

    if path.name.endswith(".gz"):
        with open(path, "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", compresslevel=compresslevel, mtime=0) as gz:
                gz.write(blob)
    else:
        path.write_bytes(blob)
