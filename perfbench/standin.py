"""Stand-in model for the `exec:` predictor protocol.

    python3 standin.py {semantic|instance} TABLES INPUT OUTPUT [--log DIR]

The benchmark writes TABLES during set-up: the ground-truth masks as
``.npy`` files and ``tables.json``, which maps a digest of every input
the pipeline will send to the position of that input in the volume. The
script reads INPUT, looks its digest up, answers from ground truth and
writes OUTPUT. Each call is independent of every other, so call order
and concurrency do not matter. An input with an unknown digest exits 1.

semantic: INPUT is an intensity patch; OUTPUT is the ground-truth label
patch at the same position.

instance: INPUT is a semantic cutout window. The protocol passes no
cutout centre, and windows shifted to fit inside the volume can be
byte-identical, so the centre vertebra is taken from the window alone:
the vertebra whose corpus centroid is nearest the window centre. OUTPUT
labels it 2, the vertebra above 1 and the one below 3.

With ``--log DIR`` the script writes ``DIR/<output name>.json`` with its
own read, model and write times and the bytes it read and wrote.

Like a model process, the script needs only numpy: it reads the
little-endian single-file NIfTI-1 the toolkit writes and answers with the
input's header, switched to unsigned 16-bit labels.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import struct
import sys
import time
from pathlib import Path

import numpy as np

TABLES_JSON = "tables.json"
SEMANTIC_GT = "semantic_gt.npy"
INSTANCE_GT = "instance_gt.npy"
ABOVE, CENTER, BELOW = 1, 2, 3
HEADER = 352  # NIfTI-1 header plus the 4-byte extension flag
DTYPES = {16: np.dtype("<f4"), 512: np.dtype("<u2")}


def digest(data: np.ndarray) -> str:
    """Digest of an array's shape, dtype and C-order bytes."""
    arr = np.ascontiguousarray(data)
    h = hashlib.sha1(f"{arr.shape}{arr.dtype.str}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def save_tables(out_dir: Path, semantic_gt, instance_gt, semantic, instance, centroids) -> None:
    """Write what the script needs: ground truth and the digest tables.

    ``semantic`` and ``instance`` map input digests to voxel origins;
    ``centroids`` maps each vertebra id to its corpus centroid.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    np.save(out_dir / SEMANTIC_GT, semantic_gt)
    np.save(out_dir / INSTANCE_GT, instance_gt)
    tables = {
        "semantic": {d: [int(o) for o in origin] for d, origin in semantic.items()},
        "instance": {d: [int(o) for o in origin] for d, origin in instance.items()},
        "centroids": {str(v): [float(c) for c in xyz] for v, xyz in centroids.items()},
    }
    (out_dir / TABLES_JSON).write_text(json.dumps(tables))


def _window(gt: np.ndarray, origin, shape) -> np.ndarray:
    """Ground-truth window at ``origin`` (any sign), zero-padded outside."""
    out = np.zeros(shape, dtype=gt.dtype)
    src, dst = [], []
    for o, s, d in zip(origin, shape, gt.shape):
        lo, hi = max(0, o), min(d, o + s)
        if lo >= hi:
            return out
        src.append(slice(lo, hi))
        dst.append(slice(lo - o, hi - o))
    out[tuple(dst)] = gt[tuple(src)]
    return out


def answer(mode: str, tables_dir: Path, data: np.ndarray) -> np.ndarray:
    tables = json.loads((tables_dir / TABLES_JSON).read_text())
    origin = tables[mode].get(digest(data))
    if origin is None:
        raise LookupError(f"no {mode} input with this digest in {tables_dir}")
    if mode == "semantic":
        gt = np.load(tables_dir / SEMANTIC_GT, mmap_mode="r")
        return _window(gt, origin, data.shape)
    centroids = {int(v): np.asarray(c) for v, c in tables["centroids"].items()}
    centre = np.asarray(origin) + (np.asarray(data.shape) - 1) / 2.0
    mid = min(centroids, key=lambda v: (float(np.linalg.norm(centroids[v] - centre)), v))
    window = _window(np.load(tables_dir / INSTANCE_GT, mmap_mode="r"), origin, data.shape)
    out = np.zeros(data.shape, dtype=np.uint16)
    for label, vid in ((ABOVE, mid - 1), (CENTER, mid), (BELOW, mid + 1)):
        if vid in centroids:
            out[window == vid] = label
    return out


def read_nifti(path: Path) -> tuple[bytes, np.ndarray]:
    """Header bytes and voxel array of a file the toolkit wrote."""
    with gzip.open(path, "rb") as fh:
        blob = fh.read()
    dims = struct.unpack_from("<3h", blob, 42)
    dtype = DTYPES[struct.unpack_from("<h", blob, 70)[0]]
    offset = int(struct.unpack_from("<f", blob, 108)[0])
    data = np.frombuffer(blob, dtype=dtype, count=int(np.prod(dims)), offset=offset)
    return blob[:HEADER], data.reshape(dims, order="F")


def write_labels(path: Path, header: bytes, labels: np.ndarray) -> None:
    head = bytearray(header)
    struct.pack_into("<2h", head, 70, 512, 16)  # datatype uint16, bitpix
    struct.pack_into("<f", head, 108, float(HEADER))
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write(bytes(head) + labels.astype("<u2").tobytes(order="F"))


def main(argv: list[str]) -> int:
    args = list(argv)
    log_dir = None
    if "--log" in args:
        i = args.index("--log")
        log_dir = Path(args[i + 1])
        del args[i : i + 2]
    if len(args) != 4 or args[0] not in ("semantic", "instance"):
        print(__doc__, file=sys.stderr)
        return 2
    mode, tables_dir, in_path, out_path = args[0], Path(args[1]), Path(args[2]), Path(args[3])

    t0 = time.perf_counter()
    header, data = read_nifti(in_path)
    t1 = time.perf_counter()
    try:
        labels = answer(mode, tables_dir, data)
    except LookupError as e:
        print(e, file=sys.stderr)
        return 1
    t2 = time.perf_counter()
    write_labels(out_path, header, labels)
    t3 = time.perf_counter()
    if log_dir is not None:
        record = {
            "mode": mode,
            "read_s": t1 - t0,
            "model_s": t2 - t1,
            "write_s": t3 - t2,
            "in_bytes": in_path.stat().st_size,
            "out_bytes": out_path.stat().st_size,
        }
        (log_dir / f"{out_path.name}.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
