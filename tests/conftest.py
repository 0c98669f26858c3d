import gzip
import threading

import numpy as np
import pytest

import spineseg.volume
from spineseg.fusion import AnnotationSources, merge_sources, synthesize_endplates
from spineseg.labels import Structure
from spineseg.phantom import PhantomSpec, generate_phantom


@pytest.fixture(scope="session")
def standard_phantom():
    """Default seven-vertebra phantom shared across test modules."""
    return generate_phantom(PhantomSpec(seed=42))


@pytest.fixture(scope="session")
def fused_phantom():
    """Five vertebrae with 2 and 3 fused into one unit."""
    return generate_phantom(PhantomSpec(n_vertebrae=5, fuse_pairs=((2, 3),), seed=7))


@pytest.fixture
def at_cpus(monkeypatch):
    """``at_cpus(n, fn, spied)`` calls ``fn()`` with ``usable_cpus`` patched
    to return ``n``; returns ``fn()``'s result and whether any of the
    ``(module, name)`` functions in ``spied`` ran off the calling thread."""

    def run(n, fn, spied=()):
        caller = threading.get_ident()
        elsewhere = []
        with monkeypatch.context() as m:
            m.setattr(spineseg.volume, "usable_cpus", lambda: n)
            for module, name in spied:

                def spy(*args, _inner=getattr(module, name), **kwargs):
                    elsewhere.append(threading.get_ident() != caller)
                    return _inner(*args, **kwargs)

                m.setattr(module, name, spy)
            return fn(), any(elsewhere)

    return run


def bounding_box(mask, margin=0):
    """Tight slice box around the foreground (grown by ``margin``, clipped
    to the volume), or None for an empty mask; a helper for reference
    implementations in the tests."""
    mask = np.asarray(mask)
    nz = np.nonzero(mask)
    if nz[0].size == 0:
        return None
    return tuple(
        slice(max(0, int(axis.min()) - margin), min(dim, int(axis.max()) + 1 + margin))
        for axis, dim in zip(nz, mask.shape)
    )


def two_pass_order_sensitive(base, sub, cord):
    """Order-sensitive fusion voxels by a second merge and synthesis with
    the cord zeroed: cord voxels that hold endplate when the cord goes in
    after synthesis; a reference for ``fusion.fuse_sources``."""
    no_cord = AnnotationSources(base, sub, cord.with_data(np.zeros_like(cord.data)))
    alt = synthesize_endplates(merge_sources(no_cord))
    return int(((alt.data == Structure.ENDPLATE) & (cord.data > 0)).sum())


def corrupt_gzip(nii: bytes, how: str) -> bytes:
    """The NIfTI file ``nii`` gzipped and then broken: "cut" to half its
    length (EOFError), with an unknown compression "method" in the gzip
    header (BadGzipFile), with "deflate" data whose first block has the
    reserved type (zlib.error), with one byte of the "crc" trailer
    flipped, as a "stored" (level-0) member with its last voxel byte
    flipped, or with a "tail" of bytes that are no gzip member (all three
    BadGzipFile)."""
    if how == "stored":
        blob = bytearray(gzip.compress(nii, compresslevel=0, mtime=0))
        blob[blob.rindex(nii[-32:]) + 31] ^= 1  # stored blocks hold the bytes verbatim
        return bytes(blob)
    blob = bytearray(gzip.compress(nii, mtime=0))
    if how == "cut":
        return bytes(blob[: len(blob) // 2])
    if how == "crc":
        blob[-8] ^= 1
        return bytes(blob)
    if how == "tail":
        return bytes(blob) + b"trailing bytes"
    # 7 is no method (8 is deflate), and as a block header it reads BFINAL=1, BTYPE=3
    blob[{"method": 2, "deflate": 10}[how]] = 7
    return bytes(blob)
