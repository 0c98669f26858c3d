import numpy as np
import pytest

from spineseg.phantom import PhantomSpec, generate_phantom


@pytest.fixture(scope="session")
def standard_phantom():
    """Default seven-vertebra phantom shared across test modules."""
    return generate_phantom(PhantomSpec(seed=42))


@pytest.fixture(scope="session")
def fused_phantom():
    """Five vertebrae with 2 and 3 fused into one unit."""
    return generate_phantom(PhantomSpec(n_vertebrae=5, fuse_pairs=((2, 3),), seed=7))


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
