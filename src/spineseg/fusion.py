"""Combining separate annotation sources into one semantic mask.

Three sources cover different structures: a base mask (corpus, disc,
canal, sacrum), a substructure mask (the nine remaining vertebra parts),
and a binary spinal-cord mask. Merging never relabels an existing voxel,
with one exception: cord may overwrite canal, since the cord lies inside
the canal. Endplates are not annotated anywhere; they are synthesized as
the transition layer between corpus and disc.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.ndimage as ndi

from .labels import Structure
from .volume import Volume, binary_closing, fill_holes


@dataclass(frozen=True)
class AnnotationSources:
    """Aligned annotation volumes from the three upstream tools.

    Base and substructure voxels must hold structure codes 0..14; any
    nonzero cord voxel is cord.
    """

    base: Volume
    substructures: Volume
    cord: Volume

    def __post_init__(self):
        if not (self.base.same_grid(self.substructures) and self.base.same_grid(self.cord)):
            raise ValueError("annotation sources live on different grids")
        for name, vol in (("base", self.base), ("substructure", self.substructures)):
            outside = vol.data[~np.isin(vol.data, np.arange(len(Structure)))]
            if outside.size:
                raise ValueError(f"{name} annotation holds label {outside.min()}, not a structure code")


def merge_sources(src: AnnotationSources) -> Volume:
    """Overlay the sources with base-first priority.

    Substructure labels land only on background; cord lands on background
    or canal. Nothing else is overwritten.
    """
    out = src.base.data.astype(np.uint16, copy=True)
    sub = src.substructures.data
    out[(out == 0) & (sub > 0)] = sub[(out == 0) & (sub > 0)]
    cord = src.cord.data > 0
    out[cord & ((out == 0) | (out == Structure.SPINAL_CANAL))] = Structure.SPINAL_CORD
    return src.base.with_data(out, kind="semantic")


def synthesize_endplates(mask: Volume) -> Volume:
    """Label the corpus/disc transition layer as endplate.

    Candidate voxels are the holes of corpus+disc after a 3x3x3 closing
    (the closing bounds how wide a gap still counts as "between"). A
    candidate becomes endplate when it is currently background and sits
    6-adjacent to at least one corpus voxel and one disc voxel. Already
    labeled voxels never change, so the operation is idempotent.
    """
    data = mask.data
    corpus = data == Structure.CORPUS
    ivd = data == Structure.IVD
    ci = corpus | ivd
    if not corpus.any() or not ivd.any():
        return mask

    candidates = fill_holes(binary_closing(ci, 1)) & ~ci & (data == 0)
    if not candidates.any():
        return mask

    cross = ndi.generate_binary_structure(3, 1)
    near_corpus = ndi.binary_dilation(corpus, structure=cross)
    near_ivd = ndi.binary_dilation(ivd, structure=cross)
    convert = candidates & near_corpus & near_ivd
    if not convert.any():
        return mask

    out = data.copy()
    out[convert] = Structure.ENDPLATE
    return mask.with_data(out)
