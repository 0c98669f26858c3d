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
    free = (out == 0) & (sub > 0)
    out[free] = sub[free]
    cord = src.cord.data > 0
    out[cord & ((out == 0) | (out == Structure.SPINAL_CANAL))] = Structure.SPINAL_CORD
    return src.base.with_data(out, kind="semantic")


def _endplate_layer(data: np.ndarray) -> np.ndarray:
    """The corpus/disc transition layer, whatever its voxels hold now.

    Candidate voxels are the holes of corpus+disc after a 3x3x3 closing
    (the closing bounds how wide a gap still counts as "between"); a
    candidate is in the layer when it sits 6-adjacent to at least one
    corpus voxel and one disc voxel. Only corpus and disc voxels decide it.
    """
    corpus = data == Structure.CORPUS
    ivd = data == Structure.IVD
    ci = corpus | ivd
    if not corpus.any() or not ivd.any():
        return np.zeros(data.shape, dtype=bool)
    cross = ndi.generate_binary_structure(3, 1)
    layer = fill_holes(binary_closing(ci, 1)) & ~ci
    layer &= ndi.binary_dilation(corpus, structure=cross)
    layer &= ndi.binary_dilation(ivd, structure=cross)
    return layer


def _label_endplates(mask: Volume, layer: np.ndarray) -> Volume:
    convert = layer & (mask.data == 0)
    if not convert.any():
        return mask
    out = mask.data.copy()
    out[convert] = Structure.ENDPLATE
    return mask.with_data(out)


def synthesize_endplates(mask: Volume) -> Volume:
    """Label the corpus/disc transition layer as endplate.

    A voxel of the layer becomes endplate when it is currently
    background. Already labeled voxels never change, so the operation is
    idempotent.
    """
    return _label_endplates(mask, _endplate_layer(mask.data))


def fuse_sources(src: AnnotationSources) -> tuple[Volume, Volume, int]:
    """Merge the sources, then synthesize endplates.

    Returns the merged mask, the fused mask and the order-sensitive voxel
    count: cord voxels that would hold endplate had the cord gone in after
    synthesis. The layer depends on corpus and disc alone, which the cord
    never touches, so that order would label endplate at the cord voxels
    that are endplate already and at those of the layer that base and
    substructures leave as background.
    """
    merged = merge_sources(src)
    layer = _endplate_layer(merged.data)
    background = (src.base.data == 0) & (src.substructures.data == 0)
    endplate_without_cord = (merged.data == Structure.ENDPLATE) | (layer & background)
    order_sensitive = int((endplate_without_cord & (src.cord.data > 0)).sum())
    return merged, _label_endplates(merged, layer), order_sensitive
