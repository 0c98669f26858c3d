"""Semantic/instance consistency enforcement.

Three steps, in a documented order: fill holes (per semantic class, then
per instance id), zero out instance voxels whose semantic voxel is not an
instance-bearing structure, and attach every remaining orphaned semantic
component to the instance with the most neighboring voxels. After the
pass, instance-relevant semantic foreground and instance foreground are
the same voxel set.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np
import scipy.ndimage as ndi

from .assembly import vertebra_above, vertebra_centroids
from .labels import instance_relevant_codes, is_vertebra_id, structure_instance_id, writable_instances
from .volume import Volume, as_array, check_same_grid, concurrently, connected_components, fill_holes

_RELEVANT = sorted(instance_relevant_codes())
_RELEVANT_LO, _RELEVANT_HI = _RELEVANT[0], _RELEVANT[-1]


@dataclass
class ConsistencyReport:
    holes_filled: int = 0
    zeroed: int = 0
    orphans_assigned: list[tuple[int, int]] = field(default_factory=list)
    demoted_semantic: int = 0

    def to_dict(self) -> dict:
        return {**asdict(self), "orphans_assigned": [list(t) for t in self.orphans_assigned]}


def _relevant_mask(sem: np.ndarray) -> np.ndarray:
    return (sem >= _RELEVANT_LO) & (sem <= _RELEVANT_HI)


def foreground_equal(semantic, instance) -> bool:
    """True iff instance-bearing semantic foreground == instance foreground."""
    check_same_grid(semantic, instance)
    sem, inst = as_array(semantic), as_array(instance)
    return bool(np.array_equal(_relevant_mask(sem), inst > 0))


def _fill_label_holes(arr: np.ndarray) -> int:
    """Fill the holes of each label in ascending order, in place; returns
    voxels added.

    A label's holes are the 6-connected components of the voxels outside
    it that reach no face of the volume; their unlabeled voxels take the
    label. ``fill_holes`` on the label's tight bounding box finds them
    exactly: a hole is enclosed by the label, so it lies inside the box,
    and a component that reaches a face of the box reaches a face of the
    volume, directly or through the space outside the box, which holds
    none of the label. Filling only turns background into the label being
    filled, so no label's voxels change and the boxes taken before the
    loop stay exact.
    """
    added = 0
    for value, box in enumerate(ndi.find_objects(arr), start=1):
        if box is None:
            continue
        crop = arr[box]
        add = fill_holes(crop == value) & (crop == 0)
        crop[add] = value
        added += int(add.sum())
    return added


def _neighbor_majority(inst: np.ndarray, comp: np.ndarray, box) -> int:
    """Instance id with the most 26-neighborhood contact voxels; 0 if none.

    Ties go to the smaller id.
    """
    grown = ndi.binary_dilation(comp, structure=np.ones((3, 3, 3), dtype=bool))
    shell = grown & ~comp
    values = inst[box][shell]
    values = values[values > 0]
    if values.size == 0:
        return 0
    counts = np.bincount(values)
    return int(np.argmax(counts))  # argmax returns the first (smallest) maximum


def enforce_consistency(semantic, instance):
    """Make the two masks consistent; returns (semantic, instance, report).

    Inputs are not modified. Works on Volumes or plain arrays; Volume
    inputs come back as Volumes on the same grid. An instance dtype that
    cannot hold every instance id (int8, uint8) comes back widened.
    """
    check_same_grid(semantic, instance)
    sem_vol = semantic if isinstance(semantic, Volume) else None
    inst_vol = instance if isinstance(instance, Volume) else None
    sem = as_array(semantic).copy()
    inst = writable_instances(as_array(instance))
    report = ConsistencyReport()

    # sem is a copy and inst another array, so their fills are independent
    report.holes_filled += sum(concurrently(partial(_fill_label_holes, sem), partial(_fill_label_holes, inst)))

    relevant = _relevant_mask(sem)
    has_vertebra = bool((is_vertebra_id(inst) & relevant).any())
    if not has_vertebra and relevant.any():
        # no vertebra instance will survive the zero-out step, so nothing
        # can anchor the instance-bearing semantics: demote them instead,
        # then fill again so the demotion leaves no enclosed pockets; the
        # refill adds only codes still present, so no voxel stays relevant
        report.demoted_semantic = int(relevant.sum())
        sem[relevant] = 0
        report.holes_filled += _fill_label_holes(sem)
        relevant[:] = False

    stray = (inst > 0) & ~relevant
    report.zeroed = int(stray.sum())
    inst[stray] = 0

    orphan = relevant & (inst == 0)
    if orphan.any():
        # both only read sem, inst and orphan
        centroids, comps = concurrently(
            partial(vertebra_centroids, sem, inst), partial(connected_components, orphan, connectivity=26)
        )
        for ci, local in enumerate(ndi.find_objects(comps.labels), start=1):
            # the component's box in the grid, then grown by one voxel for its contact shell
            tight = [slice(o.start + b.start, o.start + b.stop) for o, b in zip(comps.box, local)]
            box = tuple(slice(max(0, t.start - 1), min(d, t.stop + 1)) for t, d in zip(tight, orphan.shape))
            margins = [(t.start - g.start, g.stop - t.stop) for t, g in zip(tight, box)]
            comp = np.pad(comps.labels[local] == ci, margins)
            target = _neighbor_majority(inst, comp, box)
            if target == 0:
                # no instance contact: key to the nearest vertebra above
                k, _ = vertebra_above(centroids, comps.centroids[ci - 1][1])
                dominant = int(np.argmax(np.bincount(sem[box][comp])))
                target = structure_instance_id(dominant, k)
            # components are 26-separated, so no earlier one wrote into comp
            inst[box][comp] = target
            report.orphans_assigned.append((int(comp.sum()), int(target)))

    sem_out = sem_vol.with_data(sem) if sem_vol is not None else sem
    inst_out = inst_vol.with_data(inst) if inst_vol is not None else inst
    return sem_out, inst_out, report
