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
from .labels import INSTANCE_ID_MAX, Structure, checked_labels, is_instance_relevant, is_vertebra_id, structure_instance_id
from .volume import Volume, as_array, check_same_grid, concurrently, connected_components, fill_holes, overlap, window_view


@dataclass
class ConsistencyReport:
    holes_filled: int = 0
    zeroed: int = 0
    orphans_assigned: list[tuple[int, int]] = field(default_factory=list)
    demoted_semantic: int = 0

    def to_dict(self) -> dict:
        return {**asdict(self), "orphans_assigned": [list(t) for t in self.orphans_assigned]}


def foreground_equal(semantic, instance) -> bool:
    """True iff instance-bearing semantic foreground == instance foreground."""
    check_same_grid(semantic, instance)
    sem, inst = as_array(semantic), as_array(instance)
    return bool(np.array_equal(is_instance_relevant(sem), inst > 0))


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


def enforce_consistency(semantic, instance):
    """Make the two masks consistent; returns (semantic, instance, report).

    Inputs are not modified. Works on Volumes or plain arrays; Volume
    inputs come back as Volumes on the same grid. Both masks pass
    ``checked_labels`` (codes 0..14, ids 0..``INSTANCE_ID_MAX``) and come
    back as uint16.
    """
    check_same_grid(semantic, instance)
    sem = checked_labels(as_array(semantic), len(Structure)).copy()
    inst = checked_labels(as_array(instance), INSTANCE_ID_MAX + 1).copy()
    report = ConsistencyReport()

    # sem is a copy and inst another array, so their fills are independent
    report.holes_filled += sum(concurrently(partial(_fill_label_holes, sem), partial(_fill_label_holes, inst)))

    relevant = is_instance_relevant(sem)
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
        centroids, comps = concurrently(partial(vertebra_centroids, sem, inst), partial(connected_components, orphan))
        for ci, local in enumerate(ndi.find_objects(comps.labels), start=1):
            # the component's box grown by one voxel for its contact shell;
            # windows read 0 outside the volume, which the contact test drops
            size = [b.stop - b.start + 2 for b in local]
            origin = [o.start + b.start - 1 for o, b in zip(comps.box, local)]
            comp = window_view(comps.labels, [b.start - 1 for b in local], size) == ci
            shell = ndi.binary_dilation(comp, structure=np.ones((3, 3, 3), dtype=bool)) & ~comp
            contact = window_view(inst, origin, size)[shell]
            counts = np.bincount(contact[contact > 0])
            if counts.size:
                target = int(np.argmax(counts))  # ties go to the first, smaller id
            else:
                # no instance contact: key to the nearest vertebra above
                k, _ = vertebra_above(centroids, comps.centroids[ci - 1][1])
                dominant = int(np.argmax(np.bincount(window_view(sem, origin, size)[comp])))
                target = structure_instance_id(dominant, k)
            # components are 26-separated, so no shell holds another's voxel
            into_inst, into_window = overlap((0, 0, 0), inst.shape, origin, size)
            inst[into_inst][comp[into_window]] = target
            report.orphans_assigned.append((int(comps.sizes[ci - 1]), target))

    def like(given, data):
        return given.with_data(data) if isinstance(given, Volume) else data

    return like(semantic, sem), like(instance, inst), report
