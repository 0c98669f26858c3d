"""Semantic label taxonomy and instance-id scheme shared by all modules.

Semantic codes: 0 is background, 1-10 are the vertebra substructures
(endplate is 10), 11 is the intervertebral disc, 12 the spinal canal,
13 the spinal cord, and 14 the sacrum.

Instance ids: vertebra instances are numbered 1..N from the most superior
vertebra downward; the disc below vertebra k carries id 100+k and the
endplate group attached below vertebra k carries id 200+k. Spinal canal,
cord, and sacrum have a single instance by nature and carry no id.
"""

from __future__ import annotations

import json
from enum import IntEnum
from pathlib import Path

import numpy as np


class Structure(IntEnum):
    BACKGROUND = 0
    CORPUS = 1
    ARCUS = 2
    SPINOUS_PROCESS = 3
    ARTICULAR_INFERIOR_LEFT = 4
    ARTICULAR_INFERIOR_RIGHT = 5
    ARTICULAR_SUPERIOR_LEFT = 6
    ARTICULAR_SUPERIOR_RIGHT = 7
    COSTAL_PROCESS_LEFT = 8
    COSTAL_PROCESS_RIGHT = 9
    ENDPLATE = 10
    IVD = 11
    SPINAL_CANAL = 12
    SPINAL_CORD = 13
    SACRUM = 14


IVD_ID_BASE = 100
ENDPLATE_ID_BASE = 200
VERTEBRA_ID_MAX = IVD_ID_BASE - 1
INSTANCE_ID_MAX = ENDPLATE_ID_BASE + VERTEBRA_ID_MAX
LABEL_MAX = 65535  # the largest label a mask file stores (unsigned 16-bit)

_KIND_BY_CODE = {
    Structure.BACKGROUND: "background",
    Structure.IVD: "ivd",
    Structure.SPINAL_CANAL: "spinal_canal",
    Structure.SPINAL_CORD: "spinal_cord",
    Structure.SACRUM: "sacrum",
}


def vertebra_id(order_index: int) -> int:
    return order_index


def ivd_id(order_index: int) -> int:
    return IVD_ID_BASE + order_index


def endplate_id(order_index: int) -> int:
    return ENDPLATE_ID_BASE + order_index


def is_instance_relevant(codes):
    """True where a semantic code must carry an instance id (1-11): the ten
    vertebra substructures, endplate included, and the disc."""
    return (codes >= Structure.CORPUS) & (codes <= Structure.IVD)


def is_vertebra_id(ids):
    """True where an instance id names a vertebra (1-99); scalars or arrays."""
    return (ids >= 1) & (ids <= VERTEBRA_ID_MAX)


def structure_instance_id(code: int, order_index):
    """Instance id of a structure keyed to vertebra ``order_index``: the
    disc id for a disc, the endplate id for an endplate, and the vertebra
    id for any other code."""
    if code == Structure.IVD:
        return ivd_id(order_index)
    if code == Structure.ENDPLATE:
        return endplate_id(order_index)
    return vertebra_id(order_index)


def classify_instance_id(value: int) -> tuple[str, int]:
    """Split an instance id into (kind, order_index).

    Ids 1-99 are vertebrae, 101-199 discs, 201-299 endplate groups; the
    order index counts top-down starting at 1.
    """
    value = int(value)
    for kind, base in (("vertebra", 0), ("ivd", IVD_ID_BASE), ("endplate", ENDPLATE_ID_BASE)):
        if is_vertebra_id(value - base):
            return kind, value - base
    raise ValueError(f"instance id {value} is outside all known ranges")


def checked_labels(values, n_labels: int) -> np.ndarray:
    """``values`` as labels: whole numbers in ``0..n_labels - 1``, for
    ``n_labels`` up to 65536, as uint16. A uint16 array comes back as the
    same object, any other accepted array as a uint16 copy. Anything else
    (non-numeric or complex dtypes, fractions, NaN, infinities, values out
    of range) raises ValueError naming the rule and the range found.
    Integrality and range are tested before the cast, so nothing warns."""
    arr = np.asarray(values)
    rule = f"labels must be whole numbers in 0..{n_labels - 1}"
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{rule}; found {arr.dtype} values")
    if arr.size:
        lo, hi = arr.min(), arr.max()
        # NaN fails this test; infinities fail the range test below
        if arr.dtype.kind == "f" and not (arr == np.floor(arr)).all():
            raise ValueError(f"{rule}; found non-integral values in {lo}..{hi}")
        if lo < 0 or hi >= n_labels:
            raise ValueError(f"{rule}; found {lo}..{hi}, outside that range")
    return arr if arr.dtype == np.uint16 else arr.astype(np.uint16)


def label_map() -> list[dict]:
    """Machine-readable label taxonomy, one entry per semantic code."""
    entries = []
    for member in Structure:
        kind = _KIND_BY_CODE.get(member, "vertebra_substructure")
        entries.append({"code": int(member), "name": member.name.lower(), "kind": kind})
    return entries


def write_labels_json(path: str | Path) -> None:
    Path(path).write_text(json.dumps(label_map(), indent=2) + "\n")
