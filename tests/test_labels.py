"""Instance-id families: the vertebra-id predicate and the structure -> id rule."""

import numpy as np
import pytest

from spineseg.labels import Structure, classify_instance_id, is_vertebra_id, structure_instance_id

BOUNDARY_IDS = [0, 1, 99, 100, 101, 199, 200, 201, 299]
#: the family each boundary id belongs to by the documented scheme, or None
EXPECTED = {
    0: None,
    1: ("vertebra", 1),
    99: ("vertebra", 99),
    100: None,
    101: ("ivd", 1),
    199: ("ivd", 99),
    200: None,
    201: ("endplate", 1),
    299: ("endplate", 99),
}


@pytest.mark.parametrize("value", BOUNDARY_IDS)
def test_vertebra_predicate_on_scalars(value):
    assert bool(is_vertebra_id(value)) == (1 <= value <= 99)
    assert bool(is_vertebra_id(np.uint16(value))) == (1 <= value <= 99)


@pytest.mark.parametrize("dtype", [np.uint16, np.int32, np.int64])
def test_vertebra_predicate_on_arrays(dtype):
    ids = np.array(BOUNDARY_IDS, dtype=dtype)
    got = is_vertebra_id(ids)
    assert got.dtype == bool
    assert got.tolist() == [1 <= v <= 99 for v in BOUNDARY_IDS]
    cube = ids.reshape(3, 3, 1)
    assert np.array_equal(is_vertebra_id(cube), got.reshape(3, 3, 1))


@pytest.mark.parametrize("value", BOUNDARY_IDS)
def test_classify_boundary_ids(value):
    if EXPECTED[value] is None:
        with pytest.raises(ValueError):
            classify_instance_id(value)
    else:
        assert classify_instance_id(value) == EXPECTED[value]


@pytest.mark.parametrize("value", [v for v in BOUNDARY_IDS if EXPECTED[v] is not None])
def test_structure_id_round_trips_through_classify(value):
    kind, k = EXPECTED[value]
    code = {"vertebra": Structure.CORPUS, "ivd": Structure.IVD, "endplate": Structure.ENDPLATE}[kind]
    assert structure_instance_id(code, k) == value
    assert structure_instance_id(int(code), k) == value


def test_structure_id_for_every_other_code():
    for code in Structure:
        if code not in (Structure.IVD, Structure.ENDPLATE):
            for k in (1, 99):
                assert structure_instance_id(code, k) == k
    assert structure_instance_id(Structure.IVD, 1) == 101
    assert structure_instance_id(Structure.ENDPLATE, 99) == 299


def test_structure_id_on_arrays():
    ks = np.array([1, 50, 99], dtype=np.int64)
    assert structure_instance_id(Structure.IVD, ks).tolist() == [101, 150, 199]
    assert structure_instance_id(Structure.ENDPLATE, ks).tolist() == [201, 250, 299]
    assert structure_instance_id(Structure.ARCUS, ks).tolist() == [1, 50, 99]
    assert is_vertebra_id(structure_instance_id(Structure.CORPUS, ks)).all()
    assert not is_vertebra_id(structure_instance_id(Structure.IVD, ks)).any()
    assert not is_vertebra_id(structure_instance_id(Structure.ENDPLATE, ks)).any()
