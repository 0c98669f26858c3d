"""Instance-id families, the vertebra-id predicate, the structure -> id rule,
and the one label rule every boundary that takes label arrays applies."""

import numpy as np
import pytest

from spineseg.assembly import PredictorError, assemble, assign_disc_endplate_instances, check_answer
from spineseg.fusion import AnnotationSources
from spineseg.labels import (
    INSTANCE_ID_MAX,
    LABEL_MAX,
    Structure,
    checked_labels,
    classify_instance_id,
    is_vertebra_id,
    structure_instance_id,
)
from spineseg.metrics import evaluate_segmentation, instance_report, semantic_report
from spineseg.nifti import NiftiError, write_nifti
from spineseg.postproc import enforce_consistency
from spineseg.volume import Volume

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


#: one bad value per case, set in an otherwise valid array; None stands
#: for ``n_labels`` itself, the first value past the range
BAD_LABELS = {
    "minus-one": (np.int32, -1),
    "n": (np.int32, None),
    "fraction": (np.float32, 1.5),
    "nan": (np.float64, np.nan),
    "inf": (np.float64, np.inf),
    "1e30": (np.float64, 1e30),
    "complex": (np.complex128, 1),
}


def _label_array(dtype, value, n_labels):
    arr = np.zeros((2, 3, 2), dtype=dtype)
    arr[0, 1, 0] = n_labels if value is None else value
    return arr


def _written(arr, tmp_path):
    # Volume refuses a non-integer label array, so the array is swapped
    # into a valid label volume to reach write_nifti's own check
    vol = Volume(np.zeros(arr.shape, dtype=np.uint16), kind="semantic")
    object.__setattr__(vol, "data", arr)
    write_nifti(vol, tmp_path / "labels.nii")


def _fused(arr, tmp_path):
    zeros = Volume(np.zeros(arr.shape, dtype=np.uint16), kind="semantic")
    AnnotationSources(Volume(arr), zeros, zeros)


class ZerosPredictor:
    """Answers every cutout with background."""

    def predict(self, window, cutout):
        return np.zeros(window.dims, dtype=np.uint16)


def _assembled(arr, tmp_path):
    # a plain Volume carries any dtype; a semantic one would refuse floats
    assemble(Volume(arr), ZerosPredictor(), cutout_size=arr.shape)


def _zeros(arr):
    return np.zeros(arr.shape, dtype=np.uint16)


#: name -> (n_labels, error type, call); each call passes ``arr`` through one
#: boundary where the toolkit takes label arrays in
BOUNDARIES = {
    "check_answer": (15, PredictorError, lambda arr, tmp: check_answer(arr, arr.shape, 15)),
    "enforce_consistency-semantic": (
        len(Structure),
        ValueError,
        lambda arr, tmp: enforce_consistency(arr, _zeros(arr)),
    ),
    "enforce_consistency-instance": (
        INSTANCE_ID_MAX + 1,
        ValueError,
        lambda arr, tmp: enforce_consistency(_zeros(arr), arr),
    ),
    "assemble": (len(Structure), ValueError, _assembled),
    "assign_disc_endplate_instances": (
        INSTANCE_ID_MAX + 1,
        ValueError,
        lambda arr, tmp: assign_disc_endplate_instances(Volume(_zeros(arr), kind="semantic"), arr),
    ),
    "semantic_report": (LABEL_MAX + 1, ValueError, lambda arr, tmp: semantic_report(arr, np.zeros(arr.shape, int))),
    "instance_report": (LABEL_MAX + 1, ValueError, lambda arr, tmp: instance_report(np.zeros(arr.shape, int), arr)),
    "evaluate_segmentation": (LABEL_MAX + 1, ValueError, lambda arr, tmp: evaluate_segmentation(arr, arr)),
    "write_nifti": (LABEL_MAX + 1, NiftiError, _written),
    "AnnotationSources": (len(Structure), ValueError, _fused),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("bad", BAD_LABELS)
def test_every_boundary_rejects_the_same_label_arrays(boundary, bad, tmp_path):
    n_labels, error, call = BOUNDARIES[boundary]
    # check_answer names a non-numeric dtype before it knows labels from scores
    with pytest.raises(error, match="labels must be whole numbers|values, not numbers"):
        call(_label_array(*BAD_LABELS[bad], n_labels), tmp_path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, np.float32])
def test_every_boundary_takes_whole_numbers_in_range(boundary, dtype, tmp_path):
    n_labels, _, call = BOUNDARIES[boundary]
    # 14, the sacrum code, is also a vertebra id, so every boundary takes it
    call(_label_array(dtype, 1 if dtype is bool else 14, n_labels), tmp_path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dtype", [bool, np.uint8, np.int16, np.uint16, np.int64, np.float32, np.float64, ">u2"])
def test_checked_labels_returns_uint16_the_same_array_when_it_is_one(dtype):
    arr = _label_array(dtype, 1, 2)
    out = checked_labels(arr, 2)
    assert out.dtype == np.uint16 and np.array_equal(out, arr)
    assert (out is arr) == (arr.dtype == np.uint16)
