"""A number given from outside, at every public entry point that reads one.

A real-valued position (features, linear-program arrays, benefit profiles)
takes any real number as given, and a bool, text, None, a complex number or
an integer past the float range is rejected in ``check_real``'s words. An
integer-coded position (labels, groups, predictions) takes its codes by
value, so 1.0 is 1, but a bool is not an integer there either. Ensemble
weights, classifier parameters and twin pairs have their own tables in
test_ensemble.py, test_classifiers.py and test_metrics.py.
"""

import os
import re

import numpy as np
import pytest

from fairmix import (
    DataFormatError,
    Dataset,
    FairmixError,
    LinearProgram,
    MetricKind,
    TableClassifier,
    accuracy,
    classifier_report,
    dispersion,
    fairness_gap,
    indicator_profile,
    save_prediction_matrix,
    treatment_violations,
)
from fairmix import dataset as dataset_module
from fairmix import jsonio
from fairmix.dataset import check_reals

DS = Dataset.from_arrays([[0.0], [1.0]], [1, -1], [0, 1])


def _column(values):
    return values.reshape(-1, 1) if isinstance(values, np.ndarray) else [[v] for v in values]


#: (entry point of a two-entry real vector, what the error calls an entry, its
#: error class, what shows the values it read)
REAL_ENTRIES = {
    "from_arrays-features": (
        lambda v: Dataset.from_arrays(_column(v), [1, -1], [0, 1]),
        "feature value", DataFormatError, lambda ds: ds.features,
    ),
    "lp-c": (lambda v: LinearProgram(v), "c entry", FairmixError, lambda lp: lp.c),
    "lp-a_ub": (
        lambda v: LinearProgram([1.0, 1.0], a_ub=[v], b_ub=[1.0]),
        "a_ub entry", FairmixError, lambda lp: lp.a_ub,
    ),
    "lp-b_ub": (
        lambda v: LinearProgram([1.0], a_ub=[[1.0], [1.0]], b_ub=v),
        "b_ub entry", FairmixError, lambda lp: lp.b_ub,
    ),
    "lp-a_eq": (
        lambda v: LinearProgram([1.0, 1.0], a_eq=[v], b_eq=[1.0]),
        "a_eq entry", FairmixError, lambda lp: lp.a_eq,
    ),
    "lp-b_eq": (
        lambda v: LinearProgram([1.0], a_eq=[[1.0], [1.0]], b_eq=v),
        "b_eq entry", FairmixError, lambda lp: lp.b_eq,
    ),
    "treatment_violations-profile": (
        lambda v: treatment_violations(v, [(0, 1)], 0.5),
        "benefit probability", FairmixError, lambda pairs: pairs,
    ),
    "dispersion": (
        lambda v: dispersion(v, DS), "benefit probability", FairmixError,
        lambda report: [report.group(z).mean_q for z in (0, 1)],
    ),
}

#: a bad entry, and the end of check_real's message for it
BAD_REALS = {
    "bool": (True, "must be a real number, got True"),
    "numpy-bool": (np.True_, "must be a real number, got np.True_"),
    "numeric-text": ("0.5", "must be a real number, got '0.5'"),
    "none": (None, "must be a real number, got None"),
    "complex": (1j, "must be a real number, got 1j"),
    "huge-int": (10**400, "is an integer of 1329 bits, past the float range"),
    # float() rounds it down to the largest float instead of overflowing
    "int-rounding-to-float-max": (
        2**1024 - 2**971 + 1, "is an integer of 1024 bits, past the float range"
    ),
    "bool-array": (np.array([True, False]), "must be a real number, got True"),
    "text-array": (np.array(["1", "0"]), "must be a real number, got '1'"),
}

GOOD_REALS = {
    "ints": [0, 1],
    "floats": [0.0, 1.0],
    "numpy-ints": [np.int64(0), np.int64(1)],
    "float32-array": np.array([0, 1], dtype=np.float32),
    "uint8-array": np.array([0, 1], dtype=np.uint8),
}


@pytest.mark.parametrize("bad", BAD_REALS.values(), ids=BAD_REALS.keys())
@pytest.mark.parametrize("entry", REAL_ENTRIES.values(), ids=REAL_ENTRIES.keys())
def test_real_entry_rejected_as_given(entry, bad):
    call, what, error, _ = entry
    value, tail = bad
    values = value if isinstance(value, np.ndarray) else [0.5, value]
    with pytest.raises(error, match=f"^{re.escape(f'{what} {tail}')}$"):
        call(values)


@pytest.mark.parametrize("good", GOOD_REALS.values(), ids=GOOD_REALS.keys())
@pytest.mark.parametrize("entry", REAL_ENTRIES.values(), ids=REAL_ENTRIES.keys())
def test_real_entry_accepts_numbers(entry, good):
    call, _, _, kept = entry
    got, want = (kept(call(values)) for values in (good, np.array([0.0, 1.0])))
    assert type(got) is type(want) and np.array_equal(got, want)
    if isinstance(got, np.ndarray):  # an array the entry point keeps is float64
        assert got.dtype == np.float64


def test_list_entries_checked_once_per_type(monkeypatch):
    """A list is checked one entry type at a time; only a type that may hold
    a fault (a bool, an integer, a non-real) has its entries checked one by one."""
    calls = []
    real = dataset_module.check_real
    monkeypatch.setattr(
        dataset_module, "check_real", lambda value, *args: calls.append(value) or real(value, *args)
    )
    largest = 2**1024 - 2**971  # the largest float, as an integer
    for values in ([0.5, 1.0], [0.5, 1], [np.float32(0.5), np.int64(1)], [0.5, largest]):
        assert check_reals(values, "x").tolist() == [float(v) for v in values]
    assert calls == [0.5, largest]  # the largest float is walked to, and passes
    calls.clear()
    for values in ([0.5, True, "x"], [0.5, 2**1024]):
        with pytest.raises(FairmixError):
            check_reals(values, "x")
        assert calls == values[:2]
        calls.clear()


#: (entry point of an integer-coded value at row 2, its error class and message)
CODE_ENTRIES = {
    "from_arrays-labels": (
        lambda v: Dataset.from_arrays([[0.0], [1.0]], [-1, v], [0, 1]),
        DataFormatError, "invalid label at row 2",
    ),
    "from_arrays-groups": (
        lambda v: Dataset.from_arrays([[0.0], [1.0]], [1, -1], [0, v]),
        DataFormatError, "invalid sensitive value at row 2",
    ),
    "TableClassifier": (
        lambda v: TableClassifier([-1, v], DS), DataFormatError,
        "invalid prediction at row 2: must be -1 or 1",
    ),
    "accuracy": (
        lambda v: accuracy([-1, v], DS), DataFormatError,
        "invalid prediction at row 2: must be -1 or 1",
    ),
    "indicator_profile": (
        lambda v: indicator_profile([-1, v]), DataFormatError,
        "invalid prediction at row 2: must be -1 or 1",
    ),
    "fairness_gap": (
        lambda v: fairness_gap(MetricKind.ACCEPTANCE_RATE, [-1, v], DS), DataFormatError,
        "invalid prediction at row 2: must be -1 or 1",
    ),
    "classifier_report": (
        lambda v: classifier_report([-1, v], DS), DataFormatError,
        "invalid prediction at row 2: must be -1 or 1",
    ),
}

#: entries a code must not be read from; the bools are the ones numpy reads as 1
BAD_CODES = {
    "bool": True,
    "numpy-bool": np.True_,
    "numeric-text": "1",
    "none": None,
    "complex": 1j,
    "huge-int": 10**400,
}


@pytest.mark.parametrize("bad", BAD_CODES.values(), ids=BAD_CODES.keys())
@pytest.mark.parametrize("entry", CODE_ENTRIES.values(), ids=CODE_ENTRIES.keys())
def test_code_entry_rejected_as_given(entry, bad):
    call, error, message = entry
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize("bad", BAD_CODES.values(), ids=BAD_CODES.keys())
def test_saved_prediction_rejected_as_given(tmp_path, bad):
    message = "invalid prediction for clf_1 at row 2: must be -1 or 1"
    with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
        save_prediction_matrix(tmp_path / "p.csv", [[-1, bad]])
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda a: Dataset.from_arrays([[0.0], [1.0]], a, [0, 1]), "invalid label at row 1"),
        (lambda a: Dataset.from_arrays([[0.0], [1.0]], [1, -1], a),
         "invalid sensitive value at row 1"),
        (lambda a: TableClassifier(a, DS), "invalid prediction at row 1: must be -1 or 1"),
        (lambda a: accuracy(a, DS), "invalid prediction at row 1: must be -1 or 1"),
        (lambda a: save_prediction_matrix(os.devnull, a[None, :]),
         "invalid prediction for clf_1 at row 1: must be -1 or 1"),
    ],
    ids=["labels", "groups", "TableClassifier", "accuracy", "save_prediction_matrix"],
)
def test_bool_array_is_not_a_code_array(call, message):
    with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
        call(np.array([True, True]))
    with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
        call(np.array([np.True_, 1], dtype=object))


@pytest.mark.parametrize(
    "labels, groups",
    [
        ([1.0, -1.0], [0.0, 1.0]),
        ([np.int64(1), np.int64(-1)], [np.int64(0), np.int64(1)]),
        (np.array([1, -1], dtype=np.float32), np.array([0, 1], dtype=np.float32)),
        (np.array([1, -1], dtype=np.int8), np.array([0, 1], dtype=np.uint8)),
    ],
    ids=["floats", "numpy-ints", "float32-arrays", "int8-uint8-arrays"],
)
def test_codes_read_by_value(tmp_path, labels, groups):
    ds = Dataset.from_arrays([[0.0], [1.0]], labels, groups)
    assert ds == DS and ds.labels.tolist() == [1, -1] and ds.sensitive.tolist() == [0, 1]
    assert TableClassifier(labels, DS).predictions.tolist() == [1, -1]
    assert accuracy(labels, DS) == 1.0
    assert indicator_profile(labels).tolist() == [1.0, 0.0]
    assert fairness_gap(MetricKind.ACCEPTANCE_RATE, labels, DS) == 1.0
    report = jsonio.dumps(classifier_report(labels, DS).to_json_dict())
    assert report == jsonio.dumps(classifier_report([1, -1], DS).to_json_dict())
    save_prediction_matrix(tmp_path / "p.csv", np.asarray(labels)[None, :])
    assert (tmp_path / "p.csv").read_bytes() == b"clf_1\r\n1\r\n-1\r\n"
