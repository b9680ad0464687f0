"""Classifier behaviour: linear scoring, tables, matrix serialization."""

import math
import re

import numpy as np
import pytest

from fairmix import (
    CompatibilityError,
    DataFormatError,
    Dataset,
    Ensemble,
    FairmixError,
    LinearClassifier,
    TableClassifier,
    acceptance_probability,
    load_prediction_matrix,
    mixture_accuracy,
    prediction_matrix,
    save_prediction_matrix,
)


@pytest.fixture
def ds() -> Dataset:
    return Dataset.from_arrays(
        [[0.0, 1.0], [2.0, -1.0], [-3.0, 0.5], [1.0, 1.0]],
        [1, -1, 1, -1],
        [0, 0, 1, 1],
    )


def one_row(features, label=1, sensitive=0) -> Dataset:
    return Dataset.from_arrays([features], [label], [sensitive])


class TestLinearClassifier:
    def test_zero_score_is_positive(self):
        clf = LinearClassifier((1.0,), bias=0.0)
        assert clf.predict_all(one_row([0.0])).tolist() == [1]

    def test_predict_matches_score_sign(self):
        clf = LinearClassifier((2.0, -1.0), sensitive_weight=0.5, bias=-1.0)
        score = 2.0 * 1.0 - 1.0 * 0.25 + 0.5 * 1 - 1.0
        expected = 1 if score >= 0 else -1
        assert clf.predict_all(one_row([1.0, 0.25], -1, 1)).tolist() == [expected]

    def test_predict_all_agrees_with_predict(self, ds):
        clf = LinearClassifier((0.3, -0.7), sensitive_weight=-0.2, bias=0.1)
        vec = clf.predict_all(ds)
        for x, y, z, got in zip(ds.features.tolist(), ds.labels, ds.sensitive, vec):
            score = sum(w * v for w, v in zip(clf.weights, x)) - 0.2 * z + 0.1
            assert got == (1 if score >= 0 else -1)
            assert clf.predict_all(one_row(x, y, z)).tolist() == [got]

    def test_sensitive_weight_reads_group(self, ds):
        aware = LinearClassifier((0.0, 0.0), sensitive_weight=1.0, bias=-0.5)
        assert aware.predict_all(ds).tolist() == [-1, -1, 1, 1]

    def test_predict_all_is_int8(self, ds):
        clf = LinearClassifier((0.3, -0.7), sensitive_weight=-0.2, bias=0.1)
        assert clf.predict_all(ds).dtype == np.int8

    def test_dimension_mismatch(self, ds):
        clf = LinearClassifier((1.0,))
        with pytest.raises(CompatibilityError, match="dimension mismatch"):
            clf.predict_all(ds)

    def test_weights_coerced_to_floats(self):
        clf = LinearClassifier((1, 2))
        assert clf.weights == (1.0, 2.0)
        assert all(isinstance(w, float) for w in clf.weights)


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, bad):
        with pytest.raises(FairmixError, match="non-finite classifier parameter"):
            LinearClassifier((1.0, bad))
        with pytest.raises(FairmixError, match="non-finite classifier parameter"):
            LinearClassifier((1.0,), sensitive_weight=bad)
        with pytest.raises(FairmixError, match="non-finite classifier parameter"):
            LinearClassifier((1.0,), bias=bad)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"weights": ("1.5",)}, "must be a real number, got '1.5'"),
            ({"weights": (1.0,), "bias": "0"}, "must be a real number, got '0'"),
            ({"weights": (1.0,), "bias": True}, "must be a real number, got True"),
            ({"weights": (False, 1.0)}, "must be a real number, got False"),
            ({"weights": (10**400,)}, "an integer of 1329 bits, past the float range"),
            ({"weights": (1.0,), "sensitive_weight": -(10**400)}, "an integer of 1329 bits"),
            ({"weights": (np.True_,)}, "must be a real number, got np.True_"),
            ({"weights": (1.0,), "bias": None}, "must be a real number, got None"),
            ({"weights": (1.0,), "sensitive_weight": 1j}, "must be a real number, got 1j"),
        ],
        ids=["string weight", "string bias", "bool bias", "bool weight", "huge weight",
             "huge sensitive weight", "numpy bool weight", "none bias",
             "complex sensitive weight"],
    )
    def test_parameters_checked_as_given(self, kwargs, message):
        """Text is not parsed, a bool is not a number, and an integer past the
        float range is named by its size, not leaked as ``OverflowError``."""
        with pytest.raises(FairmixError, match=re.escape(message)):
            LinearClassifier(**kwargs)


class TestTableClassifier:
    @pytest.mark.parametrize("bad", ["abc", None, [[0.0]]])
    def test_bound_to_a_dataset_only(self, bad):
        with pytest.raises(FairmixError, match="a table must be bound to a Dataset, got "):
            TableClassifier([1, -1, 1], bad)

    def test_predictions_returned_verbatim(self, ds):
        table = TableClassifier([1, -1, -1, 1], ds)
        assert table.predict_all(ds).tolist() == [1, -1, -1, 1]
        assert table.predictions[3] == 1

    def test_equal_dataset_accepted(self, ds):
        clone = Dataset.from_arrays(ds.features, ds.labels, ds.sensitive)
        table = TableClassifier([1, 1, 1, 1], ds)
        assert table.predict_all(clone).tolist() == [1, 1, 1, 1]

    def test_foreign_dataset_rejected(self, ds):
        other = Dataset.from_arrays([[9.0, 9.0]], [1], [0])
        table = TableClassifier([1, 1, 1, 1], ds)
        with pytest.raises(CompatibilityError, match="not bound to"):
            table.predict_all(other)

    def test_length_checked(self, ds):
        with pytest.raises(DataFormatError, match="does not match"):
            TableClassifier([1, -1], ds)

    def test_values_checked(self, ds):
        # checked as given: a float or a string is not truncated to +-1
        for bad in (0, math.nan, 1.7, -1.5, 10**30, "1"):
            with pytest.raises(DataFormatError, match="invalid prediction at row 2"):
                TableClassifier([1, bad, 1, 1], ds)
        with pytest.raises(DataFormatError, match="invalid prediction at row 1"):
            TableClassifier(np.array([1.9, -1.0, 1.0, 1.0]), ds)

    def test_predictions_read_only(self, ds):
        table = TableClassifier([1, -1, 1, -1], ds)
        with pytest.raises(ValueError):
            table.predictions[0] = -1

    def test_predictions_cannot_be_made_writeable(self, ds):
        table = TableClassifier([1, -1, 1, -1], ds)
        with pytest.raises(ValueError):
            table.predictions.setflags(write=True)
        assert not table.predictions.flags.writeable

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.float64, object])
    def test_predictions_are_an_int8_copy(self, ds, dtype):
        source = np.array([1, -1, 1, -1], dtype=dtype)
        table = TableClassifier(source, ds)
        source[0] = -1
        assert table.predictions.dtype == np.int8
        assert table.predict_all(ds).tolist() == [1, -1, 1, -1]

    def test_values_checked_before_the_cast(self, ds):
        # 255 would wrap to -1 in int8
        with pytest.raises(DataFormatError, match="invalid prediction at row 2"):
            TableClassifier(np.array([1, 255, 1, 1], dtype=np.uint8), ds)

    def test_equality(self, ds):
        a = TableClassifier([1, -1, 1, -1], ds)
        b = TableClassifier([1, -1, 1, -1], ds)
        c = TableClassifier([1, 1, 1, 1], ds)
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestPredictionMatrix:
    def test_shape_and_content(self, ds):
        members = [
            LinearClassifier((1.0, 0.0)),
            TableClassifier([-1, -1, -1, -1], ds),
        ]
        matrix = prediction_matrix(members, ds)
        assert matrix.shape == (2, 4)
        assert matrix.dtype == np.int8
        assert matrix[0].tolist() == [1, 1, -1, 1]
        assert matrix[1].tolist() == [-1, -1, -1, -1]

    def test_members_that_are_not_classifiers_rejected(self, ds):
        ens = Ensemble([object(), "x"], [0.5, 0.5])
        with pytest.raises(FairmixError, match="member 1 is not a classifier: object"):
            acceptance_probability(ens, ds)

        class Scores:
            """Predicts scores, not signs: an int8 cast would make them all 0."""

            def predict_all(self, dataset):
                return np.array([0.9, 0.2, 0.7, 0.4])

        ens = Ensemble([LinearClassifier((1.0, 0.0)), Scores()], [0.5, 0.5])
        with pytest.raises(FairmixError, match="member 2 is not a classifier: Scores"):
            mixture_accuracy(ens, ds)
        with pytest.raises(FairmixError, match="member 2 is not a classifier: Scores"):
            acceptance_probability(ens, ds)

    def test_save_load_round_trip(self, ds, tmp_path):
        matrix = np.array([[1, -1, 1, -1], [1, 1, -1, -1], [-1, -1, -1, 1]])
        path = tmp_path / "preds.csv"
        save_prediction_matrix(path, matrix)
        tables = load_prediction_matrix(path, ds)
        assert len(tables) == 3
        rebuilt = prediction_matrix(tables, ds)
        assert np.array_equal(rebuilt, matrix)

    @pytest.mark.parametrize("spelling", ["canonical", "general"])
    def test_loaded_tables_share_one_read_only_owner(self, ds, tmp_path, spelling):
        """The tables are rows of one frozen (M, N) int8 matrix that holds
        N*M bytes: with -1 everywhere the canonical decoder's buffer is half
        as wide again, and the general parser's matrix is (N, M)."""
        sign = "-1" if spelling == "canonical" else " -1"
        path = tmp_path / "preds.csv"
        path.write_text("clf_1,clf_2,clf_3\n" + f"{sign},{sign},{sign}\n" * len(ds))
        tables = load_prediction_matrix(path, ds)
        owners = {id(t.predictions.base) for t in tables}
        assert len(owners) == 1
        owner = tables[0].predictions.base
        assert owner.base is None and owner.nbytes == 3 * len(ds)
        assert owner.dtype == np.int8 and owner.flags.c_contiguous
        assert not owner.flags.writeable
        for j, table in enumerate(tables):
            assert np.shares_memory(table.predictions, owner[j])
            assert table.predictions.tolist() == [-1] * len(ds)
            with pytest.raises(ValueError):
                table.predictions.flags.writeable = True
            assert table.dataset is ds and table.predict_all(ds) is table.predictions

    def test_loader_binds_only_to_a_dataset(self, ds, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("clf_1\n1\n-1\n1\n-1\n")
        with pytest.raises(FairmixError, match="a table must be bound to a Dataset, got list"):
            load_prediction_matrix(path, [0, 1, 2, 3])

    def test_save_rejects_values_other_than_signs(self, tmp_path):
        # used to be truncated and written as the rows 1,0 and -1,1
        path = tmp_path / "preds.csv"
        with pytest.raises(DataFormatError, match="clf_1 at row 1: must be -1 or 1"):
            save_prediction_matrix(path, [[1.7, -1.2], [0.4, 1.0]])
        with pytest.raises(DataFormatError, match="clf_2 at row 2: must be -1 or 1"):
            save_prediction_matrix(path, [[1, -1], [1, 0]])
        assert not path.exists()

    @pytest.mark.parametrize(
        "matrix",
        [np.ones((1, 2, 2)), np.ones((0, 3)), np.ones((2, 0)), np.ones(3), np.int8(1)],
        ids=["3-d", "no-members", "no-instances", "1-d", "scalar"],
    )
    def test_save_rejects_non_matrices(self, tmp_path, matrix):
        # used to write unloadable files, or to raise csv.Error or IndexError
        path = tmp_path / "preds.csv"
        message = f"must be (M, N) with M, N >= 1, got shape {np.shape(matrix)}"
        with pytest.raises(DataFormatError, match=re.escape(message)):
            save_prediction_matrix(path, matrix)
        assert not path.exists()

    def test_save_rejects_ragged_rows(self, tmp_path):
        # used to raise numpy's ValueError about an inhomogeneous shape
        path = tmp_path / "preds.csv"
        message = "must be (M, N) with M, N >= 1, got ragged rows"
        with pytest.raises(DataFormatError, match=re.escape(message)):
            save_prediction_matrix(path, [[1, -1], [1]])
        assert not path.exists()

    def test_bad_header(self, ds, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("clf_1,clf_3\n1,1\n1,1\n1,1\n1,1\n")
        with pytest.raises(DataFormatError, match="header must be clf_1"):
            load_prediction_matrix(path, ds)

    def test_bad_entry(self, ds, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("clf_1\n1\n0\n1\n1\n")
        with pytest.raises(DataFormatError, match="row 2: prediction must be -1 or 1"):
            load_prediction_matrix(path, ds)

    def test_malformed_entry(self, ds, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("clf_1\n1\nyes\n1\n1\n")
        with pytest.raises(DataFormatError, match="row 2: malformed prediction"):
            load_prediction_matrix(path, ds)

    def test_row_count_mismatch(self, ds, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("clf_1\n1\n-1\n")
        with pytest.raises(DataFormatError, match="row count mismatch"):
            load_prediction_matrix(path, ds)

    def test_empty_file(self, ds, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match="empty file"):
            load_prediction_matrix(path, ds)
