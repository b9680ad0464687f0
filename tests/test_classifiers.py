"""Classifier behaviour: linear scoring, tables, matrix serialization."""

import math

import numpy as np
import pytest

from fairmix import (
    CompatibilityError,
    DataFormatError,
    Dataset,
    FairmixError,
    LinearClassifier,
    TableClassifier,
    load_prediction_matrix,
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

    def test_negated_flips_off_boundary_points(self, ds):
        clf = LinearClassifier((0.3, -0.7), sensitive_weight=-0.2, bias=0.1)
        flipped = clf.negated()
        scores = ds.features @ np.asarray(clf.weights) - 0.2 * ds.sensitive + 0.1
        off = scores != 0
        assert off.any()
        assert np.array_equal(flipped.predict_all(ds)[off], -clf.predict_all(ds)[off])

    def test_negated_boundary_stays_positive(self):
        clf = LinearClassifier((1.0,), bias=-2.0)
        on_boundary = one_row([2.0])
        assert clf.predict_all(on_boundary).tolist() == [1]
        assert clf.negated().predict_all(on_boundary).tolist() == [1]

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

class TestTableClassifier:
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
        assert matrix[0].tolist() == [1, 1, -1, 1]
        assert matrix[1].tolist() == [-1, -1, -1, -1]

    def test_save_load_round_trip(self, ds, tmp_path):
        matrix = np.array([[1, -1, 1, -1], [1, 1, -1, -1], [-1, -1, -1, 1]])
        path = tmp_path / "preds.csv"
        save_prediction_matrix(path, matrix)
        tables = load_prediction_matrix(path, ds)
        assert len(tables) == 3
        rebuilt = prediction_matrix(tables, ds)
        assert np.array_equal(rebuilt, matrix)

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
