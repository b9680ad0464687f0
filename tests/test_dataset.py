"""Dataset model: validation, CSV round-trips, twin-pair discovery."""

import csv
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairmix import (
    CounterfactualPair,
    DataFormatError,
    Dataset,
    build_counterfactual_pairs,
    group_indices,
    load_dataset,
    load_prediction_matrix,
    save_dataset,
    save_prediction_matrix,
)


def small_dataset() -> Dataset:
    return Dataset.from_arrays(
        features=[[0.5, -1.25], [0.5, -1.25], [2.0, 3.0], [1.0 / 3.0, 0.1]],
        labels=[1, -1, 1, -1],
        sensitive=[0, 1, 1, 0],
    )


def reference_load_dataset(path):
    """The row-by-row dataset loader ``load_dataset`` replaced, as an oracle.

    Returns the (features, labels, sensitive) arrays it would have built.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 3 or header[-2:] != ["y", "z"]:
            raise DataFormatError(
                f"{path}: header must be f_1,...,f_d,y,z; got {','.join(header)}"
            )
        d = len(header) - 2
        if header != [f"f_{k}" for k in range(1, d + 1)] + ["y", "z"]:
            raise DataFormatError(
                f"{path}: header must be f_1,...,f_d,y,z; got {','.join(header)}"
            )
        instances = []
        for k, row in enumerate(reader, start=1):
            if len(row) != d + 2:
                raise DataFormatError(
                    f"{path}: row {k}: expected {d + 2} fields, got {len(row)}"
                )
            try:
                feats = tuple(float(v) for v in row[:d])
            except ValueError:
                raise DataFormatError(f"{path}: row {k}: malformed feature value") from None
            if any(not math.isfinite(v) for v in feats):
                raise DataFormatError(f"{path}: row {k}: non-finite feature value")
            try:
                y = int(row[d])
            except ValueError:
                raise DataFormatError(f"{path}: invalid label at row {k}") from None
            if y not in (-1, 1):
                raise DataFormatError(f"{path}: invalid label at row {k}")
            try:
                z = int(row[d + 1])
            except ValueError:
                raise DataFormatError(
                    f"{path}: invalid sensitive value at row {k}"
                ) from None
            if z not in (0, 1):
                raise DataFormatError(f"{path}: invalid sensitive value at row {k}")
            instances.append((feats, y, z))
    if not instances:
        raise DataFormatError(f"{path}: no data rows")
    feats, y, z = zip(*instances)
    return np.array(feats, dtype=float), np.array(y, dtype=int), np.array(z, dtype=int)


def reference_load_prediction_matrix(path, n):
    """The row-by-row prediction loader, as an oracle: the (n, M) matrix."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        m = len(header)
        if m == 0 or header != [f"clf_{j}" for j in range(1, m + 1)]:
            raise DataFormatError(
                f"{path}: header must be clf_1,...,clf_M; got {','.join(header)}"
            )
        rows = []
        for k, row in enumerate(reader, start=1):
            if len(row) != m:
                raise DataFormatError(
                    f"{path}: row {k}: expected {m} fields, got {len(row)}"
                )
            try:
                values = [int(v) for v in row]
            except ValueError:
                raise DataFormatError(
                    f"{path}: row {k}: malformed prediction value"
                ) from None
            for v in values:
                if v not in (-1, 1):
                    raise DataFormatError(
                        f"{path}: row {k}: prediction must be -1 or 1, got {v}"
                    )
            rows.append(values)
    if len(rows) != n:
        raise DataFormatError(
            f"{path}: row count mismatch: {len(rows)} rows for a dataset "
            f"of {n} instances"
        )
    return np.asarray(rows, dtype=int)


class TestFromArrays:
    def test_round_trip_through_instances(self):
        ds = small_dataset()
        rebuilt = Dataset.from_arrays(
            ds.features.tolist(), ds.labels.tolist(), ds.sensitive.tolist()
        )
        assert rebuilt == ds
        assert hash(rebuilt) == hash(ds)

    def test_empty_rejected(self):
        with pytest.raises(DataFormatError, match="at least one instance"):
            Dataset.from_arrays(np.empty((0, 2)), [], [])
        with pytest.raises(DataFormatError, match="at least one instance"):
            Dataset.from_arrays(np.empty((0, 0)), [], [])

    def test_length_mismatch(self):
        with pytest.raises(DataFormatError, match="equal length"):
            Dataset.from_arrays([[0.0], [1.0]], [1], [0, 1])

    def test_bad_label_reports_row(self):
        # checked as given: a float, an overflowing int or a string is not cast
        for bad in (0, 2, -2, math.nan, 1.7, -1.2, 10**30, "1", np.array([1.0, 1.7])):
            labels = bad if isinstance(bad, np.ndarray) else [1, bad]
            with pytest.raises(DataFormatError, match="invalid label at row 2"):
                Dataset.from_arrays([[0.0], [1.0]], labels, [0, 1])

    def test_bad_sensitive_reports_row(self):
        for bad in (2, -1, math.nan, 0.9, 10**30, "1", np.array([0.9, 1.0])):
            sensitive = bad if isinstance(bad, np.ndarray) else [bad, 1]
            with pytest.raises(DataFormatError, match="invalid sensitive value at row 1"):
                Dataset.from_arrays([[0.0], [1.0]], [1, -1], sensitive)

    def test_nan_feature_reports_row(self):
        with pytest.raises(DataFormatError, match="non-finite feature value at row 2"):
            Dataset.from_arrays([[0.0], [float("nan")]], [1, -1], [0, 1])

    def test_inconsistent_dimension(self):
        with pytest.raises(DataFormatError, match=r"features must be an \(N, d\) array"):
            Dataset.from_arrays([[0.0], [0.0, 1.0]], [1, 1], [0, 0])
        with pytest.raises(DataFormatError, match=r"features must be an \(N, d\) array"):
            Dataset.from_arrays(np.zeros((2, 1, 1)), [1, 1], [0, 0])

    def test_arrays_are_read_only(self):
        ds = small_dataset()
        for arr in (ds.features, ds.labels, ds.sensitive):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_arrays_are_copies(self):
        feats = np.array([[1.0], [2.0]])
        ds = Dataset.from_arrays(feats, [1, -1], [0, 1])
        feats[0, 0] = 99.0
        assert ds.features[0, 0] == 1.0

    def test_basic_accessors(self):
        ds = small_dataset()
        assert len(ds) == 4
        assert ds.dimension == 2
        assert ds.features[2].tolist() == [2.0, 3.0]
        assert (ds.labels[2], ds.sensitive[2]) == (1, 1)


class TestCsv:
    def test_save_load_identity(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "data.csv"
        save_dataset(path, ds)
        assert load_dataset(path) == ds

    def test_exact_float_round_trip(self, tmp_path):
        # repr-format floats must survive the trip bit for bit
        tricky = [[1.0 / 3.0], [0.1 + 0.2], [-1e-300]]
        ds = Dataset.from_arrays(tricky, [1, -1, 1], [0, 1, 0])
        path = tmp_path / "data.csv"
        save_dataset(path, ds)
        again = load_dataset(path)
        assert again.features.tobytes() == ds.features.tobytes()

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,y,z\n0,0,1,0\n")
        with pytest.raises(DataFormatError, match=r"header must be f_1"):
            load_dataset(path)

    def test_header_order_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f_2,f_1,y,z\n0,0,1,0\n")
        with pytest.raises(DataFormatError, match=r"header must be f_1"):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match="empty file"):
            load_dataset(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("f_1,y,z\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            load_dataset(path)

    def test_field_count(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("f_1,y,z\n0.0,1\n")
        with pytest.raises(DataFormatError, match="row 1: expected 3 fields"):
            load_dataset(path)

    def test_malformed_feature(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("f_1,y,z\nabc,1,0\n")
        with pytest.raises(DataFormatError, match="row 1: malformed feature value"):
            load_dataset(path)

    def test_non_finite_feature(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("f_1,y,z\ninf,1,0\n")
        with pytest.raises(DataFormatError, match="non-finite feature value at row 1"):
            load_dataset(path)

    def test_bad_label_row_number(self, tmp_path):
        path = tmp_path / "lab.csv"
        path.write_text("f_1,y,z\n0.0,1,0\n0.0,7,1\n")
        with pytest.raises(DataFormatError, match="invalid label at row 2"):
            load_dataset(path)

    def test_bad_sensitive_value(self, tmp_path):
        path = tmp_path / "sens.csv"
        path.write_text("f_1,y,z\n0.0,1,maybe\n")
        with pytest.raises(DataFormatError, match="invalid sensitive value at row 1"):
            load_dataset(path)


class TestGroups:
    def test_partition(self):
        ds = small_dataset()
        g0 = group_indices(ds, 0)
        g1 = group_indices(ds, 1)
        assert sorted(np.concatenate([g0, g1]).tolist()) == [0, 1, 2, 3]
        assert g0.tolist() == [0, 3]
        assert g1.tolist() == [1, 2]

    def test_invalid_group(self):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            group_indices(small_dataset(), 2)


class TestCounterfactualPairs:
    def test_cross_group_twins_found(self):
        ds = small_dataset()
        # rows 0 and 1 share features and differ in group
        assert build_counterfactual_pairs(ds) == [CounterfactualPair(0, 1)]

    def test_same_group_twins_ignored(self):
        ds = Dataset.from_arrays([[1.0], [1.0]], [1, -1], [0, 0])
        assert build_counterfactual_pairs(ds) == []

    def test_exact_match_only(self):
        ds = Dataset.from_arrays([[1.0], [1.0 + 1e-12]], [1, -1], [0, 1])
        assert build_counterfactual_pairs(ds) == []

    def test_ordering_and_multiplicity(self):
        # two twins in each group with the same features: 2x2 cross pairs
        ds = Dataset.from_arrays(
            [[5.0], [5.0], [5.0], [5.0], [9.0]],
            [1, 1, -1, -1, 1],
            [0, 1, 0, 1, 0],
        )
        pairs = build_counterfactual_pairs(ds)
        assert pairs == [
            CounterfactualPair(0, 1),
            CounterfactualPair(0, 3),
            CounterfactualPair(1, 2),
            CounterfactualPair(2, 3),
        ]
        assert all(p.left < p.right for p in pairs)


FEATURE_TOKENS = ["0", "1.5", "-2.25", "1e-300", "-0.0", "4.9e-324", " 1.5", "1_0"]
BAD_FEATURE_TOKENS = ["abc", "nan", "inf", "-inf", "1e999", ""]
LABEL_TOKENS = ["1", "-1", "+1", " 1", "01", "-01"]
BAD_LABEL_TOKENS = ["0", "7", "1.0", "abc", "99999999999999999999999"]
SENSITIVE_TOKENS = ["0", "1", " 0", "+1", "00"]
BAD_SENSITIVE_TOKENS = ["2", "maybe"]
PREDICTION_TOKENS = ["1", "-1", "+1", " 1", "01", "-01"]
BAD_PREDICTION_TOKENS = ["0", "yes", "300", ""]


def cell(tokens, bad_tokens):
    # mostly valid tokens, each maybe quoted
    token = st.sampled_from(tokens * 4 + bad_tokens)
    return st.tuples(token, st.booleans()).map(lambda tq: f'"{tq[0]}"' if tq[1] else tq[0])


@st.composite
def csv_lines(draw, cells):
    """Data lines for one file: each a row of cells, or a field-count fault."""
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        row = [draw(c) for c in cells]
        fault = draw(st.sampled_from(["none"] * 8 + ["short", "long", "blank"]))
        if fault == "short":
            row = row[:-1]
        elif fault == "long":
            row.append("1")
        lines.append("" if fault == "blank" else ",".join(row))
    return lines


def outcome(load, path):
    try:
        return load(path), None
    except DataFormatError as exc:
        return None, str(exc)


def row_of(message):
    return int(re.search(r"row (\d+)", message).group(1))


def check_against_reference(tmp_path, header, lines, load, reference, row_reference=None):
    """The new loader fails exactly when the reference does, on the same row
    when only one row is faulty, and otherwise returns the same arrays.

    A row is faulty when ``row_reference`` (default: ``reference``) fails
    on a file holding that row alone.
    """
    path = tmp_path / "data.csv"
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    got, error = outcome(load, path)
    expected, expected_error = outcome(reference, path)
    assert (error is None) == (expected_error is None), (error, expected_error)
    if error is None:
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        return
    one = tmp_path / "one.csv"
    faulty = []
    for k, line in enumerate(lines, start=1):
        one.write_text(f"{header}\n{line}\n", encoding="utf-8")
        if outcome(row_reference or reference, one)[1] is not None:
            faulty.append(k)
    if len(faulty) <= 1:
        # from_arrays words the one non-finite message differently
        expected_error = re.sub(
            r"row (\d+): non-finite feature value",
            r"non-finite feature value at row \1",
            expected_error,
        )
        assert error == expected_error.replace(str(one), str(path))
    else:
        assert row_of(error) in faulty, (error, faulty)


class TestLoaderDifferential:
    """The column-wise loaders against the row-by-row ones they replaced."""

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(d=st.integers(1, 2), data=st.data())
    def test_load_dataset(self, tmp_path, d, data):
        cells = [cell(FEATURE_TOKENS, BAD_FEATURE_TOKENS)] * d + [
            cell(LABEL_TOKENS, BAD_LABEL_TOKENS),
            cell(SENSITIVE_TOKENS, BAD_SENSITIVE_TOKENS),
        ]
        lines = data.draw(csv_lines(cells))
        header = ",".join([f"f_{k}" for k in range(1, d + 1)] + ["y", "z"])

        def load(path):
            ds = load_dataset(path)
            return ds.features, ds.labels, ds.sensitive

        check_against_reference(tmp_path, header, lines, load, reference_load_dataset)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(m=st.integers(1, 3), extra=st.integers(0, 1), data=st.data())
    def test_load_prediction_matrix(self, tmp_path, m, extra, data):
        lines = data.draw(csv_lines([cell(PREDICTION_TOKENS, BAD_PREDICTION_TOKENS)] * m))
        n = max(len(lines) + extra, 1)  # extra rows in the dataset: a count mismatch
        dataset = Dataset.from_arrays(np.zeros((n, 1)), [1] * n, [0] * n)
        header = ",".join(f"clf_{j}" for j in range(1, m + 1))

        def load(path):
            tables = load_prediction_matrix(path, dataset)
            return (np.stack([t.predictions for t in tables], axis=1),)

        def reference(path, rows=n):
            return (reference_load_prediction_matrix(path, rows),)

        check_against_reference(
            tmp_path, header, lines, load, reference, lambda path: reference(path, 1)
        )


def test_writers_match_per_cell_reference(tmp_path, rng):
    special = [-0.0, 1e-300, 5e-324, 1e308, 0.1 + 0.2]
    features = np.concatenate([rng.normal(size=(500, 2)), np.array([special, special[::-1]]).T])
    n = len(features)
    ds = Dataset.from_arrays(features, rng.choice((-1, 1), n), rng.integers(0, 2, n))
    matrix = rng.choice((-1, 1), size=(3, n))
    reference = tmp_path / "reference.csv"

    # the per-cell writers save_dataset and save_prediction_matrix replaced
    with open(reference, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f_{k}" for k in range(1, ds.dimension + 1)] + ["y", "z"])
        for i in range(len(ds)):
            row = [repr(float(v)) for v in ds.features[i]]
            row.append(str(int(ds.labels[i])))
            row.append(str(int(ds.sensitive[i])))
            writer.writerow(row)
    save_dataset(tmp_path / "data.csv", ds)
    assert (tmp_path / "data.csv").read_bytes() == reference.read_bytes()

    with open(reference, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"clf_{j}" for j in range(1, 4)])
        for i in range(n):
            writer.writerow([str(int(matrix[j, i])) for j in range(3)])
    save_prediction_matrix(tmp_path / "preds.csv", matrix)
    assert (tmp_path / "preds.csv").read_bytes() == reference.read_bytes()
