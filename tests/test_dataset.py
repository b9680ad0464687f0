"""Dataset model: validation, CSV round-trips, twin-pair discovery."""

import csv
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairmix import (
    DataFormatError,
    Dataset,
    FairmixError,
    build_counterfactual_pairs,
    group_indices,
    load_dataset,
    load_prediction_matrix,
    save_dataset,
    save_prediction_matrix,
)
from fairmix import classifiers as classifiers_module
from fairmix import dataset as dataset_module


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
    return np.asarray(rows, dtype=np.int8)


class TestFromArrays:
    def test_construction_needs_every_field(self):
        with pytest.raises(TypeError, match=r"^Dataset\.__init__\(\) missing 3 required"):
            Dataset()
        with pytest.raises(TypeError):
            Dataset([[0.0]], [1])

    def test_constructor_is_from_arrays(self):
        ds = small_dataset()
        assert Dataset(ds.features, ds.labels, ds.sensitive) == ds
        with pytest.raises(DataFormatError, match="^invalid label at row 1$"):
            Dataset([[0.0]], [0], [0])

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
        message = "feature value must be a real number, got [0.0]"  # a ragged row
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            Dataset.from_arrays([[0.0], [0.0, 1.0]], [1, 1], [0, 0])
        with pytest.raises(DataFormatError, match=r"features must be an \(N, d\) array"):
            Dataset.from_arrays(np.zeros((2, 1, 1)), [1, 1], [0, 0])

    def test_arrays_are_read_only(self):
        ds = small_dataset()
        for arr in (ds.features, ds.labels, ds.sensitive):
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("name", ["features", "labels", "sensitive"])
    def test_arrays_cannot_be_made_writeable(self, name):
        # a flat feature list is one instance: its 2-D features start as a view
        for ds in (small_dataset(), Dataset.from_arrays([0.5, 1.0], [1], [0])):
            array = getattr(ds, name)
            with pytest.raises(ValueError):
                array.setflags(write=True)
            assert not getattr(ds, name).flags.writeable

    def test_hash_agrees_with_equality_on_signed_zeros(self):
        a = Dataset.from_arrays([[0.0], [1.0]], [1, -1], [0, 1])
        b = Dataset.from_arrays([[-0.0], [1.0]], [1, -1], [0, 1])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

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


    @pytest.mark.parametrize("extra", [0, 1])
    def test_cell_at_csv_field_limit(self, tmp_path, extra):
        # -000...01.0 is -1.0, spelled in bytes the canonical fast path reads
        cell = "-" + "0" * (csv.field_size_limit() - 4 + extra) + "1.0"
        path = tmp_path / "d.csv"
        path.write_text(f"f_1,y,z\n0.5,1,0\n{cell},-1,1\n")
        if extra:
            with pytest.raises(DataFormatError, match="line 3: field larger than"):
                load_dataset(path)
        else:
            assert load_dataset(path).features.tolist() == [[0.5], [-1.0]]


class TestGroups:
    def test_partition(self):
        ds = small_dataset()
        g0 = group_indices(ds, 0)
        g1 = group_indices(ds, 1)
        assert sorted(np.concatenate([g0, g1]).tolist()) == [0, 1, 2, 3]
        assert g0.tolist() == [0, 3]
        assert g1.tolist() == [1, 2]

    def test_invalid_group(self):
        with pytest.raises(FairmixError, match="must be 0 or 1"):
            group_indices(small_dataset(), 2)

    def test_array_group_rejected(self):
        # an array has no single truth value, so it must not reach `in`
        with pytest.raises(FairmixError, match=re.escape("must be 0 or 1, got array([0, 1])")):
            group_indices(small_dataset(), np.array([0, 1]))


class TestCounterfactualPairs:
    def test_cross_group_twins_found(self):
        ds = small_dataset()
        # rows 0 and 1 share features and differ in group
        assert build_counterfactual_pairs(ds) == [(0, 1)]

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
        assert pairs == [(0, 1), (0, 3), (1, 2), (2, 3)]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_all_pairs_reference(self, data):
        # few distinct values, so rows repeat; 0.0 and -0.0 are twins
        n = data.draw(st.integers(min_value=1, max_value=12), label="n")
        d = data.draw(st.integers(min_value=1, max_value=3), label="d")
        value = st.sampled_from([0.0, -0.0, 1.5])
        features = data.draw(
            st.lists(st.lists(value, min_size=d, max_size=d), min_size=n, max_size=n)
        )
        z = data.draw(st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n))
        ds = Dataset.from_arrays(features, [1] * n, z)
        expected = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if features[i] == features[j] and z[i] != z[j]
        ]
        pairs = build_counterfactual_pairs(ds)
        assert pairs == expected
        assert all(type(i) is int and type(j) is int for i, j in pairs)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_dict_of_feature_tuples(self, data):
        # categorical levels beside arbitrary floats, one group only, all rows
        # identical and N = 1 all come up; the dict keys rows after + 0.0
        n = data.draw(st.integers(1, 40), label="n")
        d = data.draw(st.integers(1, 4), label="d")
        value = st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0]),
            st.floats(allow_nan=False, allow_infinity=False),
        )
        row = st.lists(value, min_size=d, max_size=d)
        if data.draw(st.booleans(), label="identical rows"):
            features = [data.draw(row)] * n
        else:
            features = data.draw(st.lists(row, min_size=n, max_size=n))
        group = st.sampled_from((0, 1))
        if data.draw(st.booleans(), label="one group"):
            z = [data.draw(group)] * n
        else:
            z = data.draw(st.lists(group, min_size=n, max_size=n))
        buckets = {}
        for i, features_i in enumerate(features):
            buckets.setdefault(tuple(v + 0.0 for v in features_i), []).append(i)
        expected = sorted(
            (i, j) for rows in buckets.values() for i in rows for j in rows
            if i < j and z[i] != z[j]
        )
        ds = Dataset.from_arrays(features, [1] * n, z)
        assert build_counterfactual_pairs(ds) == expected

    def test_hash_collisions_fall_back_to_the_exact_sort(self, monkeypatch):
        # one hash for every row: neighbours with equal hashes and different
        # features must send the pairs through the sort by value
        rng = np.random.default_rng(3)
        n = 300
        features = rng.integers(0, 3, size=(n, 2)).astype(float)
        features[::7] *= -1.0  # -0.0 beside 0.0
        z = rng.integers(0, 2, size=n)
        ds = Dataset.from_arrays(features, np.ones(n, dtype=int), z)
        expected = dataset_module.twin_pairs(ds)
        assert len(expected) > 1000
        sorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(
            dataset_module, "_feature_hash", lambda f: np.zeros(len(f), dtype=np.uint64)
        )
        monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(keys) or lexsort(keys))
        pairs = dataset_module.twin_pairs(ds)
        assert len(sorts) == 1
        assert pairs.dtype == expected.dtype and np.array_equal(pairs, expected)


FEATURE_TOKENS = ["0", "1.5", "-2.25", "1e-300", "-0.0", "4.9e-324", " 1.5", "1_0"]
BAD_FEATURE_TOKENS = ["abc", "nan", "inf", "-inf", "1e999", "", "0x1", "-"]
LABEL_TOKENS = ["1", "-1", "+1", " 1", "01", "-01"]
BAD_LABEL_TOKENS = ["0", "7", "1.0", "1e0", "-", "abc", "99999999999999999999999"]
SENSITIVE_TOKENS = ["0", "1", " 0", "+1", "00"]
BAD_SENSITIVE_TOKENS = ["2", "maybe", "1.0", "1e0", "-"]
PREDICTION_TOKENS = ["1", "-1", "+1", " 1", "01", "-01"]
BAD_PREDICTION_TOKENS = ["0", "yes", "300", "", "1.0", "1e0", "-", "--1", "1-"]

# Tokens spelled only with the bytes the fast paths accept: canonical ones,
# then ones that the byte checks let through and a later check must catch.
PLAIN_FEATURE_TOKENS = [
    "0", "1.5", "-2.25", "1e-300", "-0.0", "4.9e-324", "1.", ".5", "+1", "01", "1E5"
]
BAD_PLAIN_FEATURE_TOKENS = ["1e999", "-", "", ".", "e5", "1e", "1-2", "--1", "1.2.3"]
PLAIN_LABEL_TOKENS = ["1", "-1"]
BAD_PLAIN_LABEL_TOKENS = ["1.0", "1e0", "+1", "01", "-01", "-", "0", "--1", "11", "2-1"]
PLAIN_SENSITIVE_TOKENS = ["0", "1"]
BAD_PLAIN_SENSITIVE_TOKENS = ["1.0", "1e0", "00", "+1", "-0", "-", "01", "2"]
PLAIN_PREDICTION_TOKENS = ["1", "-1"]
BAD_PLAIN_PREDICTION_TOKENS = ["+1", "01", "-01", "-", "--1", "1-", "1-1", "0", "11", ""]


def cell(tokens, bad_tokens):
    # mostly valid tokens, each maybe quoted
    token = st.sampled_from(tokens * 4 + bad_tokens)
    return st.tuples(token, st.booleans()).map(lambda tq: f'"{tq[0]}"' if tq[1] else tq[0])


@st.composite
def plain_lines(draw, columns):
    """Data lines of canonical tokens, and at most one fault: a token from a
    column's bad list, or a short, long or blank row. ``columns`` holds a
    (tokens, bad tokens) pair for each column."""
    rows = [
        [draw(st.sampled_from(tokens)) for tokens, _ in columns]
        for _ in range(draw(st.integers(1, 5)))
    ]
    k = draw(st.integers(0, len(rows) - 1))
    fault = draw(st.sampled_from(["none"] * 3 + ["token"] * 5 + ["short", "long", "blank"]))
    if fault == "token":
        j = draw(st.integers(0, len(columns) - 1))
        rows[k][j] = draw(st.sampled_from(columns[j][1]))
    elif fault == "short":
        rows[k].pop()
    elif fault == "long":
        rows[k].append(rows[k][-1])
    lines = [",".join(row) for row in rows]
    if fault == "blank":
        lines[k] = ""
    return lines


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


@st.composite
def csv_bytes(draw, header, lines, plain=False):
    """The file of ``header`` and ``lines``: the header maybe after a BOM or
    a ``#`` or with a quoted cell, every line ending in LF, or every one in
    CRLF, or each in either, and the last maybe in neither. When ``plain``,
    the canonical layouts are likelier."""
    cells = header.split(",")
    header = draw(
        st.sampled_from(
            [header] * (20 if plain else 5)
            + ["\ufeff" + header, "#" + header, ",".join([f'"{cells[0]}"', *cells[1:]])]
        )
    )
    ending = draw(st.sampled_from(["\n", "\r\n"] * (5 if plain else 1) + ["mixed"]))
    text = "".join(
        line + (draw(st.sampled_from(["\n", "\r\n"])) if ending == "mixed" else ending)
        for line in [header, *lines]
    )
    if draw(st.integers(0, 19 if plain else 4)) == 0:
        text = text.rstrip("\r\n")
    return text.encode("utf-8")


def outcome(load, path):
    try:
        return load(path), None
    except DataFormatError as exc:
        return None, str(exc)


def row_of(message):
    match = re.search(r"row (\d+)", message)
    return match and int(match.group(1))


def check_against_reference(
    tmp_path, header, lines, data, load, reference, row_reference=None
):
    """The new loader fails exactly when the reference does, on the same row
    when only one row is faulty, and otherwise returns the same arrays.

    ``data`` is the file's bytes: ``header`` and ``lines`` in some layout.
    A row is faulty when ``row_reference`` (default: ``reference``) fails
    on a file holding ``header`` and that row alone.
    """
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    got, error = outcome(load, path)
    expected, expected_error = outcome(reference, path)
    assert (error is None) == (expected_error is None), (error, expected_error)
    if error is None:
        assert_same_arrays(got, expected)
        return
    one = tmp_path / "one.csv"
    faulty = []
    for k, line in enumerate(lines, start=1):
        one.write_text(f"{header}\n{line}\n", encoding="utf-8")
        if outcome(row_reference or reference, one)[1] is not None:
            faulty.append(k)
    # from_arrays words the one non-finite message differently
    expected_error = re.sub(
        r"row (\d+): non-finite feature value",
        r"non-finite feature value at row \1",
        expected_error,
    )
    if len(faulty) <= 1 or row_of(expected_error) is None:
        assert error == expected_error
    else:
        assert row_of(error) in faulty, (error, faulty)


def assert_same_arrays(got, expected):
    for a, b in zip(got, expected, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


DIFFERENTIAL = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestLoaderDifferential:
    """The loaders against the row-by-row ones they replaced, on files
    spelled to reach, and to defeat, the byte checks of the fast paths."""

    @DIFFERENTIAL
    @given(d=st.integers(1, 2), data=st.data())
    def test_load_dataset(self, tmp_path, d, data):
        cells = [cell(FEATURE_TOKENS, BAD_FEATURE_TOKENS)] * d + [
            cell(LABEL_TOKENS, BAD_LABEL_TOKENS),
            cell(SENSITIVE_TOKENS, BAD_SENSITIVE_TOKENS),
        ]
        self.check_dataset(tmp_path, d, data.draw(csv_lines(cells)), data, plain=False)

    @DIFFERENTIAL
    @given(d=st.integers(1, 2), data=st.data())
    def test_load_plain_dataset(self, tmp_path, d, data):
        columns = [(PLAIN_FEATURE_TOKENS, BAD_PLAIN_FEATURE_TOKENS)] * d + [
            (PLAIN_LABEL_TOKENS, BAD_PLAIN_LABEL_TOKENS),
            (PLAIN_SENSITIVE_TOKENS, BAD_PLAIN_SENSITIVE_TOKENS),
        ]
        self.check_dataset(tmp_path, d, data.draw(plain_lines(columns)), data, plain=True)

    @DIFFERENTIAL
    @given(m=st.integers(1, 3), extra=st.integers(0, 1), data=st.data())
    def test_load_prediction_matrix(self, tmp_path, m, extra, data):
        lines = data.draw(csv_lines([cell(PREDICTION_TOKENS, BAD_PREDICTION_TOKENS)] * m))
        self.check_prediction_matrix(tmp_path, m, extra, lines, data, plain=False)

    @DIFFERENTIAL
    @given(m=st.integers(1, 3), extra=st.integers(0, 1), data=st.data())
    def test_load_plain_prediction_matrix(self, tmp_path, m, extra, data):
        columns = [(PLAIN_PREDICTION_TOKENS, BAD_PLAIN_PREDICTION_TOKENS)] * m
        lines = data.draw(plain_lines(columns))
        self.check_prediction_matrix(tmp_path, m, extra, lines, data, plain=True)

    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    @pytest.mark.parametrize(
        "lines",
        [
            [""],  # a body of one byte: no index back from its LF is in it
            ["1"],
            ["1,0", "0.5,1,1"],  # a first row shorter than ",1,0"
            [",1,0", "0.5,1,1"],  # as long as ",1,0", with an empty feature
            [",1,1"],
            ["0.5,--1,0"],
            ["0.5,2-1,0"],
            ["0.5,x1,1"],
            ["0.5,.1e1,0"],  # float() reads 1 and int() fails: no comma before "1"
            ["0.5,-10e-1,1"],  # likewise, no comma before "-1"
            ["0.5,1,0", "0.5,11,0"],
            ["0.5,01,1"],
            ["0.5,1,2"],
            ["-1,0"],  # the label at the very start of the body
            ["1,1"],
            [",-1,1"],
            ["0.5,1,0", "-1,0"],
            ["0.5,-1,0", "2,1,1"],
        ],
    )
    def test_row_ends(self, tmp_path, lines, ending):
        """Files aimed at the row-end check, which looks up to five bytes
        back from each LF: short first rows, and endings near the valid ones."""
        header = "f_1,y,z"
        file_bytes = "".join(line + ending for line in [header, *lines]).encode()

        def load(path):
            ds = load_dataset(path)
            return ds.features, ds.labels, ds.sensitive

        check_against_reference(
            tmp_path, header, lines, file_bytes, load, reference_load_dataset
        )
        fast = dataset_module._load_canonical_dataset(file_bytes)
        if fast is not None:
            assert_same_arrays(
                (fast.features, fast.labels, fast.sensitive),
                reference_load_dataset(tmp_path / "data.csv"),
            )

    @pytest.mark.parametrize("first", ["0,1,0", "0,1,1", "0,-1,0", "0,-1,1"])
    def test_shortest_rows_take_the_fast_path(self, first):
        rows = [first, "0,1,0", "0,1,1", "0,-1,0", "0,-1,1"]
        fast = dataset_module._load_canonical_dataset(
            "".join(f"{row}\n" for row in ["f_1,y,z", *rows]).encode()
        )
        assert fast is not None
        assert fast.labels.tolist() == [int(row.split(",")[1]) for row in rows]
        assert fast.sensitive.tolist() == [int(row.split(",")[2]) for row in rows]

    @staticmethod
    def check_dataset(tmp_path, d, lines, data, plain):
        header = ",".join([f"f_{k}" for k in range(1, d + 1)] + ["y", "z"])
        file_bytes = data.draw(csv_bytes(header, lines, plain))

        def load(path):
            ds = load_dataset(path)
            return ds.features, ds.labels, ds.sensitive

        check_against_reference(
            tmp_path, header, lines, file_bytes, load, reference_load_dataset
        )
        # the fast path alone: when it accepts a file, it reads what the reference reads
        fast = dataset_module._load_canonical_dataset(file_bytes)
        if fast is not None:
            assert_same_arrays(
                (fast.features, fast.labels, fast.sensitive),
                reference_load_dataset(tmp_path / "data.csv"),
            )

    @staticmethod
    def check_prediction_matrix(tmp_path, m, extra, lines, data, plain):
        n = max(len(lines) + extra, 1)  # extra rows in the dataset: a count mismatch
        dataset = Dataset.from_arrays(np.zeros((n, 1)), [1] * n, [0] * n)
        header = ",".join(f"clf_{j}" for j in range(1, m + 1))
        file_bytes = data.draw(csv_bytes(header, lines, plain))

        def load(path):
            tables = load_prediction_matrix(path, dataset)
            return (np.stack([t.predictions for t in tables], axis=1),)

        def reference(path, rows=n):
            return (reference_load_prediction_matrix(path, rows),)

        check_against_reference(
            tmp_path,
            header,
            lines,
            file_bytes,
            load,
            reference,
            lambda path: reference(path, 1),
        )
        fast = classifiers_module._canonical_prediction_matrix(file_bytes)
        if fast is not None:
            expected = reference(tmp_path / "data.csv", fast.shape[1])[0]
            assert np.array_equal(fast.T, expected)


BLOCK_SIZES = [1, 7, 64]


@pytest.fixture(params=BLOCK_SIZES)
def small_blocks(request, monkeypatch):
    """The canonical loaders read ``request.param`` bytes a block, or to the
    end of the row that starts there."""
    monkeypatch.setattr(dataset_module, "_BLOCK_BYTES", request.param)


@pytest.mark.usefixtures("small_blocks")
class TestLoaderDifferentialInSmallBlocks(TestLoaderDifferential):
    """The same differential with a row or a few rows to a block, so that
    every check meets the edges between blocks."""


def _fast_and_general(load, path):
    """``load(path)`` as arrays or an error message, with the canonical
    fast paths, then with the general parser alone."""

    def outcome_of():
        try:
            return [(a.dtype, a.shape, a.tobytes()) for a in load(path)]
        except DataFormatError as exc:
            return str(exc)

    fast = outcome_of()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset_module, "_load_canonical_dataset", lambda data: None)
        patch.setattr(classifiers_module, "_canonical_prediction_matrix", lambda data: None)
        return fast, outcome_of()


#: One fault for row k of a canonical dataset (d=2) or prediction matrix
#: (M=3) file. "extra" and "missing" keep a valid row end, which
#: np.loadtxt's usecols alone would read as two features.
DATASET_FAULTS = {
    "none": lambda row: row,
    "token": lambda row: "1-2" + row[row.index(","):],
    "extra": lambda row: "2.5," + row,
    "missing": lambda row: row[row.index(",") + 1:],
}
PREDICTION_FAULTS = {
    "none": lambda row: row,
    "token": lambda row: "11" + row[row.index(","):],
    "extra": lambda row: row + ",1",
    "missing": lambda row: row[row.index(",") + 1:],
}


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("ending", ["\n", "\r\n"])
@pytest.mark.parametrize("row", [1, 15, 30])  # in the first, a middle and the last block
class TestFaultsAtBlockEdges:
    """A fault in one row of a 30-row file gives the general parser's
    arrays or message, wherever the row falls among the blocks."""

    @pytest.mark.parametrize("fault", sorted(DATASET_FAULTS))
    def test_dataset(self, tmp_path, row, ending, fault):
        rows = [f"{k / 4},{-k}.5,{1 - 2 * (k % 3 == 0)},{k % 2}" for k in range(1, 31)]
        rows[row - 1] = DATASET_FAULTS[fault](rows[row - 1])
        data = "".join(line + ending for line in ["f_1,f_2,y,z", *rows]).encode()
        (tmp_path / "data.csv").write_bytes(data)

        def load(path):
            ds = load_dataset(path)
            return ds.features, ds.labels, ds.sensitive

        fast, general = _fast_and_general(load, tmp_path / "data.csv")
        assert fast == general
        assert (dataset_module._load_canonical_dataset(data) is None) == (fault != "none")
        if fault != "none":
            assert f"row {row}" in general

    @pytest.mark.parametrize("fault", sorted(PREDICTION_FAULTS))
    def test_prediction_matrix(self, tmp_path, row, ending, fault):
        rows = [",".join(str(1 - 2 * (k >> j & 1)) for j in range(3)) for k in range(30)]
        rows[row - 1] = PREDICTION_FAULTS[fault](rows[row - 1])
        data = "".join(line + ending for line in ["clf_1,clf_2,clf_3", *rows]).encode()
        (tmp_path / "preds.csv").write_bytes(data)
        dataset = Dataset.from_arrays(np.zeros((30, 1)), [1] * 30, [0] * 30)

        def load(path):
            return [t.predictions for t in load_prediction_matrix(path, dataset)]

        fast, general = _fast_and_general(load, tmp_path / "preds.csv")
        assert fast == general
        canonical = classifiers_module._canonical_prediction_matrix(data)
        assert (canonical is None) == (fault != "none")
        if fault != "none":
            assert f"row {row}" in general


#: Spellings that a byte check alone would misread, each put in turn into
#: every column of an otherwise canonical file.
ODD_TOKENS = [
    "1_0", "0x1", "nan", "1e999", "-1e999", "1.", ".5", "+1", "01", "1.0", "1e0", "-", "", " 1",
    "1\x00", "-1\x00",
]


@pytest.mark.parametrize("ending", ["\n", "\r\n"])
@pytest.mark.parametrize("column", range(4))
@pytest.mark.parametrize(
    "token", ODD_TOKENS + ["--1", "2-1", "x1", ".1e1", "10e-1", "11", "2"]
)
def test_odd_token_in_canonical_dataset(tmp_path, token, column, ending):
    rows = [["0.5", "-1.5", "1", "0"], ["2", "3", "-1", "1"], ["-0.0", "1e-5", "1", "1"]]
    rows[1][column] = token
    header = "f_1,f_2,y,z"
    lines = [",".join(row) for row in rows]
    data = "".join(line + ending for line in [header, *lines]).encode()

    def load(path):
        ds = load_dataset(path)
        return ds.features, ds.labels, ds.sensitive

    check_against_reference(tmp_path, header, lines, data, load, reference_load_dataset)


@pytest.mark.parametrize("ending", ["\n", "\r\n"])
@pytest.mark.parametrize("column", range(2))
@pytest.mark.parametrize("token", ODD_TOKENS + ["-01", "--1", "1-", "1-1", "-1-"])
def test_odd_token_in_canonical_prediction_matrix(tmp_path, token, column, ending):
    rows = [["1", "-1"], ["-1", "-1"], ["1", "1"]]
    rows[1][column] = token
    header = "clf_1,clf_2"
    lines = [",".join(row) for row in rows]
    data = "".join(line + ending for line in [header, *lines]).encode()
    dataset = Dataset.from_arrays(np.zeros((3, 1)), [1] * 3, [0] * 3)

    def load(path):
        tables = load_prediction_matrix(path, dataset)
        return (np.stack([t.predictions for t in tables], axis=1),)

    def reference(path):
        return (reference_load_prediction_matrix(path, 3),)

    check_against_reference(
        tmp_path, header, lines, data, load, reference,
        lambda path: (reference_load_prediction_matrix(path, 1),),
    )


def test_canonical_files_take_the_fast_paths(tmp_path, monkeypatch, rng):
    """Files written by the save functions (CRLF) and by plain LF writers
    load without the general parser."""

    def general_parser(*args):
        raise AssertionError("_read_cells called on a canonical file")

    monkeypatch.setattr(dataset_module, "_read_cells", general_parser)
    monkeypatch.setattr(classifiers_module, "_read_cells", general_parser)
    n = 50
    ds = Dataset.from_arrays(
        rng.normal(size=(n, 3)), rng.choice((-1, 1), n), rng.integers(0, 2, n)
    )
    matrix = rng.choice((-1, 1), size=(4, n))

    save_dataset(tmp_path / "data.csv", ds)
    save_prediction_matrix(tmp_path / "preds.csv", matrix)
    assert b"\r\n" in (tmp_path / "data.csv").read_bytes()
    assert load_dataset(tmp_path / "data.csv") == ds
    tables = load_prediction_matrix(tmp_path / "preds.csv", ds)
    assert np.array_equal([t.predictions for t in tables], matrix)

    # LF files in the style of perfbench/gen.py: fixed-point features
    features = np.char.mod("%.6f", ds.features)
    rows = [
        ",".join([*f, str(y), str(z)])
        for f, y, z in zip(features.tolist(), ds.labels, ds.sensitive)
    ]
    (tmp_path / "lf_data.csv").write_text("f_1,f_2,f_3,y,z\n" + "".join(r + "\n" for r in rows))
    (tmp_path / "lf_preds.csv").write_text(
        "clf_1,clf_2,clf_3,clf_4\n"
        + "".join(",".join(map(str, r)) + "\n" for r in matrix.T.tolist())
    )
    lf = load_dataset(tmp_path / "lf_data.csv")
    assert np.array_equal(lf.features, features.astype(float))
    tables = load_prediction_matrix(tmp_path / "lf_preds.csv", lf)
    assert np.array_equal([t.predictions for t in tables], matrix)


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
