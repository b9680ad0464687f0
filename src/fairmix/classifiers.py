"""Deterministic binary classifiers in two concrete forms.

``LinearClassifier`` thresholds an affine score of the features and,
optionally, the sensitive attribute. ``TableClassifier`` carries a
precomputed prediction for every row of one specific dataset. All
randomness in this package lives in ensembles; classifiers themselves
are deterministic and immutable.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np

from ._record import _Record, _set
from .dataset import (
    _BLOCK_BYTES,
    Dataset,
    PathArg,
    _as_given,
    _canonical_blocks,
    _code_faults,
    _read_bytes,
    _read_cells,
    _read_only,
    check_length,
    check_predictions,
    check_real,
)
from .errors import CompatibilityError, DataFormatError, FairmixError


class LinearClassifier(_Record, defaults=(0.0, 0.0)):
    """Predict +1 iff ``weights . features + sensitive_weight * z + bias >= 0``.

    A score of exactly zero maps to +1; the fixed tie-break keeps every
    evaluation deterministic. ``sensitive_weight`` lets a rule read the
    group label without duplicating it into the features; 0 encodes a
    group-blind rule. ``weights`` is kept as a tuple of floats.
    """

    __slots__ = ("weights", "sensitive_weight", "bias")

    def __post_init__(self):
        weights = tuple(self.weights)  # an iterator is read once
        for x in (*weights, self.sensitive_weight, self.bias):  # as given, before float()
            check_real(x, "classifier parameter")
        object.__setattr__(self, "weights", tuple(map(float, weights)))
        if not all(map(math.isfinite, (*self.weights, self.sensitive_weight, self.bias))):
            raise FairmixError(f"non-finite classifier parameter in {self!r}")

    def predict_all(self, dataset: Dataset) -> np.ndarray:
        if dataset.dimension != len(self.weights):
            raise CompatibilityError(
                f"dimension mismatch: classifier expects {len(self.weights)} "
                f"features, dataset has {dataset.dimension}"
            )
        scores = (
            dataset.features @ np.asarray(self.weights)
            + self.sensitive_weight * dataset.sensitive
            + self.bias
        )
        return np.where(scores >= 0, np.int8(1), np.int8(-1))


def _check_bound(dataset) -> None:
    if not isinstance(dataset, Dataset):
        raise FairmixError(f"a table must be bound to a Dataset, got {type(dataset).__name__}")


class TableClassifier(_Record, private=("__weakref__",)):
    """A column of precomputed labels bound to one dataset.

    A table has no functional form to evaluate off-dataset, so it can
    only answer queries addressed by row index within its bound dataset.
    In particular it cannot score a synthesized flipped-attribute
    instance; treatment tests on tables need counterfactual pairs drawn
    from the dataset itself. ``predictions`` is kept as a read-only int8
    copy.
    """

    __slots__ = ("predictions", "dataset", "__weakref__")

    def __post_init__(self):
        _check_bound(self.dataset)
        preds = check_predictions(self.predictions)
        check_length(preds, self.dataset, "prediction vector", DataFormatError)
        # a copy, checked first: 255 would wrap to -1
        _set(self, "predictions", _read_only(preds.astype(np.int8)))

    @classmethod
    def _over_rows(cls, matrix: np.ndarray, dataset: Dataset) -> list[TableClassifier]:
        """Tables over the rows of a checked (M, N) int8 matrix of -1 and 1: each a
        read-only row of one frozen owner of its values, not a checked copy per row."""
        _check_bound(dataset)
        tables = []
        for row in _read_only(matrix):
            table = cls.__new__(cls)
            _set(table, "predictions", row)
            _set(table, "dataset", dataset)
            tables.append(table)
        return tables

    def predict_all(self, dataset: Dataset) -> np.ndarray:
        if dataset is not self.dataset and dataset != self.dataset:
            raise CompatibilityError(
                "table classifier applied to a dataset it is not bound to"
            )
        return self.predictions

    def __eq__(self, other) -> bool:
        if not isinstance(other, TableClassifier):
            return NotImplemented
        return np.array_equal(self.predictions, other.predictions) and self.dataset == other.dataset

    def __hash__(self):
        return hash(self.predictions.tobytes())


Classifier = Union[LinearClassifier, TableClassifier]


def prediction_matrix(members: Sequence[Classifier], dataset: Dataset) -> np.ndarray:
    """(M, N) int8 matrix of member predictions (+1/-1) on the dataset.

    Every member predicts int8 already, so each row is copied as it is;
    any other member is rejected, as its rows would be cast unchecked.
    """
    matrix = np.empty((len(members), len(dataset)), dtype=np.int8)
    for j, (row, member) in enumerate(zip(matrix, members), start=1):
        if not isinstance(member, (LinearClassifier, TableClassifier)):
            raise FairmixError(f"member {j} is not a classifier: {type(member).__name__}")
        row[:] = member.predict_all(dataset)
    return matrix


def _matrix_header(m: int) -> list[str]:
    return [f"clf_{j}" for j in range(1, m + 1)]


def _prediction_header(m: int) -> Optional[list[str]]:
    return _matrix_header(m) if m else None


def _canonical_prediction_matrix(data: bytes) -> Optional[np.ndarray]:
    """The (M, N) int8 matrix in ``data`` when every entry is spelled ``1``
    or ``-1``, M to a row, else None."""
    canonical = _canonical_blocks(data, _prediction_header)
    if canonical is None:
        return None
    m, blocks = canonical
    matrix = np.empty((m, len(data) // (2 * m)), dtype=np.int8)  # rows are 2m bytes or more
    row, column = b"1," * (m - 1) + b"1\n", 0
    for block in blocks:
        ones = block.translate(None, b"-")
        k = len(ones) // len(row)
        if ones != row * k:
            return None
        # Without its dashes the block is all 1s, m to a line. So when every
        # dash is followed by a 1, each dash starts a token "-1": a dash after
        # a 1 would leave "11" in that pattern.
        buf = np.frombuffer(block, dtype=np.uint8)
        one = buf == ord("1")
        after_dash = np.zeros(len(buf), dtype=bool)
        after_dash[1:] = buf[:-1] == ord("-")
        if np.any(after_dash & ~one):
            return None
        negative = np.compress(one, after_dash).view(np.int8)
        matrix[:, column : column + k] = (1 - 2 * negative).reshape(k, m).T
        column += k
    return matrix[:, :column]


def _prediction_cells(path: PathArg, data: bytes) -> np.ndarray:
    """The (M, N) int8 matrix in ``data``, parsed by ``_read_cells``."""
    header, rows = _read_cells(path, data, _prediction_header, "clf_1,...,clf_M")
    matrix = []
    for k, row in enumerate(rows, start=1):
        try:
            values = [int(v) for v in row]
        except ValueError:
            raise DataFormatError(f"{path}: row {k}: malformed prediction value") from None
        for v in values:
            if v not in (-1, 1):
                raise DataFormatError(f"{path}: row {k}: prediction must be -1 or 1, got {v}")
        matrix.append(values)
    return np.array(matrix, dtype=np.int8).reshape(len(rows), len(header)).T


def load_prediction_matrix(path: PathArg, dataset: Dataset) -> list[TableClassifier]:
    """Load table classifiers from CSV with header ``clf_1,...,clf_M``.

    The file must have exactly one row per dataset instance, entries in
    {-1, +1} (Python ``int()`` syntax, so ``+1`` and ``01`` are read as
    1). Column order is preserved.
    """
    data = _read_bytes(path)
    matrix = _canonical_prediction_matrix(data)
    if matrix is None:
        matrix = _prediction_cells(path, data)
    if matrix.shape[1] != len(dataset):
        raise DataFormatError(
            f"{path}: row count mismatch: {matrix.shape[1]} rows for a dataset "
            f"of {len(dataset)} instances"
        )
    # the canonical matrix is a view of a buffer wider than the filled columns:
    # the frozen copy keeps only N*M bytes
    return TableClassifier._over_rows(matrix, dataset)


def save_prediction_matrix(path: PathArg, matrix: np.ndarray) -> None:
    """Write an (M, N) prediction matrix, M, N >= 1, as ``clf_1..clf_M`` CSV.

    The matrix has one row per classifier, as produced by
    :func:`prediction_matrix`; the file has one row per instance. Every
    entry must be -1 or 1; anything else is rejected, not truncated.
    """
    given = matrix
    try:
        matrix = np.asarray(matrix)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise DataFormatError(
            "prediction matrix must be (M, N) with M, N >= 1, got ragged rows"
        ) from None
    if matrix.ndim != 2 or 0 in matrix.shape:
        raise DataFormatError(
            f"prediction matrix must be (M, N) with M, N >= 1, got shape {matrix.shape}"
        )
    bad = _code_faults(_as_given(given), (-1, 1))  # as given: numpy reads [True, -1] as [1, -1]
    if bad.any():
        row, column = np.argwhere(bad.T)[0]
        raise DataFormatError(
            f"invalid prediction for clf_{column + 1} at row {row + 1}: must be -1 or 1"
        )
    # csv.writer's bytes: each row is 1 or b per entry, commas and CRLF, with b
    # then spelled -1; a block of rows is about _BLOCK_BYTES
    m, n = matrix.shape
    step = max(1, _BLOCK_BYTES // (2 * m + 1))
    rows = np.empty((step, 2 * m + 1), dtype=np.uint8)
    rows[:] = np.frombuffer(b"b," * (m - 1) + b"b\r\n", dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(",".join(_matrix_header(m)).encode() + b"\r\n")
        for start in range(0, n, step):
            block = rows[: min(step, n - start)]
            block[:, :-1:2] = np.where(matrix[:, start : start + step].T == 1, ord("1"), ord("b"))
            fh.write(block.tobytes().replace(b"b", b"-1"))
