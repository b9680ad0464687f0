"""Data model: labeled instances with a binary sensitive attribute.

A dataset holds parallel arrays: an (N, d) feature matrix, labels in
{-1, +1} and the sensitive attribute in {0, 1}. Row order is stable:
the row index identifies a user. Indices are 0-based throughout the
library; human-facing reports add 1.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from os import PathLike
from typing import Callable, Optional, Union

import numpy as np

from .errors import DataFormatError

PathArg = Union[str, PathLike]

VALID_LABELS = (-1, 1)
VALID_SENSITIVE = (0, 1)

#: What ``Dataset.from_arrays`` reports, in the order it checks a row.
_FAULTS = ("non-finite feature value", "invalid label", "invalid sensitive value")


def _as_given(values) -> np.ndarray:
    """``values`` as an array, without coercing one element to another's type.

    ``np.asarray([1, "1"])`` would turn the 1 into a string as well, so a
    sequence that is not already an array keeps its elements as objects.
    """
    return values if isinstance(values, np.ndarray) else np.array(values, dtype=object)


@dataclass(frozen=True)
class CounterfactualPair:
    """Two instance indices with identical features and differing groups.

    Used by treatment tests: a fair decision rule must not distinguish
    the two sides. ``left < right`` always holds.
    """

    left: int
    right: int


class Dataset:
    """Immutable, array-backed collection of instances.

    All operations on a dataset are pure reads, so sharing one across
    threads is safe.
    """

    __slots__ = ("_features", "_labels", "_sensitive")

    @classmethod
    def from_arrays(cls, features, labels, sensitive) -> "Dataset":
        """Build a dataset from parallel arrays, validating every field.

        This is the only constructor, so it is the one place that checks
        labels, groups and features. Labels and groups are checked as
        given, before the cast to int, so 1.7, NaN or the string "1" is
        rejected instead of truncated. An error names the first faulty
        1-based row.
        """
        try:
            features = np.atleast_2d(np.array(features, dtype=float))
            if features.ndim != 2:
                raise ValueError(f"got shape {features.shape}")
        except ValueError as exc:
            raise DataFormatError(
                f"features must be an (N, d) array of numbers: {exc}"
            ) from None
        labels = _as_given(labels)
        sensitive = _as_given(sensitive)
        n = features.shape[0]
        if n == 0:
            raise DataFormatError("dataset must contain at least one instance")
        if labels.shape != (n,) or sensitive.shape != (n,):
            raise DataFormatError("features, labels and sensitive must have equal length")
        faults = np.column_stack((
            ~np.all(np.isfinite(features), axis=1),
            ~np.isin(labels, VALID_LABELS),
            ~np.isin(sensitive, VALID_SENSITIVE),
        ))
        if faults.any():
            row, fault = np.argwhere(faults)[0]
            raise DataFormatError(f"{_FAULTS[fault]} at row {row + 1}")
        labels = labels.astype(int)
        sensitive = sensitive.astype(int)
        for array in (features, labels, sensitive):
            array.setflags(write=False)
        ds = object.__new__(cls)
        ds._features, ds._labels, ds._sensitive = features, labels, sensitive
        return ds

    @property
    def features(self) -> np.ndarray:
        """(N, d) feature matrix, read-only."""
        return self._features

    @property
    def labels(self) -> np.ndarray:
        """(N,) true labels in {-1,+1}, read-only."""
        return self._labels

    @property
    def sensitive(self) -> np.ndarray:
        """(N,) sensitive attribute in {0,1}, read-only."""
        return self._sensitive

    @property
    def dimension(self) -> int:
        return self._features.shape[1]

    def __len__(self) -> int:
        return self._features.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self._features.shape == other._features.shape
            and np.array_equal(self._features, other._features)
            and np.array_equal(self._labels, other._labels)
            and np.array_equal(self._sensitive, other._sensitive)
        )

    def __hash__(self):
        return hash((self._features.shape, self._features.tobytes()))


def _expected_header(d: int) -> list[str]:
    return [f"f_{k}" for k in range(1, d + 1)] + ["y", "z"]


def _read_cells(
    path: PathArg, header_for: Callable[[int], Optional[list[str]]], pattern: str
) -> tuple[list[str], np.ndarray]:
    """Read a CSV file into its stripped header and an (n, k) str array.

    ``header_for(k)`` is the header a file of k columns must have, or
    None when no file may have k columns; ``pattern`` describes it in
    the error. Every row must have as many fields as the header.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        width = len(header)
        if header != header_for(width):
            raise DataFormatError(
                f"{path}: header must be {pattern}; got {','.join(header)}"
            )
        rows = []
        for k, row in enumerate(reader, start=1):
            if len(row) != width:
                raise DataFormatError(
                    f"{path}: row {k}: expected {width} fields, got {len(row)}"
                )
            rows.append(row)
    return header, np.array(rows, dtype=str).reshape(len(rows), width)


def _int_tokens(tokens: np.ndarray) -> np.ndarray:
    """``int()`` of each token; a token that does not parse stays a str.

    Integers past int64 stay Python ints, so ``Dataset.from_arrays``
    rejects both kinds as values outside the valid set.
    """
    try:
        return tokens.astype(np.int64)
    except (ValueError, OverflowError):
        return np.array([_int_or_token(t) for t in tokens.tolist()], dtype=object)


def _int_or_token(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def load_dataset(path: PathArg) -> Dataset:
    """Load a dataset from CSV with header ``f_1,...,f_d,y,z``.

    Row order is preserved; the feature dimension is inferred from the
    header. Numbers follow Python's ``float()`` and ``int()`` syntax.
    Raises :class:`DataFormatError` with the offending 1-based data-row
    number on any malformed value.
    """
    header, cells = _read_cells(
        path, lambda k: _expected_header(k - 2) if k >= 3 else None, "f_1,...,f_d,y,z"
    )
    if not len(cells):
        raise DataFormatError(f"{path}: no data rows")
    d = len(header) - 2
    try:
        features = cells[:, :d].astype(float)
    except ValueError:
        for k, row in enumerate(cells[:, :d], start=1):
            try:
                row.astype(float)
            except ValueError:
                raise DataFormatError(f"{path}: row {k}: malformed feature value") from None
        raise  # not reached: a cast that fails fails on some row
    try:
        return Dataset.from_arrays(
            features, _int_tokens(cells[:, d]), _int_tokens(cells[:, d + 1])
        )
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def save_dataset(path: PathArg, dataset: Dataset) -> None:
    """Write a dataset to CSV; ``load_dataset`` of the result is identity.

    Floats are written with ``repr`` (what ``csv`` writes for a float) so
    parsing restores them exactly.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_expected_header(dataset.dimension))
        writer.writerows(
            features + [y, z]
            for features, y, z in zip(
                dataset.features.tolist(),
                dataset.labels.tolist(),
                dataset.sensitive.tolist(),
            )
        )


def group_indices(dataset: Dataset, z: int) -> np.ndarray:
    """Ascending 0-based indices of instances with sensitive value ``z``.

    The two groups partition the index range.
    """
    if z not in VALID_SENSITIVE:
        raise ValueError(f"sensitive value must be 0 or 1, got {z!r}")
    return np.flatnonzero(dataset.sensitive == z)


def build_counterfactual_pairs(dataset: Dataset) -> list[CounterfactualPair]:
    """All index pairs with identical features and differing groups.

    Feature equality is exact (values as parsed, no tolerance): pairs
    are meant to be constructed duplicates, and a tolerance would invent
    false matches. Pairs are ordered by (left, right), left < right.
    """
    by_features: dict[tuple[float, ...], list[int]] = {}
    for i in range(len(dataset)):
        key = tuple(dataset.features[i].tolist())
        by_features.setdefault(key, []).append(i)
    z = dataset.sensitive
    pairs = []
    for indices in by_features.values():
        if len(indices) < 2:
            continue
        for a_pos, i in enumerate(indices):
            for j in indices[a_pos + 1:]:
                if z[i] != z[j]:
                    pairs.append(CounterfactualPair(i, j))
    pairs.sort(key=lambda p: (p.left, p.right))
    return pairs
