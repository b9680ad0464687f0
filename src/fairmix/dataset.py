"""Data model: labeled instances with a binary sensitive attribute.

A dataset holds parallel arrays: an (N, d) feature matrix, labels in
{-1, +1} and the sensitive attribute in {0, 1}. Row order is stable:
the row index identifies a user. Indices are 0-based throughout the
library; human-facing reports add 1.
"""

from __future__ import annotations

import csv
import io
import numbers
import sys
from os import PathLike
from typing import Callable, Iterator, Optional, Union

import numpy as np

from ._record import _Record, _set
from .errors import DataFormatError, FairmixError

PathArg = Union[str, PathLike]

VALID_LABELS = (-1, 1)
VALID_SENSITIVE = (0, 1)

#: What ``Dataset`` construction reports, in the order it checks a row.
_FAULTS = ("non-finite feature value", "invalid label", "invalid sensitive value")


def _as_given(values) -> np.ndarray:
    """``values`` as an array, without coercing one element to another's type.

    ``np.asarray([1, "1"])`` would turn the 1 into a string as well, so a
    sequence that is not already an array keeps its elements as objects.
    """
    return values if isinstance(values, np.ndarray) else np.array(values, dtype=object)


def _entry_types(values: np.ndarray) -> set:
    """The distinct types of the entries of an array of objects."""
    return set(map(type, values.ravel().tolist()))


def _bool_entries(values: np.ndarray) -> np.ndarray:
    """Where ``values`` holds a bool as given: one dtype test on an array not of objects,
    on one of objects a test per entry type, then per entry only if a type is a bool."""
    if values.dtype != object:
        return np.bool_(values.dtype.kind == "b")
    if not any(issubclass(t, (bool, np.bool_)) for t in _entry_types(values)):
        return np.bool_(False)
    return np.vectorize(lambda x: isinstance(x, (bool, np.bool_)), otypes=[bool])(values)


def _code_faults(values: np.ndarray, codes: tuple[int, int]) -> np.ndarray:
    """Where ``values`` is not one of the integer ``codes``, as given: 1.0 is 1, a bool is not."""
    faults = (values != codes[0]) & (values != codes[1])  # np.isin's test, 15x as fast
    if values.dtype.kind in "bO":
        faults |= _bool_entries(values)
    return faults


def _read_only(array: np.ndarray) -> np.ndarray:
    """A view of ``array``'s values that no caller can make writeable.

    numpy lets the owner of an array's data set its write flag again, but
    not a view of a read-only owner. So the data gets an owner of its own,
    which is frozen, and only a view of it is handed out.
    """
    if array.base is not None:
        array = array.copy()
    array.setflags(write=False)
    return array.view()


class Dataset(_Record, private=("_member_counts",)):
    """Immutable, array-backed collection of instances: read-only copies of the
    (N, d) ``features``, the (N,) ``labels`` in {-1,+1} and the (N,) ``sensitive``
    attribute in {0,1}. All operations on a dataset are pure reads, so sharing
    one across threads is safe. One private slot keeps weak references to the
    last all-table member list with its count table, which it keeps alive; only
    ``member_counts`` uses it.

    Construction is the one place that checks labels, groups and features,
    features by :func:`check_reals`. Labels and groups are checked as given,
    before the cast to int, so 1.7, NaN, True or the string "1" is rejected
    instead of truncated. An error names the first faulty 1-based row.
    """

    __slots__ = ("features", "labels", "sensitive", "_member_counts")

    def __post_init__(self):
        features = np.atleast_2d(check_reals(self.features, "feature value", DataFormatError))
        if features.ndim != 2:
            raise DataFormatError(
                f"features must be an (N, d) array of numbers: got shape {features.shape}"
            )
        labels = _as_given(self.labels)
        sensitive = _as_given(self.sensitive)
        n = features.shape[0]
        if n == 0:
            raise DataFormatError("dataset must contain at least one instance")
        if labels.shape != (n,) or sensitive.shape != (n,):
            raise DataFormatError("features, labels and sensitive must have equal length")
        faults = np.column_stack((
            ~np.all(np.isfinite(features), axis=1),
            _code_faults(labels, VALID_LABELS),
            _code_faults(sensitive, VALID_SENSITIVE),
        ))
        if faults.any():
            row, fault = np.argwhere(faults)[0]
            raise DataFormatError(f"{_FAULTS[fault]} at row {row + 1}")
        # a copy: the caller's may be float64
        _set(self, "features", _read_only(np.array(features)))
        _set(self, "labels", _read_only(labels.astype(int)))
        _set(self, "sensitive", _read_only(sensitive.astype(int)))
        _set(self, "_member_counts", None)

    @classmethod
    def from_arrays(cls, features, labels, sensitive) -> "Dataset":
        """Build a dataset from parallel arrays: ``Dataset(features, labels, sensitive)``."""
        return cls(features, labels, sensitive)

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.features.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return all(map(np.array_equal, self._values(self), self._values(other)))

    def __hash__(self):
        # -0.0 == 0.0 but their bytes differ; adding 0.0 maps -0.0 to 0.0
        # (NaN, which would break the contract too, is rejected at construction)
        return hash((self.features.shape, (self.features + 0.0).tobytes()))


def _expected_header(d: int) -> list[str]:
    return [f"f_{k}" for k in range(1, d + 1)] + ["y", "z"]


def _dataset_header(k: int) -> Optional[list[str]]:
    return _expected_header(k - 2) if k >= 3 else None


def _read_bytes(path: PathArg) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


#: Bytes per block of the canonical loaders, about a core's share of L2; a
#: block runs on to the end of the row it stops in.
_BLOCK_BYTES = 1 << 18


def _canonical_blocks(
    data: bytes, header_for: Callable[[int], Optional[list[str]]]
) -> Optional[tuple[int, Iterator[bytes]]]:
    """The column count and data rows of a file in canonical layout, the
    rows in blocks of about ``_BLOCK_BYTES``, else None.

    Canonical: the first line is exactly ``header_for(k)`` joined by
    commas, at least one line follows it, and every line ends in LF or
    CRLF (as ``csv.writer`` writes). Each block holds whole rows, with
    CRLF turned into LF, which ``csv.reader`` reads alike; any other CR
    stays in the rows, for the caller's byte check to reject.
    """
    start = data.find(b"\n") + 1
    head = data[: start - 1].removesuffix(b"\r")
    width = head.count(b",") + 1
    header = header_for(width)
    # a body ending in LF follows the header's LF (a file with no LF has neither)
    if header is None or head != ",".join(header).encode() or not data.endswith(b"\n", start):
        return None

    def blocks():
        begin = start
        while begin < len(data):
            end = data.index(b"\n", min(begin + _BLOCK_BYTES, len(data)) - 1) + 1
            block = data[begin:end]
            yield block.replace(b"\r\n", b"\n") if b"\r" in block else block
            begin = end

    return width, blocks()


def _read_cells(
    path: PathArg,
    data: bytes,
    header_for: Callable[[int], Optional[list[str]]],
    pattern: str,
) -> tuple[list[str], list[list[str]]]:
    """Parse the CSV bytes ``data`` read from ``path`` into its stripped
    header and its rows, each a list of every cell's exact text.

    This is the general parser: it reads every spelling ``csv.reader``
    reads, and it words every error the loaders raise. ``header_for(k)``
    is the header a file of k columns must have, or None when no file may
    have k columns; ``pattern`` describes it in the error. Every row must
    have as many fields as the header.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(
            f"{path}: line {line}: not UTF-8 text: "
            f"byte 0x{data[exc.start]:02x} ({exc.reason})"
        ) from None
    reader = _csv_rows(path, text)
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
    return header, rows


def _csv_rows(path: PathArg, text: str):
    """The rows ``csv.reader`` reads from ``text``; its errors (a cell past
    ``csv.field_size_limit()``) become a ``DataFormatError`` naming the line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        yield from reader
    except csv.Error as exc:
        raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from None


#: The bytes a canonical dataset row may hold: the digits, signs, point
#: and exponent letters of decimal floats, commas and LF.
_DATASET_BYTES = b"0123456789+-.eE,\n"


def _canonical_table(data: bytes) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The features, labels and groups of a dataset file spelled canonically, else None.

    Canonical rows hold only ``_DATASET_BYTES`` and as many fields as the
    header, end in label 1 or -1 and group 0 or 1, read from those bytes,
    and are no longer than ``csv.field_size_limit()``; a longer line goes
    to ``_read_cells``, which rejects a cell past that limit. ``np.loadtxt``
    then reads every feature as a float, as ``float()`` would (both call
    ``PyOS_string_to_double``).
    """
    canonical = _canonical_blocks(data, _dataset_header)
    if canonical is None:
        return None
    width, blocks = canonical
    d = width - 2
    features, labels, groups = [], [], []
    for block in blocks:
        chars = np.frombuffer(block, dtype=np.uint8)
        line_ends = np.flatnonzero(chars == ord("\n"))
        # rows end in ",1" or ",-1", then ",0" or ",1"; a first row too short for
        # that (under 4 bytes, or 4 from a "-") would have the checks index before it
        if block.translate(None, _DATASET_BYTES) or line_ends[0] < 4 + (block[0] == ord("-")):
            return None
        dash = chars[line_ends - 4] == ord("-")
        if not np.all(
            (chars[line_ends - 4 - dash] == ord(",")) & (chars[line_ends - 3] == ord("1"))
            & (chars[line_ends - 2] == ord(",")) & np.isin(chars[line_ends - 1], list(b"01"))
        ) or np.diff(line_ends, prepend=-1).max() - 1 > csv.field_size_limit():
            return None  # no cell is longer than its line, so none is past the limit
        # np.loadtxt's usecols reads a row of any field count: the i-th LF
        # must have i * (width - 1) commas before it
        commas = np.searchsorted(np.flatnonzero(chars == ord(",")), line_ends)
        if not np.array_equal(commas, np.arange(1, len(line_ends) + 1) * (width - 1)):
            return None
        try:
            features.append(np.loadtxt(
                io.BytesIO(block), delimiter=",", comments=None, dtype=float, ndmin=2,
                usecols=range(d),
            ))
        except ValueError:
            return None
        labels.append(1 - 2 * dash.view(np.int8))
        groups.append(chars[line_ends - 1] - ord("0"))
    return np.concatenate(features), np.concatenate(labels), np.concatenate(groups)


def _load_canonical_dataset(data: bytes) -> Optional[Dataset]:
    """The dataset in ``data`` when it is spelled canonically, else None.

    A file that ``_canonical_table`` or ``Dataset.from_arrays`` rejects
    gives None, so that ``_read_cells`` finds and words the fault.
    """
    table = _canonical_table(data)
    if table is None:
        return None
    try:
        return Dataset.from_arrays(*table)
    except DataFormatError:
        return None


def _int_or_token(token: str):
    """``int(token)``, else the token, for ``Dataset.from_arrays`` to reject in row order."""
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
    data = _read_bytes(path)
    dataset = _load_canonical_dataset(data)
    if dataset is not None:
        return dataset
    header, rows = _read_cells(path, data, _dataset_header, "f_1,...,f_d,y,z")
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    d = len(header) - 2
    features = []
    for k, row in enumerate(rows, start=1):
        try:
            features.append([float(v) for v in row[:d]])
        except ValueError:
            raise DataFormatError(f"{path}: row {k}: malformed feature value") from None
    try:
        return Dataset.from_arrays(
            np.array(features),  # floats already, so no entry to check one by one
            [_int_or_token(row[d]) for row in rows],
            [_int_or_token(row[d + 1]) for row in rows],
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


def check_group(z) -> None:
    """Raise unless ``z`` is the integer 0 or 1, a numpy one included; a bool,
    a float or an array is not a group, as in :func:`check_integer`."""
    if isinstance(z, bool) or not isinstance(z, numbers.Integral) or z not in VALID_SENSITIVE:
        raise FairmixError(f"sensitive value must be 0 or 1, got {z!r}")


def check_integer(value, what: str, minimum: Optional[int] = None) -> None:
    """Raise unless ``value`` is an integer, a numpy one included, and at
    least ``minimum`` when one is given; a bool is not an integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise FairmixError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise FairmixError(f"{what} must be >= {minimum}, got {value}")


def check_real(value, what: str, error=FairmixError) -> None:
    """Raise unless ``value`` is a real number: not a bool, nor an integer past the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{what} must be a real number, got {value!r}")
    # the decimal text of such an integer can exceed str()'s limit
    if isinstance(value, numbers.Integral) and abs(value) > sys.float_info.max:
        bits = int(value).bit_length()
        raise error(f"{what} is an integer of {bits} bits, past the float range")


def check_reals(values, what: str, error=FairmixError) -> np.ndarray:
    """``values`` as a float array, each entry a real number as given (:func:`check_real`):
    a numeric array passes on its dtype alone, a float64 one uncopied. Other entries are
    checked once per type, and one by one only when a type may hold a fault."""
    given = _as_given(values)
    if given.dtype.kind in "iuf":
        return given.astype(float, copy=False)
    types, reals = _entry_types(given), None
    if all(issubclass(t, numbers.Real) and not issubclass(t, bool) for t in types):
        try:
            reals = given.astype(float)
        except OverflowError:  # an integer past the float range
            pass
    # an integer past the float range may also round to the largest float
    if reals is None or (
        any(issubclass(t, numbers.Integral) for t in types)
        and (np.abs(reals) == sys.float_info.max).any()
    ):
        for value in given.ravel().tolist():  # so the error names the first bad entry
            check_real(value, what, error)
    return given.astype(float) if reals is None else reals


def check_length(values: np.ndarray, dataset: Dataset, what: str, error=FairmixError):
    """Raise ``error`` unless ``values`` is a vector with one entry per instance."""
    if values.shape != (len(dataset),):
        raise error(
            f"{what} of length {values.shape} does not match dataset size {len(dataset)}"
        )


def check_predictions(values) -> np.ndarray:
    """The prediction vector ``values`` as given, every prediction -1 or 1: 0, 5, NaN,
    1.5, True or the string "1" raises :class:`DataFormatError`, not read as -1."""
    values = _as_given(values)
    faults = _code_faults(values, (-1, 1))
    if faults.any():
        bad = int(faults.argmax())
        raise DataFormatError(f"invalid prediction at row {bad + 1}: must be -1 or 1")
    return values


def check_profile(values) -> np.ndarray:
    """The benefit profile ``values`` as a float array (:func:`check_reals`), every
    probability finite, so a NaN or infinity never reaches a verdict."""
    q = check_reals(values, "benefit probability")
    finite = np.isfinite(q)
    if not finite.all():
        bad = int(finite.argmin())
        raise FairmixError(f"non-finite benefit probability at row {bad + 1}")
    return q


def group_indices(dataset: Dataset, z: int) -> np.ndarray:
    """Ascending 0-based indices of instances with sensitive value ``z``.

    The two groups partition the index range.
    """
    check_group(z)
    return np.flatnonzero(dataset.sensitive == z)


def build_counterfactual_pairs(dataset: Dataset) -> list[tuple[int, int]]:
    """All index pairs ``(i, j)``, ``i < j``, with identical features and
    differing groups, in ascending order.

    Feature equality is exact (values as parsed, no tolerance): pairs
    are meant to be constructed duplicates, and a tolerance would invent
    false matches.
    """
    pairs = twin_pairs(dataset)
    return list(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist()))


def _feature_hash(features: np.ndarray) -> np.ndarray:
    """A 64-bit hash per feature row, built in place; ``+ 0.0`` hashes -0.0 as 0.0."""
    h = np.zeros(len(features), dtype=np.uint64)
    for column in features.T:
        h ^= (column + 0.0).view(np.uint64)
        h *= 0x9E3779B97F4A7C15
        h ^= h >> 29
    return h


def _bucket_starts(features: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Where, in ``order``, a feature row differs from the one before it (-0.0 == 0.0)."""
    new_bucket = np.zeros(len(order), dtype=bool)
    new_bucket[0] = True
    for column in features.T:
        column = column[order]
        new_bucket[1:] |= column[1:] != column[:-1]
    return new_bucket


def twin_pairs(dataset: Dataset) -> np.ndarray:
    """The pairs of ``build_counterfactual_pairs`` as a (K, 2) intp array.

    One sort of a key per row, the feature hash above a group bit, makes each
    bucket of identical rows a run of group 0 followed by a run of group 1;
    every pair joins one row of the first run with one of the second. Two
    different rows side by side under one hash make the rows sort by value.
    """
    features, z = dataset.features, dataset.sensitive
    key = _feature_hash(features)
    key <<= 1
    key |= z.astype(np.uint64)
    order = np.argsort(key)
    new_bucket = _bucket_starts(features, order)
    key = key[order]
    if np.any(new_bucket[1:] & ((key[1:] ^ key[:-1]) < 2)):  # two rows, one hash
        order = np.lexsort([z] + list(features.T[::-1]))  # its < ties -0.0 with 0.0
        new_bucket = _bucket_starts(features, order)
    n = len(order)
    z = z[order]
    bucket_start = np.flatnonzero(new_bucket)
    group_1 = np.add.reduceat(z, bucket_start)  # rows of group 1 per bucket
    run_1 = np.append(bucket_start[1:], n) - group_1  # where those rows start
    # each group-0 row meets every row of its bucket's group-1 run
    left = np.flatnonzero(z == 0)
    bucket = np.cumsum(new_bucket)[left] - 1
    width = group_1[bucket]
    offsets = np.cumsum(width) - width
    right = np.repeat(run_1[bucket] - offsets, width) + np.arange(int(width.sum()))
    left = np.repeat(left, width)
    i, j = order[left], order[right]
    # lo * n + hi is unique per pair and orders pairs as (lo, hi) does; it
    # fits in int64 for n < 3e9
    key = np.sort(np.minimum(i, j).astype(np.int64, copy=False) * n + np.maximum(i, j))
    return np.stack(np.divmod(key, n), axis=1).astype(np.intp, copy=False)
