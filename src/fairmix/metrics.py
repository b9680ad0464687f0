"""Group fairness measures, all derived from (M, 4) confusion-cell counts.

Five per-group benefit rates are supported: acceptance rate into the
positive class, true positive rate, true negative rate, and positive /
negative predictive value. A rate whose conditioning set is empty is
*undefined* and reported as ``None``: an expectation over an empty group
has no value, and silently substituting 0 would fabricate gaps.

The inter-group gap convention is ``value(z=0) - value(z=1)`` and is
stated in every serialized report.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from ._record import _Record
from .dataset import (
    Dataset,
    _as_given,
    _bool_entries,
    _read_only,
    check_group,
    check_length,
    check_predictions,
    check_profile,
    check_real,
)
from .distributional import DispersionReport
from .errors import FairmixError

DEFAULT_TOLERANCE = 1e-9


class MetricKind(enum.Enum):
    ACCEPTANCE_RATE = "acceptance_rate"
    TPR = "tpr"
    TNR = "tnr"
    PPV = "ppv"
    NPV = "npv"

    __hash__ = object.__hash__  # equality is identity; Enum's hashes the name in Python

    def __str__(self) -> str:
        return self.value


#: Kinds whose ensemble value is linear in the mixture weights.
LINEAR_KINDS = frozenset(
    {MetricKind.ACCEPTANCE_RATE, MetricKind.TPR, MetricKind.TNR}
)

#: Kinds that are ratios of linear forms, hence non-linear in the weights.
RATIO_KINDS = frozenset({MetricKind.PPV, MetricKind.NPV})


def _vector_counts(predictions, dataset: Dataset) -> tuple[CellCounts, np.ndarray]:
    """Cell counts of one prediction vector, as a single-row matrix, and
    its (N,) bool accepts, from one check of the vector."""
    predictions = check_predictions(predictions)
    check_length(predictions, dataset, "prediction vector")
    accepts = predictions == 1
    return cell_counts(accepts[None, :], dataset), accepts


def accuracy(predictions, dataset: Dataset) -> float:
    """Fraction of instances whose prediction equals the true label."""
    return float(_vector_counts(predictions, dataset)[0].accuracies()[0])


class CellCounts(_Record, private=("_cache",), eq=False):  # arrays have no single truth value
    """Accepted counts of M prediction rows in the four (z, y) cells.

    Cell ``k = 2*z + (y == +1)`` orders the cells (z0,y-), (z0,y+),
    (z1,y-), (z1,y+). ``accepted[j, k]`` counts the instances of cell k
    that row j accepts and ``sizes[k]`` counts the cell. Every group
    rate and the accuracy of a row, and of any random mixture of rows,
    follow from these integers, held as read-only copies. The per-row
    accuracies and each constrained kind's gap row are kept, read-only,
    once computed, as every solve of a tolerance sweep re-reads them. A
    mixture is read as one exact row (``_mixture_row``), from which
    ``_mixture_rates`` and ``_row_accuracy`` give every number it has.
    """

    __slots__ = ("accepted", "sizes", "_cache")

    def __post_init__(self):
        for name in ("accepted", "sizes"):
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name))))
        object.__setattr__(self, "_cache", {})

    def counts(self, kind: MetricKind, z: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-row integer (numerator, denominator) of a group rate."""
        check_kind(kind)
        check_group(z)
        num, den = _rate_terms(kind, self.accepted.T, self.sizes, z)
        return num, den if isinstance(den, np.ndarray) else np.full(len(num), den)

    def rates(self, kind: MetricKind, z: int) -> np.ndarray:
        """Per-row group rates; NaN where the conditioning set is empty."""
        num, den = self.counts(kind, z)
        with np.errstate(invalid="ignore"):
            return num / den

    def accuracies(self) -> np.ndarray:
        """Per-row fraction of instances predicted correctly, read-only."""
        if None not in self._cache:
            correct = _correct(self.accepted.T, self.sizes)
            self._cache[None] = _read_only(correct / int(self.sizes.sum()))
        return self._cache[None]

    def _gap_terms(self, kind: MetricKind) -> tuple[np.ndarray, np.ndarray]:
        """Per row, the gap n0/d0 - n1/d1 as G/D: G = n0*d1 - n1*d0, D = d0*d1; in int64
        while the instance total, which bounds every count, is below 2**31, else Python ints."""
        dtype = np.int64 if self.sizes.sum() < 2**31 else object
        (n0, d0), (n1, d1) = (self.counts(kind, z) for z in (0, 1))
        n0, d0, n1, d1 = (v.astype(dtype, copy=False) for v in (n0, d0, n1, d1))
        return n0 * d1 - n1 * d0, d0 * d1

    def _defined_gap_terms(self, kind: MetricKind) -> tuple[np.ndarray, np.ndarray]:
        """``_gap_terms`` of a kind to constrain, which is linear: all rows share one D,
        and where D is 0 the gap is undefined for every row, whatever the tolerance."""
        g, d = self._gap_terms(kind)
        if not d.all():
            raise FairmixError(f"{kind} is undefined for member 1; cannot constrain it")
        return g, d

    def _gap_row(self, kind: MetricKind) -> np.ndarray:
        """Per-row gap G/D of a kind to constrain, read-only and kept. Each is divided as
        Python ints, so correctly rounded: int64 D past 2**53 would round twice in float64."""
        if kind not in self._cache:
            g, d = self._defined_gap_terms(kind)
            row = [x / y for x, y in zip(g.tolist(), d.tolist())]
            self._cache[kind] = _read_only(np.array(row, dtype=float))
        return self._cache[kind]

    def _mixture_row(self, weights) -> tuple[list[int], list[int]]:
        """The mixture ``weights`` as one row of Python-int (accepted, sizes): float weight j
        is the binary fraction a_j/2^e it is, and the row counts sum_j a_j*accepted_j in
        cells of sizes*sum_j a_j, which normalises the weights to sum 1. A row of weight 0
        adds nothing, so only the rows of nonzero weight are read."""
        w = np.asarray(weights, dtype=float)
        nonzero = np.flatnonzero(w)
        ratios = [x.as_integer_ratio() for x in w[nonzero].tolist()]
        scale = max((d for _, d in ratios), default=1)  # powers of 2: the largest is their lcm
        a = [num * (scale // den) for num, den in ratios]
        cells = self.accepted[nonzero].T.tolist()
        accepted = [sum(x * y for x, y in zip(a, cell)) for cell in cells]
        sizes = [size * sum(a) for size in self.sizes.tolist()]
        return accepted, sizes


def _rate_terms(kind: MetricKind, accepted, sizes, z: int):
    """(numerator, denominator) of a group-z rate from each cell k's accepted count
    ``accepted[k]`` and size ``sizes[k]``: arrays over rows, or Python ints."""
    acc_neg, acc_pos, size_neg, size_pos = *accepted[2 * z:2 * z + 2], *sizes[2 * z:2 * z + 2]
    if kind is MetricKind.PPV:
        return acc_pos, acc_neg + acc_pos
    if kind is MetricKind.NPV:
        return size_neg - acc_neg, (size_neg - acc_neg) + (size_pos - acc_pos)
    if kind is MetricKind.ACCEPTANCE_RATE:
        return acc_neg + acc_pos, size_neg + size_pos
    if kind is MetricKind.TPR:
        return acc_pos, size_pos
    return size_neg - acc_neg, size_neg  # TNR


def _correct(accepted, sizes):
    """Correct predictions, from the per-cell arguments of :func:`_rate_terms`."""
    return accepted[1] + accepted[3] + (sizes[0] - accepted[0]) + (sizes[2] - accepted[2])


def _mixture_rates(row, kind: MetricKind) -> tuple[list, tuple[int, int]]:
    """The ``kind`` rates at z=0 and z=1 of an exact mixture ``row`` (``_mixture_row``) and
    their gap, each correctly rounded by Python's int division and ``None`` where undefined;
    and the gap as the integers (G, D) that decide its verdicts with ``_gap_bound``."""
    check_kind(kind)
    (n0, d0), (n1, d1) = (_rate_terms(kind, *row, z) for z in (0, 1))
    g, d = n0 * d1 - n1 * d0, d0 * d1
    return [n / d if d else None for n, d in ((n0, d0), (n1, d1), (g, d))], (g, d)


def _row_accuracy(row) -> float:
    """The accuracy of an exact mixture ``row``, correctly rounded."""
    return _correct(*row) / sum(row[1])


def cell_index(dataset: Dataset) -> np.ndarray:
    """Each instance's cell ``k = 2*z + (y == +1)``, as in :class:`CellCounts`."""
    return 2 * dataset.sensitive + (dataset.labels == 1)


def cell_counts(accepts: np.ndarray, dataset: Dataset) -> CellCounts:
    """Count an (M, N) boolean accept matrix, and the dataset, into the four (z, y) cells."""
    cell = cell_index(dataset)
    # popcount over packed rows; the pad bits are 0 in both operands. The
    # counts are intp, as uint64 ones would turn CellCounts arithmetic into floats
    bits = np.packbits(accepts, axis=1)
    accepted = np.empty((len(bits), 4), dtype=np.intp)
    for k in range(4):
        accepted[:, k] = np.bitwise_count(bits & np.packbits(cell == k)).sum(axis=1)
    return CellCounts(accepted, np.bincount(cell, minlength=4))


def _exact_tolerance(tolerance) -> Fraction:
    """The shortest decimal that parses back to the float tolerance (0.3 is 3/10), capped
    at 1 as no gap exceeds 1; parsed once per report, sweep or oracle call."""
    return Fraction(repr(float(min(tolerance, 1))))


def _gap_bound(den, t: Fraction):
    """Every gap verdict, exactly: G/D passes iff ``abs(G) <= _gap_bound(D, t)`` for
    t from ``_exact_tolerance``; floor(t*D) as a Python int, -1 where D is 0."""
    return int(den) * t.numerator // t.denominator if den > 0 else -1


def fairness_gap(kind: MetricKind, predictions, dataset: Dataset) -> Optional[float]:
    """Group rate at z=0 minus z=1, correctly rounded; ``None`` if either is undefined."""
    g, d = _vector_counts(predictions, dataset)[0]._gap_terms(kind)
    return int(g[0]) / int(d[0]) if d[0] else None  # Python's int division rounds correctly


def check_kind(kind) -> None:
    """Raise unless ``kind`` is a :class:`MetricKind`."""
    if not isinstance(kind, MetricKind):
        raise FairmixError(f"metric kind must be a MetricKind, got {kind!r}")


#: Twin pairs: a sequence of (i, j) row indices, or a (K, 2) integer array.
Pairs = Union[Sequence[tuple[int, int]], np.ndarray]


def treatment_violations(
    benefit_profile,
    pairs: Pairs,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[tuple[int, int]]:
    """Pairs whose two sides receive different benefit probabilities, as
    ``(i, j)`` tuples of ints in the order given.

    ``benefit_profile`` holds, per instance, the probability of the
    positive outcome: 0/1 indicators for a deterministic classifier, the
    ensemble's per-instance acceptance probabilities otherwise. A pair
    violates equal treatment when the two probabilities differ by more
    than ``tolerance`` (so deterministic disagreement, a difference of
    1, is always a violation). A NaN or negative ``tolerance`` raises
    :class:`FairmixError`, and so do pairs that do not form one (K, 2)
    integer array of row indices of the profile; the error names the
    first bad pair, if one is bad on its own.
    """
    check_tolerance(tolerance)
    return list(map(tuple, _violations(benefit_profile, pairs, tolerance).tolist()))


def _violations(profile, pairs: Pairs, tolerance: float) -> np.ndarray:
    """The pairs whose two profile values differ by more than ``tolerance``, already
    checked by the caller, as a read-only (V, 2) intp array in the order given."""
    q = check_profile(profile)
    idx = _index_pairs(pairs, len(q))
    violations = idx[np.abs(q[idx[:, 0]] - q[idx[:, 1]]) > tolerance]
    violations.setflags(write=False)
    return violations


def _index_pairs(pairs: Pairs, n: int) -> np.ndarray:
    """``pairs`` as a (K, 2) intp array of indices in ``[0, n)``, with no copy
    of such an array; raises :class:`FairmixError` if they do not form one."""
    if not len(pairs):
        return np.empty((0, 2), dtype=np.intp)
    try:
        idx = np.asarray(pairs)
    except ValueError:  # ragged
        idx = np.empty(0)
    if (
        idx.ndim == 2
        and idx.shape[1] == 2
        and idx.dtype.kind in "iu"
        and idx.min() >= 0
        and idx.max() < n
        and not _bool_entries(_as_given(pairs)).any()  # numpy reads (True, 0) as (1, 0)
    ):
        return idx.astype(np.intp, copy=False)
    if len(pairs) > 1:
        for pair in pairs:
            _index_pairs([pair], n)  # names the first pair that is bad on its own
        raise FairmixError("twin pairs do not form one integer array")
    raise FairmixError(
        f"invalid twin pair {pairs[0]!r}: must be two integer row indices in [0, {n})"
    )


def check_tolerance(tolerance: float) -> None:
    """Raise unless ``tolerance`` is a real number >= 0; NaN, a bool and an
    integer past the float range are rejected, infinity allowed."""
    check_real(tolerance, "tolerance")
    if not tolerance >= 0:  # also rejects NaN
        raise FairmixError(f"tolerance must be >= 0, got {tolerance!r}")


def indicator_profile(predictions) -> np.ndarray:
    """0/1 benefit profile of a deterministic prediction vector."""
    return (check_predictions(predictions) == 1).astype(float)


class GroupMetric(_Record):
    """One metric kind evaluated on both groups, with its gap.

    ``None`` values mean the rate (or the gap, when either rate is
    missing) is undefined; ``passed`` is then ``None`` too, i.e. the
    check is not assessable rather than failed.
    """

    __slots__ = ("kind", "value_z0", "value_z1", "gap", "passed")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "value_z0": self.value_z0,
            "value_z1": self.value_z1,
            "gap": self.gap,
            "pass": self.passed,
        }


class FairnessReport(_Record, defaults=(None,), eq=False):  # arrays have no single truth value
    """Accuracy, all five group metrics, and treatment-test results.

    ``treatment_violations`` holds the twin pairs that fail the test, 0-based,
    as a read-only (V, 2) intp array; the JSON lists them 1-based. ``metrics``
    is a tuple of :class:`GroupMetric`; ``distributional`` a :class:`DispersionReport`
    or None."""

    __slots__ = (
        "accuracy", "metrics", "treatment_pairs_checked", "treatment_violations",
        "tolerance", "distributional",
    )

    def to_json_dict(self) -> dict:
        doc = {
            "accuracy": self.accuracy,
            "gap_convention": "value_z0 - value_z1",
            "tolerance": self.tolerance,
            "metrics": [m.to_json_dict() for m in self.metrics],
            "treatment": {
                "pairs_checked": self.treatment_pairs_checked,
                "violations": len(self.treatment_violations),
                # 1-based indices for human readability
                "pairs": self.treatment_violations + 1,
            },
        }
        if self.distributional is not None:
            doc["distributional"] = self.distributional.to_json_dict()
        return doc


def mixture_report(
    counts: CellCounts,
    weights,
    profile,
    pairs: Pairs,
    tolerance: float,
    distributional: Optional[DispersionReport] = None,
) -> FairnessReport:
    """Report on the random mixture ``weights`` over the counted rows.

    ``profile`` is the mixture's per-instance acceptance probability, which the treatment
    test compares across twin pairs. Every rate, gap, accuracy and ``pass`` comes from one
    exact row of integer counts. A NaN or negative ``tolerance`` raises :class:`FairmixError`.
    """
    check_tolerance(tolerance)
    t = _exact_tolerance(tolerance)
    row = counts._mixture_row(weights)
    entries = []
    for kind in MetricKind:
        (r0, r1, gap), (g, d) = _mixture_rates(row, kind)
        passed = abs(g) <= _gap_bound(d, t) if d else None
        entries.append(GroupMetric(kind, r0, r1, gap, passed))
    return FairnessReport(
        accuracy=_row_accuracy(row),
        metrics=tuple(entries),
        treatment_pairs_checked=len(pairs),
        treatment_violations=_violations(profile, pairs, tolerance),
        tolerance=tolerance,
        distributional=distributional,
    )


def classifier_report(
    predictions,
    dataset: Dataset,
    pairs: Pairs = (),
    tolerance: float = DEFAULT_TOLERANCE,
) -> FairnessReport:
    """Full fairness report for one deterministic prediction vector.

    A deterministic classifier is the mixture of itself with weight 1.
    """
    counts, accepts = _vector_counts(predictions, dataset)
    return mixture_report(counts, np.ones(1), accepts.astype(float), pairs, tolerance)
