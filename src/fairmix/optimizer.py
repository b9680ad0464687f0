"""Mixture-weight search: LP optimization, grid oracle, threshold sweep.

The central solver answers: over all probability vectors p on a fixed
member list, maximize ensemble accuracy subject to per-metric fairness
gaps bounded by a tolerance. For the linear metric kinds both the
objective and the gaps are linear in p, so the search is a small dense
LP over the probability simplex.

Two independent verifiers accompany it: an exhaustive lattice
enumeration over the simplex (the grid oracle) and a sweep over all
single-feature threshold rules, which bounds what any one deterministic
rule of that family can achieve. A randomized-constructive search for
PPV non-closure witnesses rounds out the module: it manufactures
instances where every member has a zero PPV gap yet their uniform
mixture does not.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from ._record import _Record
from .classifiers import Classifier, LinearClassifier, TableClassifier
from .dataset import Dataset, check_integer
from .ensemble import Ensemble, member_counts
from .errors import FairmixError
from .metrics import CellCounts, LINEAR_KINDS, MetricKind, _correct, _gap_bound
from .metrics import _exact_tolerance, _mixture_rates, _row_accuracy
from .metrics import cell_index, check_kind, check_tolerance
from .simplex import LinearProgram, SimplexResult, SolveStatus, simplex_solve

VALIDATION_TOLERANCE = 1e-9


class Objective(enum.Enum):
    MAX_ACCURACY = "max_accuracy"
    FEASIBILITY_ONLY = "feasibility_only"

    def __str__(self) -> str:
        return self.value


class MixtureSolution(_Record):
    """Outcome of a fair-mixture solve.

    ``weights``/``accuracy``/``gaps`` are populated only when ``status``
    is optimal. ``gaps`` covers the constrained kinds; ``post_hoc_gaps``
    reports the ratio kinds (PPV/NPV), which the LP does not constrain and
    which may be undefined (None) on the solution.
    """

    __slots__ = (
        "status", "weights", "accuracy", "gaps", "post_hoc_gaps", "objective",
        "tolerance", "iterations",
    )

    def to_json_dict(self) -> dict:
        return {
            "status": self.status.value,
            "weights": None if self.weights is None else list(self.weights),
            "accuracy": self.accuracy,
            "gaps": {k.value: v for k, v in self.gaps.items()},
            "post_hoc_gaps": {k.value: v for k, v in self.post_hoc_gaps.items()},
            "objective": self.objective.value,
            "tolerance": self.tolerance,
            "iterations": self.iterations,
        }


def _constrained_kinds(constrained, tolerance: float) -> list:
    """Sorted unique kinds; rejects non-kinds, then ratio kinds, then a bad tolerance."""
    for kind in constrained:
        check_kind(kind)
    kinds = sorted(set(constrained), key=lambda k: k.value)
    bad = [k for k in kinds if k not in LINEAR_KINDS]
    if bad:
        raise FairmixError(
            f"cannot constrain {', '.join(str(k) for k in bad)}: only kinds "
            "linear in the weights are supported"
        )
    check_tolerance(tolerance)
    return kinds


def _gap_rows(counts: CellCounts, constrained: Sequence[MetricKind]) -> np.ndarray:
    """(K, M): each constrained kind's per-member gaps G/D; raises at the first undefined kind."""
    rows = [counts._gap_row(kind) for kind in constrained]
    return np.array(rows) if rows else np.empty((0, len(counts.accepted)))


def build_mixture_program(
    counts: CellCounts,
    constrained: Sequence[MetricKind],
    tolerance: float,
    objective: Objective,
) -> LinearProgram:
    """LP over mixture weights: the simplex row plus two-sided gap bounds.

    Every program built here includes the row sum(p) = 1; each
    constrained kind contributes the pair +/- (sum_j p_j gap_j) <= tol.
    A tolerance above 1 (infinity too) drops the gap rows, as no gap in
    [-1, 1] can reach it. The rows follow the order of ``constrained``.
    """
    constrained = tuple(constrained)  # an iterator is read once
    _constrained_kinds(constrained, tolerance)
    return _mixture_program(counts, constrained, tolerance, objective)


def _mixture_program(counts, constrained, tolerance, objective) -> LinearProgram:
    """``build_mixture_program`` for kinds and a tolerance already checked."""
    if not isinstance(objective, Objective):
        raise FairmixError(f"objective must be an Objective, got {objective!r}")
    m = counts.accepted.shape[0]
    c = counts.accuracies() if objective is Objective.MAX_ACCURACY else np.zeros(m)
    gaps = _gap_rows(counts, constrained)  # rejects undefined gaps even at inf
    if tolerance > 1:  # a sum of bounds near the float maximum would overflow phase 1
        gaps = gaps[:0]
    a_ub = np.empty((2 * len(gaps), m))  # rows +gaps, -gaps, kind by kind
    a_ub[0::2] = gaps
    np.negative(gaps, out=a_ub[1::2])
    b_ub = np.full(len(a_ub), float(tolerance))
    return LinearProgram(c, a_ub, b_ub, a_eq=np.ones((1, m)), b_eq=np.array([1.0]))


def solve_fair_mixture(
    members: Sequence[Classifier],
    dataset: Dataset,
    constrained,
    tolerance: float,
    objective: Objective = Objective.MAX_ACCURACY,
) -> MixtureSolution:
    """Solve for fair mixture weights and re-verify the result analytically.

    The solution is never reported straight from the tableau: the
    returned weights are pushed back through the members' cell counts as
    one exact row, the row every report reads. Each constrained gap must
    be at most the tolerance + 1e-9 exactly, and the recomputed accuracy
    must agree with the LP objective within 1e-9 in floats, otherwise
    this raises rather than returning a bad certificate. The reported
    accuracy and gaps are that row's exact values, correctly rounded.
    """
    constrained = _constrained_kinds(constrained, tolerance)
    members = tuple(members)  # an iterator is read once
    counts = member_counts(members, dataset)
    program = _mixture_program(counts, constrained, tolerance, objective)
    result: SimplexResult = simplex_solve(program)
    weights, accuracy, gaps, post_hoc = None, None, {}, {}
    if result.status is SolveStatus.OPTIMAL:
        weights = result.x / result.x.sum()  # simplex row holds within 1e-9; make it exact
        Ensemble(members, weights)  # rejects weights that are not a distribution
        row = counts._mixture_row(weights)
        accuracy = _row_accuracy(row)
        t = _exact_tolerance(float(tolerance) + VALIDATION_TOLERANCE)  # not a float32 sum
        for kind in constrained:
            (_, _, gap), (g, d) = _mixture_rates(row, kind)
            if abs(g) > _gap_bound(d, t):  # an undefined gap, D = 0, fails too
                raise FairmixError(
                    f"solver returned weights violating the {kind} constraint: "
                    f"gap {gap!r} vs tolerance {tolerance!r}"
                )
            gaps[kind] = gap
        if objective is Objective.MAX_ACCURACY and abs(accuracy - result.objective) > (
            VALIDATION_TOLERANCE
        ):
            raise FairmixError(
                f"LP objective {result.objective!r} disagrees with recomputed "
                f"mixture accuracy {accuracy!r}"
            )
        post_hoc = {
            kind: _mixture_rates(row, kind)[0][2] for kind in (MetricKind.PPV, MetricKind.NPV)
        }
    return MixtureSolution(
        status=result.status,
        weights=weights,
        accuracy=accuracy,
        gaps=gaps,
        post_hoc_gaps=post_hoc,
        objective=objective,
        tolerance=tolerance,
        iterations=result.iterations,
    )


GRID_MAX_MEMBERS = 4
GRID_MIN_RESOLUTION = 10


class GridOracleResult(_Record):
    """Best feasible lattice point, or None fields when nothing is feasible."""

    __slots__ = ("weights", "accuracy", "feasible_count", "resolution")

    def to_json_dict(self) -> dict:
        return {
            "weights": None if self.weights is None else list(self.weights),
            "accuracy": self.accuracy,
            "feasible_count": self.feasible_count,
            "resolution": self.resolution,
        }


def _lattice(total: int, parts: int) -> np.ndarray:
    """All integer compositions of ``total`` into ``parts``, one per row, lexicographic.

    Built a column at a time from index gathers: row i, with ``rem[i]`` left,
    is repeated ``rem[i] + 1`` times, the new column counts 0..rem[i] along
    the copies, and earlier columns are gathered by the same repeat index.
    """
    rem = np.array([total], dtype=np.int64)
    columns = []
    for _ in range(parts - 1):
        runs = rem + 1
        rows = np.repeat(np.arange(rem.size), runs)
        value = np.arange(rows.size) - (np.cumsum(runs) - runs)[rows]
        columns = [c[rows] for c in columns] + [value]
        rem = rem[rows] - value
    return np.stack(columns + [rem], axis=1)


def grid_oracle(
    members: Sequence[Classifier],
    dataset: Dataset,
    constrained,
    tolerance: float,
    resolution: int,
) -> GridOracleResult:
    """Exhaustive search over the weight lattice {k/r} on the simplex.

    Completely independent of the LP machinery, and decided on integers.
    For a constrained kind with group rates n_z/d_z per member, the gap at
    k/r is (k.G)/(r*d0*d1) with G_j = n0_j*d1 - n1_j*d0, so the point is
    feasible iff |k.G| <= _gap_bound(r*d0*d1, tol), the rule of every
    gap verdict; its accuracy is (k.C)/(r*N), C_j counting member j's
    correct predictions. Only the prefixes (k_1..k_{M-2}) are enumerated:
    along t = k_{M-1}, with k_M = r - sum(prefix) - t, every gap and the
    accuracy are linear, so a prefix's feasible points are one interval of
    t and its best point an end of it. Ties go to the lexicographically
    smallest weight vector, which makes the result independent of any
    enumeration partitioning.
    """
    members = tuple(members)  # an iterator is read once
    m = len(members)
    if m > GRID_MAX_MEMBERS:
        raise FairmixError(
            f"grid oracle supports at most {GRID_MAX_MEMBERS} members, got {m}"
        )
    # 10.5 would give weights summing to 10/10.5
    check_integer(resolution, "grid resolution", GRID_MIN_RESOLUTION)
    constrained = _constrained_kinds(constrained, tolerance)
    counts = member_counts(members, dataset)
    r, n = int(resolution), int(counts.sizes.sum())
    gaps, bounds, tol = [], [], _exact_tolerance(tolerance)
    for kind in constrained:
        g, d = counts._defined_gap_terms(kind)
        gaps.append(g)
        bounds.append(_gap_bound(r * int(d[0]), tol))
    size = math.comb(resolution + m - 1, m - 1)  # lattice points
    if max(size, resolution) > np.iinfo(np.intp).max:  # before the prefixes are built
        raise FairmixError(f"grid resolution {resolution} is too large to index")
    correct = _correct(counts.accepted.T, counts.sizes)
    top = max([r * m * max(int(np.abs(v).max()) for v in [correct, *gaps]), *bounds])
    dtype = np.int64 if top < 2**62 else object  # Python ints past int64's reach
    lattice = _lattice(r, max(m - 1, 1)).astype(dtype)
    head, rem = lattice[:, :-1], lattice[:, -1]

    def line(v):
        """k.v at t = 0 and its slope in t, per prefix."""
        v = v.astype(dtype)
        return head @ v[:-2] + rem * v[-1], (v[-2] - v[-1] if m > 1 else 0)

    lo = np.zeros_like(rem)
    hi = rem if m > 1 else lo  # one member has no free coordinate: t = 0
    for g, bound in zip(gaps, bounds):
        base, slope = line(g)
        if slope < 0:  # |base + t*slope| is symmetric under negation
            base, slope = -base, -slope
        if slope == 0:
            hi = np.where(np.abs(base) <= bound, hi, -1)
        else:
            lo = np.maximum(lo, -((bound + base) // slope))
            hi = np.minimum(hi, (bound - base) // slope)
    width = np.maximum(hi - lo + 1, 0)
    count = int(width.sum())
    if count == 0:
        return GridOracleResult(None, None, 0, resolution)
    base, slope = line(correct)
    t = hi if slope > 0 else lo
    best = int(np.argmax(np.where(width > 0, base + t * slope, -1)))  # first max
    point = [*head[best], t[best], rem[best] - t[best]] if m > 1 else [r]
    weights = np.array([int(k) / r for k in point])
    accuracy = int(base[best] + t[best] * slope) / (r * n)
    return GridOracleResult(weights, accuracy, count, resolution)


class ThresholdRule(_Record):
    """A single-feature threshold classifier found by the sweep.

    ``direction`` "+" accepts feature >= threshold, "-" accepts <=.
    """

    __slots__ = ("threshold", "direction", "accuracy", "gap", "classifier")


def _threshold_classifier(
    dimension: int, feature_index: int, threshold: float, direction: str
) -> LinearClassifier:
    weights = [0.0] * dimension
    if direction == "+":
        weights[feature_index] = 1.0
        return LinearClassifier(tuple(weights), 0.0, -threshold)
    weights[feature_index] = -1.0
    return LinearClassifier(tuple(weights), 0.0, threshold)


def best_fair_single_threshold(
    dataset: Dataset, feature_index: int, tolerance: float
) -> Optional[ThresholdRule]:
    """Most accurate fair threshold rule on one feature, by exhaustion.

    Candidate thresholds are every observed value of the feature plus a
    sentinel strictly outside them on each side, crossed with both
    directions; that realizes every achievable accept-set of the family.
    A rule qualifies when its acceptance-rate gap is defined and within
    ``tolerance``. Ties break to the smallest threshold, then to
    direction "+". Returns None when no rule of the family is fair
    (possible only if a group is empty).
    """
    check_integer(feature_index, "feature index")
    if not 0 <= feature_index < dataset.dimension:
        raise FairmixError(
            f"feature index {feature_index} out of range for dimension "
            f"{dataset.dimension}"
        )
    check_tolerance(tolerance)
    x = dataset.features[:, feature_index]
    values = np.unique(x)
    # v - 1.0 rounds back to v at |v| >= 2**53. Beyond +-the largest double
    # a sentinel is infinite, which no classifier can hold, so it is dropped
    with np.errstate(over="ignore"):
        low = min(values[0] - 1.0, np.nextafter(values[0], -np.inf))
        high = max(values[-1] + 1.0, np.nextafter(values[-1], np.inf))
    candidates = np.concatenate([[low], values, [high]])
    candidates = candidates[np.isfinite(candidates)]
    # Rule (t, "+") accepts x >= t and (t, "-") accepts x <= t: the score
    # x - t or t - x is >= 0 exactly then, for finite doubles. Count both
    # per (z, y) cell from the cell's sorted values; row 2i is (t_i, "+"),
    # row 2i + 1 is (t_i, "-").
    cell = cell_index(dataset)
    accepted = np.empty((2 * len(candidates), 4), dtype=np.int64)
    sizes = []
    for k in range(4):
        in_cell = np.sort(x[cell == k])
        sizes.append(in_cell.size)
        accepted[0::2, k] = in_cell.size - np.searchsorted(in_cell, candidates, "left")
        accepted[1::2, k] = np.searchsorted(in_cell, candidates, "right")
    counts = CellCounts(accepted, sizes)
    g, d = counts._gap_terms(MetricKind.ACCEPTANCE_RATE)  # a linear kind has one D
    fair = np.flatnonzero(np.abs(g) <= _gap_bound(d[0], _exact_tolerance(tolerance)))
    if fair.size == 0:
        return None
    accuracies = counts.accuracies()
    # first maximum: the smallest threshold, then direction "+"
    best = int(fair[np.argmax(accuracies[fair])])
    threshold = float(candidates[best // 2])
    direction = "+-"[best % 2]
    rule = _threshold_classifier(dataset.dimension, feature_index, threshold, direction)
    gap = int(g[best]) / int(d[best])  # correctly rounded
    return ThresholdRule(threshold, direction, float(accuracies[best]), gap, rule)


class PPVWitness(_Record):
    """A PPV non-closure certificate: fair members, unfair uniform mixture.

    Both members have PPV gap exactly zero (verified on integer counts);
    the uniform two-member ensemble has |PPV gap| of at least 0.05.
    """

    __slots__ = (
        "dataset", "members", "weights", "member_gaps", "ensemble_gap", "seed", "trial_index",
    )


MIN_WITNESS_GAP = Fraction(1, 20)


def ppv_counterexample_search(seed: int, max_trials: int) -> Optional[PPVWitness]:
    """Search for a PPV non-closure witness; None after the trial budget.

    Each trial draws group sizes, disjoint per-group accept-counts for
    two members, and a common PPV level per member (an exact rational,
    so the member gaps are zero by construction, not by rounding), then
    checks whether the uniform mixture's PPV gap reaches 0.05. The trial
    is materialized as a concrete dataset plus prediction tables and
    re-verified on integer counts before being returned.
    """
    check_integer(max_trials, "max_trials", 0)
    check_integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    for trial in range(max_trials):
        n0, n1 = (int(v) for v in rng.integers(3, 21, size=2))
        a0 = int(rng.integers(1, n0))
        b0 = int(rng.integers(1, n0 - a0 + 1))
        a1 = int(rng.integers(1, n1))
        b1 = int(rng.integers(1, n1 - a1 + 1))
        # common positive fraction inside each member's accept set, so
        # the member's PPV is identical across groups by construction
        ga, gb = math.gcd(a0, a1), math.gcd(b0, b1)
        s = int(rng.integers(0, ga + 1))
        t = int(rng.integers(0, gb + 1))
        ha0, ha1 = a0 // ga * s, a1 // ga * s
        hb0, hb1 = b0 // gb * t, b1 // gb * t
        gap = Fraction(ha0 + hb0, a0 + b0) - Fraction(ha1 + hb1, a1 + b1)
        if abs(gap) < MIN_WITNESS_GAP:
            continue
        labels = []
        sensitive = []
        pred_a = []
        pred_b = []
        for n, a, b, ha, hb, z in (
            (n0, a0, b0, ha0, hb0, 0),
            (n1, a1, b1, ha1, hb1, 1),
        ):
            rest = n - a - b
            labels.extend([1] * ha + [-1] * (a - ha))
            labels.extend([1] * hb + [-1] * (b - hb))
            labels.extend(int(v) for v in rng.choice((-1, 1), size=rest))
            pred_a.extend([1] * a + [-1] * (b + rest))
            pred_b.extend([-1] * a + [1] * b + [-1] * rest)
            sensitive.extend([z] * n)
        n_total = n0 + n1
        dataset = Dataset.from_arrays(
            np.arange(n_total, dtype=float).reshape(-1, 1),
            np.asarray(labels),
            np.asarray(sensitive),
        )
        member_a = TableClassifier(pred_a, dataset)
        member_b = TableClassifier(pred_b, dataset)
        g, d = member_counts((member_a, member_b), dataset)._gap_terms(MetricKind.PPV)
        if not all(abs(gj) <= _gap_bound(dj, Fraction(0)) for gj, dj in zip(g, d)):
            continue
        return PPVWitness(
            dataset=dataset,
            members=(member_a, member_b),
            weights=(0.5, 0.5),
            member_gaps=(0.0, 0.0),
            ensemble_gap=float(gap),
            seed=seed,
            trial_index=trial,
        )
    return None
