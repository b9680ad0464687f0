"""Random classifier ensembles: a distribution over deterministic rules.

An ensemble pairs M member classifiers with a probability vector p.
Each decision applies one member drawn from p, so the outcome a user
receives is a Bernoulli draw whose success probability is the total
weight of the members that accept that user. That per-instance law (the
*benefit profile*) is exactly computable, and every group rate of the
ensemble follows from it analytically; the Monte Carlo sampler exists
only for validation and demonstration, never as the measurement path.

Acceptance rate, TPR and TNR are averages over fixed conditioning sets,
so the ensemble value is the p-weighted average of member values.
PPV/NPV condition on the *predicted* class, which varies per member;
their ensemble value is a ratio of weighted counts, not linear in p.
Both are read from one exact row: the members' cell counts
(:func:`member_counts`) summed with each weight as the binary fraction
it is. Every ensemble rate, gap and accuracy is that row's exact value,
correctly rounded.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from ._record import _Record, _set
from .classifiers import Classifier, TableClassifier, prediction_matrix
from .dataset import Dataset, _read_only, check_group, check_integer, check_reals
from .distributional import dispersion
from .errors import FairmixError
from . import metrics
from .metrics import (
    CellCounts,
    DEFAULT_TOLERANCE,
    FairnessReport,
    LINEAR_KINDS,
    MetricKind,
    Pairs,
)

WEIGHT_SUM_TOLERANCE = 1e-12

#: Recorded in sampler output; the seed-to-output mapping is part of the
#: artifact's compatibility contract.
GENERATOR_NAME = f"numpy.random.PCG64 (numpy {np.__version__}), inverse-CDF selection"


class Ensemble(_Record, eq=False):
    """M classifiers, kept as a tuple, plus a probability vector over them, a read-only copy."""

    __slots__ = ("members", "weights")

    def __post_init__(self):
        members = tuple(self.members)
        if len(members) < 1:
            raise FairmixError("ensemble needs at least one member")
        w = check_reals(self.weights, "weight")
        finite = np.isfinite(w)
        if not finite.all():
            raise FairmixError(f"non-finite weight {float(w[~finite][0])!r}")
        if w.shape != (len(members),):
            raise FairmixError(
                f"{len(members)} members but {w.shape} weights"
            )
        if (w < 0).any():
            raise FairmixError(f"negative weight in {w.tolist()}")
        if abs(float(np.sum(w)) - 1.0) > WEIGHT_SUM_TOLERANCE:
            raise FairmixError(
                f"weights sum to {float(np.sum(w))!r}, expected 1"
            )
        _set(self, "members", members)
        _set(self, "weights", _read_only(np.array(w)))  # a copy: the caller's may be float64

    def __len__(self) -> int:
        return len(self.members)


def acceptance_probability(ensemble: Ensemble, dataset: Dataset) -> np.ndarray:
    """Benefit profile q: per-instance probability of the +1 outcome.

    q_i is the total weight of the members that accept instance i,
    computed analytically with no sampling.
    """
    return _profile(ensemble.weights, prediction_matrix(ensemble.members, dataset) == 1)


def _profile(weights: np.ndarray, accepts: np.ndarray) -> np.ndarray:
    """Accepting weight per column, summed in member order: equal accept sets give equal q."""
    q = np.zeros(accepts.shape[1])
    for w, row in zip(weights, accepts):
        q += w * row
    return q


def member_counts(members: Sequence[Classifier], dataset: Dataset) -> CellCounts:
    """The members' (M, 4) accepted cell counts, in one counting pass or none.

    ``members`` is read once, so an iterator works. When every member is a
    table bound to this very ``dataset`` object (identity, not ``==``), the
    dataset keeps weak references to the members, and the result, replacing
    the pair it kept before: the same member objects in the same order get
    that table back, with every array it has computed. The tables refer to
    the dataset, so strong references back would make a cycle that only
    the garbage collector frees. Any other list, a re-ordered
    or shortened one included, is counted whole, so the errors and the
    integers are the same either way. Concurrent calls write equal values.
    """
    members = tuple(members)
    if not members:
        raise FairmixError("need at least one member")
    kept = getattr(dataset, "_member_counts", None)  # a non-dataset fails in prediction_matrix
    if kept and len(kept[0]) == len(members) and all(r() is m for r, m in zip(kept[0], members)):
        return kept[1]
    counts = metrics.cell_counts(prediction_matrix(members, dataset) == 1, dataset)
    if all(isinstance(m, TableClassifier) and m.dataset is dataset for m in members):
        object.__setattr__(dataset, "_member_counts", (tuple(map(weakref.ref, members)), counts))
    return counts


def _mixture(ensemble: Ensemble, dataset: Dataset) -> tuple[list[int], list[int]]:
    """The ensemble as one exact row of counts (``CellCounts._mixture_row``)."""
    return member_counts(ensemble.members, dataset)._mixture_row(ensemble.weights)


def ensemble_group_rate(
    ensemble: Ensemble, kind: MetricKind, dataset: Dataset, z: int
) -> Optional[float]:
    """Analytic group rate of the ensemble for one metric kind, correctly
    rounded; ``None`` if undefined."""
    rates, _ = metrics._mixture_rates(_mixture(ensemble, dataset), kind)
    check_group(z)
    return rates[z]


def ensemble_gap(
    ensemble: Ensemble, kind: MetricKind, dataset: Dataset
) -> Optional[float]:
    """The ensemble's exact rate at z=0 minus z=1, correctly rounded; ``None``
    if either rate is undefined."""
    return metrics._mixture_rates(_mixture(ensemble, dataset), kind)[0][2]


def mixture_accuracy(ensemble: Ensemble, dataset: Dataset) -> float:
    """Ensemble accuracy: the p-weighted average of member accuracies,
    correctly rounded."""
    return metrics._row_accuracy(_mixture(ensemble, dataset))


class ClosureReport(_Record):
    """Whether mixing preserved a fairness gap identity for one kind.

    ``ensemble_gap`` is the mixture's exact gap and
    ``weighted_member_gap_sum`` the exact sum of member gaps times
    weights (the weights normalised to sum 1), each correctly rounded;
    the sum is None when any member's gap is undefined. For linear kinds
    the two are equal in exact arithmetic, which is checked, and
    ``linear`` is True. For PPV/NPV both quantities are reported without
    asserting equality; their difference is the non-closure being
    measured.
    """

    __slots__ = ("kind", "linear", "ensemble_gap", "weighted_member_gap_sum")


def closure_check(
    ensemble: Ensemble, kind: MetricKind, dataset: Dataset
) -> ClosureReport:
    counts = member_counts(ensemble.members, dataset)
    (_, _, gap), (g, d) = metrics._mixture_rates(counts._mixture_row(ensemble.weights), kind)
    member_g, member_d = counts._gap_terms(kind)
    weighted = None
    if member_d.all():  # an undefined member gap makes the sum undefined
        w = [Fraction(x) for x in ensemble.weights.tolist()]
        terms = zip(w, member_g.tolist(), member_d.tolist())
        weighted = sum(x * Fraction(mg, md) for x, mg, md in terms) / sum(w)
    linear = kind in LINEAR_KINDS
    # a linear kind's gap is defined for the mixture iff it is for every member
    if linear and weighted is not None and Fraction(g, d) != weighted:
        raise FairmixError(
            f"linearity identity violated for {kind}: ensemble gap "
            f"{gap!r} vs weighted member sum {float(weighted)!r}"
        )
    return ClosureReport(kind, linear, gap, None if weighted is None else float(weighted))


class SampleResult(_Record):
    """Seeded Monte Carlo draw log plus empirical per-group rates.

    ``labels`` has one row per draw. In per-draw mode one member is
    selected per draw and applied to the whole dataset, and
    ``member_indices`` records the selection; ``labels`` is then built on
    access from the members' label rows, so the result holds
    O(draws + N*M) values. In per-instance mode every instance draws its
    own member independently, ``member_indices`` is None and the
    (draws, N) labels are stored. Identical seeds give bit-identical
    results. ``_rows`` holds the (M, N) member label rows in per-draw
    mode, the labels otherwise.
    """

    __slots__ = (
        "member_indices", "per_draw_rates", "group_rates", "standard_errors",
        "n_draws", "seed", "per_instance", "generator", "_rows",
    )

    @property
    def labels(self) -> np.ndarray:
        if self.member_indices is None:
            return self._rows
        return self._rows[self.member_indices]

    def to_json_dict(self) -> dict:
        return {
            "n_draws": self.n_draws,
            "seed": self.seed,
            "mode": "per_instance" if self.per_instance else "per_draw",
            "generator": self.generator,
            "group_rates": {"z0": self.group_rates[0], "z1": self.group_rates[1]},
            "standard_errors": {
                "z0": self.standard_errors[0],
                "z1": self.standard_errors[1],
            },
        }


def _select_members(cumulative: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    # inverse CDF: smallest j with u < cum_j
    idx = np.searchsorted(cumulative, uniforms, side="right")
    return np.minimum(idx, len(cumulative) - 1)


def sample(
    ensemble: Ensemble,
    dataset: Dataset,
    n_draws: int,
    seed: int,
    per_instance: bool = False,
) -> SampleResult:
    """Simulate the ensemble for ``n_draws`` decisions, deterministically.

    Per-draw mode models one randomly selected member deciding the whole
    batch; per-instance mode draws independently per user. The two agree
    on all per-group marginals, so the analytic rates are the reference
    for both.
    """
    check_integer(n_draws, "n_draws", 1)
    n = len(dataset)
    # the uniforms are the largest array: 8 bytes per draw, or per draw and
    # instance, and numpy makes no array of more than intp.max bytes
    limit = np.iinfo(np.intp).max // (8 * (n if per_instance else 1))
    if n_draws > limit:
        raise FairmixError(f"n_draws must be at most {limit}, got {n_draws}")
    check_integer(seed, "seed", 0)
    rows = prediction_matrix(ensemble.members, dataset)
    cumulative = np.cumsum(ensemble.weights)
    rng = np.random.default_rng(seed)
    if per_instance:
        uniforms = rng.random((n_draws, n))
        chosen = _select_members(cumulative, uniforms)
        rows = rows[chosen, np.arange(n)]
        member_indices = None
    else:
        uniforms = rng.random(n_draws)
        chosen = _select_members(cumulative, uniforms)
        member_indices = chosen
    # a draw's group rate is accepted count / group size, the same float as
    # the mean over the draw's labels; per-draw, a draw's count is its member's
    counts = metrics.cell_counts(rows == 1, dataset)
    per_draw_rates = {}
    group_rates = {}
    standard_errors = {}
    for z in (0, 1):
        rates = counts.rates(MetricKind.ACCEPTANCE_RATE, z)
        if np.isnan(rates[0]):  # an empty group: 0 / 0 on every row
            per_draw_rates[z] = None
            group_rates[z] = None
            standard_errors[z] = None
            continue
        if member_indices is not None:
            rates = rates[member_indices]
        per_draw_rates[z] = rates
        group_rates[z] = float(rates.mean())
        if n_draws > 1:
            standard_errors[z] = float(rates.std(ddof=1) / np.sqrt(n_draws))
        else:
            standard_errors[z] = None
    return SampleResult(
        member_indices=member_indices,
        per_draw_rates=per_draw_rates,
        group_rates=group_rates,
        standard_errors=standard_errors,
        n_draws=n_draws,
        seed=seed,
        per_instance=per_instance,
        generator=GENERATOR_NAME,
        _rows=rows,
    )


def ensemble_report(
    ensemble: Ensemble,
    dataset: Dataset,
    pairs: Pairs = (),
    tolerance: float = DEFAULT_TOLERANCE,
) -> FairnessReport:
    """Fairness report for the ensemble, including intra-group dispersion."""
    accepts = prediction_matrix(ensemble.members, dataset) == 1
    q = _profile(ensemble.weights, accepts)
    counts = metrics.cell_counts(accepts, dataset)
    return metrics.mixture_report(
        counts, ensemble.weights, q, pairs, tolerance, dispersion(q, dataset)
    )
