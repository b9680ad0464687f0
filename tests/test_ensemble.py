"""Ensemble analytics against exact rational oracles, plus the sampler.

The analytic formulas are float implementations of rational quantities:
weighted averages of count ratios (linear kinds) and ratios of weighted
counts (PPV/NPV). The oracles below recount every member from the raw
label, group and prediction arrays, one instance at a time, and redo
both formulas in ``Fraction`` arithmetic over the exact rational values
of the float weights. They share no code with the cell-count core.
"""

import gc
import pickle
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmix import (
    CompatibilityError,
    Ensemble,
    FairmixError,
    LinearClassifier,
    MetricKind,
    acceptance_probability,
    closure_check,
    ensemble_gap,
    ensemble_group_rate,
    ensemble_report,
    member_counts,
    mixture_accuracy,
    sample,
    solve_fair_mixture,
)
from fairmix import ensemble as ensemble_mod
from fairmix import metrics
from fairmix.classifiers import prediction_matrix
from fairmix import Dataset, TableClassifier, build_counterfactual_pairs
from fairmix.dataset import twin_pairs
from fairmix.ensemble import GENERATOR_NAME
from fairmix.metrics import CellCounts

from conftest import (
    make_grid_ensemble,
    make_random_dataset,
    make_random_members,
    random_weights,
)


def oracle_counts(kind, labels, groups, preds, z):
    """(hits, size) of one member's group rate, counted instance by instance."""
    hits = size = 0
    for y, g, p in zip(labels.tolist(), groups.tolist(), preds.tolist()):
        if g != z:
            continue
        in_set, hit = {
            MetricKind.ACCEPTANCE_RATE: (True, p == 1),
            MetricKind.TPR: (y == 1, p == 1),
            MetricKind.TNR: (y == -1, p == -1),
            MetricKind.PPV: (p == 1, y == 1),
            MetricKind.NPV: (p == -1, y == -1),
        }[kind]
        if in_set:
            size += 1
            hits += hit
    return hits, size


def member_oracle_counts(ensemble, kind, ds, z):
    return [
        oracle_counts(kind, ds.labels, ds.sensitive, m.predict_all(ds), z)
        for m in ensemble.members
    ]


def fraction_linear_rate(ensemble, kind, ds, z):
    total = Fraction(0)
    for w, (h, s) in zip(ensemble.weights, member_oracle_counts(ensemble, kind, ds, z)):
        if s == 0:
            return None
        total += Fraction(w) * Fraction(h, s)
    return total


def fraction_ratio_rate(ensemble, kind, ds, z):
    num = Fraction(0)
    den = Fraction(0)
    for w, (h, s) in zip(ensemble.weights, member_oracle_counts(ensemble, kind, ds, z)):
        num += Fraction(w) * h
        den += Fraction(w) * s
    if den == 0:
        return None
    return num / den


def fraction_accuracy(ensemble, ds):
    total = Fraction(0)
    for w, m in zip(ensemble.weights, ensemble.members):
        correct = sum(int(p == y) for p, y in zip(m.predict_all(ds), ds.labels))
        total += Fraction(w) * Fraction(correct, len(ds))
    return total


class TestConstruction:
    def test_weights_validated(self, rng):
        ds = make_random_dataset(rng, 8)
        members = make_random_members(rng, ds, 2)
        with pytest.raises(FairmixError, match="at least one member"):
            Ensemble([], [])
        with pytest.raises(FairmixError, match="weights"):
            Ensemble(members, [1.0])
        with pytest.raises(FairmixError, match="negative weight"):
            Ensemble(members, [1.5, -0.5])
        with pytest.raises(FairmixError, match="sum to"):
            Ensemble(members, [0.6, 0.6])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, rng, bad):
        # NaN compares false with everything, so the sign and sum checks
        # alone let [NaN, 0.5, 0.5] through
        ds = make_random_dataset(rng, 8)
        members = make_random_members(rng, ds, 3)
        with pytest.raises(FairmixError, match="non-finite weight"):
            Ensemble(members, [bad, 0.5, 0.5])

    @pytest.mark.parametrize(
        "weights, message",
        [
            (["x", 1.0], "weight must be a real number, got 'x'"),
            ([None, 1.0], "weight must be a real number, got None"),
            ([True, False], "weight must be a real number, got True"),
            (np.array(["0.5", "0.5"]), "weight must be a real number, got '0.5'"),
            (np.array([True, False]), "weight must be a real number, got True"),
            ([10**400, 0], "weight is an integer of 1329 bits, past the float range"),
            ([10**5000, 0], "weight is an integer of 16610 bits, past the float range"),
            (np.array([0.5, np.nan]), "non-finite weight nan"),
            ([0.5, np.True_], "weight must be a real number, got np.True_"),
            ([0.5, "0.5"], "weight must be a real number, got '0.5'"),
            ([0.5, 1j], "weight must be a real number, got 1j"),
        ],
        ids=[
            "str", "none", "bools", "str-array", "bool-array",
            "huge-int", "huge-int-past-str-limit", "nan-array",
            "numpy-bool", "numeric-str", "complex",
        ],
    )
    def test_weights_checked_as_given(self, rng, weights, message):
        # a string, a bool or an integer past the float range is not
        # cast to a float; the error names the first bad weight
        ds = make_random_dataset(rng, 8)
        members = make_random_members(rng, ds, 2)
        with pytest.raises(FairmixError, match=f"^{re.escape(message)}"):
            Ensemble(members, weights)

    @pytest.mark.parametrize(
        "weights",
        [
            [np.int64(1), 0],
            np.array([0.25, 0.75], dtype=np.float32),
            [np.float64(0.25), np.float64(0.75)],
            np.array([1, 0], dtype=np.uint8),
            [0, 1],
            [0.25, 0.75],
        ],
        ids=["numpy-int", "float32-array", "numpy-floats", "uint8-array", "ints", "floats"],
    )
    def test_numpy_real_weights_accepted(self, rng, weights):
        ds = make_random_dataset(rng, 8)
        ens = Ensemble(make_random_members(rng, ds, 2), weights)
        assert ens.weights.dtype == np.float64
        assert ens.weights.tolist() == [float(w) for w in weights]

    def test_scalar_weights_rejected_by_shape(self, rng):
        ds = make_random_dataset(rng, 8)
        members = make_random_members(rng, ds, 2)
        with pytest.raises(FairmixError, match=re.escape("2 members but () weights")):
            Ensemble(members, 0.5)

    def test_weights_read_only_copy(self, rng):
        ds = make_random_dataset(rng, 8)
        members = make_random_members(rng, ds, 2)
        w = np.array([0.25, 0.75])
        ens = Ensemble(members, w)
        w[0] = 0.9
        assert ens.weights[0] == 0.25
        with pytest.raises(ValueError):
            ens.weights[0] = 0.5

    @pytest.mark.parametrize(
        "weights",
        [
            *(
                np.insert(np.full(4, 0.25), pos, bad)
                for bad in (np.nan, np.inf, -np.inf)
                for pos in (0, 2, 4)
            ),
            np.array([0.5, np.nan, 0.25, np.inf, 0.25]),
            np.array([0.5, -np.inf, 0.25, np.nan, 0.25]),
            np.array([0.5, -0.25, 0.75]),
            np.array([0.5, 0.6]),
            np.array([0.2, 0.3, 0.5]),
            np.array([-0.0, 1.0]),
            np.array(0.5),
            np.array(np.nan),
            np.array([[0.5, 0.5]]),
            np.array([[0.5, np.nan]]),
        ],
        ids=lambda w: repr(w.tolist()),
    )
    def test_float_array_checked_as_its_list(self, rng, weights):
        # a float64 vector is checked in one pass, its list element by
        # element; both must reach the same verdict with the same message
        ds = make_random_dataset(rng, 8)
        members = make_random_members(rng, ds, weights.size if weights.ndim == 1 else 2)
        outcomes = []
        for given in (weights, weights.tolist()):
            try:
                outcomes.append(Ensemble(members, given).weights.tobytes())
            except FairmixError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    def test_float_array_copied(self, rng):
        ds = make_random_dataset(rng, 8)
        w = np.array([0.125, 0.375, 0.5])
        ens = Ensemble(make_random_members(rng, ds, 3), w)
        w[:] = np.nan
        assert ens.weights.tolist() == [0.125, 0.375, 0.5]
        with pytest.raises(ValueError):  # a view of a frozen copy, for good
            ens.weights.setflags(write=True)

    def test_uniform(self, rng):
        ds = make_random_dataset(rng, 8)
        ens = Ensemble(make_random_members(rng, ds, 4), np.full(4, 0.25))
        assert len(ens) == 4
        assert np.allclose(ens.weights, 0.25)

    def test_point_mass_allowed(self, rng):
        ds = make_random_dataset(rng, 8)
        members = make_random_members(rng, ds, 2)
        ens = Ensemble(members, [1.0, 0.0])
        assert ensemble_group_rate(
            ens, MetricKind.ACCEPTANCE_RATE, ds, 0
        ) == pytest.approx(
            float(fraction_linear_rate(ens, MetricKind.ACCEPTANCE_RATE, ds, 0))
        )


class TestBenefitProfile:
    def test_matches_per_instance_weight_sum(self, rng):
        for _ in range(25):
            ds = make_random_dataset(rng, 12)
            members = make_random_members(rng, ds, int(rng.integers(1, 5)))
            ens = Ensemble(members, random_weights(rng, len(members)))
            q = acceptance_probability(ens, ds)
            for i in range(len(ds)):
                expect = sum(
                    w
                    for w, m in zip(ens.weights, members)
                    if m.predictions[i] == 1
                )
                assert q[i] == pytest.approx(expect, abs=1e-15)

    def test_bounds(self, rng):
        ds = make_random_dataset(rng, 20)
        members = make_random_members(rng, ds, 3)
        ens = Ensemble(members, random_weights(rng, 3))
        q = acceptance_probability(ens, ds)
        assert np.all(q >= 0.0) and np.all(q <= 1.0)


class TestAnalyticRates:
    def test_linear_kinds_match_fraction_oracle(self, rng):
        for _ in range(40):
            ds = make_random_dataset(rng, 14)
            members = make_random_members(rng, ds, int(rng.integers(1, 5)))
            ens = Ensemble(members, random_weights(rng, len(members)))
            for kind in (MetricKind.ACCEPTANCE_RATE, MetricKind.TPR, MetricKind.TNR):
                for z in (0, 1):
                    got = ensemble_group_rate(ens, kind, ds, z)
                    want = fraction_linear_rate(ens, kind, ds, z)
                    if want is None:
                        assert got is None
                    else:
                        assert got == pytest.approx(float(want), abs=1e-12)

    def test_ratio_kinds_match_fraction_oracle(self, rng):
        for _ in range(40):
            ds = make_random_dataset(rng, 14)
            members = make_random_members(rng, ds, int(rng.integers(1, 5)))
            ens = Ensemble(members, random_weights(rng, len(members)))
            for kind in (MetricKind.PPV, MetricKind.NPV):
                for z in (0, 1):
                    got = ensemble_group_rate(ens, kind, ds, z)
                    want = fraction_ratio_rate(ens, kind, ds, z)
                    if want is None:
                        assert got is None
                    else:
                        assert got == pytest.approx(float(want), abs=1e-12)

    def test_ratio_kind_defined_even_if_one_member_abstains(self):
        # member B accepts nobody in group 0, yet the mixture PPV there
        # is still defined because member A contributes accepted rows
        ds = Dataset.from_arrays(
            [[0.0], [1.0], [2.0], [3.0]], [1, -1, 1, -1], [0, 0, 1, 1]
        )
        a = TableClassifier([1, 1, 1, -1], ds)
        b = TableClassifier([-1, -1, 1, 1], ds)
        ens = Ensemble([a, b], [0.5, 0.5])
        # weighted hits = .5*1, weighted size = .5*2 -> 1/2
        assert ensemble_group_rate(ens, MetricKind.PPV, ds, 0) == 0.5

    def test_undefined_when_no_weight_reaches_the_set(self):
        ds = Dataset.from_arrays([[0.0], [1.0]], [1, -1], [0, 1])
        rejector = TableClassifier([-1, -1], ds)
        ens = Ensemble([rejector], [1.0])
        assert ensemble_group_rate(ens, MetricKind.PPV, ds, 0) is None
        assert ensemble_gap(ens, MetricKind.PPV, ds) is None

    def test_gap_is_rate_difference(self, rng):
        # the exact rate difference rounded once, which r0 - r1 of the two
        # rounded rates can miss by an ulp. The weighted-count ratio is the
        # rate of the weights normalised to sum 1 for every kind
        ds = make_random_dataset(rng, 16)
        members = make_random_members(rng, ds, 3)
        ens = Ensemble(members, random_weights(rng, 3))
        for kind in MetricKind:
            wants = [fraction_ratio_rate(ens, kind, ds, z) for z in (0, 1)]
            got = [ensemble_group_rate(ens, kind, ds, z) for z in (0, 1)]
            assert got == [None if w is None else float(w) for w in wants]
            g = ensemble_gap(ens, kind, ds)
            if None in wants:
                assert g is None
            else:
                assert g == float(wants[0] - wants[1])

    def test_mixture_accuracy_weighted(self, rng):
        for _ in range(20):
            ds = make_random_dataset(rng, 12)
            members = make_random_members(rng, ds, int(rng.integers(1, 5)))
            ens = Ensemble(members, random_weights(rng, len(members)))
            want = fraction_accuracy(ens, ds)
            assert mixture_accuracy(ens, ds) == pytest.approx(float(want), abs=1e-12)


@st.composite
def small_ensembles(draw):
    """A tiny dataset (empty cells are common) and a weighted ensemble."""
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=1, max_value=4))
    signs = st.sampled_from((-1, 1))
    labels = draw(st.lists(signs, min_size=n, max_size=n))
    groups = draw(st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n))
    ds = Dataset.from_arrays([[float(i)] for i in range(n)], labels, groups)
    members = [
        TableClassifier(draw(st.lists(signs, min_size=n, max_size=n)), ds)
        for _ in range(m)
    ]
    ticks = draw(
        st.lists(st.integers(0, 5), min_size=m, max_size=m).filter(any)
    )
    return ds, Ensemble(members, np.asarray(ticks) / sum(ticks))


class TestCountDifferential:
    """The (M, 4) cell-count core against instance-level ``Fraction`` oracles."""

    @settings(max_examples=200, deadline=None)
    @given(small_ensembles())
    def test_cell_matrix_is_the_instance_tally(self, case):
        ds, ens = case
        counts = member_counts(ens.members, ds)
        cells = [(z, y) for z in (0, 1) for y in (-1, 1)]
        assert counts.sizes.tolist() == [
            sum(1 for g, l in zip(ds.sensitive, ds.labels) if (g, l) == c)
            for c in cells
        ]
        for j, member in enumerate(ens.members):
            preds = member.predict_all(ds)
            assert counts.accepted[j].tolist() == [
                sum(
                    1
                    for g, l, p in zip(ds.sensitive, ds.labels, preds)
                    if (g, l) == c and p == 1
                )
                for c in cells
            ]

    @settings(max_examples=200, deadline=None)
    @given(small_ensembles())
    def test_member_rates_and_accuracy_are_exact(self, case):
        ds, ens = case
        counts = member_counts(ens.members, ds)
        for kind in MetricKind:
            for z in (0, 1):
                want = member_oracle_counts(ens, kind, ds, z)
                num, den = counts.counts(kind, z)
                assert list(zip(num.tolist(), den.tolist())) == want
                for rate, (h, s) in zip(counts.rates(kind, z), want):
                    if s == 0:
                        assert np.isnan(rate)  # undefined, never 0
                    else:
                        assert rate == float(Fraction(h, s))
        for j, member in enumerate(ens.members):
            correct = sum(int(p == y) for p, y in zip(member.predict_all(ds), ds.labels))
            assert counts.accuracies()[j] == float(Fraction(correct, len(ds)))

    @settings(max_examples=200, deadline=None)
    @given(small_ensembles())
    def test_ensemble_rates_match_fraction_oracles(self, case):
        ds, ens = case
        for kind in MetricKind:
            oracle = (
                fraction_ratio_rate
                if kind in (MetricKind.PPV, MetricKind.NPV)
                else fraction_linear_rate
            )
            wants = [oracle(ens, kind, ds, z) for z in (0, 1)]
            for z, want in zip((0, 1), wants):
                got = ensemble_group_rate(ens, kind, ds, z)
                if want is None:
                    assert got is None  # an empty conditioning set, never 0
                else:
                    assert got == pytest.approx(float(want), abs=1e-12)
            gap = ensemble_gap(ens, kind, ds)
            if None in wants:
                assert gap is None
            else:
                assert gap == pytest.approx(float(wants[0] - wants[1]), abs=1e-12)
        want = fraction_accuracy(ens, ds)
        assert mixture_accuracy(ens, ds) == pytest.approx(float(want), abs=1e-12)


class TestStoredCounts:
    """A dataset keeps the count table of the last all-table member list
    bound to it; only the same member objects, in the same order, get it
    back, and any other list is counted whole."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Counts the calls ``member_counts`` makes to ``prediction_matrix``."""
        calls = []
        real = ensemble_mod.prediction_matrix

        def counting(members, dataset):
            calls.append(len(members))
            return real(members, dataset)

        monkeypatch.setattr(ensemble_mod, "prediction_matrix", counting)
        return calls

    def test_second_call_reads_no_predictions(self, rng, monkeypatch):
        ds = make_random_dataset(rng, 40)
        members = make_random_members(rng, ds, 5)
        first = member_counts(members, ds)

        def fail(members, dataset):
            raise AssertionError("prediction_matrix called on stored tables")

        monkeypatch.setattr(ensemble_mod, "prediction_matrix", fail)
        second = member_counts(members, ds)
        assert second.accepted.dtype == first.accepted.dtype
        assert np.array_equal(second.accepted, first.accepted)
        assert second.sizes.dtype == first.sizes.dtype
        assert np.array_equal(second.sizes, first.sizes)

    def test_equal_dataset_is_recounted_and_stores_nothing(self, rng, counted):
        ds = make_random_dataset(rng, 40)
        twin = Dataset.from_arrays(ds.features, ds.labels, ds.sensitive)
        assert twin == ds and twin is not ds
        members = make_random_members(rng, ds, 4)
        results = [member_counts(members, twin) for _ in range(2)]
        results.append(member_counts(members, ds))  # nothing was stored for ds
        assert counted == [4, 4, 4]
        for counts in results[1:]:
            assert np.array_equal(counts.accepted, results[0].accepted)
            assert np.array_equal(counts.sizes, results[0].sizes)
        member_counts(members, ds)
        assert counted == [4, 4, 4]

    def test_unequal_dataset_still_rejected(self, rng):
        ds = make_random_dataset(rng, 40)
        members = make_random_members(rng, ds, 3)
        member_counts(members, ds)
        other = Dataset.from_arrays(ds.features + 1.0, ds.labels, ds.sensitive)
        for other in (other, "not a dataset"):
            with pytest.raises(CompatibilityError, match="not bound to"):
                member_counts(members, other)

    def test_non_classifier_still_named_by_position(self, rng):
        ds = make_random_dataset(rng, 40)
        members = make_random_members(rng, ds, 3)
        member_counts(members, ds)
        mixed = [*members, LinearClassifier((1.0, -1.0)), object()]
        with pytest.raises(FairmixError, match="member 5 is not a classifier: object"):
            member_counts(mixed, ds)

    def test_other_lists_are_counted_whole(self, rng, counted):
        ds = make_random_dataset(rng, 40)
        members = make_random_members(rng, ds, 4)
        member_counts(members, ds)
        member_counts(members[::-1], ds)  # re-ordered: counted, then kept
        member_counts(members[:2], ds)  # a sub-list: counted, then kept
        member_counts(members[:2], ds)
        assert counted == [4, 4, 2]

    def test_kept_members_are_freed_without_the_collector(self, rng):
        """The dataset refers to its kept members weakly: tables that refer
        to the dataset and a dataset that kept them form no cycle, so both
        are freed by reference counting, and a later list is counted."""
        ds = make_random_dataset(rng, 40)
        members = make_random_members(rng, ds, 3)
        kept = member_counts(members, ds)
        first = weakref.ref(members[0])
        gc.disable()
        try:
            del members
            assert first() is None
        finally:
            gc.enable()
        again = make_random_members(rng, ds, 3)
        assert member_counts(again, ds) is not kept

    def test_dataset_pickles_after_a_solve_on_bound_tables(self, rng):
        """The kept pair holds weak references, which do not pickle: a dataset
        pickles its fields only, and the copy keeps nothing."""
        ds = make_random_dataset(rng, 40)
        members = make_random_members(rng, ds, 3)
        solve_fair_mixture(members, ds, [MetricKind.ACCEPTANCE_RATE], 0.1)
        assert ds._member_counts is not None
        for clone_ds, clone_members in (
            (pickle.loads(pickle.dumps(ds)), None),
            *[pickle.loads(pickle.dumps((ds, members), protocol)) for protocol in (0, 5)],
        ):
            assert clone_ds == ds and clone_ds._member_counts is None
            if clone_members is not None:
                assert clone_members == members
                assert all(m.dataset is clone_ds for m in clone_members)
                assert member_counts(clone_members, clone_ds) is clone_ds._member_counts[1]

    def test_linear_members_counted_on_every_call(self, rng, counted):
        ds = make_random_dataset(rng, 40)
        members = [*make_random_members(rng, ds, 2), LinearClassifier((1.0, -1.0))]
        first = member_counts(members, ds)
        second = member_counts(members, ds)
        assert counted == [3, 3]
        assert np.array_equal(first.accepted, second.accepted)

    def test_writing_a_result_leaves_the_next_unchanged(self, rng):
        ds = make_random_dataset(rng, 40)
        members = make_random_members(rng, ds, 4)
        counts = member_counts(members, ds)  # counted, then stored
        accepted, sizes = counts.accepted.copy(), counts.sizes.copy()
        for _ in range(2):  # the counted result, then the kept one
            # a result's arrays are read-only, so the write itself is refused
            for array in (counts.accepted, counts.sizes):
                with pytest.raises(ValueError, match="read-only"):
                    array[:] = -7
            counts = member_counts(members, ds)
            assert np.array_equal(counts.accepted, accepted)
            assert np.array_equal(counts.sizes, sizes)

    STEPS = ("same", "copy", "swap in place", "permutation", "sub-list", "linear",
             "rebuilt", "twin-bound")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(STEPS), min_size=1, max_size=10), st.integers(0, 2**32 - 1))
    def test_kept_table_is_invisible_in_results(self, steps, seed):
        """Any sequence of calls gives what a fresh count gives, and only the
        same member objects, in the same order, get the kept table back."""
        rng = np.random.default_rng(seed)
        ds = make_random_dataset(rng, 30)
        twin = Dataset.from_arrays(ds.features, ds.labels, ds.sensitive)
        rows = [m.predictions for m in make_random_members(rng, ds, 5)]
        base = [TableClassifier(row, ds) for row in rows]
        current, kept, results = base, None, []  # kept: the last all-table tuple, its result
        for step in steps:
            if step == "copy":
                current = list(current)
            elif step == "swap in place" and len(current) > 1:
                current[0], current[-1] = current[-1], current[0]
            elif step == "permutation":
                current = [base[i] for i in rng.permutation(len(base))]
            elif step == "sub-list":
                current = base[: int(rng.integers(1, len(base) + 1))]
            elif step == "linear":
                current = [*base, LinearClassifier((1.0, -1.0))]
            elif step == "rebuilt":
                current = [TableClassifier(row, ds) for row in rows]
            elif step == "twin-bound":
                current = [TableClassifier(row, twin) for row in rows]
            got = member_counts(current, ds)
            fresh = metrics.cell_counts(prediction_matrix(current, ds) == 1, ds)
            assert got.accepted.dtype == fresh.accepted.dtype
            assert np.array_equal(got.accepted, fresh.accepted)
            assert np.array_equal(got.sizes, fresh.sizes)
            for kind in MetricKind:
                for a, b in zip(got._gap_terms(kind), fresh._gap_terms(kind)):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
            assert np.array_equal(got.accuracies(), fresh.accuracies())
            same = kept is not None and len(kept[0]) == len(current)
            same = same and all(a is b for a, b in zip(kept[0], current))
            if same:
                assert got is kept[1]
            else:
                assert all(got is not r for r in results)
            results.append(got)
            if all(isinstance(m, TableClassifier) and m.dataset is ds for m in current):
                kept = tuple(current), got

    def test_tolerance_sweep_equals_solves_on_fresh_tables(self, monkeypatch):
        # a small frontier: equal groups and base rates, members that err
        # at different rates per group, and the two constant rules (every
        # gap zero) so every tolerance is feasible
        rng = np.random.default_rng(20)
        n, m = 240, 12
        labels = np.tile([1, -1], n // 2)
        sensitive = np.repeat([0, 1], n // 2)
        ds = Dataset.from_arrays(rng.normal(size=(n, 2)), labels, sensitive)
        flips = rng.random((m, n)) < rng.uniform(0.05, 0.4, (m, 2))[:, sensitive]
        rows = [*np.where(flips, -labels, labels), np.ones(n), -np.ones(n)]
        members = [TableClassifier(row, ds) for row in rows]
        kinds = [MetricKind.ACCEPTANCE_RATE, MetricKind.TPR, MetricKind.TNR]
        tolerances = np.geomspace(5e-4, 0.1, 8)
        built = []
        post_init = CellCounts.__post_init__

        def counting(counts):
            built.append(counts)
            post_init(counts)

        monkeypatch.setattr(CellCounts, "__post_init__", counting)
        sweep = [solve_fair_mixture(members, ds, kinds, t) for t in tolerances]
        assert len(built) == 1  # the first solve counts; the rest share its table
        assert member_counts(members, ds) is built[0]
        monkeypatch.undo()
        statuses = set()
        for tolerance, got in zip(tolerances, sweep):
            fresh = [TableClassifier(row, ds) for row in rows]
            want = solve_fair_mixture(fresh, ds, kinds, tolerance)
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.to_json_dict() == want.to_json_dict()
            assert got.iterations == want.iterations
            statuses.add(got.status.value)
        assert statuses == {"optimal"}


class TestClosure:
    def test_linear_kinds_closed(self, rng):
        for _ in range(30):
            ds = make_random_dataset(rng, 14)
            members = make_random_members(rng, ds, int(rng.integers(2, 5)))
            ens = Ensemble(members, random_weights(rng, len(members)))
            for kind in (MetricKind.ACCEPTANCE_RATE, MetricKind.TPR, MetricKind.TNR):
                report = closure_check(ens, kind, ds)  # raises on violation
                assert report.linear
                if report.ensemble_gap is not None:
                    assert report.ensemble_gap == pytest.approx(
                        report.weighted_member_gap_sum, abs=1e-9
                    )

    def test_broken_identity_raises(self, rng, monkeypatch):
        """A member gap that disagrees with the mixture's row is reported, not averaged."""
        ds = make_random_dataset(rng, 14)
        members = make_random_members(rng, ds, 3)
        ens = Ensemble(members, random_weights(rng, 3))
        real = CellCounts._gap_terms

        def perturbed(counts, kind):
            g, d = real(counts, kind)
            return g + np.array([1, 0, 0]), d

        monkeypatch.setattr(CellCounts, "_gap_terms", perturbed)
        with pytest.raises(
            FairmixError,
            match=r"^linearity identity violated for acceptance_rate: ensemble gap ",
        ):
            closure_check(ens, MetricKind.ACCEPTANCE_RATE, ds)
        assert not closure_check(ens, MetricKind.PPV, ds).linear  # not checked: no raise

    def test_ratio_kinds_reported_not_asserted(self):
        # ensemble PPV gap and weighted member gap sum genuinely differ
        # here (0.25 vs 1/6) because the accepted-set sizes vary by member
        ds = Dataset.from_arrays(
            [[float(i)] for i in range(6)],
            [1, 1, -1, 1, -1, -1],
            [0, 0, 0, 1, 1, 1],
        )
        a = TableClassifier([1, -1, -1, 1, -1, -1], ds)  # PPV 1/1 in both groups
        b = TableClassifier([1, 1, 1, 1, 1, 1], ds)  # PPV 2/3 vs 1/3
        ens = Ensemble([a, b], [0.5, 0.5])
        report = closure_check(ens, MetricKind.PPV, ds)
        assert not report.linear
        assert report.ensemble_gap == pytest.approx(0.25, abs=1e-15)
        assert report.weighted_member_gap_sum == pytest.approx(1 / 6, abs=1e-15)
        # the two disagree, and closure_check must not raise for ratio kinds
        assert abs(report.ensemble_gap - report.weighted_member_gap_sum) > 0.08
        assert report.kind is MetricKind.PPV


class TestZeroWeightMembers:
    """A member of weight 0 adds nothing to the exact row of a mixture."""

    @staticmethod
    def undefined_members(ds):
        """A member that accepts nobody (PPV undefined) and one that accepts
        everybody (NPV undefined)."""
        return [TableClassifier(np.full(len(ds), v), ds) for v in (-1, 1)]

    def test_added_members_change_nothing(self, rng):
        for _ in range(100):
            ds = make_random_dataset(rng, 20)
            m = int(rng.integers(1, 5))
            members = make_random_members(rng, ds, m)
            weights = random_weights(rng, m).tolist()
            # the zero-weight members go anywhere in the list, first included
            more, more_weights = list(members), list(weights)
            for member in self.undefined_members(ds) + make_random_members(rng, ds, 1):
                j = int(rng.integers(len(more) + 1))
                more.insert(j, member)
                more_weights.insert(j, 0.0)
            seen = []
            for ms, ws in ((members, weights), (more, more_weights)):
                ens = Ensemble(ms, ws)
                values = [ensemble_group_rate(ens, k, ds, z) for k in MetricKind for z in (0, 1)]
                values += [ensemble_gap(ens, k, ds) for k in MetricKind]
                values += [closure_check(ens, k, ds).ensemble_gap for k in MetricKind]
                values.append(mixture_accuracy(ens, ds))
                seen.append(repr((values, ensemble_report(ens, ds).to_json_dict())))
            assert seen[0] == seen[1], weights

    def test_solution_reads_only_its_support(self, rng):
        # an LP vertex weights few members; its numbers equal the report on
        # just those members
        solved = 0
        for _ in range(60):
            ds = make_random_dataset(rng, 30)
            members = make_random_members(rng, ds, int(rng.integers(2, 6)))
            members += self.undefined_members(ds)
            sol = solve_fair_mixture(members, ds, [MetricKind.ACCEPTANCE_RATE], 0.01)
            support = np.flatnonzero(sol.weights)
            if len(support) == len(members):
                continue
            solved += 1
            ens = Ensemble([members[j] for j in support], sol.weights[support])
            gaps = {entry.kind: entry.gap for entry in ensemble_report(ens, ds).metrics}
            want = (
                mixture_accuracy(ens, ds),
                {k: gaps[k] for k in sol.gaps},
                {k: gaps[k] for k in sol.post_hoc_gaps},
            )
            assert repr((sol.accuracy, sol.gaps, sol.post_hoc_gaps)) == repr(want)
        assert solved >= 50


class TestSampler:
    def small_case(self, rng):
        ds = make_random_dataset(rng, 10)
        members = make_random_members(rng, ds, 3)
        return ds, Ensemble(members, random_weights(rng, 3))

    def test_bit_identical_reruns(self, rng):
        ds, ens = self.small_case(rng)
        a = sample(ens, ds, n_draws=200, seed=99)
        b = sample(ens, ds, n_draws=200, seed=99)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.member_indices, b.member_indices)
        assert a.group_rates == b.group_rates
        assert a.standard_errors == b.standard_errors

    def test_seed_matters(self, rng):
        ds, ens = self.small_case(rng)
        a = sample(ens, ds, n_draws=200, seed=0)
        b = sample(ens, ds, n_draws=200, seed=1)
        assert not np.array_equal(a.labels, b.labels)

    def test_per_draw_rows_are_member_rows(self, rng):
        from fairmix import prediction_matrix

        ds, ens = self.small_case(rng)
        result = sample(ens, ds, n_draws=50, seed=3)
        matrix = prediction_matrix(ens.members, ds)
        for k in range(50):
            assert np.array_equal(result.labels[k], matrix[result.member_indices[k]])

    def test_per_draw_rates_equal_label_means(self, rng):
        """Member counts give the exact floats of the draws x N label means."""
        from fairmix import prediction_matrix

        ds, ens = self.small_case(rng)
        # group z0 is empty, so its rates stay None
        one_group = Dataset.from_arrays([[0.0], [1.0], [2.0]], [1, -1, 1], [1, 1, 1])
        members = make_random_members(rng, one_group, 3)
        cases = [(ds, ens), (one_group, Ensemble(members, [0.2, 0.3, 0.5]))]
        for dataset, ensemble in cases:
            for seed in (0, 1, 7, 12345):
                result = sample(ensemble, dataset, n_draws=300, seed=seed)
                matrix = prediction_matrix(ensemble.members, dataset)
                accepted = matrix[result.member_indices] == 1
                for z in (0, 1):
                    idx = np.flatnonzero(dataset.sensitive == z)
                    if idx.size == 0:
                        assert result.per_draw_rates[z] is None
                        assert result.group_rates[z] is None
                        assert result.standard_errors[z] is None
                        continue
                    rates = accepted[:, idx].mean(axis=1)
                    assert np.array_equal(result.per_draw_rates[z], rates)
                    assert result.group_rates[z] == float(rates.mean())
                    stderr = float(rates.std(ddof=1) / np.sqrt(300))
                    assert result.standard_errors[z] == stderr

    @settings(max_examples=150, deadline=None)
    @given(small_ensembles(), st.integers(0, 2**32 - 1), st.integers(1, 40))
    def test_per_instance_rates_equal_label_means(self, case, seed, n_draws):
        """Per-instance rates from counts against the label-mean reference."""
        ds, ens = case
        # the per-instance sampler as it was before it read cell counts
        rows = np.stack([m.predict_all(ds).astype(np.int8) for m in ens.members])
        rng = np.random.default_rng(seed)
        uniforms = rng.random((n_draws, len(ds)))
        chosen = np.searchsorted(np.cumsum(ens.weights), uniforms, side="right")
        labels = rows[np.minimum(chosen, len(rows) - 1), np.arange(len(ds))]
        accepted = labels == 1

        result = sample(ens, ds, n_draws, seed, per_instance=True)
        assert result.labels.dtype == labels.dtype
        assert np.array_equal(result.labels, labels)
        assert result.member_indices is None
        for z in (0, 1):
            idx = np.flatnonzero(ds.sensitive == z)
            if idx.size == 0:
                assert result.per_draw_rates[z] is None
                assert result.group_rates[z] is None
                assert result.standard_errors[z] is None
                continue
            rates = accepted[:, idx].mean(axis=1)
            assert np.array_equal(result.per_draw_rates[z], rates)
            assert result.group_rates[z] == float(rates.mean())
            if n_draws > 1:
                stderr = float(rates.std(ddof=1) / np.sqrt(n_draws))
                assert result.standard_errors[z] == stderr
            else:
                assert result.standard_errors[z] is None

    def test_per_instance_mode(self, rng):
        ds, ens = self.small_case(rng)
        result = sample(ens, ds, n_draws=50, seed=3, per_instance=True)
        assert result.member_indices is None
        assert result.per_instance
        assert result.labels.shape == (50, len(ds))
        assert set(np.unique(result.labels)) <= {-1, 1}

    def test_point_mass_is_constant(self, rng):
        ds = make_random_dataset(rng, 10)
        members = make_random_members(rng, ds, 2)
        ens = Ensemble(members, [0.0, 1.0])
        result = sample(ens, ds, n_draws=20, seed=5)
        assert np.all(result.member_indices == 1)
        result = sample(ens, ds, n_draws=20, seed=5, per_instance=True)
        assert np.array_equal(result.labels, np.tile(members[1].predictions, (20, 1)))

    def test_modes_agree_on_marginals(self, rng):
        ds, ens = self.small_case(rng)
        analytic = {
            z: ensemble_group_rate(ens, MetricKind.ACCEPTANCE_RATE, ds, z)
            for z in (0, 1)
        }
        for per_instance in (False, True):
            result = sample(ens, ds, n_draws=4000, seed=11, per_instance=per_instance)
            for z in (0, 1):
                assert result.group_rates[z] == pytest.approx(analytic[z], abs=0.03)

    def test_empty_group_rates_none(self, rng):
        ds = Dataset.from_arrays([[0.0], [1.0]], [1, -1], [0, 0])
        members = make_random_members(rng, ds, 2)
        ens = Ensemble(members, [0.5, 0.5])
        result = sample(ens, ds, n_draws=10, seed=0)
        assert result.group_rates[1] is None
        assert result.standard_errors[1] is None

    def test_single_draw_has_no_standard_error(self, rng):
        ds, ens = self.small_case(rng)
        result = sample(ens, ds, n_draws=1, seed=0)
        assert result.standard_errors[0] is None

    def test_n_draws_validated(self, rng):
        ds, ens = self.small_case(rng)
        with pytest.raises(FairmixError, match="n_draws must be >= 1, got 0"):
            sample(ens, ds, n_draws=0, seed=0)

    @pytest.mark.parametrize("n_draws", [2.5, 3.0, True, np.bool_(True)], ids=repr)
    def test_non_integer_n_draws_rejected(self, rng, n_draws):
        # 2.5 and True used to raise TypeError from the generator
        ds, ens = self.small_case(rng)
        message = f"n_draws must be an integer, got {n_draws!r}"
        with pytest.raises(FairmixError, match=re.escape(message)):
            sample(ens, ds, n_draws=n_draws, seed=0)

    @pytest.mark.parametrize(
        "seed,message",
        [
            (2.5, "seed must be an integer, got 2.5"),
            (True, "seed must be an integer, got True"),
            ("3", "seed must be an integer, got '3'"),
            (-1, "seed must be >= 0, got -1"),
        ],
        ids=repr,
    )
    def test_bad_seed_rejected(self, rng, seed, message):
        # 2.5 and "3" used to raise TypeError and -1 ValueError, from the generator
        ds, ens = self.small_case(rng)
        for per_instance in (False, True):
            with pytest.raises(FairmixError, match=re.escape(message)):
                sample(ens, ds, n_draws=5, seed=seed, per_instance=per_instance)

    def test_seed_stream_unchanged(self, rng):
        ds, ens = self.small_case(rng)
        for seed in (0, np.uint64(7), 2**70):
            result = sample(ens, ds, n_draws=30, seed=seed)
            uniforms = np.random.default_rng(int(seed)).random(30)
            chosen = np.searchsorted(np.cumsum(ens.weights), uniforms, side="right")
            assert result.member_indices.tolist() == np.minimum(chosen, 2).tolist()

    def test_numpy_integer_n_draws_accepted(self, rng):
        ds, ens = self.small_case(rng)
        a = sample(ens, ds, n_draws=np.int32(20), seed=4)
        b = sample(ens, ds, n_draws=20, seed=4)
        assert a.n_draws == 20 and np.array_equal(a.labels, b.labels)

    def test_n_draws_past_the_largest_array_rejected(self, rng):
        ds, ens = self.small_case(rng)
        largest = np.iinfo(np.intp).max
        # past intp.max elements, and past intp.max bytes of 8-byte uniforms,
        # one per draw or one per draw and instance
        for n_draws, limit, per_instance in [
            (largest + 1, largest // 8, False),
            (largest // 8 + 1, largest // 8, False),
            (largest // (8 * len(ds)) + 1, largest // (8 * len(ds)), True),
        ]:
            message = f"n_draws must be at most {limit}, got {n_draws}"
            with pytest.raises(FairmixError, match=message):
                sample(ens, ds, n_draws=n_draws, seed=0, per_instance=per_instance)

    def test_json_records_provenance(self, rng):
        ds, ens = self.small_case(rng)
        doc = sample(ens, ds, n_draws=5, seed=7).to_json_dict()
        assert doc["seed"] == 7
        assert doc["mode"] == "per_draw"
        assert doc["generator"] == GENERATOR_NAME
        assert set(doc["group_rates"]) == {"z0", "z1"}


class TestEnsembleReport:
    def test_report_sections(self, rng):
        ds = Dataset.from_arrays(
            [[1.0], [1.0], [2.0], [2.0]], [1, -1, 1, -1], [0, 1, 1, 0]
        )
        members = make_random_members(rng, ds, 2)
        ens = Ensemble(members, [0.5, 0.5])
        pairs = build_counterfactual_pairs(ds)
        report = ensemble_report(ens, ds, pairs)
        assert report.accuracy == mixture_accuracy(ens, ds)
        assert report.treatment_pairs_checked == len(pairs) == 2
        doc = report.to_json_dict()
        assert "distributional" in doc
        assert doc["distributional"]["extension"] is True

    def test_treatment_uses_profile_not_members(self, rng):
        # two members that each treat twins differently, mixed so the
        # profile is equal across the pair: the ensemble passes
        ds = Dataset.from_arrays([[3.0], [3.0]], [1, 1], [0, 1])
        a = TableClassifier([1, -1], ds)
        b = TableClassifier([-1, 1], ds)
        ens = Ensemble([a, b], [0.5, 0.5])
        pairs = build_counterfactual_pairs(ds)
        report = ensemble_report(ens, ds, pairs)
        assert report.treatment_violations.shape == (0, 2)
        q = acceptance_probability(ens, ds)
        assert q.tolist() == [0.5, 0.5]


class TestTwinTreatment:
    """Each benefit probability is summed in member order, so it depends
    only on the instance's accept set, never on its column."""

    @pytest.mark.parametrize("seed", range(12))
    def test_group_blind_mixture_treats_twins_alike(self, seed):
        # group-blind members give each twin pair the same accept set
        ds, ens = make_grid_ensemble(np.random.default_rng(seed), 3000, 300)
        pairs = twin_pairs(ds)
        q = acceptance_probability(ens, ds)
        assert np.array_equal(q[pairs[:, 0]], q[pairs[:, 1]])
        report = ensemble_report(ens, ds, pairs, tolerance=0.0)
        assert report.treatment_violations.shape == (0, 2)

    @pytest.mark.parametrize("tolerance", [0.0, 1e-9])
    def test_row_permutation_only_renumbers_the_pairs(self, tolerance):
        rng = np.random.default_rng(11)
        for trial in range(40):
            ds, ens = make_grid_ensemble(rng, 300, 40, group_blind=trial % 2 == 0)
            perm = rng.permutation(len(ds))
            shuffled = Dataset.from_arrays(
                ds.features[perm], ds.labels[perm], ds.sensitive[perm]
            )
            expected = ensemble_report(ens, ds, twin_pairs(ds), tolerance).to_json_dict()
            report = ensemble_report(ens, shuffled, twin_pairs(shuffled), tolerance)
            got = report.to_json_dict()
            # row i of the shuffled data is row perm[i] of the original
            pairs = np.sort(perm[report.treatment_violations], axis=1)
            got["treatment"]["pairs"] = pairs[np.lexsort(pairs.T[::-1])] + 1
            for doc in (got, expected):
                doc["treatment"]["pairs"] = doc["treatment"]["pairs"].tolist()
            # every float to the last bit, not only the 12 digits printed
            assert got == expected
