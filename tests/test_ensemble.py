"""Ensemble analytics against exact rational oracles, plus the sampler.

The analytic formulas are float implementations of rational quantities:
weighted averages of count ratios (linear kinds) and ratios of weighted
counts (PPV/NPV). The oracles below recount every member from the raw
label, group and prediction arrays, one instance at a time, and redo
both formulas in ``Fraction`` arithmetic over the exact rational values
of the float weights. They share no code with the cell-count core.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmix import (
    Ensemble,
    FairmixError,
    MetricKind,
    acceptance_probability,
    closure_check,
    ensemble_gap,
    ensemble_group_rate,
    ensemble_report,
    member_counts,
    mixture_accuracy,
    sample,
    uniform_ensemble,
)
from fairmix import Dataset, TableClassifier, build_counterfactual_pairs
from fairmix.ensemble import GENERATOR_NAME

from conftest import make_random_dataset, make_random_members, random_weights


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
        with pytest.raises(FairmixError, match="non-finite or negative weight"):
            Ensemble(members, [bad, 0.5, 0.5])

    def test_weights_read_only_copy(self, rng):
        ds = make_random_dataset(rng, 8)
        members = make_random_members(rng, ds, 2)
        w = np.array([0.25, 0.75])
        ens = Ensemble(members, w)
        w[0] = 0.9
        assert ens.weights[0] == 0.25
        with pytest.raises(ValueError):
            ens.weights[0] = 0.5

    def test_uniform(self, rng):
        ds = make_random_dataset(rng, 8)
        ens = uniform_ensemble(make_random_members(rng, ds, 4))
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
        ds = make_random_dataset(rng, 16)
        members = make_random_members(rng, ds, 3)
        ens = Ensemble(members, random_weights(rng, 3))
        for kind in MetricKind:
            r0 = ensemble_group_rate(ens, kind, ds, 0)
            r1 = ensemble_group_rate(ens, kind, ds, 1)
            g = ensemble_gap(ens, kind, ds)
            if r0 is None or r1 is None:
                assert g is None
            else:
                assert g == r0 - r1

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
        assert report.to_json_dict()["kind"] == "ppv"


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
        with pytest.raises(ValueError, match="n_draws"):
            sample(ens, ds, n_draws=0, seed=0)

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
        assert report.treatment_violations == ()
        q = acceptance_probability(ens, ds)
        assert q.tolist() == [0.5, 0.5]
