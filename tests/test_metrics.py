"""Group metrics against exact integer-count oracles.

Every rate in the library is a correctly-rounded ratio of two integer
counts, so the tests here compare against ``fractions.Fraction`` built
from independently recomputed counts — equality is exact, no tolerance.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmix import (
    Dataset,
    FairnessReport,
    MetricKind,
    accuracy,
    build_counterfactual_pairs,
    classifier_report,
    fairness_gap,
    group_rate,
    indicator_profile,
    rate_counts,
    treatment_violations,
)
from fairmix.metrics import LINEAR_KINDS, RATIO_KINDS


@st.composite
def dataset_and_predictions(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    labels = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    sensitive = draw(st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n))
    preds = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    features = [[float(i)] for i in range(n)]
    return Dataset.from_arrays(features, labels, sensitive), np.array(preds)


def oracle_counts(kind, preds, ds, z):
    """Recount from scratch, one instance at a time."""
    num = den = 0
    for p, label, sensitive in zip(
        preds.tolist(), ds.labels.tolist(), ds.sensitive.tolist()
    ):
        if kind is MetricKind.ACCEPTANCE_RATE:
            in_set, hit = sensitive == z, p == 1
        elif kind is MetricKind.TPR:
            in_set, hit = sensitive == z and label == 1, p == 1
        elif kind is MetricKind.TNR:
            in_set, hit = sensitive == z and label == -1, p == -1
        elif kind is MetricKind.PPV:
            in_set, hit = sensitive == z and p == 1, label == 1
        else:
            in_set, hit = sensitive == z and p == -1, label == -1
        if in_set:
            den += 1
            if hit:
                num += 1
    return num, den


class TestCounts:
    @settings(max_examples=200)
    @given(dataset_and_predictions())
    def test_counts_match_instance_level_oracle(self, case):
        ds, preds = case
        for kind in MetricKind:
            for z in (0, 1):
                assert rate_counts(kind, preds, ds, z) == oracle_counts(
                    kind, preds, ds, z
                )

    @settings(max_examples=200)
    @given(dataset_and_predictions())
    def test_rate_is_exact_fraction(self, case):
        ds, preds = case
        for kind in MetricKind:
            for z in (0, 1):
                num, den = rate_counts(kind, preds, ds, z)
                r = group_rate(kind, preds, ds, z)
                if den == 0:
                    assert r is None
                else:
                    assert r == float(Fraction(num, den))

    @settings(max_examples=200)
    @given(dataset_and_predictions())
    def test_acceptance_complement(self, case):
        ds, preds = case
        for z in (0, 1):
            num, den = rate_counts(MetricKind.ACCEPTANCE_RATE, preds, ds, z)
            cnum, cden = rate_counts(MetricKind.ACCEPTANCE_RATE, -preds, ds, z)
            assert cden == den
            assert cnum == den - num

    @settings(max_examples=200)
    @given(dataset_and_predictions())
    def test_accuracy_is_tp_plus_tn(self, case):
        ds, preds = case
        correct = 0
        for kind in (MetricKind.TPR, MetricKind.TNR):
            for z in (0, 1):
                correct += rate_counts(kind, preds, ds, z)[0]
        assert accuracy(preds, ds) == correct / len(ds)


class TestGap:
    @settings(max_examples=200)
    @given(dataset_and_predictions())
    def test_gap_negates_under_group_swap(self, case):
        ds, preds = case
        swapped = Dataset.from_arrays(ds.features, ds.labels, 1 - ds.sensitive)
        for kind in MetricKind:
            g = fairness_gap(kind, preds, ds)
            gs = fairness_gap(kind, preds, swapped)
            if g is None:
                assert gs is None
            else:
                assert gs == -g

    def test_gap_convention_sign(self):
        # group 0 accepts everyone, group 1 no one: gap is +1
        ds = Dataset.from_arrays([[0.0], [1.0]], [1, -1], [0, 1])
        preds = np.array([1, -1])
        assert fairness_gap(MetricKind.ACCEPTANCE_RATE, preds, ds) == 1.0

    def test_worked_example(self):
        # group 0: 2 of 3 accepted, both accepted are positive
        # group 1: 1 of 2 accepted, the accepted one is negative
        ds = Dataset.from_arrays(
            [[0.0], [1.0], [2.0], [3.0], [4.0]],
            [1, 1, -1, -1, 1],
            [0, 0, 0, 1, 1],
        )
        preds = np.array([1, 1, -1, 1, -1])
        assert group_rate(MetricKind.ACCEPTANCE_RATE, preds, ds, 0) == 2 / 3
        assert group_rate(MetricKind.ACCEPTANCE_RATE, preds, ds, 1) == 1 / 2
        assert group_rate(MetricKind.TPR, preds, ds, 0) == 1.0
        assert group_rate(MetricKind.TPR, preds, ds, 1) == 0.0
        assert group_rate(MetricKind.PPV, preds, ds, 0) == 1.0
        assert group_rate(MetricKind.PPV, preds, ds, 1) == 0.0
        assert group_rate(MetricKind.NPV, preds, ds, 0) == 1.0
        assert group_rate(MetricKind.NPV, preds, ds, 1) == 0.0
        assert fairness_gap(MetricKind.ACCEPTANCE_RATE, preds, ds) == 2 / 3 - 1 / 2

    def test_undefined_rate_gives_none_not_zero(self):
        ds = Dataset.from_arrays([[0.0], [1.0]], [-1, 1], [0, 1])
        preds = np.array([1, 1])
        # group 0 has no positives: TPR undefined there
        assert group_rate(MetricKind.TPR, preds, ds, 0) is None
        assert group_rate(MetricKind.TPR, preds, ds, 1) == 1.0
        assert fairness_gap(MetricKind.TPR, preds, ds) is None
        # nothing rejected: NPV undefined on both sides
        assert fairness_gap(MetricKind.NPV, preds, ds) is None

    def test_group_argument_validated(self):
        ds = Dataset.from_arrays([[0.0]], [1], [0])
        with pytest.raises(ValueError, match="must be 0 or 1"):
            group_rate(MetricKind.TPR, np.array([1]), ds, 2)

    def test_prediction_length_validated(self):
        ds = Dataset.from_arrays([[0.0]], [1], [0])
        with pytest.raises(ValueError, match="does not match"):
            group_rate(MetricKind.TPR, np.array([1, 1]), ds, 0)


class TestKindTaxonomy:
    def test_partition(self):
        assert LINEAR_KINDS | RATIO_KINDS == frozenset(MetricKind)
        assert not LINEAR_KINDS & RATIO_KINDS

    def test_string_form(self):
        assert str(MetricKind.ACCEPTANCE_RATE) == "acceptance_rate"
        assert MetricKind("ppv") is MetricKind.PPV


class TestTreatment:
    def test_indicator_profile(self):
        assert indicator_profile(np.array([1, -1, 1])).tolist() == [1.0, 0.0, 1.0]

    def test_tolerance_is_inclusive(self):
        ds = Dataset.from_arrays([[7.0], [7.0]], [1, 1], [0, 1])
        pairs = build_counterfactual_pairs(ds)
        assert len(pairs) == 1
        # 0.25 is a power of two, so the difference is exactly the tolerance
        q = np.array([0.5, 0.75])
        assert treatment_violations(q, pairs, tolerance=0.25) == []
        assert treatment_violations(q, pairs, tolerance=0.249) == pairs

    def test_deterministic_disagreement_always_violates(self):
        ds = Dataset.from_arrays([[7.0], [7.0]], [1, 1], [0, 1])
        pairs = build_counterfactual_pairs(ds)
        q = indicator_profile(np.array([1, -1]))
        assert treatment_violations(q, pairs) == pairs


class TestReport:
    def make(self) -> FairnessReport:
        ds = Dataset.from_arrays(
            [[1.0], [1.0], [2.0]], [1, -1, 1], [0, 1, 1]
        )
        preds = np.array([1, -1, 1])
        return classifier_report(preds, ds, build_counterfactual_pairs(ds))

    def test_metric_lookup(self):
        report = self.make()
        assert report.metric(MetricKind.ACCEPTANCE_RATE).value_z0 == 1.0
        with pytest.raises(KeyError):
            report.metric("nope")

    def test_json_shape(self):
        doc = self.make().to_json_dict()
        assert doc["gap_convention"] == "value_z0 - value_z1"
        assert doc["accuracy"] == 1.0
        assert len(doc["metrics"]) == 5
        entry = doc["metrics"][0]
        assert set(entry) == {"kind", "value_z0", "value_z1", "gap", "pass"}

    def test_violation_pairs_one_based(self):
        report = self.make()
        assert report.treatment_pairs_checked == 1
        doc = report.to_json_dict()
        assert doc["treatment"]["pairs"] == [[1, 2]]
        assert doc["treatment"]["violations"] == 1

    def test_undefined_metric_unassessed(self):
        # no rejections anywhere: NPV has empty conditioning sets
        ds = Dataset.from_arrays([[0.0], [1.0]], [1, 1], [0, 1])
        report = classifier_report(np.array([1, 1]), ds)
        npv = report.metric(MetricKind.NPV)
        assert npv.value_z0 is None and npv.value_z1 is None
        assert npv.gap is None and npv.passed is None
        doc = npv.to_json_dict()
        assert doc["pass"] is None
