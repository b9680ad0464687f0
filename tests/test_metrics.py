"""Group metrics against exact integer-count oracles.

Every rate in the library is a correctly-rounded ratio of two integer
counts, so the tests here compare against ``fractions.Fraction`` built
from independently recomputed counts — equality is exact, no tolerance.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmix import (
    DataFormatError,
    Dataset,
    Ensemble,
    FairnessReport,
    MetricKind,
    SolveStatus,
    TableClassifier,
    accuracy,
    build_counterfactual_pairs,
    classifier_report,
    closure_check,
    dispersion,
    ensemble_gap,
    ensemble_group_rate,
    ensemble_report,
    fairness_gap,
    group_indices,
    indicator_profile,
    mixture_accuracy,
    sample,
    solve_fair_mixture,
    treatment_violations,
)
from fairmix import metrics as metrics_mod
from fairmix import dataset as dataset_mod
from fairmix.dataset import twin_pairs
from fairmix.errors import FairmixError
from fairmix.metrics import (
    LINEAR_KINDS,
    RATIO_KINDS,
    CellCounts,
    cell_counts,
    cell_index,
    mixture_report,
)
from fairmix.optimizer import best_fair_single_threshold

from conftest import (
    make_random_dataset,
    make_random_members,
    make_three_tenths_gap,
    random_weights,
)


def vector_counts(preds, ds):
    """Cell counts of one prediction vector: a single-row matrix."""
    return cell_counts(preds[None, :] == 1, ds)


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
        counts = vector_counts(preds, ds)
        for kind in MetricKind:
            for z in (0, 1):
                num, den = counts.counts(kind, z)
                assert (int(num[0]), int(den[0])) == oracle_counts(kind, preds, ds, z)

    @settings(max_examples=200)
    @given(dataset_and_predictions())
    def test_rate_is_exact_fraction(self, case):
        ds, preds = case
        counts = vector_counts(preds, ds)
        for kind in MetricKind:
            for z in (0, 1):
                num, den = oracle_counts(kind, preds, ds, z)
                r = counts.rates(kind, z)[0]
                if den == 0:
                    assert np.isnan(r)  # undefined, never 0
                else:
                    assert r == float(Fraction(num, den))

    @settings(max_examples=200)
    @given(dataset_and_predictions())
    def test_acceptance_complement(self, case):
        ds, preds = case
        for z in (0, 1):
            num, den = vector_counts(preds, ds).counts(MetricKind.ACCEPTANCE_RATE, z)
            cnum, cden = vector_counts(-preds, ds).counts(MetricKind.ACCEPTANCE_RATE, z)
            assert cden[0] == den[0]
            assert cnum[0] == den[0] - num[0]

    @settings(max_examples=200)
    @given(dataset_and_predictions())
    def test_accuracy_is_tp_plus_tn(self, case):
        ds, preds = case
        counts = vector_counts(preds, ds)
        correct = 0
        for kind in (MetricKind.TPR, MetricKind.TNR):
            for z in (0, 1):
                correct += int(counts.counts(kind, z)[0][0])
        assert accuracy(preds, ds) == correct / len(ds)


def reference_accepted(accepts, ds):
    """The per-cell boolean-mask count ``cell_counts`` replaced."""
    cell = cell_index(ds)
    return np.stack(
        [np.count_nonzero(accepts[:, cell == k], axis=1) for k in range(4)], axis=1
    )


@st.composite
def accept_matrix_case(draw):
    """A dataset and an (M, N) accept matrix, N on and around byte edges."""
    n = draw(st.sampled_from((1, 7, 8, 9, 63, 64, 65)) | st.integers(1, 300))
    m = draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.choice((-1, 1), size=n)
    sensitive = rng.integers(0, 2, size=n)
    shape = draw(st.sampled_from(("random", "all z0", "empty cell")))
    if shape == "all z0":
        sensitive[:] = 0
    elif shape == "empty cell":
        k = draw(st.integers(0, 3))
        in_k = (2 * sensitive + (labels == 1)) == k
        sensitive[in_k] = 1 - sensitive[in_k]  # moves every member of cell k out
    ds = Dataset.from_arrays(np.zeros((n, 1)), labels, sensitive)
    density = draw(st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0, 1))
    return ds, rng.random((m, n)) < density


class TestCellCountsDifferential:
    @settings(max_examples=300)
    @given(accept_matrix_case())
    def test_matches_per_cell_mask_count(self, case):
        ds, accepts = case
        counts = cell_counts(accepts, ds)
        want = reference_accepted(accepts, ds)
        assert counts.accepted.dtype == np.intp
        assert counts.accepted.shape == want.shape
        assert np.array_equal(counts.accepted, want)
        assert np.array_equal(counts.sizes, np.bincount(cell_index(ds), minlength=4))

    @pytest.mark.parametrize("n", [1, 9, 65])
    def test_per_instance_draws_counted_exactly(self, n):
        rng = np.random.default_rng(n)
        ds = Dataset.from_arrays(
            np.zeros((n, 1)), rng.choice((-1, 1), size=n), rng.integers(0, 2, size=n)
        )
        members = [TableClassifier(rng.choice((-1, 1), size=n), ds) for _ in range(3)]
        result = sample(Ensemble(members, [0.2, 0.3, 0.5]), ds, 257, seed=n, per_instance=True)
        accepts = result.labels == 1  # (draws, N)
        counts = cell_counts(accepts, ds)
        want = reference_accepted(accepts, ds)
        assert counts.accepted.dtype == np.intp
        assert np.array_equal(counts.accepted, want)
        for z in (0, 1):
            size = int(np.sum(ds.sensitive == z))
            if size:
                expected = (want[:, 2 * z] + want[:, 2 * z + 1]) / size
                assert np.array_equal(result.per_draw_rates[z], expected)
            else:
                assert result.per_draw_rates[z] is None


class TestFrozenCounts:
    """A ``CellCounts`` holds read-only copies, so its kept arrays stay true."""

    def counted(self):
        rng = np.random.default_rng(4)
        ds = Dataset.from_arrays(
            np.zeros((40, 1)), rng.choice((-1, 1), size=40), np.arange(40) % 2
        )
        return cell_counts(rng.random((5, 40)) < 0.5, ds)

    def test_arrays_reject_writes(self):
        counts = self.counted()
        for array in (counts.accepted, counts.sizes):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7
            with pytest.raises(ValueError):
                array.setflags(write=True)

    def test_caller_arrays_are_copied_not_frozen(self):
        accepted, sizes = np.array([[1, 2, 3, 4]]), np.array([2, 4, 6, 8])
        counts = CellCounts(accepted, sizes)
        accepted[:] = 0
        sizes[:] = 1  # the caller's arrays stay writeable, and count for nothing
        assert counts.accepted.tolist() == [[1, 2, 3, 4]]
        assert counts.rates(MetricKind.TPR, 1).tolist() == [0.5]

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_repeated_rates_equal_and_read_only(self, kind):
        counts = self.counted()
        for z in (0, 1, np.int64(1)):
            num, den = counts.counts(kind, z)
            for rates in (counts.rates(kind, z), counts.rates(kind, z)):
                assert rates.tobytes() == (num / den).tobytes()
        if kind in LINEAR_KINDS:  # the LP's gap row is kept: computed once per instance
            row = counts._gap_row(kind)
            assert counts._gap_row(kind) is row
            g, d = counts._gap_terms(kind)
            assert row.tolist() == [float(Fraction(int(x), int(y))) for x, y in zip(g, d)]
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 0.5
            with pytest.raises(ValueError):
                row.setflags(write=True)


class TestGroupArgument:
    """A group is the integer 0 or 1, a numpy one included, as ``check_integer``
    reads integers: a bool or a float is rejected, not used as an index."""

    @staticmethod
    def calls():
        ds = Dataset.from_arrays([[0.0], [1.0]], [1, -1], [0, 1])
        member = TableClassifier([1, -1], ds)
        counts = vector_counts(np.array([1, -1]), ds)
        ens = Ensemble([member], [1.0])
        return [
            lambda z: counts.counts(MetricKind.TPR, z),
            lambda z: counts.rates(MetricKind.TPR, z),
            lambda z: group_indices(ds, z),
            lambda z: ensemble_group_rate(ens, MetricKind.TPR, ds, z),
            lambda z: ensemble_group_rate(ens, MetricKind.PPV, ds, z),
            lambda z: dispersion(np.array([0.5, 1.0]), ds).group(z),
        ]

    @pytest.mark.parametrize(
        "z", [1.0, 0.0, True, False, np.float64(1.0), np.True_, np.array(1), "1", None, 2, -1]
    )
    def test_rejected(self, z):
        for call in self.calls():
            with pytest.raises(FairmixError, match=re.escape(f"sensitive value must be 0 or 1, got {z!r}")):
                call(z)

    @pytest.mark.parametrize("z", [np.int8(1), np.uint64(0), np.intp(1)])
    def test_numpy_integers_pass(self, z):
        for call, plain in zip(self.calls(), self.calls()):
            assert repr(call(z)) == repr(plain(int(z)))


class TestPredictionValues:
    """A raw prediction vector is -1 or 1 per instance, as given."""

    @pytest.mark.parametrize("bad", [0, 5, float("nan"), 1.5, "1"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda p, ds: accuracy(p, ds),
            lambda p, ds: fairness_gap(MetricKind.ACCEPTANCE_RATE, p, ds),
            lambda p, ds: classifier_report(p, ds),
            lambda p, ds: indicator_profile(p),
            lambda p, ds: TableClassifier(p, ds),
        ],
        ids=["accuracy", "fairness_gap", "classifier_report", "indicator_profile", "table"],
    )
    def test_invalid_value_rejected(self, call, bad):
        ds = Dataset.from_arrays([[0.0], [1.0], [2.0]], [1, -1, 1], [0, 1, 1])
        with pytest.raises(
            DataFormatError, match="^invalid prediction at row 2: must be -1 or 1$"
        ):
            call([1, bad, -1], ds)

    def test_classifier_report_checks_the_vector_once(self, monkeypatch):
        ds = Dataset.from_arrays([[0.0], [1.0], [2.0]], [1, -1, 1], [0, 1, 1])
        vector, calls = [1, -1, -1], []
        # check_predictions converts the vector as given, in its own module
        for module, name in ((dataset_mod, "_as_given"), (metrics_mod, "check_predictions")):

            def spy(v, real=getattr(module, name), name=name):
                if v is vector:
                    calls.append(name)
                return real(v)

            monkeypatch.setattr(module, name, spy)
        report = classifier_report(vector, ds)
        assert calls == ["check_predictions", "_as_given"]
        assert report.accuracy == 2 / 3

    def test_report_checks_the_tolerance_once(self, monkeypatch):
        ds = Dataset.from_arrays([[0.0], [1.0]], [1, -1], [0, 1])
        calls = []
        real = metrics_mod.check_tolerance
        monkeypatch.setattr(metrics_mod, "check_tolerance", lambda t: calls.append(t) or real(t))
        classifier_report([1, 1], ds, [(0, 1)], 0.25)
        assert calls == [0.25]
        assert treatment_violations([0.0, 1.0], [(0, 1)], 0.5) == [(0, 1)]
        assert calls == [0.25, 0.5]
        for call in (
            lambda: classifier_report([1, 1], ds, [(0, 1)], -1.0),
            lambda: treatment_violations([0.0, 1.0], [(0, 1)], -1.0),
        ):
            with pytest.raises(FairmixError, match=r"^tolerance must be >= 0, got -1\.0$"):
                call()

    def test_valid_values_in_any_numeric_type_accepted(self):
        ds = Dataset.from_arrays([[0.0], [1.0]], [1, -1], [0, 1])
        for preds in ([1, -1], [1.0, -1.0], np.array([1, -1], dtype=np.int8)):
            assert accuracy(preds, ds) == 1.0
            assert indicator_profile(preds).tolist() == [1.0, 0.0]


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
        counts = vector_counts(preds, ds)
        assert counts.rates(MetricKind.ACCEPTANCE_RATE, 0)[0] == 2 / 3
        assert counts.rates(MetricKind.ACCEPTANCE_RATE, 1)[0] == 1 / 2
        assert counts.rates(MetricKind.TPR, 0)[0] == 1.0
        assert counts.rates(MetricKind.TPR, 1)[0] == 0.0
        assert counts.rates(MetricKind.PPV, 0)[0] == 1.0
        assert counts.rates(MetricKind.PPV, 1)[0] == 0.0
        assert counts.rates(MetricKind.NPV, 0)[0] == 1.0
        assert counts.rates(MetricKind.NPV, 1)[0] == 0.0
        assert fairness_gap(MetricKind.ACCEPTANCE_RATE, preds, ds) == 1 / 6

    def test_undefined_rate_gives_none_not_zero(self):
        ds = Dataset.from_arrays([[0.0], [1.0]], [-1, 1], [0, 1])
        preds = np.array([1, 1])
        # group 0 has no positives: TPR undefined there
        counts = vector_counts(preds, ds)
        assert np.isnan(counts.rates(MetricKind.TPR, 0)[0])
        assert counts.rates(MetricKind.TPR, 1)[0] == 1.0
        assert fairness_gap(MetricKind.TPR, preds, ds) is None
        # nothing rejected: NPV undefined on both sides
        assert fairness_gap(MetricKind.NPV, preds, ds) is None

    def test_group_argument_validated(self):
        ds = Dataset.from_arrays([[0.0]], [1], [0])
        with pytest.raises(FairmixError, match="must be 0 or 1"):
            vector_counts(np.array([1]), ds).counts(MetricKind.TPR, 2)

    def test_prediction_length_validated(self):
        ds = Dataset.from_arrays([[0.0]], [1], [0])
        with pytest.raises(FairmixError, match="does not match"):
            fairness_gap(MetricKind.TPR, np.array([1, 1]), ds)
        with pytest.raises(FairmixError, match="does not match"):
            accuracy(np.array([1, 1]), ds)

    @pytest.mark.parametrize(
        "call",
        [
            lambda ds: fairness_gap("tpr", np.ones(3), ds),
            lambda ds: vector_counts(np.ones(3), ds).counts("tpr", 0),
        ],
        ids=["fairness_gap", "counts"],
    )
    def test_kind_that_is_not_a_metric_kind_rejected(self, call):
        ds = Dataset.from_arrays([[0.0], [1.0], [2.0]], [1, -1, 1], [0, 1, 1])
        with pytest.raises(FairmixError, match="metric kind must be a MetricKind, got 'tpr'"):
            call(ds)

    @pytest.mark.parametrize(
        "call",
        [
            lambda ens, ds: ensemble_group_rate(ens, [1], ds, 0),
            lambda ens, ds: ensemble_gap(ens, [1], ds),
            lambda ens, ds: closure_check(ens, [1], ds),
            lambda ens, ds: vector_counts(np.ones(3), ds)._gap_terms([1]),
            lambda ens, ds: vector_counts(np.ones(3), ds).rates([1], 0),
        ],
        ids=["ensemble_group_rate", "ensemble_gap", "closure_check", "gap_terms", "rates"],
    )
    def test_unhashable_kind_rejected(self, call):
        # checked before the set or cache lookup, which would raise TypeError
        ds = Dataset.from_arrays([[0.0], [1.0], [2.0]], [1, -1, 1], [0, 1, 1])
        ens = Ensemble([TableClassifier([1, 1, 1], ds)], [1.0])
        with pytest.raises(FairmixError, match=re.escape("must be a MetricKind, got [1]")):
            call(ens, ds)

    def test_argument_errors_are_fairmix_errors(self):
        ds = Dataset.from_arrays([[0.0], [1.0], [2.0]], [1, -1, 1], [0, 1, 1])
        calls = [
            lambda: accuracy([1, 1], ds),
            lambda: dispersion([0.5, 0.5], ds),
            lambda: group_indices(ds, 2),
            lambda: vector_counts(np.ones(3), ds).counts(MetricKind.TPR, 2),
        ]
        for call in calls:
            with pytest.raises(FairmixError):
                call()


def fraction_mixture(counts, weights, kind):
    """The ``kind`` rates at z=0 and z=1 of the mixture ``weights`` over the
    counted rows, and their gap, each ``float()`` of the exact ``Fraction``: a
    group's rate is the weighted hits over the weighted conditioning set, None
    when that set has weight 0."""
    w = [Fraction(x) for x in weights.tolist()]
    rates = []
    for z in (0, 1):
        hits, size = (sum(x * v for x, v in zip(w, t.tolist())) for t in counts.counts(kind, z))
        rates.append(None if size == 0 else hits / size)
    gap = None if None in rates else rates[0] - rates[1]
    return [None if v is None else float(v) for v in (*rates, gap)]


def as_hex(value):
    return None if value is None else value.hex()


@st.composite
def ratio_case(draw):
    """(M, 4) cell counts and weights; zero weights and empty predicted classes
    (so undefined PPV or NPV) included."""
    m = draw(st.integers(1, 8))
    sizes = np.array(draw(st.lists(st.integers(0, 40), min_size=4, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    accepted = rng.integers(0, sizes + 1, size=(m, 4))
    shape = draw(st.sampled_from(("random", "accept all", "accept none")))
    if shape == "accept all":
        accepted[:] = sizes  # no predicted negatives: NPV undefined
    elif shape == "accept none":
        accepted[:] = 0  # no predicted positives: PPV undefined
    weights = draw(st.lists(st.just(0.0) | st.floats(0, 1), min_size=m, max_size=m))
    return CellCounts(accepted, sizes), np.array(weights)


class TestMixedRatios:
    """Every rate and gap of a mixture of counted rows, read from its exact row."""

    @settings(max_examples=300)
    @given(ratio_case())
    def test_every_rate_and_gap_is_the_rounded_fraction(self, case):
        counts, weights = case
        row = counts._mixture_row(weights)
        for kind in MetricKind:
            got, _ = metrics_mod._mixture_rates(row, kind)
            want = fraction_mixture(counts, weights, kind)
            assert list(map(as_hex, got)) == list(map(as_hex, want)), kind

    def test_undefined_side_gives_none(self):
        counts = CellCounts([[0, 0, 2, 1], [0, 0, 1, 1]], [3, 2, 4, 2])
        row = counts._mixture_row(np.array([0.25, 0.75]))
        (r0, r1, gap), _ = metrics_mod._mixture_rates(row, MetricKind.PPV)
        assert r0 is None
        assert r1 == (0.25 + 0.75) / (0.75 + 1.5)
        assert gap is None


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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_direct_loop(self, data):
        # quarters are exact in binary, so many gaps equal the tolerance
        n = data.draw(st.integers(min_value=2, max_value=10), label="n")
        q = data.draw(
            st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=n, max_size=n)
        )
        index = st.integers(min_value=0, max_value=n - 1)
        pairs = sorted(
            (i, j)
            for i, j in data.draw(st.lists(st.tuples(index, index), max_size=20))
            if i < j
        )
        tolerance = data.draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]), label="tol")
        expected = []
        for i, j in pairs:
            if abs(q[i] - q[j]) > tolerance:
                expected.append((i, j))
        assert treatment_violations(np.array(q), pairs, tolerance) == expected

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_report_on_twin_array_matches_all_pairs_loop(self, data):
        # few distinct features, so rows repeat and 0.0 and -0.0 are twins;
        # quarters are exact in binary, so many gaps equal the tolerance
        n = data.draw(st.integers(min_value=1, max_value=12), label="n")
        d = data.draw(st.integers(min_value=1, max_value=3), label="d")
        value = st.sampled_from([0.0, -0.0, 1.5])
        features = data.draw(
            st.lists(st.lists(value, min_size=d, max_size=d), min_size=n, max_size=n)
        )
        z = data.draw(st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n))
        q = data.draw(
            st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=n, max_size=n)
        )
        tolerance = data.draw(st.sampled_from([0.0, 0.25, 0.5, math.inf]), label="tol")
        ds = Dataset.from_arrays(features, [1] * n, z)
        twins = [
            [i, j]
            for i in range(n)
            for j in range(i + 1, n)
            if features[i] == features[j] and z[i] != z[j]
        ]
        expected = [[i, j] for i, j in twins if abs(q[i] - q[j]) > tolerance]

        pairs = twin_pairs(ds)
        assert pairs.dtype == np.intp and pairs.shape == (len(twins), 2)
        assert pairs.tolist() == twins
        counts = cell_counts(np.ones((1, n), dtype=bool), ds)
        for given_pairs in (pairs, build_counterfactual_pairs(ds)):
            report = mixture_report(counts, np.ones(1), np.array(q), given_pairs, tolerance)
            violations = report.treatment_violations
            assert violations.dtype == np.intp and violations.shape == (len(expected), 2)
            assert violations.tolist() == expected
            assert not violations.flags.writeable
            assert report.treatment_pairs_checked == len(twins)

    def test_deterministic_disagreement_always_violates(self):
        ds = Dataset.from_arrays([[7.0], [7.0]], [1, 1], [0, 1])
        pairs = build_counterfactual_pairs(ds)
        q = indicator_profile(np.array([1, -1]))
        assert treatment_violations(q, pairs) == pairs

    @pytest.mark.parametrize("tolerance", [float("nan"), -1])
    def test_nan_or_negative_tolerance_rejected(self, tolerance):
        # NaN would pass no pair and -1 would flag every pair
        ds = Dataset.from_arrays([[7.0], [7.0]], [1, 1], [0, 1])
        pairs = build_counterfactual_pairs(ds)
        preds = np.array([1, -1])
        message = f"tolerance must be >= 0, got {tolerance!r}"
        with pytest.raises(FairmixError, match=re.escape(message)):
            treatment_violations(indicator_profile(preds), pairs, tolerance)
        with pytest.raises(FairmixError, match=re.escape(message)):
            mixture_report(
                vector_counts(preds, ds), np.ones(1), indicator_profile(preds), pairs,
                tolerance,
            )
        with pytest.raises(FairmixError, match=re.escape(message)):
            classifier_report(preds, ds, pairs, tolerance)

    @pytest.mark.parametrize(
        "pairs, bad",
        [
            ([(0, 1, 2), (3, 4, 5)], "(0, 1, 2)"),
            ([(0, 1), (2,)], "(2,)"),
            ([(-1, 0)], "(-1, 0)"),
            ([(0, 1), (2, 6)], "(2, 6)"),
            ([(0.0, 1.0)], "(0.0, 1.0)"),
            ([(True, False)], "(True, False)"),
            ([0, 1], "0"),
            ([(0, 1), "ab"], "'ab'"),
            ([(0, 2**64)], f"(0, {2**64})"),
            ([(True, 1)], "(True, 1)"),
            ([(0, 1), (np.True_, 1)], "(np.True_, 1)"),
            ([(0, "1")], "(0, '1')"),
            ([(None, 1)], "(None, 1)"),
            ([(0, 1), (1j, 1)], "(1j, 1)"),
        ],
        ids=["triples", "ragged", "negative", "past-end", "floats", "bools",
             "flat", "string", "huge", "bool-and-int", "numpy-bool-and-int", "numeric-string",
             "none", "complex"],
    )
    def test_malformed_pairs_rejected(self, pairs, bad):
        # each of these used to be read as some other pair of rows
        q = [0, 1, 0, 1, 0, 1]
        message = f"invalid twin pair {bad}: must be two integer row indices in [0, 6)"
        with pytest.raises(FairmixError, match=re.escape(message)):
            treatment_violations(q, pairs)

    @pytest.mark.parametrize(
        "pairs",
        [
            [],
            np.empty((0, 2), dtype=int),
            [(0, 1), (2, 4)],
            np.array([[0, 1], [2, 4]], dtype=np.uint8),
        ],
        ids=["empty", "empty-array", "tuples", "uint8-array"],
    )
    def test_integer_pairs_accepted(self, pairs):
        q = [0, 1, 0, 1, 0, 1]
        expected = [(0, 1)] if len(pairs) else []
        got = treatment_violations(q, pairs)
        assert [(int(i), int(j)) for i, j in got] == expected

    def test_pairs_without_a_common_integer_type_rejected(self):
        # each pair is valid, but uint64 and int64 join only as float64
        q = [0, 1, 0, 1, 0, 1]
        pairs = [(0, 1), (np.uint64(2), np.uint64(4))]
        with pytest.raises(FairmixError, match="do not form one integer array"):
            treatment_violations(q, pairs)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_profile_rejected(self, bad):
        # NaN and inf - inf compare false against any tolerance, so they passed
        ds = Dataset.from_arrays([[7.0], [7.0]], [1, 1], [0, 1])
        pairs = build_counterfactual_pairs(ds)
        message = "non-finite benefit probability at row {}"
        with pytest.raises(FairmixError, match=message.format(1)):
            treatment_violations([bad, bad], pairs)
        with pytest.raises(FairmixError, match=message.format(2)):
            treatment_violations([0.5, bad], pairs)
        with pytest.raises(FairmixError, match=message.format(2)):
            mixture_report(
                vector_counts(np.array([1, 1]), ds), np.ones(1), [0.5, bad], pairs, 1e-9
            )

    def test_infinite_tolerance_passes_every_pair(self):
        ds = Dataset.from_arrays([[7.0], [7.0]], [1, 1], [0, 1])
        pairs = build_counterfactual_pairs(ds)
        preds = np.array([1, -1])
        assert treatment_violations(indicator_profile(preds), pairs, float("inf")) == []
        report = classifier_report(preds, ds, pairs, float("inf"))
        assert report.treatment_violations.shape == (0, 2)


class TestReport:
    def make(self) -> FairnessReport:
        ds = Dataset.from_arrays(
            [[1.0], [1.0], [2.0]], [1, -1, 1], [0, 1, 1]
        )
        preds = np.array([1, -1, 1])
        return classifier_report(preds, ds, build_counterfactual_pairs(ds))

    def test_metric_lookup(self):
        # one entry per kind, in MetricKind order
        report = self.make()
        assert [m.kind for m in report.metrics] == list(MetricKind)
        assert report.metrics[0].value_z0 == 1.0

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
        assert doc["treatment"]["pairs"].tolist() == [[1, 2]]
        assert doc["treatment"]["violations"] == 1

    def test_undefined_metric_unassessed(self):
        # no rejections anywhere: NPV has empty conditioning sets
        ds = Dataset.from_arrays([[0.0], [1.0]], [1, 1], [0, 1])
        report = classifier_report(np.array([1, 1]), ds)
        (npv,) = [m for m in report.metrics if m.kind is MetricKind.NPV]
        assert npv.value_z0 is None and npv.value_z1 is None
        assert npv.gap is None and npv.passed is None
        doc = npv.to_json_dict()
        assert doc["pass"] is None


def reference_tolerance(tolerance):
    """The tolerance as every gap verdict reads it: the shortest decimal that
    parses back to the float, capped at 1."""
    return min(Fraction(repr(float(tolerance))), 1)


#: per kind, (in the conditioning set, a hit) from (accepted, label)
CONDITIONS = {
    MetricKind.ACCEPTANCE_RATE: lambda acc, y: (True, acc),
    MetricKind.TPR: lambda acc, y: (y == 1, acc),
    MetricKind.TNR: lambda acc, y: (y == -1, not acc),
    MetricKind.PPV: lambda acc, y: (acc, y == 1),
    MetricKind.NPV: lambda acc, y: (not acc, y == -1),
}


def reference_weights(weights):
    """Each weight as the binary fraction it is, normalised to sum 1."""
    w = [Fraction(x) for x in weights]
    return [x / sum(w) for x in w]


def reference_rates(rows, weights, ds, kind):
    """The ``kind`` rates at z=0 and z=1 of the mixture ``weights`` over the
    +-1 prediction ``rows``, in plain ``Fraction``s from the instances: a
    group's rate is the weighted hits over the weighted conditioning set,
    None when that set is empty."""
    rates = []
    for z in (0, 1):
        hits = size = Fraction(0)
        for wj, row in zip(reference_weights(weights), rows):
            for p, y, g in zip(row, ds.labels.tolist(), ds.sensitive.tolist()):
                cond, hit = CONDITIONS[kind](p == 1, y)
                if g == z and cond:
                    size += wj
                    hits += wj * hit
        rates.append(None if size == 0 else hits / size)
    return rates


def reference_gap(rows, weights, ds, kind):
    """The ``kind`` gap of the mixture, from :func:`reference_rates`; None
    when either rate is undefined."""
    r0, r1 = reference_rates(rows, weights, ds, kind)
    return None if r0 is None or r1 is None else r0 - r1


def reference_printed(rows, weights, ds):
    """What a report on the mixture must print: per kind (value_z0, value_z1,
    gap), then the accuracy, each the exact ``Fraction`` correctly rounded by
    ``float()``, None where undefined."""
    values = {}
    for kind in MetricKind:
        r0, r1 = reference_rates(rows, weights, ds, kind)
        gap = None if r0 is None or r1 is None else r0 - r1
        values[kind] = tuple(None if v is None else float(v) for v in (r0, r1, gap))
    labels = ds.labels.tolist()
    correct = [sum(p == y for p, y in zip(row, labels)) for row in rows]
    acc = sum(wj * c for wj, c in zip(reference_weights(weights), correct)) / len(labels)
    return values, float(acc)


def printed(report):
    """A report's printed numbers, in the shape of :func:`reference_printed`."""
    return {e.kind: (e.value_z0, e.value_z1, e.gap) for e in report.metrics}, report.accuracy


def reference_pass(gap, tolerance):
    return None if gap is None else abs(gap) <= reference_tolerance(tolerance)


def reference_rules(ds):
    """Every threshold rule on feature 0, as (threshold, direction, exact
    acceptance-rate gap, correct count), smaller thresholds first, "+"
    before "-"."""
    x = ds.features[:, 0].tolist()
    values = sorted(set(x))
    rules = []
    for t in [values[0] - 1.0, *values, values[-1] + 1.0]:
        for direction in "+-":
            rule = [1 if (v >= t if direction == "+" else v <= t) else -1 for v in x]
            gap = reference_gap([rule], [1.0], ds, MetricKind.ACCEPTANCE_RATE)
            correct = sum(p == y for p, y in zip(rule, ds.labels.tolist()))
            rules.append((t, direction, gap, correct))
    return rules


def reference_sweep(rules, tolerance):
    """(threshold, direction) of the first most accurate rule that passes, or None."""
    fair = [r for r in rules if reference_pass(r[2], tolerance)]
    return max(fair, key=lambda r: r[3])[:2] if fair else None  # max keeps the first


class TestExactVerdicts:
    TOLERANCES = (0.0, 1e-9, 0.01, 0.3)

    def test_reports_and_sweep_match_fraction_reference(self):
        # weights are small integer ratios, so exact-zero mixture gaps occur;
        # a float r0 - r1 can read -5.55e-17 for one of them, or
        # 0.30000000000000004 for an exact 3/10. Every verdict and every
        # printed number is checked, and so are the ensemble accessors,
        # closure_check and the solver's numbers: each is the exact value
        # correctly rounded
        rng = np.random.default_rng(5)
        exact_zeros = 0
        for _ in range(100):
            ds = make_random_dataset(rng, 30)
            m = int(rng.integers(2, 5))
            members = make_random_members(rng, ds, m)
            a = rng.integers(1, 5, size=m)
            weights = a / a.sum()
            rows = [member.predictions.tolist() for member in members]
            member_gaps = [
                {k: reference_gap([row], [1.0], ds, k) for k in MetricKind} for row in rows
            ]
            member_printed = [reference_printed([row], [1.0], ds) for row in rows]
            mixture_gaps = {k: reference_gap(rows, weights, ds, k) for k in MetricKind}
            mixture_printed = reference_printed(rows, weights, ds)
            exact_zeros += list(mixture_gaps.values()).count(0)
            ens, rules = Ensemble(members, weights), reference_rules(ds)
            for member, want in zip(members, member_printed):
                for kind in MetricKind:
                    assert fairness_gap(kind, member.predictions, ds) == want[0][kind][2]
            for kind in MetricKind:
                r0, r1, gap = mixture_printed[0][kind]
                assert [ensemble_group_rate(ens, kind, ds, z) for z in (0, 1)] == [r0, r1]
                assert ensemble_gap(ens, kind, ds) == gap
                gaps = [g[kind] for g in member_gaps]
                weighted = None if None in gaps else float(
                    sum(w * g for w, g in zip(reference_weights(weights), gaps))
                )
                closure = closure_check(ens, kind, ds)
                assert (closure.ensemble_gap, closure.weighted_member_gap_sum) == (gap, weighted)
            assert mixture_accuracy(ens, ds) == mixture_printed[1]
            for tol in self.TOLERANCES:
                for member, gaps, want in zip(members, member_gaps, member_printed):
                    report = classifier_report(member.predictions, ds, tolerance=tol)
                    for entry in report.metrics:
                        assert entry.passed is reference_pass(gaps[entry.kind], tol), tol
                    assert printed(report) == want
                report = ensemble_report(ens, ds, tolerance=tol)
                for entry in report.metrics:
                    want = reference_pass(mixture_gaps[entry.kind], tol)
                    assert entry.passed is want, (weights.tolist(), entry.kind, tol)
                assert printed(report) == mixture_printed, weights.tolist()
                rule = best_fair_single_threshold(ds, 0, tol)
                got = None if rule is None else (rule.threshold, rule.direction)
                assert got == reference_sweep(rules, tol), tol
                if rule is not None:
                    gaps = {r[:2]: r[2] for r in rules}
                    assert rule.gap == float(gaps[got]), tol
                try:
                    sol = solve_fair_mixture(members, ds, LINEAR_KINDS, tol)
                except FairmixError as exc:  # a float vertex past tol + 1e-9 (ROADMAP item 4)
                    assert tol == 1e-9 and "violating" in str(exc)
                    continue
                if sol.status is SolveStatus.OPTIMAL:
                    values, acc = reference_printed(rows, sol.weights, ds)
                    assert sol.accuracy == acc, tol
                    assert sol.gaps == {k: values[k][2] for k in LINEAR_KINDS}, tol
                    assert sol.post_hoc_gaps == {k: values[k][2] for k in RATIO_KINDS}, tol
        assert exact_zeros >= 5

    def test_gap_of_exactly_three_tenths(self):
        # 0.4 - 0.1 is 0.30000000000000004 as floats; the report reads 3/10
        ds, member = make_three_tenths_gap()
        at = {
            tol: classifier_report(member.predictions, ds, tolerance=tol).metrics[0]
            for tol in (0.3, 0.2999999999995)
        }
        assert at[0.3].kind is MetricKind.ACCEPTANCE_RATE
        assert at[0.3].gap == 0.3
        assert at[0.3].passed is True
        assert at[0.2999999999995].passed is False

    def test_member_split_leaves_the_report_unchanged(self):
        # a member split into two adjacent copies, each with half its weight,
        # is the same exact mixture, so every printed rate, gap, accuracy and
        # pass is byte-equal. The treatment block and the dispersion read the
        # float benefit profile, whose sums do change, so they are outside
        # the relation
        rng = np.random.default_rng(7)
        for _ in range(300):
            ds = make_random_dataset(rng, 40)
            m = int(rng.integers(2, 6))
            members = make_random_members(rng, ds, m)
            weights = random_weights(rng, m).tolist()
            j = int(rng.integers(m))
            split_members = members[:j] + [members[j]] + members[j:]
            split_weights = weights[:j] + [weights[j] / 2] * 2 + weights[j + 1:]
            docs = [
                ensemble_report(Ensemble(ms, ws), ds, tolerance=0.0).to_json_dict()
                for ms, ws in ((members, weights), (split_members, split_weights))
            ]
            got, want = (repr((d["metrics"], d["accuracy"])) for d in docs)
            assert got == want, (weights, j)
