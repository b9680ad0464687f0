"""The contract of fairmix's 19 frozen records.

Each record is built by position and by keyword, printed, compared,
hashed, assigned to, pickled and copied. The result records do not check
the types of their fields (only ``LinearClassifier`` and ``CellCounts``
convert theirs), so most examples hold small hashable values, which lets
``hash`` be checked field by field. The four model objects (``Dataset``,
``TableClassifier``, ``Ensemble`` and ``LinearProgram``) check and
convert every field, so theirs hold arrays.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

import fairmix
from fairmix.classifiers import LinearClassifier, TableClassifier
from fairmix.dataset import Dataset
from fairmix.distributional import DispersionReport, GroupDispersion
from fairmix.ensemble import ClosureReport, Ensemble, SampleResult
from fairmix.metrics import CellCounts, FairnessReport, GroupMetric, MetricKind
from fairmix.optimizer import (
    GridOracleResult,
    MixtureSolution,
    Objective,
    PPVWitness,
    ThresholdRule,
)
from fairmix.scenarios import Scenario, ScenarioCheck
from fairmix.simplex import LinearProgram, SimplexResult, SolveStatus

_GD = GroupDispersion(0.5, 0.25, None, 1.0)
_GD_REPR = "GroupDispersion(mean_q=0.5, variance_q=0.25, gini_q=None, determinism_index=1.0)"
_GM = GroupMetric(MetricKind.TPR, 0.5, 0.25, 0.25, True)
_GM_REPR = (
    "GroupMetric(kind=<MetricKind.TPR: 'tpr'>, value_z0=0.5, value_z1=0.25, "
    "gap=0.25, passed=True)"
)
_RULE = LinearClassifier((1.0,), 0.0, -1.5)
_RULE_REPR = "LinearClassifier(weights=(1.0,), sensitive_weight=0.0, bias=-1.5)"
_DS = Dataset([[0.0, 1.5]], [1], [0])
_DS_REPR = "Dataset(features=array([[0. , 1.5]]), labels=array([1]), sensitive=array([0]))"

#: (record, the field names in order, positional arguments, its repr)
RECORDS = [
    (
        LinearClassifier,
        ("weights", "sensitive_weight", "bias"),
        ((1, 2.5), -1, 0.5),
        "LinearClassifier(weights=(1.0, 2.5), sensitive_weight=-1, bias=0.5)",
    ),
    (
        GroupDispersion,
        ("mean_q", "variance_q", "gini_q", "determinism_index"),
        (0.5, 0.25, None, 1.0),
        _GD_REPR,
    ),
    (
        DispersionReport,
        ("group_z0", "group_z1"),
        (_GD, GroupDispersion(None, None, None, None)),
        f"DispersionReport(group_z0={_GD_REPR}, group_z1=GroupDispersion(mean_q=None, "
        "variance_q=None, gini_q=None, determinism_index=None))",
    ),
    (
        ClosureReport,
        ("kind", "linear", "ensemble_gap", "weighted_member_gap_sum"),
        (MetricKind.PPV, False, 0.1, None),
        "ClosureReport(kind=<MetricKind.PPV: 'ppv'>, linear=False, ensemble_gap=0.1, "
        "weighted_member_gap_sum=None)",
    ),
    (
        SampleResult,
        ("member_indices", "per_draw_rates", "group_rates", "standard_errors", "n_draws",
         "seed", "per_instance", "generator", "_rows"),
        ((0, 1), (0.5,), (0.25, 0.75), (0.1, 0.2), 2, 7, False, "PCG64", ((1, -1),)),
        "SampleResult(member_indices=(0, 1), per_draw_rates=(0.5,), group_rates=(0.25, 0.75), "
        "standard_errors=(0.1, 0.2), n_draws=2, seed=7, per_instance=False, "
        "generator='PCG64', _rows=((1, -1),))",
    ),
    (
        CellCounts,
        ("accepted", "sizes"),
        ([[1, 2, 3, 4]], [2, 3, 4, 5]),
        "CellCounts(accepted=array([[1, 2, 3, 4]]), sizes=array([2, 3, 4, 5]))",
    ),
    (
        GroupMetric,
        ("kind", "value_z0", "value_z1", "gap", "passed"),
        (MetricKind.TPR, 0.5, 0.25, 0.25, True),
        _GM_REPR,
    ),
    (
        FairnessReport,
        ("accuracy", "metrics", "treatment_pairs_checked", "treatment_violations",
         "tolerance", "distributional"),
        (0.75, (_GM,), 3, (), 1e-9, None),
        f"FairnessReport(accuracy=0.75, metrics=({_GM_REPR},), treatment_pairs_checked=3, "
        "treatment_violations=(), tolerance=1e-09, distributional=None)",
    ),
    (
        MixtureSolution,
        ("status", "weights", "accuracy", "gaps", "post_hoc_gaps", "objective", "tolerance",
         "iterations"),
        (SolveStatus.OPTIMAL, (0.5, 0.5), 0.75, (0.0,), (None,), Objective.MAX_ACCURACY,
         0.01, 7),
        "MixtureSolution(status=<SolveStatus.OPTIMAL: 'optimal'>, weights=(0.5, 0.5), "
        "accuracy=0.75, gaps=(0.0,), post_hoc_gaps=(None,), "
        "objective=<Objective.MAX_ACCURACY: 'max_accuracy'>, tolerance=0.01, iterations=7)",
    ),
    (
        GridOracleResult,
        ("weights", "accuracy", "feasible_count", "resolution"),
        ((0.5, 0.5), 0.75, 12, 10),
        "GridOracleResult(weights=(0.5, 0.5), accuracy=0.75, feasible_count=12, resolution=10)",
    ),
    (
        ThresholdRule,
        ("threshold", "direction", "accuracy", "gap", "classifier"),
        (1.5, "+", 0.75, 0.0, _RULE),
        f"ThresholdRule(threshold=1.5, direction='+', accuracy=0.75, gap=0.0, "
        f"classifier={_RULE_REPR})",
    ),
    (
        PPVWitness,
        ("dataset", "members", "weights", "member_gaps", "ensemble_gap", "seed", "trial_index"),
        ("d", ("a", "b"), (0.5, 0.5), (0.0, 0.0), 0.1, 0, 3),
        "PPVWitness(dataset='d', members=('a', 'b'), weights=(0.5, 0.5), "
        "member_gaps=(0.0, 0.0), ensemble_gap=0.1, seed=0, trial_index=3)",
    ),
    (
        Scenario,
        ("name", "description", "dataset", "members", "prescribed_weights", "expectations"),
        ("s", "a scenario", "d", (_RULE,), (1.0,), (("gap", 0.0),)),
        f"Scenario(name='s', description='a scenario', dataset='d', members=({_RULE_REPR},), "
        "prescribed_weights=(1.0,), expectations=(('gap', 0.0),))",
    ),
    (
        ScenarioCheck,
        ("name", "expected", "actual", "ok"),
        ("n", 1, 1, True),
        "ScenarioCheck(name='n', expected=1, actual=1, ok=True)",
    ),
    (
        SimplexResult,
        ("status", "x", "objective", "iterations"),
        (SolveStatus.OPTIMAL, (1.0,), 2.0, 3),
        "SimplexResult(status=<SolveStatus.OPTIMAL: 'optimal'>, x=(1.0,), objective=2.0, "
        "iterations=3)",
    ),
    (
        Dataset,
        ("features", "labels", "sensitive"),
        ([[0.0, 1.5]], [1], [0]),
        _DS_REPR,
    ),
    (
        TableClassifier,
        ("predictions", "dataset"),
        ([1], _DS),
        f"TableClassifier(predictions=array([1], dtype=int8), dataset={_DS_REPR})",
    ),
    (
        Ensemble,
        ("members", "weights"),
        ((_RULE, _RULE), [0.25, 0.75]),
        f"Ensemble(members=({_RULE_REPR}, {_RULE_REPR}), weights=array([0.25, 0.75]))",
    ),
    (
        LinearProgram,
        ("c", "a_ub", "b_ub", "a_eq", "b_eq"),
        ([1.0, 2.0], [[1.0, 1.0]], [1.0], [[1.0, 0.0]], [0.5]),
        "LinearProgram(c=array([1., 2.]), a_ub=array([[1., 1.]]), b_ub=array([1.]), "
        "a_eq=array([[1., 0.]]), b_eq=array([0.5]))",
    ),
]

#: records that compare and hash by identity: they hold arrays
IDENTITY = (CellCounts, FairnessReport, Ensemble, LinearProgram)

#: records that compare arrays by value, so their hash is not that of a tuple of fields
ARRAY_VALUED = (Dataset, TableClassifier)

#: per record that checks its fields, a valid value for each field that differs from the example
OTHER = {
    LinearClassifier: ((9.0,), 9.0, 9.0),
    Dataset: ([[0.0, 2.5]], [-1], [1]),
    TableClassifier: ([-1], Dataset([[9.0, 9.0]], [1], [0])),
}

IDS = [spec[0].__name__ for spec in RECORDS]


def _values(record, names):
    return tuple(getattr(record, name) for name in names)


def _same(a, b, names):
    """Field-wise equality that reads arrays by value."""
    return all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(_values(a, names), _values(b, names))
    )


def test_all_nineteen_records_are_covered():
    assert len({spec[0] for spec in RECORDS}) == 19


@pytest.mark.parametrize("cls, names, args, text", RECORDS, ids=IDS)
class TestRecordContract:
    def test_construction_by_position_and_keyword(self, cls, names, args, text):
        by_position = cls(*args)
        by_keyword = cls(**dict(zip(reversed(names), reversed(args))))
        assert _same(by_position, by_keyword, names)
        assert cls.__match_args__ == names
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__init__\(\) takes "):
            cls(*args, None)
        with pytest.raises(TypeError):
            cls(*args[:-1], **{names[-1]: args[-1], "_cache": {}})

    def test_repr(self, cls, names, args, text):
        assert repr(cls(*args)) == text

    def test_equality_and_hash(self, cls, names, args, text):
        a, b = cls(*args), cls(*args)
        assert a == a
        assert a.__eq__(object()) is NotImplemented
        if cls in IDENTITY:
            assert a != b
            assert hash(a) == object.__hash__(a)
            return
        assert a == b and not a != b
        assert hash(a) == hash(b)
        if cls not in ARRAY_VALUED:
            assert hash(a) == hash(_values(a, names))
        for k, name in enumerate(names):
            value = OTHER[cls][k] if cls in OTHER else ("other",)
            other = cls(*args[:k], value, *args[k + 1:])
            assert a != other and not a == other, name

    def test_fields_cannot_be_assigned(self, cls, names, args, text):
        record = cls(*args)
        for name in (*names, "undeclared"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert repr(record) == text

    @pytest.mark.parametrize("how", ["pickle", "pickle0", "copy", "deepcopy"])
    def test_pickle_and_copy_round_trip(self, cls, names, args, text, how):
        record = cls(*args)
        clone = {
            "pickle": lambda r: pickle.loads(pickle.dumps(r)),
            "pickle0": lambda r: pickle.loads(pickle.dumps(r, protocol=0)),
            "copy": copy.copy,
            "deepcopy": copy.deepcopy,
        }[how](record)
        assert type(clone) is cls and clone is not record
        assert repr(clone) == text
        assert _same(clone, record, names)
        if cls not in IDENTITY:
            assert clone == record and hash(clone) == hash(record)
        with pytest.raises(AttributeError):
            setattr(clone, names[0], None)


def test_linear_classifier_defaults_and_checks():
    rule = LinearClassifier(weights=iter([1, 2]))
    assert repr(rule) == "LinearClassifier(weights=(1.0, 2.0), sensitive_weight=0.0, bias=0.0)"
    assert all(type(w) is float for w in rule.weights)
    with pytest.raises(fairmix.FairmixError, match=r"^non-finite classifier parameter in "
                       r"LinearClassifier\(weights=\(1\.0, inf\), sensitive_weight=0\.0, "
                       r"bias=0\.0\)$"):
        LinearClassifier((1, float("inf")))
    with pytest.raises(fairmix.FairmixError, match="must be a real number, got '1'"):
        LinearClassifier(("1",))


def test_fairness_report_distributional_defaults_to_none():
    report = FairnessReport(0.5, (), 0, (), 0.0)
    assert report.distributional is None


def test_cell_counts_keep_read_only_copies_and_a_private_cache():
    accepted, sizes = np.array([[1, 2, 3, 4]]), np.array([2, 3, 4, 5])
    counts = CellCounts(accepted, sizes)
    for given, kept in ((accepted, counts.accepted), (sizes, counts.sizes)):
        assert kept is not given and not np.shares_memory(kept, given)
        assert not kept.flags.writeable
    row = counts._gap_row(MetricKind.ACCEPTANCE_RATE)
    assert counts._gap_row(MetricKind.ACCEPTANCE_RATE) is row
    assert not row.flags.writeable
    assert "_cache" not in repr(counts)
    clone = pickle.loads(pickle.dumps(counts))
    assert clone._cache == {}  # pickled without its cache, which is rebuilt on demand
    assert np.array_equal(clone._gap_row(MetricKind.ACCEPTANCE_RATE), row)
    rates = counts.rates(MetricKind.ACCEPTANCE_RATE, 0)
    assert np.array_equal(clone.rates(MetricKind.ACCEPTANCE_RATE, 0), rates)

