"""Built-in demonstration scenarios with exact expected values.

Each scenario bundles a small integer-count dataset, a member list,
prescribed mixture weights, and a map of expected quantities, chosen so
every number is an exact rational realized by cluster counts — nothing
is sampled and regeneration is bit-stable. Each one exhibits one effect:

* ``figure1`` — two complementary group-keyed rules; each alone decides
  by group membership, their uniform mixture treats every matched
  cross-group pair identically.
* ``figure2`` — members with unequal acceptance rates mixed into a
  group-balanced ensemble (weights 1/3, 2/3 reproduce rate 2/9 on both
  sides), plus a single deterministic rule with the same balanced rate.
* ``figure3`` — group-opposed labels where every fair single threshold
  rule stalls at coin-flip accuracy yet the fair uniform mixture of two
  group-aware rules reaches 0.75.
* ``figure4`` — two rules with identical group rates whose mixture
  spreads benefit evenly inside one group and deterministically inside
  the other: equal impact, opposite within-group dispersion.
"""

from __future__ import annotations

import numpy as np

from . import metrics, optimizer
from ._record import _Record
from .classifiers import LinearClassifier, prediction_matrix
from .dataset import Dataset, twin_pairs
from .ensemble import Ensemble, acceptance_probability, ensemble_report
from .errors import FairmixError

#: per-cluster instance count shared by the generators; 2 keeps every
#: scenario rate an exact small rational while exercising duplicates
_COPIES = 2


class Scenario(_Record):
    __slots__ = (
        "name", "description", "dataset", "members", "prescribed_weights", "expectations",
    )

    def ensemble(self) -> Ensemble:
        return Ensemble(self.members, self.prescribed_weights)


class ScenarioCheck(_Record):
    __slots__ = ("name", "expected", "actual", "ok")

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "actual": self.actual,
            "ok": self.ok,
        }


def _clustered(*clusters) -> Dataset:
    """A dataset from (feature rows, label, group) clusters, rows in the order given."""
    features = [row for rows, _, _ in clusters for row in rows]
    labels = [y for rows, y, _ in clusters for _ in rows]
    sensitive = [z for rows, _, z in clusters for _ in rows]
    return Dataset.from_arrays(np.asarray(features), labels, sensitive)


def figure1() -> Scenario:
    """Opposite group-keyed rules; the uniform mixture is group-blind.

    The single feature is uninformative: both groups contain the same
    feature values with one positive and one negative label each, so
    every instance has a matched twin in the other group. Member one
    accepts exactly group 1, member two exactly group 0; each therefore
    flips on every matched pair, while their even mixture gives every
    instance probability 1/2.
    """
    dataset = _clustered(
        *(([[f]], y, z) for f in (0.0, 1.0) for z in (0, 1) for y in (1, -1))
    )
    accepts_group1 = LinearClassifier((0.0,), sensitive_weight=1.0, bias=-0.5)
    accepts_group0 = LinearClassifier((0.0,), sensitive_weight=-1.0, bias=0.5)
    members = (accepts_group1, accepts_group0)
    expectations = {
        "pairs_checked": 8,
        "member_violation_fraction": [1.0, 1.0],
        "ensemble_violations": 0,
        "benefit_profile_constant": 0.5,
    }
    return Scenario(
        name="figure1",
        description="complementary group-keyed members; fair uniform mixture",
        dataset=dataset,
        members=members,
        prescribed_weights=np.array([0.5, 0.5]),
        expectations=expectations,
    )


def figure2() -> Scenario:
    """Rate-balancing mixture at weights (1/3, 2/3), plus a balanced single rule.

    Groups of nine; member one accepts six of group 1 and nobody from
    group 0 (rates 2/3 vs 0), member two accepts three of group 0 only
    (rates 0 vs 1/3). Weights (1/3, 2/3, 0) give both groups acceptance
    rate exactly 2/9. The third member is a plain feature-two threshold
    accepting two instances per group — the same 2/9 on both sides —
    and carries weight zero; it is the single-rule benchmark. Its
    accept-set (the two highest feature-two values per group) is one
    documented choice among several with that rate.
    """
    dataset = _clustered(
        # group 1: six positives accepted by member one, three negatives
        ([[-1.0, 1.0 + 0.1 * i] for i in range(6)], 1, 1),
        ([[-1.0, -1.0 - 0.1 * i] for i in range(3)], -1, 1),
        # group 0: three positives accepted by member two, six negatives
        ([[1.0, 1.0], [1.0, 1.4], [1.0, 1.5]], 1, 0),
        ([[1.0, -1.0 - 0.1 * i] for i in range(6)], -1, 0),
    )
    member1 = LinearClassifier((-1.0, 1.0), bias=-1.5)  # group 1's positives
    member2 = LinearClassifier((1.0, 1.0), bias=-1.5)  # group 0's positives
    member3 = LinearClassifier((0.0, 1.0), bias=-1.35)  # two per group
    members = (member1, member2, member3)
    third = 1.0 / 3.0
    expectations = {
        "member_acceptance_z0": [0.0, 1 / 3, 2 / 9],
        "member_acceptance_z1": [2 / 3, 0.0, 2 / 9],
        "member_gaps": [-2 / 3, 1 / 3, 0.0],
        "ensemble_acceptance_z0": 2 / 9,
        "ensemble_acceptance_z1": 2 / 9,
        "ensemble_gap": 0.0,
    }
    return Scenario(
        name="figure2",
        description="unequal members mixed to equal acceptance rate 2/9",
        dataset=dataset,
        members=members,
        prescribed_weights=np.array([third, 2 * third, 0.0]),
        expectations=expectations,
    )


def figure3() -> Scenario:
    """Group-opposed labels: fair mixture accuracy 0.75 vs single-rule 0.5.

    High feature value marks the positive class for group 0 and the
    negative class for group 1, in four equal clusters. Member one
    accepts group 0 at-or-above 1/2, member two accepts group 1 below
    1/2; each is 75% accurate but lopsided (rates 1/2 vs 0). Their even
    mixture keeps accuracy 0.75 with equal rates 1/4 — while no fair
    single threshold on the feature can beat 1/2 accuracy.
    """
    dataset = _clustered(
        ([[1.0]] * _COPIES, 1, 0),   # group 0, positive at high feature
        ([[0.0]] * _COPIES, -1, 0),  # group 0, negative at low feature
        ([[0.0]] * _COPIES, 1, 1),   # group 1, positive at low feature
        ([[1.0]] * _COPIES, -1, 1),  # group 1, negative at high feature
    )
    # group 0 rule: accept iff z=0 and feature >= 1/2
    member1 = LinearClassifier((1.0,), sensitive_weight=-2.0, bias=-0.5)
    # group 1 rule: accept iff z=1 and feature <= 1/2
    member2 = LinearClassifier((-1.0,), sensitive_weight=1.0, bias=-0.5)
    members = (member1, member2)
    expectations = {
        "member_accuracies": [0.75, 0.75],
        "member_rates_z0": [0.5, 0.0],
        "member_rates_z1": [0.0, 0.5],
        "ensemble_accuracy": 0.75,
        "ensemble_rate_z0": 0.25,
        "ensemble_rate_z1": 0.25,
        "ensemble_gap": 0.0,
        "best_fair_threshold_accuracy": 0.5,
    }
    return Scenario(
        name="figure3",
        description="fair mixture beats every fair single threshold rule",
        dataset=dataset,
        members=members,
        prescribed_weights=np.array([0.5, 0.5]),
        expectations=expectations,
    )


def figure4() -> Scenario:
    """Equal group rates, opposite within-group benefit dispersion.

    Both members accept the same half of group 0 and complementary
    disjoint halves of group 1, so all group rates are 1/2. Under the
    even mixture every group-1 instance gets probability exactly 1/2
    (zero variance, nothing deterministic), while every group-0 instance
    gets probability 0 or 1 (maximal determinism at the same mean).
    """
    dataset = _clustered(
        ([[1.0, 1.0]] * _COPIES, 1, 0),     # group 0, accepted by both members
        ([[-1.0, -1.0]] * _COPIES, -1, 0),  # group 0, rejected by both
        ([[-1.0, 1.0]] * _COPIES, 1, 1),    # group 1, accepted by member one only
        ([[1.0, -1.0]] * _COPIES, -1, 1),   # group 1, accepted by member two only
    )
    member1 = LinearClassifier((0.0, 1.0), bias=-0.5)  # upper half-plane
    member2 = LinearClassifier((1.0, 0.0), bias=-0.5)  # right half-plane
    members = (member1, member2)
    expectations = {
        "member_gaps": [0.0, 0.0],
        "ensemble_rate_z0": 0.5,
        "ensemble_rate_z1": 0.5,
        "ensemble_gap": 0.0,
        "z1_profile_constant": 0.5,
        "z0_variance": 0.25,
        "z0_determinism": 1.0,
        "z0_gini": 0.5,
        "z1_variance": 0.0,
        "z1_determinism": 0.0,
        "z1_gini": 0.0,
    }
    return Scenario(
        name="figure4",
        description="equal impact with opposite within-group dispersion",
        dataset=dataset,
        members=members,
        prescribed_weights=np.array([0.5, 0.5]),
        expectations=expectations,
    )


def _actuals(s: Scenario) -> dict:
    """Every expectation, read from the reports ``fairmix audit`` prints for
    the members and the ensemble; only the exact-constant profile checks and
    the threshold sweep are computed outside them."""
    pairs = twin_pairs(s.dataset)
    members = [
        metrics.classifier_report(predictions, s.dataset, pairs)
        for predictions in prediction_matrix(s.members, s.dataset)
    ]
    ensemble = s.ensemble()
    ens = ensemble_report(ensemble, s.dataset, pairs)
    # a report lists its metrics in MetricKind order, acceptance rate first
    rates, ens_rate = [r.metrics[0] for r in members], ens.metrics[0]
    q = acceptance_probability(ensemble, s.dataset)
    q1 = q[s.dataset.sensitive == 1]
    actuals = {
        "pairs_checked": ens.treatment_pairs_checked,
        "member_violation_fraction": (
            [len(r.treatment_violations) / len(pairs) for r in members] if len(pairs) else None
        ),
        "ensemble_violations": len(ens.treatment_violations),
        "benefit_profile_constant": float(q[0]) if np.all(q == q[0]) else None,
        "z1_profile_constant": float(q1[0]) if q1.size and np.all(q1 == q1[0]) else None,
        "member_accuracies": [r.accuracy for r in members],
        "member_gaps": [m.gap for m in rates],
        "ensemble_accuracy": ens.accuracy,
        "ensemble_gap": ens_rate.gap,
    }
    for z in (0, 1):
        member_z = [getattr(m, f"value_z{z}") for m in rates]
        ens_z = getattr(ens_rate, f"value_z{z}")
        actuals[f"member_rates_z{z}"] = actuals[f"member_acceptance_z{z}"] = member_z
        actuals[f"ensemble_rate_z{z}"] = actuals[f"ensemble_acceptance_z{z}"] = ens_z
        group = ens.distributional.group(z)
        actuals[f"z{z}_variance"] = group.variance_q
        actuals[f"z{z}_determinism"] = group.determinism_index
        actuals[f"z{z}_gini"] = group.gini_q
    if "best_fair_threshold_accuracy" in s.expectations:
        sweep = optimizer.best_fair_single_threshold(s.dataset, 0, 1e-9)
        actuals["best_fair_threshold_accuracy"] = None if sweep is None else sweep.accuracy
    return actuals


#: each scenario's generator, by name
_SCENARIOS = {f.__name__: f for f in (figure1, figure2, figure3, figure4)}


def scenario_by_name(name: str) -> Scenario:
    if name not in _SCENARIOS:
        raise FairmixError(f"unknown scenario {name!r}; available: {', '.join(_SCENARIOS)}")
    return _SCENARIOS[name]()


def verify_scenario(scenario: Scenario) -> list[ScenarioCheck]:
    """Recompute every expectation through the library and compare it exactly."""
    actuals = _actuals(scenario)
    checks = []
    for key, expected in scenario.expectations.items():
        actual = actuals[key]
        checks.append(ScenarioCheck(key, expected, actual, expected == actual))
    return checks
