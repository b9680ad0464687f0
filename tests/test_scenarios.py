"""Built-in scenarios: self-tests, regeneration stability, exact values.

The last test class re-derives figure3's headline claim from scratch:
it enumerates all 16 accept/reject patterns on the four data clusters,
decides by LP feasibility which patterns any affine rule over (feature,
group) can realize, and confirms that no realizable *fair* pattern
beats coin-flip accuracy while the perfectly accurate pattern is
exactly the unrealizable XOR.
"""

import itertools

import numpy as np
import pytest

from fairmix import (
    Ensemble,
    FairmixError,
    LinearProgram,
    MetricKind,
    SolveStatus,
    acceptance_probability,
    build_counterfactual_pairs,
    dispersion,
    ensemble_group_rate,
    indicator_profile,
    member_counts,
    mixture_accuracy,
    prediction_matrix,
    scenario_by_name,
    simplex_solve,
    verify_scenario,
)


#: every figure's dataset as (features, y, z) rows, in file order
FIGURE_ROWS = {
    "figure1": [
        ([0.0], 1, 0), ([0.0], -1, 0), ([0.0], 1, 1), ([0.0], -1, 1),
        ([1.0], 1, 0), ([1.0], -1, 0), ([1.0], 1, 1), ([1.0], -1, 1),
    ],
    "figure2": [
        ([-1.0, 1.0], 1, 1), ([-1.0, 1.1], 1, 1), ([-1.0, 1.2], 1, 1),
        ([-1.0, 1.3], 1, 1), ([-1.0, 1.4], 1, 1), ([-1.0, 1.5], 1, 1),
        ([-1.0, -1.0], -1, 1), ([-1.0, -1.1], -1, 1), ([-1.0, -1.2], -1, 1),
        ([1.0, 1.0], 1, 0), ([1.0, 1.4], 1, 0), ([1.0, 1.5], 1, 0),
        ([1.0, -1.0], -1, 0), ([1.0, -1.1], -1, 0), ([1.0, -1.2], -1, 0),
        ([1.0, -1.3], -1, 0), ([1.0, -1.4], -1, 0), ([1.0, -1.5], -1, 0),
    ],
    "figure3": [
        ([1.0], 1, 0), ([1.0], 1, 0), ([0.0], -1, 0), ([0.0], -1, 0),
        ([0.0], 1, 1), ([0.0], 1, 1), ([1.0], -1, 1), ([1.0], -1, 1),
    ],
    "figure4": [
        ([1.0, 1.0], 1, 0), ([1.0, 1.0], 1, 0),
        ([-1.0, -1.0], -1, 0), ([-1.0, -1.0], -1, 0),
        ([-1.0, 1.0], 1, 1), ([-1.0, 1.0], 1, 1),
        ([1.0, -1.0], -1, 1), ([1.0, -1.0], -1, 1),
    ],
}


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(FIGURE_ROWS))
    def test_dataset_rows(self, name):
        ds = scenario_by_name(name).dataset
        rows = [
            (f.tolist(), int(y), int(z))
            for f, y, z in zip(ds.features, ds.labels, ds.sensitive)
        ]
        assert rows == FIGURE_ROWS[name]

    def test_names(self):
        for name in ("figure1", "figure2", "figure3", "figure4"):
            assert scenario_by_name(name).name == name

    def test_unknown_name(self):
        with pytest.raises(FairmixError, match="unknown scenario"):
            scenario_by_name("figure9")

    @pytest.mark.parametrize("name", ["figure1", "figure2", "figure3", "figure4"])
    def test_self_test_passes(self, name):
        checks = verify_scenario(scenario_by_name(name))
        assert checks, "self-test must check something"
        failed = [c for c in checks if not c.ok]
        assert not failed, f"failed checks: {[c.name for c in failed]}"

    @pytest.mark.parametrize("name", ["figure1", "figure2", "figure3", "figure4"])
    def test_regeneration_is_identical(self, name):
        a = scenario_by_name(name)
        b = scenario_by_name(name)
        assert a.dataset == b.dataset
        assert a.dataset.features.tobytes() == b.dataset.features.tobytes()
        assert a.members == b.members
        assert np.array_equal(a.prescribed_weights, b.prescribed_weights)
        assert a.expectations == b.expectations

    @pytest.mark.parametrize("name", ["figure1", "figure2", "figure3", "figure4"])
    def test_prediction_matrix_shape(self, name):
        s = scenario_by_name(name)
        matrix = prediction_matrix(s.members, s.dataset)
        assert matrix.shape == (len(s.members), len(s.dataset))
        assert set(np.unique(matrix)) <= {-1, 1}
        for j, member in enumerate(s.members):
            assert np.array_equal(matrix[j], member.predict_all(s.dataset))

    def test_check_json_shape(self):
        checks = verify_scenario(scenario_by_name("figure1"))
        doc = checks[0].to_json_dict()
        assert set(doc) == {"name", "expected", "actual", "ok"}


class TestFigure1:
    def test_twins_cover_every_instance(self):
        s = scenario_by_name("figure1")
        pairs = build_counterfactual_pairs(s.dataset)
        assert len(pairs) == 8
        touched = {i for pair in pairs for i in pair}
        assert touched == set(range(len(s.dataset)))

    def test_members_disagree_on_every_pair_mixture_on_none(self):
        from fairmix import indicator_profile, treatment_violations

        s = scenario_by_name("figure1")
        pairs = build_counterfactual_pairs(s.dataset)
        for member in s.members:
            profile = indicator_profile(member.predict_all(s.dataset))
            assert len(treatment_violations(profile, pairs)) == len(pairs)
        q = acceptance_probability(s.ensemble(), s.dataset)
        assert treatment_violations(q, pairs) == []
        assert np.all(q == 0.5)


class TestFigure2:
    def test_rates_are_exactly_two_ninths(self):
        s = scenario_by_name("figure2")
        ens = s.ensemble()
        r0 = ensemble_group_rate(ens, MetricKind.ACCEPTANCE_RATE, s.dataset, 0)
        r1 = ensemble_group_rate(ens, MetricKind.ACCEPTANCE_RATE, s.dataset, 1)
        assert r0 == 2 / 9  # bit-exact, no tolerance
        assert r1 == 2 / 9
        assert r0 - r1 == 0.0

    def test_group_sizes_and_zero_weight_benchmark(self):
        s = scenario_by_name("figure2")
        assert int(np.sum(s.dataset.sensitive == 0)) == 9
        assert int(np.sum(s.dataset.sensitive == 1)) == 9
        assert s.prescribed_weights[2] == 0.0
        # the benchmark member accepts exactly two per group on its own
        preds = s.members[2].predict_all(s.dataset)
        for z in (0, 1):
            accepted = int(np.sum((preds == 1) & (s.dataset.sensitive == z)))
            assert accepted == 2

    def test_member_rates(self):
        s = scenario_by_name("figure2")
        counts = member_counts(s.members[:2], s.dataset)
        assert counts.rates(MetricKind.ACCEPTANCE_RATE, 0).tolist() == [0.0, 1 / 3]
        assert counts.rates(MetricKind.ACCEPTANCE_RATE, 1).tolist() == [2 / 3, 0.0]


class TestFigure4:
    def test_profile_split(self):
        s = scenario_by_name("figure4")
        q = acceptance_probability(s.ensemble(), s.dataset)
        z = s.dataset.sensitive
        assert np.all(q[z == 1] == 0.5)
        assert set(q[z == 0].tolist()) == {0.0, 1.0}

    def test_mixing_trades_variance_for_determinism(self):
        s = scenario_by_name("figure4")
        q = acceptance_probability(s.ensemble(), s.dataset)
        solo = indicator_profile(s.members[0].predict_all(s.dataset))
        mixed, single = dispersion(q, s.dataset), dispersion(solo, s.dataset)
        # group 1: the mixture removes all variance a single rule had
        assert (single.group(1).variance_q, mixed.group(1).variance_q) == (0.25, 0.0)
        assert single.group(1).determinism_index == 1.0
        assert mixed.group(1).determinism_index == 0.0
        # group 0: nothing changes, both members agree there
        assert mixed.group(0) == single.group(0)


CLUSTERS = ((1.0, 0), (0.0, 0), (0.0, 1), (1.0, 1))
CLUSTER_LABELS = (1, -1, 1, -1)


def pattern_realizable_by_affine_rule(pattern) -> bool:
    """Can any rule sign(w*f + s*z + b) produce this accept pattern?

    Free variables are split into positive parts; accepted clusters need
    score >= 0, rejected ones score <= -1 (any strictly negative score
    can be scaled to clear -1, so no generality is lost).
    """
    rows, rhs = [], []
    for (f, z), accept in zip(CLUSTERS, pattern):
        coeff = np.array([f, -f, float(z), -float(z), 1.0, -1.0])
        if accept:
            rows.append(-coeff)
            rhs.append(0.0)
        else:
            rows.append(coeff)
            rhs.append(-1.0)
    lp = LinearProgram(np.zeros(6), a_ub=np.asarray(rows), b_ub=np.asarray(rhs))
    return simplex_solve(lp).status is SolveStatus.OPTIMAL


def pattern_accuracy(pattern) -> float:
    hits = sum(
        1 for accept, y in zip(pattern, CLUSTER_LABELS) if accept == (y == 1)
    )
    return hits / 4


def pattern_is_fair(pattern) -> bool:
    return pattern[0] + pattern[1] == pattern[2] + pattern[3]


class TestFigure3:
    def test_exact_numbers(self):
        s = scenario_by_name("figure3")
        ens = s.ensemble()
        assert mixture_accuracy(ens, s.dataset) == 0.75
        assert ensemble_group_rate(ens, MetricKind.ACCEPTANCE_RATE, s.dataset, 0) == 0.25
        assert ensemble_group_rate(ens, MetricKind.ACCEPTANCE_RATE, s.dataset, 1) == 0.25

    def test_members_realize_the_intended_clusters(self):
        s = scenario_by_name("figure3")
        z = s.dataset.sensitive
        f = s.dataset.features[:, 0]
        preds1 = s.members[0].predict_all(s.dataset)
        preds2 = s.members[1].predict_all(s.dataset)
        assert np.array_equal(preds1 == 1, (z == 0) & (f >= 0.5))
        assert np.array_equal(preds2 == 1, (z == 1) & (f <= 0.5))

    def test_pattern_enumeration(self):
        """All 16 accept patterns, classified independently of the sweep."""
        realizable = {}
        for pattern in itertools.product((False, True), repeat=4):
            realizable[pattern] = pattern_realizable_by_affine_rule(pattern)

        # exactly the two XOR patterns are out of reach for affine rules
        unrealizable = {p for p, ok in realizable.items() if not ok}
        assert unrealizable == {
            (True, False, True, False),   # accept iff f != z: 100% accurate
            (False, True, False, True),   # accept iff f == z: 0% accurate
        }

        feasible = [p for p, ok in realizable.items() if ok]
        assert max(pattern_accuracy(p) for p in feasible) == 0.75
        fair_feasible = [p for p in feasible if pattern_is_fair(p)]
        assert max(pattern_accuracy(p) for p in fair_feasible) == 0.5

        # the perfect pattern exists in the abstract but is the XOR
        perfect = [
            p
            for p in itertools.product((False, True), repeat=4)
            if pattern_accuracy(p) == 1.0
        ]
        assert perfect == [(True, False, True, False)]
        assert not realizable[perfect[0]]

    def test_members_hit_the_realizable_fair_frontier_when_mixed(self):
        # each member alone: one of the 0.75-accurate unfair patterns
        s = scenario_by_name("figure3")
        for member, pattern in (
            (s.members[0], (True, False, False, False)),
            (s.members[1], (False, False, True, False)),
        ):
            preds = member.predict_all(s.dataset)
            got = tuple(
                bool(preds[2 * k] == 1) for k in range(4)
            )  # first row of each cluster
            assert got == pattern
            assert pattern_accuracy(pattern) == 0.75
            assert not pattern_is_fair(pattern)
            assert pattern_realizable_by_affine_rule(pattern)
