"""Acceptance gate: the eight headline behaviours, one test per criterion.

Each test prints a single PASS/FAIL line straight to the terminal
(bypassing capture) so a full run shows one line per criterion. All
tolerances are pinned here on purpose — do not loosen them.
"""

from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from fairmix import (
    Ensemble,
    MetricKind,
    SolveStatus,
    acceptance_probability,
    accuracy,
    best_fair_single_threshold,
    build_counterfactual_pairs,
    closure_check,
    dispersion,
    ensemble_gap,
    ensemble_group_rate,
    fairness_gap,
    grid_oracle,
    indicator_profile,
    mixture_accuracy,
    ppv_counterexample_search,
    sample,
    scenario_by_name,
    solve_fair_mixture,
    treatment_violations,
)

from conftest import (
    make_random_dataset,
    make_random_members,
    make_zero_gap_instance,
    random_weights,
)

LINEAR = (MetricKind.ACCEPTANCE_RATE, MetricKind.TPR, MetricKind.TNR)


@contextmanager
def criterion(capsys, n: int, title: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\ncriterion {n} ({title}): FAIL")
        raise
    with capsys.disabled():
        print(f"\ncriterion {n} ({title}): PASS")


def test_criterion_1_balanced_rate_reproduction(capsys):
    with criterion(capsys, 1, "mixing to acceptance rate 2/9"):
        s = scenario_by_name("figure2")
        # the prescribed three-member ensemble (third member at weight 0)
        for ens in (
            s.ensemble(),
            Ensemble(s.members[:2], np.array([1 / 3, 2 / 3])),
        ):
            r0 = ensemble_group_rate(ens, MetricKind.ACCEPTANCE_RATE, s.dataset, 0)
            r1 = ensemble_group_rate(ens, MetricKind.ACCEPTANCE_RATE, s.dataset, 1)
            assert r0 == 2 / 9  # exact float equality
            assert r1 == 2 / 9
            assert abs(r0 - r1) < 1e-12


def test_criterion_2_mixture_beats_fair_thresholds(capsys):
    with criterion(capsys, 2, "0.75 accuracy vs 0.5 for fair thresholds"):
        s = scenario_by_name("figure3")
        ens = s.ensemble()
        assert mixture_accuracy(ens, s.dataset) == 0.75
        assert ensemble_group_rate(ens, MetricKind.ACCEPTANCE_RATE, s.dataset, 0) == 0.25
        assert ensemble_group_rate(ens, MetricKind.ACCEPTANCE_RATE, s.dataset, 1) == 0.25
        rule = best_fair_single_threshold(s.dataset, 0, tolerance=1e-9)
        assert rule is not None
        assert rule.accuracy == 0.5


def test_criterion_3_treatment_restored_by_mixing(capsys):
    with criterion(capsys, 3, "members flip every twin pair, mixture none"):
        s = scenario_by_name("figure1")
        pairs = build_counterfactual_pairs(s.dataset)
        assert pairs  # the check must not be vacuous
        for member in s.members:
            profile = indicator_profile(member.predict_all(s.dataset))
            violated = treatment_violations(profile, pairs)
            assert len(violated) == len(pairs)  # 100% of pairs
        q = acceptance_probability(s.ensemble(), s.dataset)
        assert len(treatment_violations(q, pairs)) == 0
        assert np.all(q == 0.5)


def test_criterion_4_equal_rates_opposite_dispersion(capsys):
    with criterion(capsys, 4, "equal group rates, opposite dispersion"):
        s = scenario_by_name("figure4")
        ens = s.ensemble()
        for member in s.members:
            preds = member.predict_all(s.dataset)
            assert fairness_gap(MetricKind.ACCEPTANCE_RATE, preds, s.dataset) == 0.0
        assert ensemble_gap(ens, MetricKind.ACCEPTANCE_RATE, s.dataset) == 0.0
        q = acceptance_probability(ens, s.dataset)
        report = dispersion(q, s.dataset)
        # group 1: everyone gets probability exactly 1/2
        assert np.all(q[s.dataset.sensitive == 1] == 0.5)
        assert report.group(1).variance_q == 0.0
        assert report.group(1).determinism_index == 0.0
        # group 0: same mean benefit, but every outcome is predetermined
        assert report.group(0).determinism_index == 1.0
        assert report.group(0).variance_q == 0.25


def test_criterion_5_linear_kinds_are_closed(capsys):
    with criterion(capsys, 5, "mixtures of gap-0 members keep gap 0 (1000x)"):
        rng = np.random.default_rng(515151)
        for i in range(1000):
            kind = LINEAR[i % 3]
            ds, members, weights = make_zero_gap_instance(rng, kind)
            assert len(ds) <= 30 and len(members) <= 5
            for member in members:
                g = fairness_gap(kind, member.predictions, ds)
                assert g == 0.0  # exact, by integer-proportional construction
            ens = Ensemble(members, weights)
            g = ensemble_gap(ens, kind, ds)
            assert g is not None and abs(g) <= 1e-9
        # the identity behind it, on arbitrary (unfair) members
        for _ in range(300):
            ds = make_random_dataset(rng, 30)
            members = make_random_members(rng, ds, int(rng.integers(1, 6)))
            ens = Ensemble(members, random_weights(rng, len(members)))
            for kind in LINEAR:
                report = closure_check(ens, kind, ds)  # raises if the identity fails
                if report.ensemble_gap is None:
                    continue
                assert (
                    abs(report.ensemble_gap - report.weighted_member_gap_sum) <= 1e-9
                )


def test_criterion_6_ppv_non_closure_witness(capsys):
    with criterion(capsys, 6, "fair members, unfair mixture under PPV"):
        witness = ppv_counterexample_search(seed=0, max_trials=10_000)
        assert witness is not None
        ds = witness.dataset
        labels = ds.labels
        sensitive = ds.sensitive

        # member PPV gaps exactly zero, recounted here on raw integers
        for member in witness.members:
            counts = {}
            for z in (0, 1):
                hits = size = 0
                for i in range(len(ds)):
                    if sensitive[i] == z and member.predictions[i] == 1:
                        size += 1
                        hits += int(labels[i] == 1)
                counts[z] = (hits, size)
            (h0, s0), (h1, s1) = counts[0], counts[1]
            assert s0 > 0 and s1 > 0
            assert h0 * s1 == h1 * s0  # gap exactly 0 in exact arithmetic

        # uniform mixture PPV gap by independent exact enumeration
        half = Fraction(1, 2)
        values = {}
        for z in (0, 1):
            num = den = Fraction(0)
            for member in witness.members:
                hits = size = 0
                for i in range(len(ds)):
                    if sensitive[i] == z and member.predictions[i] == 1:
                        size += 1
                        hits += int(labels[i] == 1)
                num += half * hits
                den += half * size
            values[z] = num / den
        oracle_gap = values[0] - values[1]
        assert abs(oracle_gap) >= Fraction(1, 20)
        assert float(oracle_gap) == witness.ensemble_gap
        # the analytic ensemble path lands on the same number
        ens = Ensemble(witness.members, np.array(witness.weights))
        assert ensemble_gap(ens, MetricKind.PPV, ds) == pytest.approx(
            float(oracle_gap), abs=1e-12
        )


def _check_solution_against_oracle(members, ds, constrained, tol):
    sol = solve_fair_mixture(members, ds, constrained, tol)
    if sol.status is not SolveStatus.OPTIMAL:
        return None
    ens = Ensemble(members, sol.weights)
    # feasibility of the returned point, recomputed from scratch
    for kind in constrained:
        g = ensemble_gap(ens, kind, ds)
        assert g is not None and abs(g) <= tol + 1e-9
    # accuracy really is the weighted member accuracy
    member_acc = np.array(
        [accuracy(m.predict_all(ds), ds) for m in members]
    )
    assert abs(sol.accuracy - float(sol.weights @ member_acc)) <= 1e-9
    # within the lattice-spacing bound of the exhaustive r=200 oracle
    oracle = grid_oracle(members, ds, constrained, tol, resolution=200)
    if oracle.feasible_count:
        spreads = [float(np.ptp(member_acc))]
        for kind in constrained:
            gaps = [
                fairness_gap(kind, m.predict_all(ds), ds) for m in members
            ]
            spreads.append(float(np.ptp(gaps)))
        slack = (2 / 200) * max(spreads)
        assert sol.accuracy >= oracle.accuracy - slack - 1e-9
    return sol


def test_criterion_7_optimizer_soundness(capsys):
    with criterion(capsys, 7, "LP verified against the lattice oracle"):
        for name in ("figure2", "figure3"):
            s = scenario_by_name(name)
            sol = _check_solution_against_oracle(
                list(s.members), s.dataset, [MetricKind.ACCEPTANCE_RATE], 1e-9
            )
            assert sol is not None, f"{name} must be feasible"
        rng = np.random.default_rng(77007)
        checked = 0
        attempts = 0
        while checked < 100:
            attempts += 1
            assert attempts < 2000, "feasible random instances too rare"
            ds = make_random_dataset(rng, 24)
            members = make_random_members(rng, ds, int(rng.integers(2, 4)))
            n_kinds = int(rng.integers(1, 4))
            constrained = list(
                rng.choice(np.array(LINEAR, dtype=object), size=n_kinds, replace=False)
            )
            tol = float(rng.uniform(0.05, 0.6))
            sol = _check_solution_against_oracle(members, ds, constrained, tol)
            if sol is not None:
                checked += 1
        assert checked == 100


def test_criterion_8_monte_carlo_agreement(capsys):
    with criterion(capsys, 8, "sampler matches 2/9 within 3 SE, reruns equal"):
        s = scenario_by_name("figure2")
        ens = s.ensemble()
        n = 100_000
        run1 = sample(ens, s.dataset, n_draws=n, seed=0)
        se = float(np.sqrt((2 / 9) * (1 - 2 / 9) / n))
        for z in (0, 1):
            assert abs(run1.group_rates[z] - 2 / 9) <= 3 * se
        run2 = sample(ens, s.dataset, n_draws=n, seed=0)
        assert np.array_equal(run1.labels, run2.labels)
        assert np.array_equal(run1.member_indices, run2.member_indices)
        assert run1.group_rates == run2.group_rates
        assert run1.standard_errors == run2.standard_errors
