"""Mixture optimization: LP solve, lattice oracle, threshold sweep, witness."""

import itertools
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmix import (
    Dataset,
    Ensemble,
    FairmixError,
    GridOracleResult,
    LinearClassifier,
    MetricKind,
    Objective,
    SolveStatus,
    TableClassifier,
    accuracy,
    best_fair_single_threshold,
    build_mixture_program,
    ensemble_gap,
    ensemble_report,
    fairness_gap,
    figure2,
    grid_oracle,
    load_dataset,
    load_prediction_matrix,
    member_counts,
    mixture_accuracy,
    ppv_counterexample_search,
    solve_fair_mixture,
    treatment_violations,
)
from fairmix import optimizer as optimizer_mod
from fairmix.cli import entrypoint
from fairmix.metrics import CellCounts
from fairmix.optimizer import _lattice
from fairmix.simplex import SimplexResult

from conftest import (
    make_random_dataset,
    make_random_members,
    make_three_tenths_gap,
    random_weights,
)

ALL_LINEAR = [MetricKind.ACCEPTANCE_RATE, MetricKind.TPR, MetricKind.TNR]


def opposed_pair():
    """Two members with acceptance gaps +1 and -1; accuracies 1 and 0."""
    ds = Dataset.from_arrays([[0.0], [1.0]], [1, -1], [0, 1])
    a = TableClassifier([1, -1], ds)  # accurate, favors group 0
    b = TableClassifier([-1, 1], ds)  # inaccurate, favors group 1
    return ds, [a, b]


def thirds_pair():
    """Member gaps exactly -2/3 and +1/3: the fair mix is (1/3, 2/3)."""
    ds = Dataset.from_arrays(
        [[float(i)] for i in range(9)],
        [1] * 9,
        [0] * 6 + [1] * 3,
    )
    a = TableClassifier([-1] * 6 + [1, 1, -1], ds)
    b = TableClassifier([1, 1, -1, -1, -1, -1] + [-1] * 3, ds)
    return ds, [a, b]


class TestBuildProgram:
    def test_simplex_row_always_present(self, rng):
        ds = make_random_dataset(rng, 10)
        members = make_random_members(rng, ds, 3)
        for tol in (0.0, 0.1, math.inf):
            program = build_mixture_program(
                member_counts(members, ds),
                [MetricKind.ACCEPTANCE_RATE],
                tol,
                Objective.MAX_ACCURACY,
            )
            assert program.a_eq.tolist() == [[1.0, 1.0, 1.0]]
            assert program.b_eq.tolist() == [1.0]

    def test_two_rows_per_constrained_kind(self, rng):
        ds = make_random_dataset(rng, 10)
        members = make_random_members(rng, ds, 2)
        program = build_mixture_program(
            member_counts(members, ds), ALL_LINEAR, 0.25, Objective.MAX_ACCURACY
        )
        assert program.a_ub.shape == (6, 2)
        assert program.b_ub.tolist() == [0.25] * 6
        # the pairs are +/- the same row
        for k in range(0, 6, 2):
            assert np.array_equal(program.a_ub[k], -program.a_ub[k + 1])

    def test_infinite_tolerance_drops_gap_rows(self, rng):
        ds = make_random_dataset(rng, 10)
        members = make_random_members(rng, ds, 2)
        program = build_mixture_program(
            member_counts(members, ds), ALL_LINEAR, math.inf, Objective.MAX_ACCURACY
        )
        assert program.a_ub.shape[0] == 0

    def test_gap_rows_encode_the_true_gap_function(self, rng):
        # row . p must equal the analytic ensemble gap at any mixture p
        for _ in range(10):
            ds = make_random_dataset(rng, 12)
            members = make_random_members(rng, ds, 3)
            program = build_mixture_program(
                member_counts(members, ds), ALL_LINEAR, 1.0, Objective.MAX_ACCURACY
            )
            p = random_weights(rng, 3)
            ens = Ensemble(members, p)
            # rows appear in the order the kinds were passed
            for pos, kind in enumerate(ALL_LINEAR):
                row = program.a_ub[2 * pos]
                want = ensemble_gap(ens, kind, ds)
                assert float(row @ p) == pytest.approx(want, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from(ALL_LINEAR), min_size=1, max_size=3, unique=True),
    )
    def test_gap_rows_are_the_exact_gaps_correctly_rounded(self, seed, kinds):
        # each coefficient is G/D rounded once, as every verdict reads it, not
        # a difference of two rounded rates
        rng = np.random.default_rng(seed)
        ds = make_random_dataset(rng, 40)
        members = make_random_members(rng, ds, int(rng.integers(1, 8)))
        program = build_mixture_program(
            member_counts(members, ds), kinds, 0.1, Objective.MAX_ACCURACY
        )

        def exact_gap(member, kind):
            rates = []
            for z in (0, 1):
                cond, hit = CONDITIONS[kind](member.predictions, ds.labels)
                cond = cond & (ds.sensitive == z)
                rates.append(Fraction(int((cond & hit).sum()), int(cond.sum())))
            return float(rates[0] - rates[1])

        want = [[exact_gap(member, kind) for member in members] for kind in kinds]
        assert program.a_ub[0::2].tolist() == want

    def test_gap_rows_past_2_53_are_rounded_once(self):
        # groups of about 1e8 instances: the acceptance rate's D = d0*d1 is
        # odd and past 2**53, so float(G) / float(D) and the difference of the
        # two rates each miss the correctly rounded G/D on these rows
        sizes = [50_000_000, 50_000_017, 50_000_029, 50_000_040]
        accepted = [[14985594, 24053078, 21134373, 20161940], [1415983, 267632, 6214167, 414215]]
        assert (sizes[0] + sizes[1]) * (sizes[2] + sizes[3]) > 2**53
        counts = CellCounts(accepted, sizes)
        program = build_mixture_program(counts, ALL_LINEAR, 0.1, Objective.MAX_ACCURACY)
        for pos, kind in enumerate(ALL_LINEAR):
            (n0, d0), (n1, d1) = (counts.counts(kind, z) for z in (0, 1))
            want = [
                float(Fraction(int(a), int(b)) - Fraction(int(c), int(d)))
                for a, b, c, d in zip(n0, d0, n1, d1)
            ]
            assert program.a_ub[2 * pos].tolist() == want, kind

    def test_iterator_of_kinds_read_once(self, rng):
        ds = make_random_dataset(rng, 10)
        counts = member_counts(make_random_members(rng, ds, 2), ds)
        got = build_mixture_program(counts, iter(ALL_LINEAR), 0.25, Objective.MAX_ACCURACY)
        want = build_mixture_program(counts, ALL_LINEAR, 0.25, Objective.MAX_ACCURACY)
        assert got.a_ub.shape == (6, 2)
        assert got.a_ub.tobytes() == want.a_ub.tobytes()

    def test_each_solve_checks_once_and_builds_once(self, rng, monkeypatch):
        """A solve checks its kinds and tolerance once, then builds with the private
        builder that ``build_mixture_program`` returns from after its own checks."""
        ds = make_random_dataset(rng, 20)
        members = make_random_members(rng, ds, 3)
        checks, builds = [], []
        check, build = optimizer_mod._constrained_kinds, optimizer_mod._mixture_program

        def counting_check(constrained, tolerance):
            checks.append(tuple(constrained))
            return check(constrained, tolerance)

        def counting_build(*args):
            builds.append((args, build(*args)))
            return builds[-1][1]

        kinds = ALL_LINEAR[::-1]
        for k, tolerance in enumerate((0.0, 0.1, math.inf), start=1):
            with monkeypatch.context() as patch:
                patch.setattr(optimizer_mod, "_constrained_kinds", counting_check)
                patch.setattr(optimizer_mod, "_mixture_program", counting_build)
                solve_fair_mixture(members, ds, kinds, tolerance)
            assert (len(checks), len(builds)) == (k, k)
        # the solver checks the kinds as given and builds with them sorted
        assert set(checks) == {tuple(kinds)}
        for (counts, constrained, tolerance, objective), program in builds:
            assert tuple(constrained) == tuple(sorted(kinds, key=lambda kind: kind.value))
            public = build_mixture_program(counts, constrained, tolerance, objective)
            for name in ("c", "a_ub", "b_ub", "a_eq", "b_eq"):
                assert getattr(program, name).tobytes() == getattr(public, name).tobytes()

    def test_feasibility_objective_is_zero(self, rng):
        ds = make_random_dataset(rng, 10)
        members = make_random_members(rng, ds, 2)
        program = build_mixture_program(
            member_counts(members, ds), [], 0.1, Objective.FEASIBILITY_ONLY
        )
        assert program.c.tolist() == [0.0, 0.0]


class TestArgumentTypes:
    """Arguments of the wrong type raise :class:`FairmixError`, before any solve."""

    @pytest.mark.parametrize("objective", ["max_accuracy", None, 1])
    def test_objective_must_be_an_objective(self, objective, monkeypatch):
        ds, members = thirds_pair()
        monkeypatch.setattr("fairmix.optimizer.simplex_solve", None)  # never reached
        message = f"objective must be an Objective, got {objective!r}"
        kinds = [MetricKind.ACCEPTANCE_RATE]
        with pytest.raises(FairmixError, match=f"^{re.escape(message)}$"):
            solve_fair_mixture(members, ds, kinds, 0.05, objective)
        with pytest.raises(FairmixError, match=f"^{re.escape(message)}$"):
            build_mixture_program(member_counts(members, ds), kinds, 0.05, objective)

    @staticmethod
    def tolerance_calls():
        ds, members = thirds_pair()
        kinds = [MetricKind.ACCEPTANCE_RATE]
        return {
            "treatment_violations": lambda t: treatment_violations([0.5, 0.5], [(0, 1)], t),
            "solve_fair_mixture": lambda t: solve_fair_mixture(members, ds, kinds, t),
            "build_mixture_program": lambda t: build_mixture_program(
                member_counts(members, ds), kinds, t, Objective.MAX_ACCURACY
            ),
            "grid_oracle": lambda t: grid_oracle(members, ds, kinds, t, 10),
            "best_fair_single_threshold": lambda t: best_fair_single_threshold(ds, 0, t),
        }

    @pytest.mark.parametrize(
        "caller",
        ["treatment_violations", "solve_fair_mixture", "build_mixture_program",
         "grid_oracle", "best_fair_single_threshold"],
    )
    @pytest.mark.parametrize(
        "tolerance, message",
        [
            ("0.1", "tolerance must be a real number, got '0.1'"),
            (None, "tolerance must be a real number, got None"),
            ([0.1], "tolerance must be a real number, got [0.1]"),
            (True, "tolerance must be a real number, got True"),
            (np.True_, "tolerance must be a real number, got np.True_"),
            (10**400, "tolerance is an integer of 1329 bits, past the float range"),
            (-(10**5000), "tolerance is an integer of 16610 bits, past the float range"),
        ],
        ids=["str", "None", "list", "True", "np.True_", "10**400", "-10**5000"],
    )
    def test_tolerance_must_be_a_real_number(self, caller, tolerance, message):
        with pytest.raises(FairmixError, match=f"^{re.escape(message)}$"):
            self.tolerance_calls()[caller](tolerance)

    @pytest.mark.parametrize("tolerance", [0, np.float32(0.5), Fraction(1, 2), 10**300])
    def test_other_real_tolerances_accepted(self, tolerance):
        for caller, call in self.tolerance_calls().items():
            call(tolerance)


class TestSolveFairMixture:
    def test_single_fair_member(self):
        ds = Dataset.from_arrays([[0.0], [1.0]], [1, -1], [0, 1])
        fair = TableClassifier([1, 1], ds)  # accepts everyone: gap 0
        sol = solve_fair_mixture([fair], ds, [MetricKind.ACCEPTANCE_RATE], 0.0)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.weights.tolist() == [1.0]
        assert sol.accuracy == 0.5
        assert sol.gaps[MetricKind.ACCEPTANCE_RATE] == 0.0

    def test_opposed_gaps_force_even_split(self):
        ds, members = opposed_pair()
        sol = solve_fair_mixture(members, ds, [MetricKind.ACCEPTANCE_RATE], 0.0)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.weights == pytest.approx([0.5, 0.5], abs=1e-9)
        assert sol.accuracy == pytest.approx(0.5, abs=1e-9)
        assert abs(sol.gaps[MetricKind.ACCEPTANCE_RATE]) <= 1e-9

    def test_objective_disagreeing_with_the_weights_raises(self, monkeypatch):
        ds, members = thirds_pair()
        real = optimizer_mod.simplex_solve

        def shifted(problem):
            result = real(problem)
            return SimplexResult(result.status, result.x, result.objective + 1e-6, 0)

        monkeypatch.setattr(optimizer_mod, "simplex_solve", shifted)
        with pytest.raises(
            FairmixError,
            match=r"^LP objective \S+ disagrees with recomputed mixture accuracy \S+$",
        ):
            solve_fair_mixture(members, ds, [MetricKind.ACCEPTANCE_RATE], 0.0)
        # a feasibility solve has no objective to compare
        sol = solve_fair_mixture(
            members, ds, [MetricKind.ACCEPTANCE_RATE], 0.0, Objective.FEASIBILITY_ONLY
        )
        assert sol.status is SolveStatus.OPTIMAL

    def test_thirds_instance(self):
        ds, members = thirds_pair()
        sol = solve_fair_mixture(members, ds, [MetricKind.ACCEPTANCE_RATE], 0.0)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.weights == pytest.approx([1 / 3, 2 / 3], abs=1e-9)

    def test_infinite_tolerance_points_at_best_member(self):
        ds, members = opposed_pair()
        sol = solve_fair_mixture(
            members, ds, [MetricKind.ACCEPTANCE_RATE], math.inf
        )
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.weights == pytest.approx([1.0, 0.0], abs=1e-9)
        assert sol.accuracy == pytest.approx(1.0)
        assert sol.tolerance == math.inf

    @pytest.mark.parametrize("kinds", [ALL_LINEAR, [MetricKind.TPR]], ids=["three", "one"])
    @pytest.mark.parametrize("tolerance", [1.5, 3e307, 9e307, sys.float_info.max])
    def test_tolerance_no_gap_reaches_solves_as_infinity(self, rng, kinds, tolerance):
        # every gap lies in [-1, 1]; summed bounds near the float maximum
        # would overflow phase 1 and read as infeasible
        for _ in range(5):
            ds = make_random_dataset(rng, 30)
            members = make_random_members(rng, ds, 4)
            got = solve_fair_mixture(members, ds, kinds, tolerance)
            want = solve_fair_mixture(members, ds, kinds, math.inf)
            assert got.status is SolveStatus.OPTIMAL
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.accuracy == want.accuracy
            assert got.gaps == want.gaps
            assert got.tolerance == tolerance

    def test_tolerance_one_keeps_its_gap_rows(self, rng):
        ds = make_random_dataset(rng, 30)
        counts = member_counts(make_random_members(rng, ds, 3), ds)
        for tolerance, rows in ((1.0, 6), (np.nextafter(1.0, 2.0), 0)):
            program = build_mixture_program(counts, ALL_LINEAR, tolerance, Objective.MAX_ACCURACY)
            assert program.a_ub.shape == (rows, 3)

    def test_members_may_be_an_iterator(self, rng):
        ds = make_random_dataset(rng, 30)
        members = make_random_members(rng, ds, 3)
        want = member_counts(list(members), ds)
        got = member_counts(iter(list(members)), ds)
        assert np.array_equal(got.accepted, want.accepted)
        for solve in (
            lambda ms: solve_fair_mixture(ms, ds, ALL_LINEAR, 0.5),
            lambda ms: grid_oracle(ms, ds, ALL_LINEAR, 0.5, 10),
        ):
            assert solve(iter(members)).to_json_dict() == solve(members).to_json_dict()

    def test_infeasible(self):
        ds = Dataset.from_arrays([[0.0], [1.0]], [1, -1], [0, 1])
        members = [TableClassifier([1, -1], ds), TableClassifier([1, -1], ds)]
        sol = solve_fair_mixture(members, ds, [MetricKind.ACCEPTANCE_RATE], 0.0)
        assert sol.status is SolveStatus.INFEASIBLE
        assert sol.weights is None
        assert sol.accuracy is None
        assert sol.gaps == {} and sol.post_hoc_gaps == {}

    def test_feasibility_objective_reports_accuracy(self):
        ds, members = opposed_pair()
        sol = solve_fair_mixture(
            members,
            ds,
            [MetricKind.ACCEPTANCE_RATE],
            0.0,
            objective=Objective.FEASIBILITY_ONLY,
        )
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective is Objective.FEASIBILITY_ONLY
        ens = Ensemble(members, sol.weights)
        assert sol.accuracy == mixture_accuracy(ens, ds)

    def test_gaps_match_recomputation(self, rng):
        for _ in range(10):
            ds = make_random_dataset(rng, 16)
            members = make_random_members(rng, ds, 3)
            sol = solve_fair_mixture(members, ds, ALL_LINEAR, 0.3)
            if sol.status is not SolveStatus.OPTIMAL:
                continue
            ens = Ensemble(members, sol.weights)
            for kind in ALL_LINEAR:
                assert sol.gaps[kind] == ensemble_gap(ens, kind, ds)
                assert abs(sol.gaps[kind]) <= 0.3 + 1e-9
            assert sol.accuracy == mixture_accuracy(ens, ds)

    @pytest.mark.parametrize("kind", [MetricKind.PPV, MetricKind.NPV], ids=str)
    @pytest.mark.parametrize(
        "solve",
        [
            lambda ms, ds, kinds: solve_fair_mixture(ms, ds, kinds, 1e-9),
            lambda ms, ds, kinds: build_mixture_program(
                member_counts(ms, ds), kinds, 1e-9, Objective.MAX_ACCURACY
            ),
            lambda ms, ds, kinds: grid_oracle(ms, ds, kinds, 1e-9, 10),
        ],
        ids=["solve_fair_mixture", "build_mixture_program", "grid_oracle"],
    )
    def test_ratio_kinds_cannot_be_constrained(self, solve, kind):
        # members with PPV gap exactly 0 whose uniform mixture has a PPV
        # gap of 0.156: a ratio kind must be refused, not solved as linear
        witness = ppv_counterexample_search(seed=0, max_trials=10_000)
        with pytest.raises(FairmixError, match=f"cannot constrain {kind}: only kinds"):
            solve(list(witness.members), witness.dataset, [kind])

    @pytest.mark.parametrize("kind", ["tpr", ["tpr"], None], ids=["str", "list", "none"])
    @pytest.mark.parametrize(
        "solve",
        [
            lambda ms, ds, kinds: solve_fair_mixture(ms, ds, kinds, 1e-9),
            lambda ms, ds, kinds: grid_oracle(ms, ds, kinds, 1e-9, 10),
        ],
        ids=["solve_fair_mixture", "grid_oracle"],
    )
    def test_kind_that_is_not_a_metric_kind_rejected(self, solve, kind):
        # the CLI converts --metric names; a library caller may pass anything
        ds, members = opposed_pair()
        message = f"metric kind must be a MetricKind, got {kind!r}"
        with pytest.raises(FairmixError, match=re.escape(message)):
            solve(members, ds, [MetricKind.TPR, kind])

    def test_negative_tolerance_rejected(self):
        ds, members = opposed_pair()
        with pytest.raises(FairmixError, match="must be >= 0"):
            solve_fair_mixture(members, ds, [MetricKind.ACCEPTANCE_RATE], -0.1)

    def test_no_members_rejected(self):
        ds, _ = opposed_pair()
        with pytest.raises(FairmixError, match="at least one member"):
            solve_fair_mixture([], ds, [MetricKind.ACCEPTANCE_RATE], 0.1)

    def test_nan_tolerance_rejected(self):
        # NaN fails every comparison, so it once passed both the sign
        # check and the post-solve verification
        ds, members = opposed_pair()
        with pytest.raises(FairmixError, match="must be >= 0"):
            solve_fair_mixture(members, ds, [MetricKind.ACCEPTANCE_RATE], math.nan)

    @pytest.mark.parametrize(
        "solve",
        [
            lambda ms, ds, kinds: solve_fair_mixture(ms, ds, kinds, 0.1),
            lambda ms, ds, kinds: build_mixture_program(
                member_counts(ms, ds), kinds, 0.1, Objective.MAX_ACCURACY
            ),
            lambda ms, ds, kinds: grid_oracle(ms, ds, kinds, 0.1, 10),
        ],
        ids=["solve_fair_mixture", "build_mixture_program", "grid_oracle"],
    )
    def test_undefined_member_gap_rejected(self, solve):
        # no positive labels in group 0: TPR gap undefined for everyone
        ds = Dataset.from_arrays([[0.0], [1.0]], [-1, 1], [0, 1])
        members = [TableClassifier([1, 1], ds)]
        message = "^tpr is undefined for member 1; cannot constrain it$"
        with pytest.raises(FairmixError, match=message):
            solve(members, ds, [MetricKind.TPR])

    def test_post_hoc_ratio_gaps_reported(self):
        ds, members = thirds_pair()
        sol = solve_fair_mixture(members, ds, [MetricKind.ACCEPTANCE_RATE], 0.0)
        assert set(sol.post_hoc_gaps) == {MetricKind.PPV, MetricKind.NPV}
        ens = Ensemble(members, sol.weights)
        assert sol.post_hoc_gaps[MetricKind.PPV] == ensemble_gap(
            ens, MetricKind.PPV, ds
        )

    def test_json_shape(self):
        ds, members = opposed_pair()
        doc = solve_fair_mixture(
            members, ds, [MetricKind.ACCEPTANCE_RATE], 0.0
        ).to_json_dict()
        assert doc["status"] == "optimal"
        assert doc["objective"] == "max_accuracy"
        assert doc["gaps"].keys() == {"acceptance_rate"}
        assert doc["post_hoc_gaps"].keys() == {"ppv", "npv"}


def sweep_instance(seed=21, n=3000, m=120, d=4):
    """A seeded curve instance shaped like the benchmark's: equal groups with
    equal positives, and noisy linear members that favour one group."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    z = rng.permutation(np.arange(n) % 2)
    beta = rng.normal(size=d) * 2.0
    like = 1 / (1 + np.exp(-(x @ beta)))
    y = np.full(n, -1)
    for g in (0, 1):
        idx = np.flatnonzero(z == g)
        p = like[idx] / like[idx].sum()
        y[rng.choice(idx, int(0.45 * idx.size), replace=False, p=p)] = 1
    side = (1 - 2 * z)[:, None]
    a = beta[:, None] + rng.normal(scale=0.7, size=(d, m))
    score = (x @ a) * (1 + side * rng.normal(scale=0.5, size=m))
    score += side * rng.normal(scale=0.3, size=m)
    score += rng.normal(scale=0.3, size=m) + rng.normal(scale=0.5, size=(n, m))
    ds = Dataset.from_arrays(x, y, z)
    return ds, [TableClassifier(np.where(col >= 0, 1, -1), ds) for col in score.T]


#: Per tolerance of ``np.geomspace(5e-4, 0.1, 8)``: iterations, accuracy,
#: the (acceptance_rate, tpr, tnr) gaps, the (ppv, npv) post-hoc gaps and
#: the nonzero weights by member index, all as ``float.hex``. The accuracy
#: and the gaps are :func:`exact_mixture_hex` of the pinned weights.
SWEEP_PIN = [
    (21, '0x1.98eb5ae661d26p-1',
     ('0x1.a36e2eb1c4f7ep-15', '-0x1.0624dd2f1a958p-11', '-0x1.0624dd2f1aadcp-11'),
     ('-0x1.084b92f5c3051p-11', '-0x1.fa223591291a2p-12'),
     {55: '0x1.bf482ce6f0b03p-4', 114: '0x1.55875d778df43p-2', 117: '0x1.1d534ba75aefdp-1'}),
    (21, '0x1.98f0857b4da43p-1',
     ('0x1.bf0acaca045e8p-14', '-0x1.1766bebe42a61p-10', '-0x1.1766bebe42a9ep-10'),
     ('-0x1.19919d63771f2p-10', '-0x1.0dd7351501410p-10'),
     {55: '0x1.7ce6ced8b6b30p-4', 114: '0x1.6049581864ce9p-2', 117: '0x1.203e7a18b6c26p-1'}),
    (21, '0x1.98fb88c7c3d0ep-1',
     ('0x1.dc78bd4ed8acdp-13', '-0x1.29cb76514773dp-9', '-0x1.29cb765147726p-9'),
     ('-0x1.2bd20b5cd6769p-9', '-0x1.1fdd39ed9225bp-9'),
     {55: '0x1.decd58d15a669p-5', 114: '0x1.7737e64d397e6p-2', 117: '0x1.2677374c4d9a5p-1'}),
    (21, '0x1.990ea0a000feap-1',
     ('0x1.f68b7d35ffa7bp-11', '-0x1.f0ac3be9d6e5ep-9', '-0x1.3d662954a94a0p-8'),
     ('-0x1.2f7da42106744p-8', '-0x1.f656b24b00711p-9'),
     {114: '0x1.a36a530ba797ep-2', 117: '0x1.2e4ad67a2c341p-1'}),
    (24, '0x1.991363453c672p-1',
     ('0x1.a3d7d80e60d7cp-8', '0x1.a82d0ff17ba5ap-10', '-0x1.524b3fe002aa7p-7'),
     ('-0x1.f8159778b2906p-8', '-0x1.36d94146c048dp-12'),
     {114: '0x1.db33535bd8bb4p-2', 117: '0x1.1266565213a25p-1'}),
    (28, '0x1.991d8903116e1p-1',
     ('0x1.27399d5dd9b98p-6', '0x1.aebb58694d027p-7', '-0x1.689079f3ec5bfp-6'),
     ('-0x1.d2b60ef4676e9p-7', '0x1.d8e410e2916bap-8'),
     {114: '0x1.290ecdfa20d6cp-1', 117: '0x1.ade2640bbe527p-2'}),
    (25, '0x1.99332a85944fbp-1',
     ('0x1.5e66f639f0368p-5', '0x1.34f87106ea7d4p-5', '-0x1.804d061ddd9f8p-5'),
     ('-0x1.d07940821af8ap-6', '0x1.7b1fef6811bf5p-6'),
     {114: '0x1.a7cd26b102eeep-1', 117: '0x1.60cb653bf4449p-3'}),
    (29, '0x1.994237fa89e61p-1',
     ('0x1.eb851eb851eb8p-5', '0x1.c10aff9ee8dd8p-5', '-0x1.0723107231072p-4'),
     ('-0x1.39c37d570c7cfp-5', '0x1.17f9f56d7f9f5p-5'),
     {114: '0x1.0000000000000p+0'}),
]


#: per kind, (in the conditioning set, a hit) from a +-1 prediction and label row
CONDITIONS = {
    MetricKind.ACCEPTANCE_RATE: lambda p, y: (np.ones_like(p, dtype=bool), p == 1),
    MetricKind.TPR: lambda p, y: (y == 1, p == 1),
    MetricKind.TNR: lambda p, y: (y == -1, p == -1),
    MetricKind.PPV: lambda p, y: (p == 1, y == 1),
    MetricKind.NPV: lambda p, y: (p == -1, y == -1),
}


def exact_mixture_hex(ds, members, weights):
    """The accuracy, the (acceptance_rate, tpr, tnr) gaps and the (ppv, npv)
    gaps of the mixture ``{member index: weight}``, each the exact
    ``Fraction`` from the instances, the weights taken as the binary fractions
    they are and normalised to sum 1, then correctly rounded, as ``float.hex``."""
    w = {j: Fraction(x) for j, x in weights.items()}
    y, groups = ds.labels, ds.sensitive

    def gap(kind):
        rates = []
        for z in (0, 1):
            hits = size = Fraction(0)
            for j, wj in w.items():
                cond, hit = CONDITIONS[kind](members[j].predictions, y)
                cond = cond & (groups == z)
                size += wj * int(cond.sum())
                hits += wj * int((cond & hit).sum())
            rates.append(hits / size)
        return float(rates[0] - rates[1]).hex()

    correct = sum(wj * int((members[j].predictions == y).sum()) for j, wj in w.items())
    return (
        float(correct / (sum(w.values()) * len(y))).hex(),
        tuple(gap(k) for k in ALL_LINEAR),
        tuple(gap(k) for k in (MetricKind.PPV, MetricKind.NPV)),
    )


class TestSweepPin:
    def test_curve_is_bit_for_bit(self):
        # the iterations and weights are the solver's on the exact G/D gap
        # rows, so any change to a pivot moves a bit here; the accuracy and
        # gaps are the exact values of those weights
        ds, members = sweep_instance()
        tolerances = np.geomspace(5e-4, 0.1, 8).tolist()
        for tol, pin in zip(tolerances, SWEEP_PIN):
            weights = {j: float.fromhex(w) for j, w in pin[4].items()}
            assert pin[1:4] == exact_mixture_hex(ds, members, weights), tol
            sol = solve_fair_mixture(members, ds, ALL_LINEAR, tol)
            assert sol.status is SolveStatus.OPTIMAL
            weights = sol.weights.tolist()
            got = (
                sol.iterations,
                sol.accuracy.hex(),
                tuple(sol.gaps[k].hex() for k in ALL_LINEAR),
                tuple(sol.post_hoc_gaps[k].hex() for k in (MetricKind.PPV, MetricKind.NPV)),
                {i: w.hex() for i, w in enumerate(weights) if w},
            )
            assert got == pin, tol
            assert all(w.hex() == "0x0.0p+0" for w in weights if not w)
            # a second solve on the same members reads the stored counts
            assert solve_fair_mixture(members, ds, ALL_LINEAR, tol).weights.tobytes() == (
                sol.weights.tobytes()
            )


class TestSolutionMeetsReport:
    @pytest.mark.parametrize("tol", [1e-9, 0.01])
    def test_solution_numbers_equal_the_report(self, rng, tol):
        # the solve and a report on its weights read one exact row, so they
        # print the same bytes. On figure 2 a float evaluation of the solve
        # read -9.99999999474e-10 where the report reads -1.00000000873e-09
        fig2 = figure2()
        cases = [(fig2.dataset, list(fig2.members), [MetricKind.ACCEPTANCE_RATE])]
        for _ in range(80):
            ds = make_random_dataset(rng, 30)
            members = make_random_members(rng, ds, int(rng.integers(2, 6)))
            cases.append((ds, members, ALL_LINEAR[: int(rng.integers(1, 4))]))
        solved = 0
        for ds, members, kinds in cases:
            try:
                sol = solve_fair_mixture(members, ds, kinds, tol)
            except FairmixError as exc:  # a float vertex past tol + 1e-9 (ROADMAP item 4)
                assert tol == 1e-9 and "violating" in str(exc)
                continue
            if sol.status is not SolveStatus.OPTIMAL:
                continue
            solved += 1
            report = ensemble_report(Ensemble(members, sol.weights), ds, tolerance=tol)
            gaps = {entry.kind: entry.gap for entry in report.metrics}
            want = (
                report.accuracy,
                {k: gaps[k] for k in sol.gaps},
                {k: gaps[k] for k in sol.post_hoc_gaps},
            )
            assert repr((sol.accuracy, sol.gaps, sol.post_hoc_gaps)) == repr(want)
        assert solved >= 30


def recursive_compositions(total, parts):
    """The recursive generator the stars-and-bars lattice replaced."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in recursive_compositions(total - head, parts - 1):
            yield (head,) + tail


def stars_and_bars(total, parts):
    """The ``itertools`` lattice the index-gather construction replaced.

    ``parts - 1`` bars among ``total + parts - 1`` slots leave ``total``
    stars in ``parts`` runs. Bar positions come in lexicographic order,
    and so do the run lengths they encode.
    """
    slots = total + parts - 1
    count = math.comb(slots, parts - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), parts - 1)),
        dtype=np.int64,
        count=count * (parts - 1),  # without it, parts=1 cannot be reshaped
    ).reshape(count, parts - 1)
    return np.diff(bars, axis=1, prepend=-1, append=slots) - 1


def stars_and_bars_oracle(members, dataset, constrained, tolerance, resolution):
    """``grid_oracle``'s search in exact rationals, point by point.

    Every ``stars_and_bars`` point k/r is kept when each constrained gap,
    a ``Fraction`` sum of k_j/r times member j's ``Fraction`` gap, is at
    most ``tolerance`` in absolute value, the tolerance read as the
    shortest decimal that parses back to it (``Fraction(repr(tolerance))``).
    Returns the first point of highest exact accuracy, that accuracy as a
    ``Fraction``, and the number of points kept.
    """
    counts = member_counts(members, dataset)
    rows = []
    for kind in sorted(set(constrained), key=lambda k: k.value):
        (n0, d0), (n1, d1) = (counts.counts(kind, z) for z in (0, 1))
        rows.append([
            Fraction(int(a), int(b)) - Fraction(int(c), int(d))
            for a, b, c, d in zip(n0, d0, n1, d1)
        ])
    n = int(counts.sizes.sum())
    member_accuracies = [Fraction(round(a * n), n) for a in counts.accuracies()]
    slack = Fraction(repr(tolerance)) if math.isfinite(tolerance) else None
    best, best_point, count = None, None, 0
    for point in stars_and_bars(resolution, len(members)).tolist():
        w = [Fraction(k, resolution) for k in point]
        if slack is not None and any(
            abs(sum(wj * gj for wj, gj in zip(w, row))) > slack for row in rows
        ):
            continue
        count += 1
        value = sum(wj * aj for wj, aj in zip(w, member_accuracies))
        if best is None or value > best:
            best, best_point = value, point
    return best_point, best, count


class TestGridOracle:
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_resolution_past_the_index_type_rejected(self, rng, m):
        ds = make_random_dataset(rng, 20)
        members = make_random_members(rng, ds, m)
        with pytest.raises(FairmixError, match=f"grid resolution {10**20} is too large"):
            grid_oracle(members, ds, [MetricKind.ACCEPTANCE_RATE], 0.1, 10**20)

    @pytest.mark.parametrize("resolution", [10.0, 10.5, True, "20"])
    def test_non_integer_resolution_rejected(self, rng, resolution):
        ds = make_random_dataset(rng, 20)
        members = make_random_members(rng, ds, 3)
        with pytest.raises(FairmixError, match="grid resolution must be an integer"):
            grid_oracle(members, ds, [MetricKind.ACCEPTANCE_RATE], 0.1, resolution)

    def test_decided_without_the_lp_gap_rows(self, rng, monkeypatch):
        # the oracle reads exact counts only, so the LP's float gap rows are
        # never built, not even to reject an undefined kind
        ds = make_random_dataset(rng, 20)
        members = make_random_members(rng, ds, 3)
        want = grid_oracle(members, ds, ALL_LINEAR, 0.1, 20).to_json_dict()

        def built(*args):
            raise AssertionError("grid_oracle built the LP's gap rows")

        monkeypatch.setattr(optimizer_mod, "_gap_rows", built)
        assert grid_oracle(members, ds, ALL_LINEAR, 0.1, 20).to_json_dict() == want
        # no positive labels in group 0: TPR undefined for every member, which
        # is named before the lattice is sized, even at an infinite tolerance
        ds = Dataset.from_arrays([[0.0], [1.0]], [-1, 1], [0, 1])
        members = [TableClassifier([1, 1], ds), TableClassifier([-1, 1], ds)]
        with pytest.raises(FairmixError, match="^tpr is undefined for member 1; cannot"):
            grid_oracle(members, ds, [MetricKind.ACCEPTANCE_RATE, MetricKind.TPR], 0.1, 10)
        with pytest.raises(FairmixError, match="^tpr is undefined for member 1; cannot"):
            grid_oracle(members, ds, [MetricKind.TPR], math.inf, 10**20)

    def test_lattice_matches_recursive_compositions(self):
        for total in (10, 13, 50):
            for parts in (1, 2, 3, 4):
                want = np.array(list(recursive_compositions(total, parts)))
                assert np.array_equal(_lattice(total, parts), want)

    def test_lattice_matches_stars_and_bars(self):
        cases = [(t, p) for t in range(31) for p in range(1, 6)] + [(100, 4), (200, 3)]
        for total, parts in cases:
            got, want = _lattice(total, parts), stars_and_bars(total, parts)
            assert got.dtype == want.dtype == np.int64
            assert got.shape == want.shape
            assert np.array_equal(got, want), (total, parts)
            assert got.flags.c_contiguous

    def test_oracle_matches_stars_and_bars_oracle(self, rng):
        # exact on both sides, so every field agrees, ties included
        partly_feasible = 0
        for _ in range(6):
            ds = make_random_dataset(rng, 40)
            members = make_random_members(rng, ds, 4)
            tol = float(rng.uniform(0.02, 0.3))
            oracle = grid_oracle(members, ds, ALL_LINEAR, tol, resolution=24)
            point, best, count = stars_and_bars_oracle(members, ds, ALL_LINEAR, tol, 24)
            assert oracle.feasible_count == count
            if count == 0:
                assert oracle.weights is None and oracle.accuracy is None
                continue
            assert oracle.weights.tolist() == [k / 24 for k in point]
            assert oracle.accuracy == float(best)
            partly_feasible += count < math.comb(27, 3)
        assert partly_feasible >= 3

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("tolerance", [0.0, 1e-9, 0.05, math.inf])
    def test_small_lattices_match_stars_and_bars_oracle(self, rng, m, tolerance):
        for _ in range(4):
            ds = make_random_dataset(rng, 12)
            members = make_random_members(rng, ds, m)
            if m > 1 and rng.random() < 0.5:
                members[-1] = members[0]  # whole lines of ties
            for kinds in ([], [MetricKind.TPR], ALL_LINEAR):
                oracle = grid_oracle(members, ds, kinds, tolerance, resolution=12)
                point, best, count = stars_and_bars_oracle(members, ds, kinds, tolerance, 12)
                assert oracle.feasible_count == count
                if count:
                    assert oracle.weights.tolist() == [k / 12 for k in point]
                    assert oracle.accuracy == float(best)
                else:
                    assert oracle.weights is None and oracle.accuracy is None

    def test_figure2_tie_goes_to_the_smaller_vector(self, tmp_path):
        # at resolution 200, (49, 98, 53)/200 and (0, 0, 200)/200 both reach
        # exactly 13/18; as floats the first rounds one ulp higher
        assert entrypoint(["figure", "2", "--out-dir", str(tmp_path)]) == 0
        ds = load_dataset(str(tmp_path / "dataset.csv"))
        members = load_prediction_matrix(str(tmp_path / "predictions.csv"), ds)
        counts = member_counts(members, ds)
        correct = [round(a * len(ds)) for a in counts.accuracies()]
        for point in ([49, 98, 53], [0, 0, 200]):
            assert Fraction(sum(k * c for k, c in zip(point, correct)), 200 * len(ds)) == (
                Fraction(13, 18)
            )
        oracle = grid_oracle(members, ds, [MetricKind.ACCEPTANCE_RATE], 1e-9, 200)
        assert oracle.weights.tolist() == [0.0, 0.0, 1.0]
        assert oracle.accuracy == 13 / 18
        assert oracle.feasible_count == 67

    def test_numerators_past_int64(self):
        # r * |G| passes 2**63, so the oracle works in Python ints; the
        # feasible interval of t = k_1 is found here from Fractions
        rng = np.random.default_rng(7)
        n = 4000
        labels = rng.choice((-1, 1), size=n)
        sensitive = np.arange(n) % 2
        ds = Dataset.from_arrays(np.zeros((n, 1)), labels, sensitive)
        # acceptance rates 0.7 and 0.3 by group, then 0.2 and 0.6
        members = [
            TableClassifier(np.where(rng.random(n) < np.where(sensitive, q1, q0), 1, -1), ds)
            for q0, q1 in ((0.7, 0.3), (0.2, 0.6))
        ]
        kind, tol, r = MetricKind.ACCEPTANCE_RATE, 0.004, 10**13
        counts = member_counts(members, ds)
        (n0, d0), (n1, d1) = (counts.counts(kind, z) for z in (0, 1))
        d0, d1 = int(d0[0]), int(d1[0])
        numerators = [int(a) * d1 - int(b) * d0 for a, b in zip(n0, n1)]
        assert r * max(abs(g) for g in numerators) > 2**63
        gaps = [Fraction(g, d0 * d1) for g in numerators]
        # |t*g1 + (r - t)*g2| <= r*slack, linear in t
        slack = Fraction(repr(tol)) * r
        slope, base = gaps[0] - gaps[1], r * gaps[1]
        ends = sorted(((-slack - base) / slope, (slack - base) / slope))
        lo, hi = max(0, math.ceil(ends[0])), min(r, math.floor(ends[1]))
        assert 0 < lo < hi < r  # the interval is cut on both sides
        correct = [round(a * n) for a in counts.accuracies()]
        t = hi if correct[0] > correct[1] else lo
        oracle = grid_oracle(members, ds, [kind], tol, r)
        assert oracle.feasible_count == hi - lo + 1
        assert oracle.weights.tolist() == [t / r, (r - t) / r]
        assert oracle.accuracy == float(Fraction(t * correct[0] + (r - t) * correct[1], r * n))

    def test_tolerance_read_as_its_shortest_decimal(self):
        # the one lattice point has a gap of exactly 3/10: 0.3 reads as 3/10,
        # and a tolerance 5e-13 below it excludes the point, with no slack
        ds, member = make_three_tenths_gap()
        kinds = [MetricKind.ACCEPTANCE_RATE]
        assert grid_oracle([member], ds, kinds, 0.3, 10).feasible_count == 1
        oracle = grid_oracle([member], ds, kinds, 0.2999999999995, 10)
        assert oracle.feasible_count == 0
        assert oracle.weights is None and oracle.accuracy is None

    def test_single_member(self, rng):
        ds = make_random_dataset(rng, 8)
        members = make_random_members(rng, ds, 1)
        oracle = grid_oracle(members, ds, [], tolerance=0.0, resolution=10)
        # the one-member simplex has a single lattice point: (10,)/10
        assert oracle.weights.tolist() == [1.0]
        assert oracle.feasible_count == 1
        from fairmix import accuracy

        assert oracle.accuracy == accuracy(members[0].predictions, ds)

    def test_exact_thirds_point(self):
        ds, members = thirds_pair()
        oracle = grid_oracle(
            members,
            ds,
            [MetricKind.ACCEPTANCE_RATE],
            tolerance=1e-9,
            resolution=999,
        )
        assert oracle.feasible_count == 1
        assert oracle.weights[0] == 1 / 3  # bit-exact: 333/999 rounds like 1/3
        assert oracle.weights[1] == 2 / 3
        assert oracle.resolution == 999

    def test_even_split_lattice(self):
        ds, members = opposed_pair()
        oracle = grid_oracle(
            members, ds, [MetricKind.ACCEPTANCE_RATE], tolerance=0.0, resolution=10
        )
        assert oracle.feasible_count == 1
        assert oracle.weights.tolist() == [0.5, 0.5]
        assert oracle.accuracy == pytest.approx(0.5)

    def test_nothing_feasible(self):
        ds = Dataset.from_arrays([[0.0], [1.0]], [1, -1], [0, 1])
        members = [TableClassifier([1, -1], ds), TableClassifier([1, -1], ds)]
        oracle = grid_oracle(
            members, ds, [MetricKind.ACCEPTANCE_RATE], tolerance=0.0, resolution=10
        )
        assert oracle == GridOracleResult(None, None, 0, 10)

    def test_tie_breaks_lexicographically_smallest(self, rng):
        ds = make_random_dataset(rng, 8)
        preds = rng.choice((-1, 1), size=len(ds))
        members = [TableClassifier(preds, ds), TableClassifier(preds, ds)]
        oracle = grid_oracle(members, ds, [], tolerance=0.0, resolution=10)
        # identical members: all points tie on accuracy; first composition
        # (0, 10)/10 is the lexicographically smallest weight vector
        assert oracle.weights.tolist() == [0.0, 1.0]

    def test_member_cap(self, rng):
        ds = make_random_dataset(rng, 8)
        members = make_random_members(rng, ds, 5)
        with pytest.raises(FairmixError, match="at most 4 members"):
            grid_oracle(members, ds, [], 0.1, 10)

    def test_resolution_floor(self, rng):
        ds = make_random_dataset(rng, 8)
        members = make_random_members(rng, ds, 2)
        with pytest.raises(FairmixError, match="resolution must be >= 10"):
            grid_oracle(members, ds, [], 0.1, 9)

    @pytest.mark.parametrize("tolerance", [math.nan, -0.1])
    def test_invalid_tolerance_rejected(self, rng, tolerance):
        ds = make_random_dataset(rng, 8)
        members = make_random_members(rng, ds, 2)
        with pytest.raises(FairmixError, match="must be >= 0"):
            grid_oracle(members, ds, [MetricKind.ACCEPTANCE_RATE], tolerance, 10)

    def test_never_beats_the_lp(self, rng):
        # the lattice is a subset of the LP's feasible region, so the
        # oracle's best accuracy can exceed the LP's only by slack noise
        agreements = 0
        for _ in range(20):
            ds = make_random_dataset(rng, 18)
            m = int(rng.integers(2, 4))
            members = make_random_members(rng, ds, m)
            tol = float(rng.uniform(0.05, 0.5))
            sol = solve_fair_mixture(
                members, ds, [MetricKind.ACCEPTANCE_RATE], tol
            )
            oracle = grid_oracle(
                members, ds, [MetricKind.ACCEPTANCE_RATE], tol, resolution=20
            )
            if sol.status is SolveStatus.OPTIMAL and oracle.feasible_count:
                assert oracle.accuracy <= sol.accuracy + 1e-9
                agreements += 1
            else:
                # a feasible lattice point inside an infeasible LP would
                # contradict set inclusion
                assert not (
                    sol.status is SolveStatus.INFEASIBLE and oracle.feasible_count > 0
                )
        assert agreements >= 10


def reference_sweep(dataset, feature_index, tolerance):
    """The per-candidate loop the count-based sweep replaced.

    Builds, predicts and counts every rule; the first strictly better
    fair rule wins. Returns (threshold, direction, accuracy, gap, rule).
    """
    values = np.unique(dataset.features[:, feature_index])
    with np.errstate(over="ignore"):
        low = min(values[0] - 1.0, np.nextafter(values[0], -np.inf))
        high = max(values[-1] + 1.0, np.nextafter(values[-1], np.inf))
    candidates = [float(t) for t in (low, *values, high) if np.isfinite(t)]
    z = dataset.sensitive
    best = None
    for threshold in candidates:
        for direction, sign in (("+", 1.0), ("-", -1.0)):
            weights = [0.0] * dataset.dimension
            weights[feature_index] = sign
            rule = LinearClassifier(tuple(weights), 0.0, -sign * threshold)
            predictions = rule.predict_all(dataset)
            gap = fairness_gap(MetricKind.ACCEPTANCE_RATE, predictions, dataset)
            # the verdict is exact, on the rates as fractions: a float gap
            # can round onto the tolerance (1/3 at tolerance 1/3)
            if gap is None or abs(
                Fraction(int(np.sum(predictions[z == 0] == 1)), int(np.sum(z == 0)))
                - Fraction(int(np.sum(predictions[z == 1] == 1)), int(np.sum(z == 1)))
            ) > Fraction(repr(tolerance)):
                continue
            acc = accuracy(predictions, dataset)
            if best is None or acc > best[2]:
                best = (threshold, direction, acc, gap, rule)
    return best


#: ties, signed zeros, the extremes of the double range and a subnormal
FEATURE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 1e308, -1e308, 5e-324, 0.5]),
    st.integers(-3, 3).map(float),
    st.floats(-1e6, 1e6, allow_nan=False).map(lambda v: round(v, 1)),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def sweep_cases(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    features = [[draw(FEATURE_VALUES) for _ in range(d)] for _ in range(n)]
    labels = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    # all-one-group datasets leave a group empty, so every gap is undefined
    groups = draw(
        st.one_of(
            st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n),
            st.sampled_from((0, 1)).map(lambda z: [z] * n),
        )
    )
    ds = Dataset.from_arrays(np.asarray(features), labels, groups)
    tolerance = draw(st.sampled_from([0.0, 1e-9, 0.1, 1 / 3, 0.5, 1.0]))
    return ds, draw(st.integers(0, d - 1)), tolerance


class TestThresholdSweep:
    @settings(max_examples=300, deadline=None)
    @given(sweep_cases())
    def test_matches_per_candidate_loop(self, case):
        ds, feature_index, tolerance = case
        with np.errstate(over="ignore"):  # x - t overflows near 1e308
            want = reference_sweep(ds, feature_index, tolerance)
        rule = best_fair_single_threshold(ds, feature_index, tolerance)
        if want is None:
            assert rule is None
            return
        threshold, direction, acc, gap, classifier = want
        assert rule.threshold.hex() == threshold.hex()
        assert rule.direction == direction
        assert rule.accuracy.hex() == acc.hex()
        assert rule.gap.hex() == gap.hex()
        assert rule.classifier == classifier

    def test_perfect_fair_split(self):
        ds = Dataset.from_arrays(
            [[0.0], [1.0], [2.0], [3.0]], [-1, -1, 1, 1], [0, 1, 0, 1]
        )
        rule = best_fair_single_threshold(ds, 0, tolerance=0.0)
        assert rule is not None
        assert rule.accuracy == 1.0
        assert rule.direction == "+"
        assert rule.threshold == 2.0
        assert rule.gap == 0.0
        assert rule.classifier.predict_all(ds).tolist() == [-1, -1, 1, 1]

    def test_descending_rule_wins(self):
        ds = Dataset.from_arrays(
            [[0.0], [1.0], [2.0], [3.0]], [1, 1, -1, -1], [0, 1, 0, 1]
        )
        rule = best_fair_single_threshold(ds, 0, tolerance=0.0)
        assert rule.direction == "-"
        assert rule.threshold == 1.0
        assert rule.accuracy == 1.0

    def test_tie_breaks_to_smallest_threshold_then_plus(self):
        ds = Dataset.from_arrays([[5.0], [5.0]], [1, 1], [0, 1])
        rule = best_fair_single_threshold(ds, 0, tolerance=0.0)
        # accept-everyone is optimal and first achieved at the low sentinel
        assert rule.accuracy == 1.0
        assert rule.threshold == 4.0
        assert rule.direction == "+"

    def test_unfair_rules_are_skipped(self):
        # threshold at 2 would be perfect but accepts only group-0 rows;
        # the best *fair* rule must fall back to a constant decision
        ds = Dataset.from_arrays(
            [[0.0], [1.0], [2.0], [3.0]], [-1, -1, 1, 1], [1, 1, 0, 0]
        )
        rule = best_fair_single_threshold(ds, 0, tolerance=0.0)
        assert rule is not None
        assert rule.accuracy == 0.5
        assert abs(rule.gap) == 0.0

    def test_exhaustive_over_midpoint_family(self, rng):
        # independent candidate set: midpoints between consecutive values
        # realize every achievable accept set of the family
        from fairmix import accuracy, fairness_gap

        for _ in range(15):
            ds = make_random_dataset(rng, 12)
            tol = float(rng.uniform(0.0, 0.6))
            rule = best_fair_single_threshold(ds, 0, tolerance=tol)
            xs = ds.features[:, 0]
            vals = np.unique(xs)
            mids = [vals[0] - 1.0]
            mids += [(a + b) / 2 for a, b in zip(vals[:-1], vals[1:])]
            mids += [vals[0], *vals, vals[-1] + 1.0]
            best_acc = None
            for t in mids:
                for sign in (1.0, -1.0):
                    preds = np.where(sign * (xs - t) >= 0, 1, -1)
                    gap = fairness_gap(MetricKind.ACCEPTANCE_RATE, preds, ds)
                    if gap is None or abs(gap) > tol:
                        continue
                    acc = accuracy(preds, ds)
                    if best_acc is None or acc > best_acc:
                        best_acc = acc
            if best_acc is None:
                assert rule is None
            else:
                assert rule is not None
                assert rule.accuracy == pytest.approx(best_acc, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e17, 1e308])
    def test_reject_everyone_found_past_two_to_the_53(self, scale):
        # v - 1.0 rounds back to v here, so a sentinel of v - 1.0 would
        # lose the two rules that reject everyone
        ds = Dataset.from_arrays(
            [[scale], [1.5 * scale], [scale], [1.5 * scale]], [-1] * 4, [0, 0, 1, 1]
        )
        rule = best_fair_single_threshold(ds, 0, tolerance=0.0)
        assert rule.accuracy == 1.0
        assert (rule.threshold, rule.direction) == (np.nextafter(scale, -np.inf), "-")
        assert rule.classifier.predict_all(ds).tolist() == [-1] * 4

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_sentinels_stay_finite_at_the_largest_double(self, sign):
        # at -max the low sentinel would be -inf, and (-inf, "-") would win
        big = sign * np.finfo(float).max
        ds = Dataset.from_arrays([[big], [big]], [-1, -1], [0, 1])
        rule = best_fair_single_threshold(ds, 0, tolerance=0.0)
        assert math.isfinite(rule.threshold)
        assert rule.accuracy == 1.0

    def test_empty_group_yields_none(self):
        ds = Dataset.from_arrays([[0.0], [1.0]], [1, -1], [0, 0])
        assert best_fair_single_threshold(ds, 0, tolerance=1.0) is None

    def test_feature_index_validated(self):
        ds = Dataset.from_arrays([[0.0], [1.0]], [1, -1], [0, 1])
        with pytest.raises(FairmixError, match="feature index"):
            best_fair_single_threshold(ds, 1, tolerance=0.1)

    @pytest.mark.parametrize("index", [1.0, -0.0, True, np.bool_(False), "0"], ids=repr)
    def test_non_integer_feature_index_rejected(self, index):
        # 1.0 and -0.0 used to raise IndexError, and True "object too deep"
        ds = Dataset.from_arrays([[0.0, 1.0], [1.0, 0.0]], [1, -1], [0, 1])
        message = f"feature index must be an integer, got {index!r}"
        with pytest.raises(FairmixError, match=re.escape(message)):
            best_fair_single_threshold(ds, index, tolerance=0.1)

    def test_numpy_integer_feature_index_accepted(self):
        ds = Dataset.from_arrays([[0.0, 1.0], [1.0, 0.0]], [1, -1], [0, 1])
        assert best_fair_single_threshold(ds, np.int64(1), 0.1) == (
            best_fair_single_threshold(ds, 1, 0.1)
        )

    @pytest.mark.parametrize("tolerance", [math.nan, -1.0], ids=["nan", "negative"])
    def test_tolerance_validated(self, rng, tolerance):
        # every rule would pass a NaN tolerance: |gap| > nan is false
        ds = make_random_dataset(rng, 30)
        with pytest.raises(FairmixError, match="tolerance must be >= 0"):
            best_fair_single_threshold(ds, 0, tolerance)


class TestWitnessSearch:
    def test_frozen_seed_regression(self):
        witness = ppv_counterexample_search(seed=0, max_trials=10_000)
        assert witness is not None
        assert witness.trial_index == 2
        assert witness.seed == 0
        assert len(witness.dataset) == 26
        assert witness.ensemble_gap == 0.15584415584415584
        assert witness.member_gaps == (0.0, 0.0)
        assert witness.weights == (0.5, 0.5)

    def test_witness_is_self_consistent(self):
        witness = ppv_counterexample_search(seed=0, max_trials=10_000)
        ds = witness.dataset
        a, b = witness.members
        # member gaps: both PPVs defined and exactly equal on integer counts
        for member in (a, b):
            counts = member_counts([member], ds)
            (n0, d0), (n1, d1) = (counts.counts(MetricKind.PPV, z) for z in (0, 1))
            assert d0[0] > 0 and d1[0] > 0
            assert Fraction(int(n0[0]), int(d0[0])) == Fraction(int(n1[0]), int(d1[0]))
        # accept sets are disjoint and non-empty
        assert not np.any((a.predictions == 1) & (b.predictions == 1))
        assert np.any(a.predictions == 1) and np.any(b.predictions == 1)
        # ensemble gap: exact rational recomputation
        gap = Fraction(0)
        parts = {}
        counts = member_counts([a, b], ds)
        for z in (0, 1):
            num = den = Fraction(0)
            for h, s in zip(*counts.counts(MetricKind.PPV, z)):
                num += Fraction(1, 2) * int(h)
                den += Fraction(1, 2) * int(s)
            parts[z] = num / den
        gap = parts[0] - parts[1]
        assert float(gap) == witness.ensemble_gap
        assert abs(gap) >= Fraction(1, 20)
        # analytic ensemble machinery agrees
        ens = Ensemble([a, b], witness.weights)
        assert ensemble_gap(ens, MetricKind.PPV, ds) == pytest.approx(
            witness.ensemble_gap, abs=1e-12
        )

    def test_members_individually_fair_but_mixture_not(self):
        from fairmix import fairness_gap

        witness = ppv_counterexample_search(seed=0, max_trials=10_000)
        for member in witness.members:
            g = fairness_gap(MetricKind.PPV, member.predictions, witness.dataset)
            assert g == 0.0
        assert abs(witness.ensemble_gap) >= 0.05

    def test_deterministic(self):
        w1 = ppv_counterexample_search(seed=123, max_trials=10_000)
        w2 = ppv_counterexample_search(seed=123, max_trials=10_000)
        assert w1 is not None and w2 is not None
        assert w1.trial_index == w2.trial_index
        assert w1.dataset == w2.dataset
        assert np.array_equal(w1.members[0].predictions, w2.members[0].predictions)
        assert w1.ensemble_gap == w2.ensemble_gap

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_other_seeds_also_find_witnesses(self, seed):
        witness = ppv_counterexample_search(seed=seed, max_trials=10_000)
        assert witness is not None
        assert abs(witness.ensemble_gap) >= 0.05

    def test_zero_budget_finds_nothing(self):
        assert ppv_counterexample_search(seed=0, max_trials=0) is None

    def test_negative_budget_rejected(self):
        with pytest.raises(FairmixError, match="max_trials"):
            ppv_counterexample_search(seed=0, max_trials=-1)

    @pytest.mark.parametrize(
        "seed,message",
        [
            (2.5, "seed must be an integer, got 2.5"),
            (None, "seed must be an integer, got None"),
            (-1, "seed must be >= 0, got -1"),
        ],
        ids=repr,
    )
    def test_bad_seed_rejected(self, seed, message):
        # None used to draw from fresh entropy, 2.5 raised TypeError, -1 ValueError
        with pytest.raises(FairmixError, match=re.escape(message)):
            ppv_counterexample_search(seed=seed, max_trials=10)

    def test_numpy_integer_seed_finds_the_same_witness(self):
        a = ppv_counterexample_search(seed=np.int64(3), max_trials=10_000)
        b = ppv_counterexample_search(seed=3, max_trials=10_000)
        assert a.trial_index == b.trial_index and a.dataset == b.dataset

    @pytest.mark.parametrize("budget", [2.5, 3.0, True], ids=repr)
    def test_non_integer_budget_rejected(self, budget):
        # 2.5 used to raise TypeError from range()
        message = f"max_trials must be an integer, got {budget!r}"
        with pytest.raises(FairmixError, match=re.escape(message)):
            ppv_counterexample_search(seed=0, max_trials=budget)

    def test_numpy_integer_budget_accepted(self):
        witness = ppv_counterexample_search(seed=0, max_trials=np.int64(10_000))
        assert witness is not None and witness.trial_index == 2
