"""Simplex solver: textbook cases, edge statuses, a scipy cross-check and
the element-by-element reference it must match bit for bit."""

import re

import numpy as np
import pytest

from fairmix import FairmixError, LinearProgram, SolveStatus, simplex_solve


def solve(c, **kw):
    return simplex_solve(LinearProgram(c, **kw))


class TestValidation:
    def test_program_keeps_read_only_copies(self):
        c, a_ub, b_ub = np.array([2.0, 1.0]), np.array([[1.0, 1.0]]), np.array([1.0])
        problem = LinearProgram(c, a_ub=a_ub, b_ub=b_ub)
        before = simplex_solve(problem)
        c[:], a_ub[0, 0], b_ub[0] = (1.0, 3.0), np.nan, 5.0
        after = simplex_solve(problem)
        assert after.status is before.status is SolveStatus.OPTIMAL
        assert after.x.tolist() == before.x.tolist() == [1.0, 0.0]
        assert after.objective == before.objective == 2.0
        for name in ("c", "a_ub", "b_ub", "a_eq", "b_eq"):
            assert not getattr(problem, name).flags.writeable, name

    def test_fields_cannot_be_assigned(self):
        problem = LinearProgram([1.0], a_ub=[[1.0]], b_ub=[1.0])
        with pytest.raises(AttributeError, match="^cannot assign to field 'b_ub'$"):
            problem.b_ub = np.array([np.nan])
        assert simplex_solve(problem).x.tolist() == [1.0]

    def test_empty_objective(self):
        with pytest.raises(FairmixError, match="non-empty"):
            LinearProgram([])

    def test_column_mismatch(self):
        with pytest.raises(FairmixError, match="a_ub has 3 columns, expected 2"):
            LinearProgram([1.0, 2.0], a_ub=[[1.0, 0.0, 0.0]], b_ub=[1.0])

    def test_rhs_shape_mismatch(self):
        with pytest.raises(FairmixError, match="b_eq"):
            LinearProgram([1.0], a_eq=[[1.0]], b_eq=[1.0, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(FairmixError, match="non-finite"):
            LinearProgram([np.inf])
        with pytest.raises(FairmixError, match="non-finite"):
            LinearProgram([1.0], a_ub=[[np.nan]], b_ub=[0.0])

    def test_non_finite_entry_names_the_first_array_at_fault(self):
        with pytest.raises(FairmixError, match="^b_ub contains a non-finite entry$"):
            LinearProgram([1.0], a_ub=[[1.0]], b_ub=[np.inf], a_eq=[[np.nan]], b_eq=[1.0])
        with pytest.raises(FairmixError, match="^a_eq contains a non-finite entry$"):
            LinearProgram([1.0], a_ub=[[1.0]], b_ub=[1.0], a_eq=[[np.nan]], b_eq=[1.0])

    @pytest.mark.parametrize(
        "a_ub, message",
        [
            (np.ones((2, 2, 2)), "a_ub must be a matrix, got 3 dimensions"),
            (np.ones((1, 1, 2)), "a_ub must be a matrix, got 3 dimensions"),
            ([[1.0, 0.0], [1.0]], "a_ub entry must be a real number, got [1.0, 0.0]"),
            ([[1.0, "x"], [0.0, 1.0]], "a_ub entry must be a real number, got 'x'"),
            ([[1.0, "1.5"], [0.0, 1.0]], "a_ub entry must be a real number, got '1.5'"),
            ([[1.0, 1j], [0.0, 1.0]], "a_ub entry must be a real number, got 1j"),
            ([[1.0, 10**400], [0.0, 1.0]],
             "a_ub entry is an integer of 1329 bits, past the float range"),
        ],
        ids=["2x2x2", "1x1x2", "ragged", "string", "numeric string", "complex", "huge int"],
    )
    def test_malformed_matrix_rejected(self, a_ub, message):
        with pytest.raises(FairmixError, match=f"^{re.escape(message)}$"):
            LinearProgram([1.0, 2.0], a_ub=a_ub, b_ub=[1.0, 1.0])

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"c": ["1"]}, "c entry must be a real number, got '1'"),
            ({"c": [1.0], "a_eq": [[1.0], []], "b_eq": [1.0, 1.0]},
             "a_eq entry must be a real number, got [1.0]"),
            ({"c": [1.0], "a_ub": [[1.0]], "b_ub": [[1.0], []]},
             "b_ub entry must be a real number, got [1.0]"),
            ({"c": [1.0], "a_eq": [[1.0]], "b_eq": ["1"]},
             "b_eq entry must be a real number, got '1'"),
        ],
        ids=["kwargs0-c", "kwargs1-a_eq", "kwargs2-b_ub", "kwargs3-b_eq"],
    )
    def test_malformed_argument_named(self, kwargs, message):
        with pytest.raises(FairmixError, match=f"^{re.escape(message)}$"):
            LinearProgram(**kwargs)

    def test_n_variables(self):
        assert LinearProgram([1.0, 0.0, 0.0]).n_variables == 3


class TestTextbookCases:
    def test_point_mass_on_best_coordinate(self):
        # maximize x1 on the probability simplex
        res = solve([1.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
        assert res.status is SolveStatus.OPTIMAL
        assert res.x.tolist() == [1.0, 0.0]
        assert res.objective == 1.0

    def test_classic_two_variable(self):
        # maximize 3x + 5y, x <= 4, 2y <= 12, 3x + 2y <= 18
        res = solve(
            [3.0, 5.0],
            a_ub=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
            b_ub=[4.0, 12.0, 18.0],
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.x == pytest.approx([2.0, 6.0])
        assert res.objective == pytest.approx(36.0)

    def test_infeasible_sign_constraint(self):
        # x1 <= -1 contradicts x >= 0
        res = solve([1.0, 0.0], a_ub=[[1.0, 0.0]], b_ub=[-1.0])
        assert res.status is SolveStatus.INFEASIBLE
        assert res.x is None and res.objective is None

    def test_infeasible_equalities(self):
        res = solve([1.0], a_eq=[[1.0], [1.0]], b_eq=[1.0, 2.0])
        assert res.status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        res = solve([1.0, 1.0], a_ub=[[1.0, -1.0]], b_ub=[1.0])
        assert res.status is SolveStatus.UNBOUNDED

    def test_unconstrained_is_unbounded(self):
        assert solve([1.0]).status is SolveStatus.UNBOUNDED

    def test_zero_objective_feasibility_only(self):
        res = solve([0.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == 0.0
        assert res.x.sum() == pytest.approx(1.0)

    def test_negative_rhs_row_flip(self):
        # -x1 <= -2 means x1 >= 2
        res = solve([-1.0], a_ub=[[-1.0]], b_ub=[-2.0])
        assert res.status is SolveStatus.OPTIMAL
        assert res.x == pytest.approx([2.0])

    def test_redundant_equality_rows_dropped(self):
        # the same hyperplane twice: still solvable, not infeasible
        res = solve(
            [1.0, 2.0],
            a_eq=[[1.0, 1.0], [2.0, 2.0]],
            b_eq=[1.0, 2.0],
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(2.0)

    def test_degenerate_vertex_terminates(self):
        # many constraints meet at the optimum; Bland must not cycle
        res = solve(
            [1.0, 1.0],
            a_ub=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
            b_ub=[1.0, 1.0, 2.0, 2.0],
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(2.0)

    def test_beale_cycling_example_terminates(self):
        # Beale (1955): from the slack basis, the most-negative-reduced-cost
        # rule cycles on this LP. Bland's rule, from the artificial basis,
        # reaches the optimum in 6 pivots (5 under that other rule here)
        res = solve(
            [0.75, -150.0, 0.02, -6.0],
            a_ub=[
                [0.25, -60.0, -0.04, 9.0],
                [0.5, -90.0, -0.02, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ],
            b_ub=[0.0, 0.0, 1.0],
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(0.05)
        assert res.x == pytest.approx([0.04, 0.0, 1.0, 0.0])
        assert res.iterations == 6

    def test_status_string_form(self):
        assert str(SolveStatus.OPTIMAL) == "optimal"
        assert str(SolveStatus.INFEASIBLE) == "infeasible"
        assert str(SolveStatus.UNBOUNDED) == "unbounded"


class TestAgainstScipy:
    """Randomized differential test against scipy's HiGHS LP solver."""

    def test_random_problems(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(2024)
        status_map = {0: SolveStatus.OPTIMAL, 2: SolveStatus.INFEASIBLE,
                      3: SolveStatus.UNBOUNDED}
        checked = 0
        for _ in range(120):
            n = int(rng.integers(1, 6))
            m_ub = int(rng.integers(0, 4))
            m_eq = int(rng.integers(0, 3))
            c = rng.normal(size=n).round(3)
            kw = {}
            if m_ub:
                kw["a_ub"] = rng.normal(size=(m_ub, n)).round(3)
                kw["b_ub"] = rng.normal(size=m_ub).round(3)
            if m_eq:
                kw["a_eq"] = rng.normal(size=(m_eq, n)).round(3)
                kw["b_eq"] = rng.normal(size=m_eq).round(3)
            problem = LinearProgram(c, **kw)
            ref = linprog(
                -c,
                A_ub=kw.get("a_ub"), b_ub=kw.get("b_ub"),
                A_eq=kw.get("a_eq"), b_eq=kw.get("b_eq"),
                method="highs",
            )
            if ref.status not in status_map:  # numerical trouble: skip case
                continue
            res = simplex_solve(problem)
            assert res.status is status_map[ref.status], (
                f"status mismatch on c={c.tolist()} kw={kw}"
            )
            if res.status is SolveStatus.OPTIMAL:
                assert res.objective == pytest.approx(-ref.fun, abs=1e-7)
                # the solution itself must be feasible
                if m_ub:
                    assert np.all(kw["a_ub"] @ res.x <= kw["b_ub"] + 1e-7)
                if m_eq:
                    assert np.allclose(kw["a_eq"] @ res.x, kw["b_eq"], atol=1e-7)
                assert np.all(res.x >= -1e-12)
            checked += 1
        assert checked >= 100  # the skip branch must stay exceptional


def reference_simplex(problem, tol=1e-9):
    """The element-by-element tableau method the array version replaced.

    Same tableau, same Bland choices, one row or column at a time.
    Returns (status, x, objective, pivots).
    """
    n, m_ub = problem.n_variables, problem.a_ub.shape[0]
    m = m_ub + problem.a_eq.shape[0]
    real = n + m_ub
    n_cols = real + m
    body = np.zeros((m, real))
    body[:m_ub, :n] = problem.a_ub
    body[:m_ub, n:] = np.eye(m_ub)
    body[m_ub:, :n] = problem.a_eq
    rhs = np.concatenate([problem.b_ub, problem.b_eq])
    body[rhs < 0] *= -1.0
    tableau = np.zeros((m + 1, n_cols + 1))
    tableau[:m, :real] = body
    tableau[:m, real:n_cols] = np.eye(m)
    tableau[:m, -1] = np.abs(rhs)
    tableau[-1, real:n_cols] = 1.0
    tableau[-1] -= tableau[:m].sum(axis=0)
    basis = list(range(real, n_cols))

    def pivot(t, basis, row, col):
        t[row] /= t[row, col]
        for r in range(t.shape[0]):
            if r != row and t[r, col] != 0.0:
                t[r] -= t[r, col] * t[row]
        basis[row] = col

    def run(t, basis):
        pivots = 0
        while True:
            entering = next((j for j in range(t.shape[1] - 1) if t[-1, j] < -tol), -1)
            if entering < 0:
                return True, pivots
            leaving, best = -1, np.inf
            for i in range(len(basis)):
                a = t[i, entering]
                if a > tol:
                    ratio = t[i, -1] / a
                    if ratio < best - tol or (
                        ratio < best + tol
                        and (leaving < 0 or basis[i] < basis[leaving])
                    ):
                        best = min(best, ratio)
                        leaving = i
            if leaving < 0:
                return False, pivots
            pivot(t, basis, leaving, entering)
            pivots += 1

    _, pivots = run(tableau, basis)
    if -tableau[-1, -1] > tol:
        return SolveStatus.INFEASIBLE, None, None, pivots
    keep = []
    for i in range(m):
        if basis[i] < real:
            keep.append(i)
            continue
        col = next((j for j in range(real) if abs(tableau[i, j]) > tol), -1)
        if col >= 0:
            pivot(tableau, basis, i, col)
            pivots += 1
            keep.append(i)
    tableau = tableau[keep + [m]][:, list(range(real)) + [n_cols]]
    basis = [basis[i] for i in keep]
    cost = np.zeros(real + 1)
    cost[:n] = -problem.c
    tableau[-1] = cost
    for i, b in enumerate(basis):
        if cost[b] != 0.0:
            tableau[-1] -= cost[b] * tableau[i]
    bounded, extra = run(tableau, basis)
    pivots += extra
    if not bounded:
        return SolveStatus.UNBOUNDED, None, None, pivots
    x = np.zeros(real)
    x[basis] = tableau[:-1, -1]
    x = x[:n]
    x[np.abs(x) < tol] = 0.0
    return SolveStatus.OPTIMAL, x, float(np.dot(problem.c, x)), pivots


def random_program(rng):
    """Small LP: integer or Gaussian data, negative right-hand sides,
    sometimes redundant equality rows or a probability-simplex row."""
    n = int(rng.integers(1, 9))
    m_ub, m_eq = int(rng.integers(0, 6)), int(rng.integers(0, 4))
    if rng.random() < 0.5:
        data = lambda shape: rng.integers(-3, 4, size=shape).astype(float)
    else:
        data = lambda shape: rng.normal(size=shape)
    c = data(n)
    a_ub, a_eq = data((m_ub, n)), data((m_eq, n))
    if m_eq and rng.random() < 0.4:
        a_eq = np.vstack([a_eq, rng.integers(-2, 3, size=(2, m_eq)) @ a_eq])
    if rng.random() < 0.5:  # right-hand sides from a point x0 >= 0: feasible
        x0 = np.where(rng.random(n) < 0.5, 0.0, data(n) ** 2)
        b_ub = a_ub @ x0 + np.where(rng.random(m_ub) < 0.5, 0.0, np.abs(data(m_ub)))
        b_eq = a_eq @ x0
    else:
        b_ub, b_eq = data(m_ub), data(a_eq.shape[0])
    if rng.random() < 0.3:
        a_eq = np.vstack([a_eq, np.ones((1, n))])
        b_eq = np.append(b_eq, 1.0)
    return LinearProgram(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)


def frontier_program(rng):
    """An LP shaped like one fairness-curve solve: 50-256 member columns,
    the simplex row, and k <= 3 pairs of +-gap rows at one tolerance."""
    n, k = int(rng.integers(50, 257)), int(rng.integers(0, 4))
    tol = float(rng.choice([0.0, 5e-4, 0.1]))
    c = rng.uniform(0.5, 0.9, n)
    gaps = rng.normal(scale=0.05, size=(k, n))
    if rng.random() < 0.5:  # coarse values: repeated columns and tied ratios
        c, gaps = np.round(c * 16) / 16, np.round(gaps * 64) / 64
    a_ub = np.stack([gaps, -gaps], axis=1).reshape(2 * k, n)  # +g1, -g1, +g2, ...
    return LinearProgram(
        c, a_ub=a_ub, b_ub=np.full(2 * k, tol), a_eq=np.ones((1, n)), b_eq=[1.0]
    )


class TestAgainstLoopReference:
    def test_wide_programs_same_pivots_and_bits(self):
        rng = np.random.default_rng(21)
        pivots_seen = []
        for _ in range(60):
            problem = frontier_program(rng)
            status, x, objective, pivots = reference_simplex(problem)
            res = simplex_solve(problem)
            assert (res.status, res.iterations) == (status, pivots)
            assert res.objective == objective
            assert (res.x is None) == (x is None)
            if x is not None:
                assert res.x.tobytes() == x.tobytes()
            pivots_seen.append(pivots)
        # the ratio test must run many times at full width, not stop at once
        assert sum(pivots_seen) > 60 * 8

    def test_same_pivots_and_bits(self):
        rng = np.random.default_rng(16)
        statuses = []
        for _ in range(400):
            problem = random_program(rng)
            status, x, objective, pivots = reference_simplex(problem)
            res = simplex_solve(problem)
            assert (res.status, res.iterations) == (status, pivots)
            assert res.objective == objective
            assert (res.x is None) == (x is None)
            if x is not None:
                assert res.x.tobytes() == x.tobytes()
            statuses.append(status)
        # the generator must reach every status, not only the easy ones
        assert {statuses.count(s) > 40 for s in SolveStatus} == {True}
