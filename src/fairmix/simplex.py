"""Dense two-phase simplex solver with Bland's anti-cycling rule.

Solves  maximize c.x  subject to  A_ub x <= b_ub,  A_eq x = b_eq,
x >= 0.  The implementation is a textbook tableau method: phase one
minimizes the sum of artificial variables to find a basic feasible
point (or prove there is none), phase two optimizes the real objective
from that basis. Entering and leaving variables are chosen by Bland's
smallest-index rule, which guarantees termination even on degenerate
problems at some cost in pivot count — the problems solved here are
tiny, so the guarantee is worth far more than the speed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import FairmixError

PIVOT_TOLERANCE = 1e-9


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"

    def __str__(self) -> str:
        return self.value


def _as_matrix(a, n: int, name: str) -> np.ndarray:
    if a is None:
        return np.zeros((0, n))
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return np.zeros((0, n))
    if a.shape[1] != n:
        raise FairmixError(f"{name} has {a.shape[1]} columns, expected {n}")
    return a


def _as_vector(b, m: int, name: str) -> np.ndarray:
    if b is None:
        b = np.zeros(0)
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if b.shape != (m,):
        raise FairmixError(f"{name} has shape {b.shape}, expected ({m},)")
    return b


class LinearProgram:
    """maximize c.x  s.t.  a_ub x <= b_ub,  a_eq x = b_eq,  x >= 0."""

    __slots__ = ("c", "a_ub", "b_ub", "a_eq", "b_eq")

    def __init__(self, c, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
        c = np.atleast_1d(np.asarray(c, dtype=float))
        if c.ndim != 1 or c.shape[0] < 1:
            raise FairmixError("objective must be a non-empty vector")
        n = c.shape[0]
        a_ub = _as_matrix(a_ub, n, "a_ub")
        a_eq = _as_matrix(a_eq, n, "a_eq")
        b_ub = _as_vector(b_ub, a_ub.shape[0], "b_ub")
        b_eq = _as_vector(b_eq, a_eq.shape[0], "b_eq")
        for name, arr in (("c", c), ("a_ub", a_ub), ("b_ub", b_ub),
                          ("a_eq", a_eq), ("b_eq", b_eq)):
            if not np.all(np.isfinite(arr)):
                raise FairmixError(f"{name} contains a non-finite entry")
        self.c = c
        self.a_ub, self.b_ub = a_ub, b_ub
        self.a_eq, self.b_eq = a_eq, b_eq

    @property
    def n_variables(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class SimplexResult:
    status: SolveStatus
    x: Optional[np.ndarray]
    objective: Optional[float]
    iterations: int


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _run(tableau: np.ndarray, basis: np.ndarray, tol: float) -> tuple[bool, int]:
    """Pivot to optimality. Returns (bounded, pivot_count)."""
    m = basis.shape[0]
    pivots = 0
    while True:
        reduced = tableau[-1, :-1]
        entering = -1
        for j in range(reduced.shape[0]):  # Bland: first improving column
            if reduced[j] < -tol:
                entering = j
                break
        if entering < 0:
            return True, pivots
        leaving = -1
        best = np.inf
        for i in range(m):
            a = tableau[i, entering]
            if a > tol:
                ratio = tableau[i, -1] / a
                # Bland on ties: keep the row whose basic variable has
                # the smallest index
                if ratio < best - tol or (
                    ratio < best + tol
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best = min(best, ratio)
                    leaving = i
        if leaving < 0:
            return False, pivots
        _pivot(tableau, basis, leaving, entering)
        pivots += 1


def simplex_solve(problem: LinearProgram) -> SimplexResult:
    """Solve the program; statuses are optimal / infeasible / unbounded."""
    n = problem.n_variables
    m_ub = problem.a_ub.shape[0]
    m_eq = problem.a_eq.shape[0]
    m = m_ub + m_eq

    # rows: [A_ub | I_slack], [A_eq | 0]; then flip rows to get b >= 0
    body = np.zeros((m, n + m_ub))
    body[:m_ub, :n] = problem.a_ub
    body[:m_ub, n:] = np.eye(m_ub)
    body[m_ub:, :n] = problem.a_eq
    rhs = np.concatenate([problem.b_ub, problem.b_eq])
    flip = rhs < 0
    body[flip] *= -1.0
    rhs = np.abs(rhs)

    # one artificial per row; they form the phase-1 basis
    n_cols = n + m_ub + m
    tableau = np.zeros((m + 1, n_cols + 1))
    tableau[:m, : n + m_ub] = body
    tableau[:m, n + m_ub : n_cols] = np.eye(m)
    tableau[:m, -1] = rhs
    basis = np.arange(n + m_ub, n_cols)

    # phase-1 reduced costs: cost 1 on artificials, canonicalized for the
    # artificial basis (subtract every constraint row)
    tableau[-1, n + m_ub : n_cols] = 1.0
    tableau[-1] -= tableau[:m].sum(axis=0)

    bounded, pivots = _run(tableau, basis, PIVOT_TOLERANCE)
    assert bounded  # phase-1 objective is bounded below by 0
    if -tableau[-1, -1] > PIVOT_TOLERANCE:
        return SimplexResult(SolveStatus.INFEASIBLE, None, None, pivots)

    # drive any leftover artificial out of the basis; a row where no real
    # column can pivot is redundant and gets dropped
    artificial_start = n + m_ub
    keep = []
    for i in range(m):
        if basis[i] < artificial_start:
            keep.append(i)
            continue
        pivot_col = -1
        for j in range(artificial_start):
            if abs(tableau[i, j]) > PIVOT_TOLERANCE:
                pivot_col = j
                break
        if pivot_col >= 0:
            _pivot(tableau, basis, i, pivot_col)
            pivots += 1
            keep.append(i)
    rows = keep + [m]
    tableau = tableau[rows][:, list(range(artificial_start)) + [n_cols]]
    basis = basis[keep]
    m2 = basis.shape[0]

    # phase 2: minimize -c.x over the surviving columns, starting from
    # the feasible basis found above
    cost = np.zeros(artificial_start + 1)
    cost[:n] = -problem.c
    tableau[-1] = cost
    for i in range(m2):
        cb = cost[basis[i]]
        if cb != 0.0:
            tableau[-1] -= cb * tableau[i]

    bounded, extra = _run(tableau, basis, PIVOT_TOLERANCE)
    pivots += extra
    if not bounded:
        return SimplexResult(SolveStatus.UNBOUNDED, None, None, pivots)

    x = np.zeros(artificial_start)
    x[basis] = tableau[:m2, -1]
    x = x[:n]
    x[np.abs(x) < PIVOT_TOLERANCE] = 0.0
    return SimplexResult(
        SolveStatus.OPTIMAL, x, float(np.dot(problem.c, x)), pivots
    )
