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

import numpy as np

from ._record import _Record, _set
from .dataset import _read_only, check_reals
from .errors import FairmixError

PIVOT_TOLERANCE = 1e-9


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"

    def __str__(self) -> str:
        return self.value


def _as_matrix(a, n: int, name: str) -> np.ndarray:
    a = np.atleast_2d(check_reals(() if a is None else a, f"{name} entry"))
    if a.ndim > 2:
        raise FairmixError(f"{name} must be a matrix, got {a.ndim} dimensions")
    if a.size == 0:  # None, or no rows
        return np.zeros((0, n))
    if a.shape[1] != n:
        raise FairmixError(f"{name} has {a.shape[1]} columns, expected {n}")
    return a


def _as_vector(b, m: int, name: str) -> np.ndarray:
    b = np.atleast_1d(check_reals(() if b is None else b, f"{name} entry"))
    if b.shape != (m,):
        raise FairmixError(f"{name} has shape {b.shape}, expected ({m},)")
    return b


class LinearProgram(_Record, defaults=(None, None, None, None), eq=False):
    """maximize c.x  s.t.  a_ub x <= b_ub,  a_eq x = b_eq,  x >= 0, as read-only copies."""

    __slots__ = ("c", "a_ub", "b_ub", "a_eq", "b_eq")

    def __post_init__(self):
        c = np.atleast_1d(check_reals(self.c, "c entry"))
        if c.ndim != 1 or c.shape[0] < 1:
            raise FairmixError("objective must be a non-empty vector")
        n = c.shape[0]
        a_ub = _as_matrix(self.a_ub, n, "a_ub")
        a_eq = _as_matrix(self.a_eq, n, "a_eq")
        b_ub = _as_vector(self.b_ub, a_ub.shape[0], "b_ub")
        b_eq = _as_vector(self.b_eq, a_eq.shape[0], "b_eq")
        arrays = {"c": c, "a_ub": a_ub, "b_ub": b_ub, "a_eq": a_eq, "b_eq": b_eq}
        if not np.isfinite(np.concatenate(list(arrays.values()), axis=None)).all():
            for name, arr in arrays.items():  # names the first one at fault
                if not np.isfinite(arr).all():
                    raise FairmixError(f"{name} contains a non-finite entry")
        for name, arr in arrays.items():
            _set(self, name, _read_only(np.array(arr)))  # a copy: the caller's may be float64

    @property
    def n_variables(self) -> int:
        return self.c.shape[0]


class SimplexResult(_Record):
    __slots__ = ("status", "x", "objective", "iterations")


def _pivot(tableau: np.ndarray, basis: list | np.ndarray, row: int, col: int) -> None:
    pivot_row = tableau[row]
    pivot_row /= pivot_row[col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * pivot_row  # np.outer's product, without its call
    basis[row] = col


def _run(tableau: np.ndarray, basis: np.ndarray, tol: float, columns: int) -> tuple[bool, int]:
    """Pivot to optimality, with the first ``columns`` columns as candidates to
    enter and ``basis`` updated in place. Returns (bounded, pivot_count)."""
    # views, taken once: each pivot writes the tableau in place
    costs, body, rhs_column = tableau[-1, :columns], tableau[:-1], tableau[:-1, -1]
    order = basis.tolist()  # the tie rule compares Python ints
    pivots, bounded = 0, True
    while True:
        improving = costs < -tol
        entering = int(improving.argmax())  # Bland: first improving column
        if not improving[entering]:
            break
        # on Python floats: the IEEE operations of numpy scalars, at less cost
        column, rhs = body[:, entering].tolist(), rhs_column.tolist()
        leaving = -1
        best = np.inf
        for i, a in enumerate(column):
            if a > tol:
                ratio = rhs[i] / a
                # Bland on ties: keep the row whose basic variable has
                # the smallest index
                if ratio < best - tol or (
                    ratio < best + tol
                    and (leaving < 0 or order[i] < order[leaving])
                ):
                    best = min(best, ratio)
                    leaving = i
        if leaving < 0:
            bounded = False
            break
        _pivot(tableau, order, leaving, entering)
        pivots += 1
    basis[:] = order
    return bounded, pivots


def simplex_solve(problem: LinearProgram) -> SimplexResult:
    """Solve the program; statuses are optimal / infeasible / unbounded."""
    n = problem.n_variables
    m_ub = problem.a_ub.shape[0]
    m = m_ub + problem.a_eq.shape[0]
    real = n + m_ub  # columns: x, then slacks, then one artificial per row
    n_cols = real + m

    # rows: [A_ub | I_slack | I_art], [A_eq | 0 | I_art], flipped so that
    # b >= 0; the artificials form the phase-1 basis
    tableau = np.zeros((m + 1, n_cols + 1))
    tableau[:m_ub, :n] = problem.a_ub
    tableau[m_ub:m, :n] = problem.a_eq
    # entry (i, j + i) of the flat tableau sits at j + i * (n_cols + 2): a
    # strided view sets each identity block without building it
    tableau.reshape(-1)[n :: n_cols + 2][:m_ub] = 1.0  # slack i: column n + i
    rhs = np.concatenate([problem.b_ub, problem.b_eq])
    tableau[np.flatnonzero(rhs < 0), :real] *= -1.0
    tableau.reshape(-1)[real :: n_cols + 2][:m] = 1.0  # artificial i: column real + i
    tableau[:m, -1] = np.abs(rhs)
    basis = np.arange(real, n_cols)

    # phase-1 reduced costs: cost 1 on artificials, canonicalized for the
    # artificial basis (subtract every constraint row)
    tableau[-1, real:n_cols] = 1.0
    tableau[-1] -= tableau[:m].sum(axis=0)

    bounded, pivots = _run(tableau, basis, PIVOT_TOLERANCE, n_cols)
    assert bounded  # phase-1 objective is bounded below by 0
    if -tableau[-1, -1] > PIVOT_TOLERANCE:
        return SimplexResult(SolveStatus.INFEASIBLE, None, None, pivots)

    # drive any leftover artificial out of the basis; a row where no real
    # column can pivot is redundant and gets dropped. A pivot changes only
    # its own row's basic variable, so these rows can be listed up front.
    for i in np.flatnonzero(basis >= real):
        pivot_cols = np.flatnonzero(np.abs(tableau[i, :real]) > PIVOT_TOLERANCE)
        if pivot_cols.size:
            _pivot(tableau, basis, i, pivot_cols[0])
            pivots += 1
    keep = np.flatnonzero(basis < real)
    if keep.size < m:
        tableau, basis = tableau[np.append(keep, m)], basis[keep]

    # phase 2: minimize -c.x from the feasible basis found above. The
    # artificial columns stay in place, but only the real ones may enter
    cost = np.zeros(n_cols + 1)
    cost[:n] = -problem.c
    tableau[-1] = cost
    for i in np.flatnonzero(cost[basis]):
        tableau[-1] -= cost[basis[i]] * tableau[i]

    bounded, extra = _run(tableau, basis, PIVOT_TOLERANCE, real)
    pivots += extra
    if not bounded:
        return SimplexResult(SolveStatus.UNBOUNDED, None, None, pivots)

    x = np.zeros(real)
    x[basis] = tableau[:-1, -1]
    x = x[:n]
    x[np.abs(x) < PIVOT_TOLERANCE] = 0.0
    return SimplexResult(
        SolveStatus.OPTIMAL, x, float(np.dot(problem.c, x)), pivots
    )
