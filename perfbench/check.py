"""Independent correctness checks, recomputed from the generated arrays.

Nothing here calls fairmix: expected values come from the arrays in
``gen.Inputs`` by direct numpy formulas (the Gini by the sorted
O(n log n) formula, twins by bucket counts), and LP optima from
``scipy.optimize.linprog``. Each check returns the problems it found
(``check_frontier`` per tolerance); none means the output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

VALUE_TOL = 1e-9  # reports print 12 significant digits
LINPROG_TOL = 1e-6  # HiGHS feasibility tolerance is 1e-7
SAMPLE_SIGMAS = 5.0
LINEAR = ("acceptance_rate", "tnr", "tpr")


def _close(a, b, tol=VALUE_TOL):
    return a is not None and b is not None and abs(a - b) <= tol


class Stats:
    """Per-member and per-ensemble quantities of one generated input."""

    def __init__(self, inputs):
        self.x = inputs.features
        self.y = inputs.labels
        self.z = inputs.sensitive
        self.accept = (inputs.predictions == 1).astype(float)  # (N, M)
        self.weights = inputs.weights
        pos = self.y == 1
        self.member_acc = np.mean(np.where(pos[:, None], self.accept, 1 - self.accept), axis=0)
        self.member_rates = {}  # kind -> (2, M): rate per group and member
        for kind in LINEAR:
            rows = []
            for g in (0, 1):
                cond = self.z == g
                if kind == "tpr":
                    cond = cond & pos
                elif kind == "tnr":
                    cond = cond & ~pos
                hit = self.accept if kind != "tnr" else 1 - self.accept
                rows.append(hit[cond].mean(axis=0))
            self.member_rates[kind] = np.array(rows)
        # (K, M) member gaps, kinds in LINEAR order
        self.member_gaps = np.array([r[0] - r[1] for r in self.member_rates.values()])


def _lp_checks(stats, doc, tol, problems, label):
    """Weights on the simplex, recomputed gaps within tol, optimum as linprog."""
    from scipy.optimize import linprog

    if doc.get("status") != "optimal":
        problems.append(f"{label}: status {doc.get('status')!r}, expected optimal")
        return None
    w = np.asarray(doc["weights"], dtype=float)
    if w.shape != (stats.member_acc.size,) or np.any(w < -1e-12) or abs(w.sum() - 1) > 1e-9:
        problems.append(f"{label}: weights not on the simplex")
        return None
    gaps = stats.member_gaps @ w
    for kind, gap in zip(LINEAR, gaps):
        if abs(gap) > tol + VALUE_TOL:
            problems.append(f"{label}: recomputed {kind} gap {gap!r} exceeds {tol!r}")
        if not _close(doc["gaps"].get(kind), gap):
            problems.append(f"{label}: {kind} gap {doc['gaps'].get(kind)!r} vs {gap!r}")
    acc = float(stats.member_acc @ w)
    if not _close(doc["accuracy"], acc):
        problems.append(f"{label}: accuracy {doc['accuracy']!r} vs recomputed {acc!r}")
    m = stats.member_acc.size
    ref = linprog(
        -stats.member_acc,
        A_ub=np.vstack([stats.member_gaps, -stats.member_gaps]),
        b_ub=np.full(2 * len(LINEAR), tol),
        A_eq=np.ones((1, m)),
        b_eq=[1.0],
        bounds=(0, None),
        method="highs",
    )
    if ref.status != 0:
        problems.append(f"{label}: linprog status {ref.status}: {ref.message}")
    elif abs(-ref.fun - acc) > LINPROG_TOL:
        problems.append(f"{label}: accuracy {acc!r} vs linprog optimum {-ref.fun!r}")
    return acc


def check_audit(stats, text, tol):
    problems = []
    doc = json.loads(text)
    q = stats.accept @ stats.weights
    pos = stats.y == 1
    expected = {}
    for g in (0, 1):
        grp = stats.z == g
        expected[("acceptance_rate", g)] = q[grp].mean()
        expected[("tpr", g)] = q[grp & pos].mean()
        expected[("tnr", g)] = (1 - q[grp & ~pos]).mean()
        expected[("ppv", g)] = q[grp & pos].sum() / q[grp].sum()
        expected[("npv", g)] = (1 - q[grp & ~pos]).sum() / (1 - q[grp]).sum()
    for entry in doc["metrics"]:
        kind = entry["kind"]
        v0, v1 = expected[(kind, 0)], expected[(kind, 1)]
        if not (_close(entry["value_z0"], v0) and _close(entry["value_z1"], v1)):
            problems.append(f"{kind}: rates {entry['value_z0']}, {entry['value_z1']} vs {v0}, {v1}")
        if not _close(entry["gap"], v0 - v1) or entry["pass"] != (abs(v0 - v1) <= tol):
            problems.append(f"{kind}: gap {entry['gap']} or pass {entry['pass']} wrong")
    if len(doc["metrics"]) != 5:
        problems.append(f"{len(doc['metrics'])} metric entries, expected 5")
    acc = np.where(pos, q, 1 - q).mean()
    if not _close(doc["accuracy"], acc):
        problems.append(f"accuracy {doc['accuracy']} vs {acc}")
    for g in (0, 1):
        qg = np.sort(q[stats.z == g])
        n, mean = qg.size, qg.mean()
        gini = float(np.sum((2 * np.arange(1, n + 1) - n - 1) * qg)) / (n * n * mean)
        det = np.mean((qg <= 1e-12) | (qg >= 1 - 1e-12))
        want = {
            "mean_q": mean, "variance_q": qg.var(), "gini_q": gini, "determinism_index": det,
        }
        got = doc["distributional"][f"z{g}"]
        for key, value in want.items():
            if not _close(got[key], value):
                problems.append(f"z{g} {key}: {got[key]} vs {value}")
    # twins: rows with identical features in different groups, per bucket
    codes = np.unique(stats.x, axis=0, return_inverse=True)[1].ravel()
    order = np.argsort(codes, kind="stable")
    bounds = np.flatnonzero(np.diff(codes[order])) + 1
    twins = 0
    violations = []
    for bucket in np.split(order, bounds):
        left = bucket[stats.z[bucket] == 0]
        right = bucket[stats.z[bucket] == 1]
        twins += left.size * right.size
        if left.size and right.size:
            bad = np.abs(q[left][:, None] - q[right][None, :]) > tol
            for i, j in zip(*np.nonzero(bad)):
                a, b = int(left[i]), int(right[j])
                violations.append([min(a, b) + 1, max(a, b) + 1])
    violations.sort()
    treatment = doc["treatment"]
    if treatment["pairs_checked"] != twins:
        problems.append(f"pairs_checked {treatment['pairs_checked']} vs {twins} twins")
    if treatment["violations"] != len(violations) or treatment["pairs"] != violations:
        problems.append(f"violations {treatment['violations']} vs {len(violations)}")
    return problems


def check_frontier(stats, texts, tolerances):
    """Problems per tolerance index; ``texts`` maps each index solved to
    its serialized solution. An index never solved is not checked."""
    problems = {k: [] for k in texts}
    accs = {}
    for k in sorted(texts):
        tol = tolerances[k]
        accs[k] = _lp_checks(stats, json.loads(texts[k]), tol, problems[k], f"tol {tol:g}")
    solved = [k for k in sorted(accs) if accs[k] is not None]
    for a, b in zip(solved, solved[1:]):
        if accs[b] < accs[a] - VALUE_TOL:
            problems[b].append(
                f"accuracy falls from {accs[a]!r} to {accs[b]!r} as tol grows to {tolerances[b]:g}"
            )
    return problems


def _lattice(resolution, m):
    """Every lattice point of the simplex with denominator ``resolution``."""
    grid = np.indices((resolution + 1,) * (m - 1)).reshape(m - 1, -1).T
    head = grid[grid.sum(axis=1) <= resolution]
    return np.column_stack([head, resolution - head.sum(axis=1)]) / resolution


def check_verify(stats, text, tol, resolution):
    problems = []
    doc = json.loads(text)
    acc = _lp_checks(stats, doc, tol, problems, "optimize")
    oracle = doc.get("oracle", {})
    if oracle.get("consistent") is not True:
        problems.append(f"oracle not consistent: {oracle!r}")
    lattice = _lattice(resolution, stats.member_acc.size)
    worst = np.max(np.abs(lattice @ stats.member_gaps.T), axis=1)
    values = lattice @ stats.member_acc
    lo, hi = worst <= tol - VALUE_TOL, worst <= tol + VALUE_TOL
    count = oracle.get("feasible_count", -1)
    if not int(lo.sum()) <= count <= int(hi.sum()):
        problems.append(f"feasible_count {count} outside [{lo.sum()}, {hi.sum()}]")
    if oracle.get("accuracy") is not None:
        best = oracle["accuracy"]
        if lo.any() and best < values[lo].max() - VALUE_TOL:
            problems.append(f"oracle accuracy {best!r} below lattice best {values[lo].max()!r}")
        if not hi.any() or best > values[hi].max() + VALUE_TOL:
            problems.append(f"oracle accuracy {best!r} above every feasible lattice point")
        if acc is not None and best > acc + VALUE_TOL:
            problems.append(f"oracle accuracy {best!r} beats the LP optimum {acc!r}")
    elif hi.any():
        problems.append("oracle found nothing, but feasible lattice points exist")
    return problems


def check_sample(stats, text, draws, seed):
    problems = []
    doc = json.loads(text)
    if doc.get("n_draws") != draws or doc.get("seed") != seed or doc.get("mode") != "per_draw":
        problems.append(f"header {doc.get('n_draws')}, {doc.get('seed')}, {doc.get('mode')}")
    w = stats.weights
    for g in (0, 1):
        rates = stats.accept[stats.z == g].mean(axis=0)  # per member
        analytic = float(w @ rates)
        stderr = math.sqrt(float(w @ (rates - analytic) ** 2) / draws)
        got = doc["group_rates"][f"z{g}"]
        if abs(got - analytic) > SAMPLE_SIGMAS * stderr:
            problems.append(f"z{g}: rate {got!r} vs analytic {analytic!r} (se {stderr!r})")
    return problems
