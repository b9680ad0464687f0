"""Seeded input generation for the fairmix benchmark.

Every input is made from ``numpy.random.default_rng`` and written by the
writers below, never by ``fairmix.save_*``, so the bytes a workload feeds
the program cannot change when fairmix changes. The arrays are returned
alongside the files: the correctness checks recompute every expected
value from them, not from anything fairmix parsed.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

#: Workload sizes. Each is chosen so that one layer does most of a job's
#: work there; see README.md for the reasoning and the expected layers.
SIZES = {
    "audit": {"n": 10_000, "m": 16, "features": 4, "levels": 6},
    "frontier": {"n": 20_000, "m": 200, "features": 4},
    "verify": {"n": 30_000, "m": 4, "features": 2},
    "sample": {"n": 10_000, "m": 8, "features": 2},
}

_WORKLOAD_STREAM = {"audit": 1, "frontier": 2, "verify": 3, "sample": 4}


@dataclass
class Inputs:
    """Generated arrays plus the files written from them."""

    features: np.ndarray  # (N, d) float, exactly the values written
    labels: np.ndarray  # (N,) in {-1, +1}
    sensitive: np.ndarray  # (N,) in {0, 1}
    predictions: np.ndarray  # (N, M) in {-1, +1}, column j is member j
    weights: np.ndarray | None  # (M,) on the simplex, when the workload has one
    paths: dict = field(default_factory=dict)  # role -> file path
    sha256: dict = field(default_factory=dict)  # role -> hex digest


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _weights(rng, m):
    w = rng.dirichlet(np.ones(m))
    # exact sum 1 after the repr round trip: fairmix checks |sum - 1| <= 1e-12
    w[-1] = 1.0 - float(np.sum(w[:-1]))
    return w


def _tabular(rng, n, d, levels):
    """Categorical features: cross-group feature-identical twins are common."""
    x = rng.integers(0, levels, size=(n, d)).astype(float)
    centred = (x - (levels - 1) / 2) / levels
    return x, centred


def _gaussian(rng, n, d):
    # six decimals, so the written text and the array hold the same value
    raw = rng.normal(size=n * d)
    x = np.array([float(f"{v:.6f}") for v in raw.tolist()]).reshape(n, d)
    return x, x


def _labels(rng, centred, z, beta):
    """Labels with the same number of positives in both (equal-size) groups.

    With unequal base rates, equal acceptance rate, TPR and TNR together
    force an uninformative mixture, so the three-kind LP would be
    infeasible at small tolerances for any informative members.
    """
    y = np.full(z.size, -1)
    likelihood = _sigmoid(centred @ beta)
    for g in (0, 1):
        idx = np.flatnonzero(z == g)
        p = likelihood[idx] / likelihood[idx].sum()
        y[rng.choice(idx, int(0.45 * idx.size), replace=False, p=p)] = 1
    return y


def _members(rng, centred, z, beta, shift, slope):
    """(N, M) prediction table: noisy linear rules that treat the groups differently.

    Member j shifts its score by ``shift[j]`` towards group 0 and scales
    its slope by ``1 + slope[j]`` there, so members spread around zero in
    both TPR and TNR gap.
    """
    n, d = centred.shape
    m = shift.size
    side = (1 - 2 * z)[:, None]
    a = beta[:, None] + rng.normal(scale=0.7, size=(d, m))
    c = rng.normal(scale=0.3, size=m)
    score = (centred @ a) * (1 + side * slope) + side * shift + c
    score += rng.normal(scale=0.5, size=(n, m))
    return np.where(score >= 0, 1, -1)


def generate(workload: str, seed: int) -> Inputs:
    """Arrays for one workload; the same (workload, seed) gives the same arrays."""
    size = SIZES[workload]
    rng = np.random.default_rng([seed, _WORKLOAD_STREAM[workload]])
    n, m, d = size["n"], size["m"], size["features"]
    if workload == "audit":
        x, centred = _tabular(rng, n, d, size["levels"])
    else:
        x, centred = _gaussian(rng, n, d)
    z = rng.permutation(np.arange(n) % 2)
    beta = rng.normal(size=d) * 2.0
    y = _labels(rng, centred, z, beta)
    if workload == "verify":
        # one member in each quadrant of (shift, slope): a mixture of the
        # four closes all three gaps together
        shift = np.array([0.3, 0.3, -0.3, -0.3]) + rng.normal(scale=0.05, size=m)
        slope = np.array([0.5, -0.5, 0.5, -0.5]) + rng.normal(scale=0.05, size=m)
    else:
        shift = rng.normal(scale=0.3, size=m)
        slope = rng.normal(scale=0.5, size=m)
    preds = _members(rng, centred, z, beta, shift, slope)
    weights = _weights(rng, m) if workload in ("audit", "sample") else None
    return Inputs(x, y, z, preds, weights)


def _write(path, text):
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def _csv(header, columns):
    rows = zip(*(col.tolist() for col in columns))
    return ",".join(header) + "\n" + "".join(",".join(r) + "\n" for r in rows)


def write(inputs: Inputs, workload: str, directory: str) -> None:
    """Write the dataset, prediction and weights files; record their sha256."""
    os.makedirs(directory, exist_ok=True)
    x = inputs.features
    d = x.shape[1]
    if workload == "audit":
        feature_cols = [x[:, k].astype(int).astype(str) for k in range(d)]
    else:
        feature_cols = [np.char.mod("%.6f", x[:, k]) for k in range(d)]
    dataset = _csv(
        [f"f_{k}" for k in range(1, d + 1)] + ["y", "z"],
        feature_cols + [inputs.labels.astype(str), inputs.sensitive.astype(str)],
    )
    p = inputs.predictions
    predictions = _csv(
        [f"clf_{j}" for j in range(1, p.shape[1] + 1)],
        [p[:, j].astype(str) for j in range(p.shape[1])],
    )
    files = {"dataset": dataset, "predictions": predictions}
    if inputs.weights is not None:
        files["weights"] = (
            '{"weights": [' + ", ".join(repr(float(w)) for w in inputs.weights) + "]}\n"
        )
    suffix = {"dataset": ".csv", "predictions": ".csv", "weights": ".json"}
    for role, text in files.items():
        path = os.path.join(directory, role + suffix[role])
        inputs.paths[role] = path
        inputs.sha256[role] = _write(path, text)
