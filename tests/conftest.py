"""Shared generators for randomized test instances.

The builders below construct datasets and classifier lists with exact
integer-count structure, so tests can reason about rates as rationals.
Proportional conditioning sets (sizes a*c and b*c with hit counts a*s
and b*s) make the two group rates the same rational s/c, hence the
same correctly-rounded float — member gaps are then *exactly* zero
without any tolerance games.
"""

from __future__ import annotations

import numpy as np
import pytest

from fairmix import Dataset, Ensemble, LinearClassifier, MetricKind, TableClassifier


def make_random_dataset(rng: np.random.Generator, n_max: int = 30) -> Dataset:
    """Random dataset containing all four (group, label) cells."""
    extra = int(rng.integers(0, n_max - 4 + 1))
    labels = [1, -1, 1, -1]
    sensitive = [0, 0, 1, 1]
    labels += [int(v) for v in rng.choice((-1, 1), size=extra)]
    sensitive += [int(v) for v in rng.integers(0, 2, size=extra)]
    n = len(labels)
    features = rng.normal(size=(n, 2))
    return Dataset.from_arrays(features, labels, sensitive)


def make_random_members(
    rng: np.random.Generator, dataset: Dataset, m: int
) -> list[TableClassifier]:
    members = []
    for _ in range(m):
        preds = rng.choice((-1, 1), size=len(dataset))
        members.append(TableClassifier(preds, dataset))
    return members


def random_weights(rng: np.random.Generator, m: int) -> np.ndarray:
    w = rng.random(m) + 1e-3
    return w / w.sum()


def make_grid_ensemble(
    rng: np.random.Generator, n_max: int, m_max: int, group_blind: bool = True
) -> tuple[Dataset, Ensemble]:
    """(dataset, ensemble) of 10..n_max rows on a 6x6 integer feature grid,
    so many rows have twins, and 2..m_max linear members with Dirichlet
    weights. Group-blind members give every twin pair the same accept set."""
    n = int(rng.integers(10, n_max + 1))
    m = int(rng.integers(2, m_max + 1))
    dataset = Dataset.from_arrays(
        rng.integers(0, 6, size=(n, 2)).astype(float),
        rng.choice((-1, 1), size=n),
        rng.integers(0, 2, size=n),
    )
    members = [
        # the bias puts each rule's boundary near the grid's centre
        LinearClassifier(
            w,
            0.0 if group_blind else float(rng.normal()),
            float(rng.normal() - 2.5 * w.sum()),
        )
        for w in rng.normal(size=(m, 2))
    ]
    return dataset, Ensemble(members, rng.dirichlet(np.ones(m)))


def make_zero_gap_instance(rng: np.random.Generator, kind: MetricKind):
    """(dataset, members, weights) where every member's ``kind`` gap is 0.

    The conditioning sets of the two groups have sizes a*c and b*c; each
    member hits a*s of one and b*s of the other for a member-specific s,
    so both group rates equal s/c exactly.
    """
    c = int(rng.integers(2, 5))
    a = int(rng.integers(1, 4))
    b = int(rng.integers(1, 4))
    cond0, cond1 = a * c, b * c
    extra0 = int(rng.integers(0, 4))
    extra1 = int(rng.integers(0, 4))

    if kind is MetricKind.ACCEPTANCE_RATE:
        # conditioning set = whole group; no extra rows allowed
        extra0 = extra1 = 0
    n0, n1 = cond0 + extra0, cond1 + extra1
    n = n0 + n1

    labels = np.empty(n, dtype=int)
    sensitive = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    slices = {0: slice(0, cond0), 1: slice(n0, n0 + cond1)}
    rest = {0: slice(cond0, n0), 1: slice(n0 + cond1, n)}
    if kind is MetricKind.ACCEPTANCE_RATE:
        labels[:] = rng.choice((-1, 1), size=n)
    elif kind is MetricKind.TPR:
        labels[:] = -1
        labels[slices[0]] = 1
        labels[slices[1]] = 1
    else:  # TNR: conditioning set = negatives
        labels[:] = 1
        labels[slices[0]] = -1
        labels[slices[1]] = -1

    features = rng.normal(size=(n, 1))
    dataset = Dataset.from_arrays(features, labels, sensitive)

    m = int(rng.integers(2, 6))
    members = []
    for _ in range(m):
        s = int(rng.integers(0, c + 1))
        preds = np.full(n, -1, dtype=int)
        for z, mult, cond in ((0, a, cond0), (1, b, cond1)):
            hit = mult * s
            idx = np.arange(cond)
            rng.shuffle(idx)
            chosen = idx[:hit] + slices[z].start
            if kind is MetricKind.TNR:
                # hits are *rejections*; accept everything else in the set
                accepted = np.setdiff1d(np.arange(cond) + slices[z].start, chosen)
                preds[accepted] = 1
            else:
                preds[chosen] = 1
            # outside the conditioning set predictions are free
            free = np.arange(rest[z].start, rest[z].stop)
            preds[free] = rng.choice((-1, 1), size=free.size)
        members.append(TableClassifier(preds, dataset))
    return dataset, members, random_weights(rng, m)


def make_three_tenths_gap() -> tuple[Dataset, TableClassifier]:
    """(dataset, member) whose acceptance rates are 4/10 in group 0 and 1/10
    in group 1: a gap of exactly 3/10, which as floats reads
    0.4 - 0.1 = 0.30000000000000004."""
    sensitive = [0] * 10 + [1] * 10
    preds = [1] * 4 + [-1] * 6 + [1] + [-1] * 9
    dataset = Dataset.from_arrays([[float(i)] for i in range(20)], [1, -1] * 10, sensitive)
    return dataset, TableClassifier(preds, dataset)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
