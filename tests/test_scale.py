"""Memory at scale: the per-draw sampler and the dispersion report hold
O(draws + N*M) values, never a draws x N or an n x n buffer.

Measured with ``tracemalloc`` (numpy reports its buffers to it) at
N=1e6 instances and M=8 members, after the inputs are built. A
draws x N label buffer alone would be 10 GB here, and an n x n Gini
matrix terabytes.
"""

import tracemalloc

import numpy as np

from fairmix import (
    Dataset,
    Ensemble,
    MetricKind,
    TableClassifier,
    acceptance_probability,
    dispersion,
    ensemble_group_rate,
    sample,
)

N = 1_000_000
M = 8
DRAWS = 10_000
BUDGET_MB = 64


def test_sampler_and_dispersion_memory_is_linear():
    rng = np.random.default_rng(0)
    ds = Dataset.from_arrays(
        np.zeros((N, 1)), rng.choice((-1, 1), size=N), rng.integers(0, 2, size=N)
    )
    members = [TableClassifier(rng.choice((-1, 1), size=N), ds) for _ in range(M)]
    weights = rng.random(M) + 0.1
    ens = Ensemble(members, weights / weights.sum())
    profile = acceptance_probability(ens, ds)

    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        result = sample(ens, ds, n_draws=DRAWS, seed=0)
        report = dispersion(profile, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    assert (peak - entry) / 2**20 < BUDGET_MB
    assert result.member_indices.shape == (DRAWS,)
    for z in (0, 1):
        assert result.per_draw_rates[z].shape == (DRAWS,)
        analytic = ensemble_group_rate(ens, MetricKind.ACCEPTANCE_RATE, ds, z)
        assert abs(result.group_rates[z] - analytic) < 5 * result.standard_errors[z]
        assert 0.0 <= report.group(z).gini_q < 1.0
