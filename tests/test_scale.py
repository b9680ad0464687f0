"""Memory at scale: the per-draw sampler and the dispersion report hold
O(draws + N*M) values, never a draws x N or an n x n buffer, the CSV
loaders hold a few copies of the file, never a Python object per cell,
twin pairs are found with index arrays, never a tuple per row, the
ensemble report casts no member matrix to floats, the grid oracle's
lattice is built in a few copies of itself, and the oracle holds its
lattice prefixes, never the lattice.

Measured with ``tracemalloc`` (numpy reports its buffers to it) at
N=1e6 instances and M=8 members, or N=1e5 and M=256 for the ensemble
report, after the inputs are built. A
draws x N label buffer alone would be 10 GB here, and an n x n Gini
matrix terabytes; a str per cell of the prediction file took about
400 MB.
"""

import tracemalloc

import numpy as np
import pytest

from fairmix import (
    Dataset,
    Ensemble,
    MetricKind,
    TableClassifier,
    acceptance_probability,
    build_counterfactual_pairs,
    classifier_report,
    dispersion,
    ensemble_group_rate,
    ensemble_report,
    grid_oracle,
    indicator_profile,
    load_dataset,
    load_prediction_matrix,
    sample,
    treatment_violations,
)
from fairmix.dataset import twin_pairs
from fairmix.optimizer import _lattice

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


def test_profile_memory_is_the_member_block():
    """``ensemble_report`` at N=1e5, M=256 stays under M*N bytes + 64 MiB:
    the stacked int8 rows and their bool accepts, and O(N) floats for the
    profile, which is summed one member row at a time. An (M, N) float64
    cast of the accepts alone is 8*M*N bytes, 195 MiB here."""
    n, m = 100_000, 256
    rng = np.random.default_rng(0)
    ds = Dataset.from_arrays(
        np.zeros((n, 1)), rng.choice((-1, 1), size=n), rng.integers(0, 2, size=n)
    )
    rows = rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, n))
    members = [TableClassifier(row, ds) for row in rows]
    del rows
    ens = Ensemble(members, np.full(m, 1 / m))

    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        report = ensemble_report(ens, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    assert peak - entry < m * n + BUDGET_MB * 2**20
    for z in (0, 1):
        expected = ensemble_group_rate(ens, MetricKind.ACCEPTANCE_RATE, ds, z)
        assert report.distributional.group(z).mean_q == pytest.approx(expected, abs=1e-12)


LOAD_BUDGET_MB = 192


def _traced_mb(load, *args):
    """``load(*args)`` with the peak and the retained ``tracemalloc`` memory
    of that call above its entry, in MB."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        result = load(*args)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, (peak - entry) / 2**20, (retained - entry) / 2**20


def test_loaders_memory_is_linear(tmp_path):
    """Both loaders at N=1e6 (d=2 features, M=8 members) stay within a few
    copies of the file and the arrays they return. The files are joined
    from a pool of row strings, as ``save_dataset`` (CRLF, ``repr``
    floats) and a plain LF writer would spell them."""
    rng = np.random.default_rng(0)
    pool = rng.integers(0, 1000, size=N)
    features = rng.normal(size=(1000, 2))
    labels = rng.choice((-1, 1), size=1000)
    groups = rng.integers(0, 2, size=1000)
    rows = [
        f"{a!r},{b!r},{y},{z}\r\n".encode()
        for (a, b), y, z in zip(features.tolist(), labels.tolist(), groups.tolist())
    ]
    (tmp_path / "data.csv").write_bytes(
        b"f_1,f_2,y,z\r\n" + b"".join([rows[i] for i in pool.tolist()])
    )
    signs = rng.integers(0, 2**M, size=N)
    patterns = [
        ",".join("1" if bits >> j & 1 else "-1" for j in range(M)).encode() + b"\n"
        for bits in range(2**M)
    ]
    header = ",".join(f"clf_{j}" for j in range(1, M + 1)).encode()
    (tmp_path / "preds.csv").write_bytes(
        header + b"\n" + b"".join([patterns[s] for s in signs.tolist()])
    )

    ds, dataset_mb, _ = _traced_mb(load_dataset, tmp_path / "data.csv")
    members, predictions_mb, members_mb = _traced_mb(
        load_prediction_matrix, tmp_path / "preds.csv", ds
    )

    assert dataset_mb < LOAD_BUDGET_MB
    assert predictions_mb < LOAD_BUDGET_MB
    # the members hold one int8 copy of the matrix: M*N bytes, not an
    # int64 row each (8*M*N)
    assert members_mb * 2**20 < 2 * M * N
    assert np.array_equal(ds.features, features[pool])
    assert np.array_equal(ds.labels, labels[pool])
    assert np.array_equal(ds.sensitive, groups[pool])
    for j, member in enumerate(members):
        assert np.array_equal(member.predictions, np.where(signs >> j & 1, 1, -1))


def test_wide_prediction_loader_memory(tmp_path):
    """The canonical prediction loader at N=1e5, M=256 (a 61 MiB file)
    peaks under the file, three int8 copies of the matrix and 64 MiB: it
    decodes the file a block at a time, with no temporary as large as the
    file. The file is joined from a pool of CRLF rows, as
    ``save_prediction_matrix`` spells them."""
    n, m = 100_000, 256
    rng = np.random.default_rng(1)
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(500, m))
    pool = rng.integers(0, len(signs), size=n)
    rows = [",".join(map(str, row)).encode() + b"\r\n" for row in signs.tolist()]
    header = ",".join(f"clf_{j}" for j in range(1, m + 1)).encode()
    path = tmp_path / "preds.csv"
    path.write_bytes(header + b"\r\n" + b"".join([rows[i] for i in pool.tolist()]))
    ds = Dataset.from_arrays(np.zeros((n, 1)), np.ones(n, dtype=int), np.arange(n) % 2)

    members, peak_mb, _ = _traced_mb(load_prediction_matrix, path, ds)

    assert peak_mb * 2**20 < path.stat().st_size + 3 * n * m + 64 * 2**20
    expected = signs[pool].T
    for member, row in zip(members, expected, strict=True):
        assert member.predictions.dtype == np.int8
        assert member.predictions.tobytes() == row.tobytes()


PAIRS_BUDGET_MB = 160


def test_twin_pairs_memory_is_linear():
    """Twin pairs and the treatment test at N=1e6: 4 features of 40 levels
    give about 1e5 cross-group pairs. The budget is five copies of the
    (N, 4) float feature matrix; a Python tuple per row, as a dict of
    buckets keyed by row would hold, takes about 376 MB. The audit's path,
    the pairs as an array into a report, is held to the same budget."""
    rng = np.random.default_rng(0)
    features = rng.integers(0, 40, size=(N, 4)).astype(float)
    z = rng.integers(0, 2, size=N)
    ds = Dataset.from_arrays(features, np.ones(N, dtype=int), z)
    profile = rng.integers(0, 3, size=N) / 2
    del features

    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        pairs = build_counterfactual_pairs(ds)
        violations = treatment_violations(profile, pairs, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    assert (peak - entry) / 2**20 < PAIRS_BUDGET_MB
    assert 90_000 < len(pairs) < 110_000
    assert pairs == sorted(set(pairs))
    idx = np.array(pairs)
    assert np.all(idx[:, 0] < idx[:, 1])
    assert np.all(ds.features[idx[:, 0]] == ds.features[idx[:, 1]])
    assert np.all(z[idx[:, 0]] != z[idx[:, 1]])
    # every twin of a row is found: per feature vector, the group counts
    # multiply to the pairs listed
    _, bucket, counts = np.unique(
        ds.features, axis=0, return_inverse=True, return_counts=True
    )
    ones = np.bincount(bucket, weights=z, minlength=len(counts))
    assert len(pairs) == int(np.sum((counts - ones) * ones))
    gaps = np.abs(profile[idx[:, 0]] - profile[idx[:, 1]])
    assert violations == [p for p, gap in zip(pairs, gaps.tolist()) if gap > 0.25]

    predictions = rng.choice((-1, 1), size=N)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        report = classifier_report(predictions, ds, twin_pairs(ds), 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    assert (peak - entry) / 2**20 < PAIRS_BUDGET_MB
    assert report.treatment_pairs_checked == len(pairs)
    expected = treatment_violations(indicator_profile(predictions), pairs, 0.25)
    assert report.treatment_violations.tolist() == [list(p) for p in expected]


def test_lattice_memory_is_a_few_copies():
    """The CLI's default resolution with the most members the oracle takes:
    1,373,701 rows of 4 int64s, 44 MB. Building it peaks under 2.5 times
    that; the stars-and-bars construction it replaced peaked at 3 times."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        lattice = _lattice(200, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    assert lattice.shape == (1_373_701, 4)
    assert peak - entry < 2.5 * lattice.nbytes
    assert np.all(lattice.sum(axis=1) == 200)


ORACLE_BUDGET_MB = 16


def test_oracle_memory_is_its_prefixes():
    """Resolution 400 with four members: 10,827,401 lattice points, whose
    float rows alone are 330 MB; the search holds the 80,601 prefixes."""
    rng = np.random.default_rng(0)
    n = 10_000
    ds = Dataset.from_arrays(
        np.zeros((n, 1)), rng.choice((-1, 1), size=n), rng.integers(0, 2, size=n)
    )
    members = [TableClassifier(rng.choice((-1, 1), size=n), ds) for _ in range(4)]
    kinds = [MetricKind.ACCEPTANCE_RATE, MetricKind.TPR, MetricKind.TNR]

    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        oracle = grid_oracle(members, ds, kinds, 0.02, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    assert (peak - entry) / 2**20 < ORACLE_BUDGET_MB
    assert 0 < oracle.feasible_count < 10_827_401
