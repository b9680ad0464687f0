"""Intra-group dispersion summaries against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairmix import Dataset, FairmixError, dispersion
from fairmix.distributional import DETERMINISM_CLAMP, _group_dispersion


def gini_oracle(values):
    """Double-loop Gini, the textbook definition."""
    n = len(values)
    mean = sum(values) / n
    if mean == 0:
        return None
    total = sum(abs(a - b) for a in values for b in values)
    return total / (2 * n * n * mean)


def two_group_dataset(n0: int, n1: int) -> Dataset:
    n = n0 + n1
    return Dataset.from_arrays(
        [[float(i)] for i in range(n)],
        [1] * n,
        [0] * n0 + [1] * n1,
    )


class TestGroupDispersion:
    def test_constant_profile(self):
        g = _group_dispersion(np.full(5, 0.5))
        assert g.mean_q == 0.5
        assert g.variance_q == 0.0
        assert g.gini_q == 0.0
        assert g.determinism_index == 0.0

    @given(st.floats(0.0, 1.0), st.integers(1, 2000))
    def test_constant_group_reads_exactly(self, c, n):
        # the rounded mean of n copies of c is not always c
        g = _group_dispersion(np.full(n, c))
        assert g.mean_q == c
        assert g.variance_q == 0.0
        assert g.gini_q == (None if c == 0.0 else 0.0)

    def test_deterministic_half_and_half(self):
        g = _group_dispersion(np.array([0.0, 0.0, 1.0, 1.0]))
        assert g.mean_q == 0.5
        assert g.variance_q == 0.25
        assert g.gini_q == 0.5
        assert g.determinism_index == 1.0

    def test_all_rejected_has_no_gini(self):
        g = _group_dispersion(np.zeros(3))
        assert g.mean_q == 0.0
        assert g.variance_q == 0.0
        assert g.gini_q is None
        assert g.determinism_index == 1.0

    def test_empty_group_all_none(self):
        g = _group_dispersion(np.empty(0))
        assert g == type(g)(None, None, None, None)

    def test_clamp_boundaries(self):
        inside = np.array([DETERMINISM_CLAMP, 1.0 - DETERMINISM_CLAMP])
        assert _group_dispersion(inside).determinism_index == 1.0
        outside = np.array([2 * DETERMINISM_CLAMP, 1.0 - 2 * DETERMINISM_CLAMP])
        assert _group_dispersion(outside).determinism_index == 0.0

    def test_gini_matches_double_loop(self):
        rng = np.random.default_rng(4)
        profiles = [rng.random(int(rng.integers(1, 12))) for _ in range(30)]
        # tie-heavy dyadic profiles k / 2**bits, as mixtures of few members give
        for _ in range(20):
            bits = int(rng.integers(1, 6))
            n = int(rng.integers(1, 300))
            profiles.append(rng.integers(1, 2**bits + 1, size=n) / 2**bits)
        # constant profiles at non-dyadic values
        constants = [
            np.full(int(rng.integers(1, 300)), rng.random()) for _ in range(20)
        ]
        for q in profiles + constants:
            got = _group_dispersion(q)
            assert got.gini_q >= 0
            assert got.gini_q == pytest.approx(gini_oracle(q.tolist()), abs=1e-12)
            assert got.variance_q == pytest.approx(np.var(q), abs=1e-12)
        for q in constants:
            assert _group_dispersion(q).gini_q == 0.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        q = rng.random(9)
        a = _group_dispersion(q)
        b = _group_dispersion(q[rng.permutation(9)])
        assert a.mean_q == pytest.approx(b.mean_q, abs=1e-15)
        assert a.variance_q == pytest.approx(b.variance_q, abs=1e-15)
        assert a.gini_q == pytest.approx(b.gini_q, abs=1e-12)
        assert a.determinism_index == b.determinism_index

    def test_gini_scale_invariant(self):
        rng = np.random.default_rng(6)
        q = rng.random(7) * 0.5
        assert _group_dispersion(q).gini_q == pytest.approx(
            _group_dispersion(2.0 * q).gini_q, abs=1e-12
        )


class TestDispersionReport:
    def test_groups_split_correctly(self):
        ds = two_group_dataset(2, 3)
        q = np.array([0.1, 0.3, 1.0, 1.0, 1.0])
        report = dispersion(q, ds)
        assert report.group(0).mean_q == pytest.approx(0.2)
        assert report.group(1).mean_q == 1.0
        assert report.group(1).variance_q == 0.0
        assert report.group(1).determinism_index == 1.0

    def test_profile_length_checked(self):
        ds = two_group_dataset(1, 1)
        with pytest.raises(FairmixError, match="does not match"):
            dispersion(np.array([0.5]), ds)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_profile_rejected(self, bad):
        ds = two_group_dataset(1, 2)
        with pytest.raises(FairmixError, match="non-finite benefit probability at row 2"):
            dispersion(np.array([0.5, bad, 0.5]), ds)

    def test_json_marks_extension(self):
        ds = two_group_dataset(1, 1)
        doc = dispersion(np.array([0.5, 0.5]), ds).to_json_dict()
        assert doc["extension"] is True
        assert set(doc) == {"extension", "z0", "z1"}
        assert set(doc["z0"]) == {"mean_q", "variance_q", "gini_q", "determinism_index"}

