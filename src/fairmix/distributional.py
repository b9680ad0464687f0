"""Intra-group dispersion of benefit probabilities.

Inter-group metrics compare rates *between* sensitive groups; the
measures here quantify how evenly an ensemble spreads the chance of a
beneficial outcome *within* each group. Three summaries are computed
per group over the benefit profile q:

* population mean and variance of q,
* the Gini coefficient of q (undefined when the group mean is 0, since
  an all-rejected group is not "perfectly equal"),
* a determinism index: the fraction of the group whose outcome is not
  random at all (q exactly 0 or 1, within a 1e-12 clamp).

These summaries are extensions beyond the classical inter-group
measures and are flagged as such in serialized output.
"""

from __future__ import annotations

import numpy as np

from ._record import _Record
from .dataset import Dataset, check_group, check_length, check_profile, group_indices

DETERMINISM_CLAMP = 1e-12


class GroupDispersion(_Record):
    """Dispersion summary of the benefit profile within one group; a float or None each."""

    __slots__ = ("mean_q", "variance_q", "gini_q", "determinism_index")

    def to_json_dict(self) -> dict:
        return {
            "mean_q": self.mean_q,
            "variance_q": self.variance_q,
            "gini_q": self.gini_q,
            "determinism_index": self.determinism_index,
        }


class DispersionReport(_Record):
    __slots__ = ("group_z0", "group_z1")

    def group(self, z: int) -> GroupDispersion:
        check_group(z)
        return self.group_z0 if z == 0 else self.group_z1

    def to_json_dict(self) -> dict:
        return {
            "extension": True,
            "z0": self.group_z0.to_json_dict(),
            "z1": self.group_z1.to_json_dict(),
        }


def _group_dispersion(q: np.ndarray) -> GroupDispersion:
    n = q.shape[0]
    if n == 0:
        return GroupDispersion(None, None, None, None)
    # every summary is read from the sorted values, so it depends only on
    # the group's multiset of q; the rounded mean of n copies of c need not
    # be c, and can even fall outside [min, max], so it is clamped there
    s = np.sort(q)
    mean = float(np.clip(np.mean(s), s[0], s[-1]))
    variance = float(np.mean((s - mean) ** 2))
    if mean == 0.0:
        gini = None
    else:
        # Gini = sum_{i,k} |q_i - q_k| / (2 n^2 mean). Over the sorted
        # profile s the double sum is 2 sum_{i<n} (s_{i+1} - s_i) i (n - i):
        # O(n) memory, every term >= 0, and exactly 0 for a constant group
        # (the rank form sum (2i - n - 1) s_i can round to a negative value)
        i = np.arange(1, n)
        half_sum = float(np.sum(np.diff(s) * (i * (n - i))))
        gini = half_sum / (n * n * mean)
    deterministic = (q <= DETERMINISM_CLAMP) | (q >= 1.0 - DETERMINISM_CLAMP)
    determinism = int(np.sum(deterministic)) / n
    return GroupDispersion(mean, variance, gini, determinism)


def dispersion(benefit_profile, dataset: Dataset) -> DispersionReport:
    """Per-group dispersion of a benefit profile of length N."""
    q = check_profile(benefit_profile)
    check_length(q, dataset, "benefit profile")
    return DispersionReport(
        group_z0=_group_dispersion(q[group_indices(dataset, 0)]),
        group_z1=_group_dispersion(q[group_indices(dataset, 1)]),
    )

