"""Deterministic binary classifiers in two concrete forms.

``LinearClassifier`` thresholds an affine score of the features and,
optionally, the sensitive attribute. ``TableClassifier`` carries a
precomputed prediction for every row of one specific dataset. All
randomness in this package lives in ensembles; classifiers themselves
are deterministic and immutable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .dataset import Dataset, PathArg, _as_given, _read_cells
from .errors import CompatibilityError, DataFormatError, FairmixError


@dataclass(frozen=True)
class LinearClassifier:
    """Predict +1 iff ``weights . features + sensitive_weight * z + bias >= 0``.

    A score of exactly zero maps to +1; the fixed tie-break keeps every
    evaluation deterministic. ``sensitive_weight`` lets a rule read the
    group label without duplicating it into the features; 0 encodes a
    group-blind rule.
    """

    weights: tuple[float, ...]
    sensitive_weight: float = 0.0
    bias: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not all(map(math.isfinite, (*self.weights, self.sensitive_weight, self.bias))):
            raise FairmixError(f"non-finite classifier parameter in {self!r}")

    def predict_all(self, dataset: Dataset) -> np.ndarray:
        if dataset.dimension != len(self.weights):
            raise CompatibilityError(
                f"dimension mismatch: classifier expects {len(self.weights)} "
                f"features, dataset has {dataset.dimension}"
            )
        scores = (
            dataset.features @ np.asarray(self.weights)
            + self.sensitive_weight * dataset.sensitive
            + self.bias
        )
        return np.where(scores >= 0, 1, -1)

    def negated(self) -> "LinearClassifier":
        """Classifier with all parameters negated (flips non-boundary points)."""
        return LinearClassifier(
            tuple(-w for w in self.weights), -self.sensitive_weight, -self.bias
        )


class TableClassifier:
    """A column of precomputed labels bound to one dataset.

    A table has no functional form to evaluate off-dataset, so it can
    only answer queries addressed by row index within its bound dataset.
    In particular it cannot score a synthesized flipped-attribute
    instance; treatment tests on tables need counterfactual pairs drawn
    from the dataset itself.
    """

    __slots__ = ("_predictions", "_dataset")

    def __init__(self, predictions, dataset: Dataset):
        preds = _as_given(predictions)
        if preds.ndim != 1 or preds.shape[0] != len(dataset):
            raise DataFormatError(
                f"prediction vector length {preds.shape} does not match "
                f"dataset size {len(dataset)}"
            )
        if not np.all(np.isin(preds, (-1, 1))):
            bad = int(np.flatnonzero(~np.isin(preds, (-1, 1)))[0])
            raise DataFormatError(f"invalid prediction at row {bad + 1}: must be -1 or 1")
        preds = preds.astype(int)
        preds.setflags(write=False)
        self._predictions = preds
        self._dataset = dataset

    @property
    def predictions(self) -> np.ndarray:
        return self._predictions

    @property
    def dataset(self) -> Dataset:
        return self._dataset

    def predict_all(self, dataset: Dataset) -> np.ndarray:
        if dataset is not self._dataset and dataset != self._dataset:
            raise CompatibilityError(
                "table classifier applied to a dataset it is not bound to"
            )
        return self._predictions

    def __eq__(self, other) -> bool:
        if not isinstance(other, TableClassifier):
            return NotImplemented
        return (
            np.array_equal(self._predictions, other._predictions)
            and self._dataset == other._dataset
        )

    def __hash__(self):
        return hash(self._predictions.tobytes())


Classifier = Union[LinearClassifier, TableClassifier]


def prediction_matrix(members: Sequence[Classifier], dataset: Dataset) -> np.ndarray:
    """(M, N) matrix of member predictions on the dataset."""
    return np.stack([c.predict_all(dataset) for c in members])


def _matrix_header(m: int) -> list[str]:
    return [f"clf_{j}" for j in range(1, m + 1)]


def load_prediction_matrix(path: PathArg, dataset: Dataset) -> list[TableClassifier]:
    """Load table classifiers from CSV with header ``clf_1,...,clf_M``.

    The file must have exactly one row per dataset instance, entries in
    {-1, +1} (Python ``int()`` syntax, so ``+1`` and ``01`` are read as
    1). Column order is preserved.
    """
    _, cells = _read_cells(
        path, lambda m: _matrix_header(m) if m else None, "clf_1,...,clf_M"
    )
    accepted = cells == "1"
    # Only rows with a cell other than the two plain tokens go through int().
    for k in np.flatnonzero(~np.all(accepted | (cells == "-1"), axis=1)):
        try:
            values = [int(v) for v in cells[k].tolist()]
        except ValueError:
            raise DataFormatError(
                f"{path}: row {k + 1}: malformed prediction value"
            ) from None
        for v in values:
            if v not in (-1, 1):
                raise DataFormatError(
                    f"{path}: row {k + 1}: prediction must be -1 or 1, got {v}"
                )
        accepted[k] = np.array(values) == 1
    if len(cells) != len(dataset):
        raise DataFormatError(
            f"{path}: row count mismatch: {len(cells)} rows for a dataset "
            f"of {len(dataset)} instances"
        )
    matrix = np.where(accepted, 1, -1)
    return [TableClassifier(matrix[:, j], dataset) for j in range(matrix.shape[1])]


def save_prediction_matrix(path: PathArg, matrix: np.ndarray) -> None:
    """Write an (M, N) prediction matrix as ``clf_1..clf_M`` CSV.

    The matrix has one row per classifier, as produced by
    :func:`prediction_matrix`; the file has one row per instance.
    """
    matrix = np.asarray(matrix, dtype=int)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_matrix_header(matrix.shape[0]))
        writer.writerows(matrix.T.tolist())
