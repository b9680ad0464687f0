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

from .dataset import Dataset, Instance, PathArg
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

    def score(self, features: Sequence[float], sensitive: int) -> float:
        if len(features) != len(self.weights):
            raise CompatibilityError(
                f"dimension mismatch: classifier expects {len(self.weights)} "
                f"features, got {len(features)}"
            )
        return (
            float(np.dot(self.weights, features))
            + self.sensitive_weight * sensitive
            + self.bias
        )

    def predict(self, instance: Instance) -> int:
        return 1 if self.score(instance.features, instance.sensitive) >= 0 else -1

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
        preds = np.asarray(predictions, dtype=int)
        if preds.ndim != 1 or preds.shape[0] != len(dataset):
            raise DataFormatError(
                f"prediction vector length {preds.shape} does not match "
                f"dataset size {len(dataset)}"
            )
        if not np.all(np.isin(preds, (-1, 1))):
            bad = int(np.flatnonzero(~np.isin(preds, (-1, 1)))[0])
            raise DataFormatError(f"invalid prediction at row {bad + 1}: must be -1 or 1")
        preds = preds.copy()
        preds.setflags(write=False)
        self._predictions = preds
        self._dataset = dataset

    @property
    def predictions(self) -> np.ndarray:
        return self._predictions

    @property
    def dataset(self) -> Dataset:
        return self._dataset

    def predict_index(self, i: int) -> int:
        return int(self._predictions[i])

    def predict(self, instance: Instance) -> int:
        raise CompatibilityError(
            "treatment test unsupported for table classifiers: a prediction "
            "table cannot evaluate instances outside its bound dataset"
        )

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
    {-1, +1}. Column order is preserved.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        m = len(header)
        if m == 0 or header != _matrix_header(m):
            raise DataFormatError(
                f"{path}: header must be clf_1,...,clf_M; got {','.join(header)}"
            )
        rows = []
        for k, row in enumerate(reader, start=1):
            if len(row) != m:
                raise DataFormatError(
                    f"{path}: row {k}: expected {m} fields, got {len(row)}"
                )
            try:
                values = [int(v) for v in row]
            except ValueError:
                raise DataFormatError(
                    f"{path}: row {k}: malformed prediction value"
                ) from None
            for v in values:
                if v not in (-1, 1):
                    raise DataFormatError(
                        f"{path}: row {k}: prediction must be -1 or 1, got {v}"
                    )
            rows.append(values)
    if len(rows) != len(dataset):
        raise DataFormatError(
            f"{path}: row count mismatch: {len(rows)} rows for a dataset "
            f"of {len(dataset)} instances"
        )
    matrix = np.asarray(rows, dtype=int)
    return [TableClassifier(matrix[:, j], dataset) for j in range(m)]


def save_prediction_matrix(path: PathArg, matrix: np.ndarray) -> None:
    """Write an (M, N) or (N, M) prediction matrix as ``clf_1..clf_M`` CSV.

    The matrix is interpreted as (M, N): one row per classifier, as
    produced by :func:`prediction_matrix`.
    """
    matrix = np.asarray(matrix, dtype=int)
    m, n = matrix.shape
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_matrix_header(m))
        for i in range(n):
            writer.writerow([str(int(matrix[j, i])) for j in range(m)])
