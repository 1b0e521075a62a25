"""Labeled point sets consumed by the learners and the evaluation harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DataError


@dataclass(frozen=True)
class LabeledDataset:
    """n points in R^d with integer class labels in [0, c).

    Parameters
    ----------
    points : ndarray, shape (n, d)
        Feature rows; must be finite.
    labels : ndarray, shape (n,)
        Integer class codes, each in [0, num_classes).
    label_names : list of str, optional
        Original label tokens, indexed by class code (records the mapping
        applied by the loader so consumers can invert it).
    name : str
        Display name used in reports.
    """

    points: np.ndarray
    labels: np.ndarray
    label_names: list[str] | None = None
    name: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        labs = np.asarray(self.labels, dtype=np.int64)
        if pts.ndim != 2:
            raise DataError(f"points must be a 2-d array, got shape {pts.shape}")
        n, d = pts.shape
        if n < 2 or d < 1:
            raise DataError(f"dataset needs n >= 2 points and d >= 1 features, got n={n}, d={d}")
        if labs.shape != (n,):
            raise DataError(f"labels must have shape ({n},), got {labs.shape}")
        if not np.all(np.isfinite(pts)):
            raise DataError("points contain non-finite values")
        if labs.min() < 0:
            raise DataError("labels must be nonnegative class codes")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labs)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_features(self) -> int:
        return self.points.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        """Dataset restricted to the given point indices."""
        return LabeledDataset(
            points=self.points[indices],
            labels=self.labels[indices],
            label_names=self.label_names,
            name=self.name,
        )
