"""Immutable labeled dataset with stable sample ids."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class Dataset:
    """Feature matrix, +-1 labels, and unique integer ids, one per row.

    Ids survive splits and deletions, so values and weights computed for a
    sample stay attached to it no matter how the surrounding rows move.
    Arrays are marked read-only after construction.
    """

    features: np.ndarray
    labels: np.ndarray
    ids: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        X = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.float64)
        if X.ndim != 2:
            raise InvalidArgumentError(f"features must be 2-d, got shape {X.shape}")
        if not np.isfinite(X).all():
            row = int(np.argwhere(~np.isfinite(X))[0, 0])
            raise InvalidArgumentError(f"features must be finite; row {row} is not")
        if y.shape != (X.shape[0],):
            raise InvalidArgumentError(
                f"labels shape {y.shape} does not match {X.shape[0]} feature rows"
            )
        if y.size and not np.all(np.isin(y, (-1.0, 1.0))):
            bad = np.unique(y[~np.isin(y, (-1.0, 1.0))])
            raise InvalidArgumentError(f"labels must be -1 or +1, found {bad}")
        ids = self.ids
        if ids is None:
            ids = np.arange(X.shape[0], dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape != (X.shape[0],):
            raise InvalidArgumentError(f"ids shape {ids.shape} does not match {X.shape[0]} rows")
        if (np.diff(np.sort(ids)) == 0).any():
            raise InvalidArgumentError("ids must be unique")
        for arr in (X, y, ids):
            arr.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "ids", ids)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def select(self, ids) -> "Dataset":
        """Rows with the given ids, in the dataset's own row order."""
        mask = np.isin(self.ids, np.asarray(ids, dtype=np.int64))
        found = int(mask.sum())
        if found != len(set(int(i) for i in np.asarray(ids).ravel())):
            raise InvalidArgumentError("select() got ids not present in the dataset")
        return Dataset(self.features[mask], self.labels[mask], self.ids[mask])

    def drop(self, ids) -> "Dataset":
        """Dataset without the given ids; row order of the survivors is kept."""
        mask = np.isin(self.ids, np.asarray(ids, dtype=np.int64))
        return Dataset(self.features[~mask], self.labels[~mask], self.ids[~mask])

    def take(self, indices) -> "Dataset":
        """Rows by positional index."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.ids[idx])
