"""Dataset generation, file loading, preprocessing, and splitting."""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DataLoadError, InvalidArgumentError

log = logging.getLogger(__name__)

_MISSING_TOKENS = {"", "na", "nan", "null", "none", "?"}


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the clustered synthetic binary-classification generator."""

    n: int
    d_informative: int
    d_redundant: int = 0
    positive_ratio: float = 0.5
    noise_ratio: float = 0.0
    cube_side: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 4:
            raise InvalidArgumentError(f"n must be >= 4, got {self.n}")
        if self.d_informative < 2:
            raise InvalidArgumentError(
                f"d_informative must be >= 2, got {self.d_informative}")
        if self.d_redundant < 0:
            raise InvalidArgumentError(f"d_redundant must be >= 0, got {self.d_redundant}")
        if not 0.0 < self.positive_ratio < 1.0:
            raise InvalidArgumentError(
                f"positive_ratio must be in (0, 1), got {self.positive_ratio}")
        if not 0.0 <= self.noise_ratio < 0.5:
            raise InvalidArgumentError(
                f"noise_ratio must be in [0, 0.5), got {self.noise_ratio}")
        if not self.cube_side > 0:
            raise InvalidArgumentError(f"cube_side must be positive, got {self.cube_side}")

    @property
    def d(self) -> int:
        return self.d_informative + self.d_redundant


def gen_synthetic(cfg: SynthConfig) -> Dataset:
    """Two Gaussian clusters per class at distinct hypercube vertices.

    Four vertices of the d_informative-dimensional hypercube (coordinates
    +-cube_side/2) are chosen uniformly without replacement; the first two
    anchor the positive clusters, the last two the negative ones.  Cluster
    coordinates have unit variance.  Redundant features are random linear
    combinations of the informative ones (coefficients uniform on [-1, 1]).
    Rows are shuffled, then exactly round(noise_ratio * n) labels are flipped.
    """
    rng = np.random.default_rng(cfg.seed)
    half = cfg.cube_side / 2.0

    vertices: list[tuple[int, ...]] = []
    seen = set()
    while len(vertices) < 4:
        v = tuple(int(s) for s in rng.integers(0, 2, size=cfg.d_informative))
        if v not in seen:
            seen.add(v)
            vertices.append(v)
    centers = (2.0 * np.array(vertices, dtype=np.float64) - 1.0) * half

    n_pos = round(cfg.positive_ratio * cfg.n)
    n_neg = cfg.n - n_pos
    if n_pos < 2 or n_neg < 2:
        raise InvalidArgumentError("each class needs at least two samples")
    counts = [(n_pos + 1) // 2, n_pos // 2, (n_neg + 1) // 2, n_neg // 2]

    blocks = []
    labels = []
    for center, count, label in zip(centers, counts, [1.0, 1.0, -1.0, -1.0]):
        blocks.append(rng.standard_normal((count, cfg.d_informative)) + center)
        labels.append(np.full(count, label))
    X = np.vstack(blocks)
    y = np.concatenate(labels)

    if cfg.d_redundant:
        coef = rng.uniform(-1.0, 1.0, size=(cfg.d_informative, cfg.d_redundant))
        X = np.hstack([X, X @ coef])

    perm = rng.permutation(cfg.n)
    X, y = X[perm], y[perm]

    n_flip = round(cfg.noise_ratio * cfg.n)
    if n_flip:
        flip = rng.choice(cfg.n, size=n_flip, replace=False)
        y = y.copy()
        y[flip] = -y[flip]

    return Dataset(X, y, np.arange(cfg.n, dtype=np.int64))


# Table-style synthetic presets: total dimension counts two redundant features,
# matching the generator's recipe.
SYNTH_PRESETS = {
    "sy1": SynthConfig(n=30000, d_informative=18, d_redundant=2,
                       positive_ratio=0.5, noise_ratio=0.05),
    "sy2": SynthConfig(n=30000, d_informative=18, d_redundant=2,
                       positive_ratio=0.5, noise_ratio=0.15),
    "sy3": SynthConfig(n=30000, d_informative=18, d_redundant=2,
                       positive_ratio=0.5, noise_ratio=0.25),
    "sy4": SynthConfig(n=30000, d_informative=38, d_redundant=2,
                       positive_ratio=0.5, noise_ratio=0.05),
    "sy5": SynthConfig(n=60000, d_informative=38, d_redundant=2,
                       positive_ratio=0.5, noise_ratio=0.05),
    "sy6": SynthConfig(n=30000, d_informative=18, d_redundant=2,
                       positive_ratio=0.25, noise_ratio=0.05),
}


def save_csv(data: Dataset, path) -> None:
    """Write id, f0..f{d-1}, label with full-precision floats."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"f{j}" for j in range(data.d)] + ["label"])
        for i in range(data.n):
            writer.writerow([int(data.ids[i])]
                            + [repr(float(x)) for x in data.features[i]]
                            + [int(data.labels[i])])


def load_csv(path, label_column: str = "label", positive_token: str = "1",
             id_column: str | None = "id", drop_columns: tuple[str, ...] = ()) -> Dataset:
    """Load a headered CSV into a Dataset.

    The label column maps cells equal to positive_token to +1 and everything
    else to -1.  Rows with missing cells are dropped (count logged); any
    other unparseable or non-finite feature cell (inf, 1e400) raises
    DataLoadError naming the data row.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataLoadError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataLoadError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if label_column not in header:
            raise DataLoadError(f"{path}: missing label column {label_column!r}")
        skip = set(drop_columns) | {label_column}
        if id_column is not None and id_column in header:
            skip.add(id_column)
        else:
            id_column = None
        feature_cols = [j for j, h in enumerate(header) if h not in skip]
        if not feature_cols:
            raise DataLoadError(f"{path}: no feature columns left")
        label_idx = header.index(label_column)
        id_idx = header.index(id_column) if id_column else None

        rows, labels, ids = [], [], []
        dropped = 0
        for row_number, row in enumerate(reader):
            if len(row) != len(header):
                raise DataLoadError(
                    f"{path}: row {row_number} has {len(row)} cells, expected {len(header)}")
            cells = [c.strip() for c in row]
            if any(cells[j].lower() in _MISSING_TOKENS for j in feature_cols + [label_idx]):
                dropped += 1
                continue
            try:
                values = [float(cells[j]) for j in feature_cols]
            except ValueError as exc:
                raise DataLoadError(f"{path}: row {row_number}: {exc}") from None
            if not all(map(math.isfinite, values)):
                raise DataLoadError(f"{path}: row {row_number}: non-finite feature value")
            rows.append(values)
            labels.append(1.0 if cells[label_idx] == positive_token else -1.0)
            if id_idx is not None:
                try:
                    ids.append(int(cells[id_idx]))
                except ValueError as exc:
                    raise DataLoadError(f"{path}: row {row_number}: {exc}") from None
    if dropped:
        log.info("%s: dropped %d rows with missing values", path, dropped)
    if not rows:
        raise DataLoadError(f"{path}: no usable data rows")
    id_arr = np.array(ids, dtype=np.int64) if ids else None
    try:
        return Dataset(np.array(rows, dtype=np.float64),
                       np.array(labels, dtype=np.float64), id_arr)
    except InvalidArgumentError as exc:
        raise DataLoadError(f"{path}: {exc}") from exc


def load_manifest(path) -> dict[str, str]:
    """Read a key/value manifest ('key = value' lines, # comments)."""
    out: dict[str, str] = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise DataLoadError(f"cannot open {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataLoadError(f"{path}: line {lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def load_dataset_from_manifest(path) -> Dataset:
    """Load a CSV dataset described by a manifest (path, label column, ...).

    Relative data paths resolve against the manifest's directory.
    """
    import os

    manifest = load_manifest(path)
    if "path" not in manifest:
        raise DataLoadError(f"{path}: manifest is missing the 'path' key")
    data_path = manifest["path"]
    if not os.path.isabs(data_path):
        data_path = os.path.join(os.path.dirname(os.path.abspath(path)), data_path)
    drop = tuple(c.strip() for c in manifest.get("drop_columns", "").split(",") if c.strip())
    return load_csv(
        data_path,
        label_column=manifest.get("label_column", "label"),
        positive_token=manifest.get("positive_token", "1"),
        id_column=manifest.get("id_column", "id"),
        drop_columns=drop,
    )


@dataclass(frozen=True)
class StandardizeTransform:
    """Column means and stds fitted on one dataset, applicable to others."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, data: Dataset) -> Dataset:
        return Dataset((data.features - self.mean) / self.std, data.labels, data.ids)


def standardize(data: Dataset) -> tuple[Dataset, StandardizeTransform]:
    """Center and scale columns to mean 0, std 1 (constant columns only centered).

    Returns the transform so held-out splits can be mapped with the training
    statistics instead of their own.
    """
    if data.n < 2:
        raise InvalidArgumentError("standardize needs at least two rows")
    mean = data.features.mean(axis=0)
    std = data.features.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    transform = StandardizeTransform(mean=mean, std=std)
    return transform.apply(data), transform


def max_row_norm(data: Dataset) -> float:
    return float(np.max(np.linalg.norm(data.features, axis=1)))


def norm_bound(data: Dataset, scale: float | None = None) -> Dataset:
    """Divide every row by max(1, max row norm) so all norms are <= 1.

    Pass the training scale explicitly to map other splits consistently.
    """
    if data.n < 1:
        raise InvalidArgumentError("norm_bound needs a non-empty dataset")
    if scale is None:
        scale = max(1.0, max_row_norm(data))
    if not scale > 0:
        raise InvalidArgumentError(f"scale must be positive, got {scale}")
    return Dataset(data.features / scale, data.labels, data.ids)


@dataclass(frozen=True)
class SplitResult:
    train: Dataset
    validation: Dataset | None
    test: Dataset


def split(data: Dataset, train_fraction: float = 0.7, seed: int = 0,
          val_fraction: float = 0.1) -> SplitResult:
    """Shuffle and split into train / validation / test with disjoint ids.

    train_fraction is the train+validation share of the whole dataset;
    val_fraction is the validation share of that portion (0 disables the
    validation split).
    """
    if not 0.0 < train_fraction < 1.0:
        raise InvalidArgumentError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if not 0.0 <= val_fraction < 1.0:
        raise InvalidArgumentError(f"val_fraction must be in [0, 1), got {val_fraction}")
    perm = np.random.default_rng(seed).permutation(data.n)
    n_trainval = round(train_fraction * data.n)
    n_val = round(val_fraction * n_trainval)
    n_train = n_trainval - n_val
    n_test = data.n - n_trainval
    if n_train < 1 or n_test < 1 or (val_fraction > 0 and n_val < 1):
        raise InvalidArgumentError(
            f"split of n={data.n} leaves an empty part "
            f"(train {n_train}, val {n_val}, test {n_test})")
    val_part = data.take(perm[:n_val]) if n_val else None
    return SplitResult(
        train=data.take(perm[n_val:n_trainval]),
        validation=val_part,
        test=data.take(perm[n_trainval:]),
    )
