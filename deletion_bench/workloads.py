"""The three workloads: their `dvwu run` configs and the inputs they need.

Every repetition of a workload is one `dvwu run` call with a config written
before timing starts.  The seed of the run picks the per-repetition seeds of
the untied workloads.  `knn-dynamic-tied` repeats one fixed repetition (table,
split and deletion draws), so its rounds that fail on the known `knn_sv` tie
fault fail on the same inputs in every repetition of every run: whether BLAS
rounding breaks a tie depends on where the copies of a row sit among the
columns of the distance product, which differs from split to split.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# sy1 recipe (data_io.SYNTH_PRESETS["sy1"]) at a smaller n
SY1 = {"d_informative": 18, "d_redundant": 2, "positive_ratio": 0.5,
        "noise_ratio": 0.05}

# tied table: rows drawn from a pool of categorical feature vectors
TIED_TABLE_SEED = 20251106
TIED_POOL = 300
TIED_LEVELS = 4
TIED_D = 20
TIED_LABEL_FLIP = 0.10
TIED_SEED = 1             # base seed of every tied repetition

# settings every workload shares; the checks read them from here
LAM = 0.001
K = 5
ALPHA = 0.5
ZERO_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    loss: str
    rows: int              # rows of the generated or loaded table
    train_fraction: float
    rounds: int
    per_round: int
    tied: bool
    warmup_rows: int
    round_kernel: str      # the calib.py kernel shaped like this workload's rounds

    @property
    def dynamic(self) -> bool:
        return self.method == "dvwu-dk"

    def knn_calls_checked(self) -> dict[int, int]:
        """Map a k-NN call index to the round whose weights it produced.

        Call 0 is the initial valuation; a dynamic method makes call t at the
        end of round t, and those values weight round t + 1.  Rounds 1 and T
        are the checked rounds.
        """
        if self.dynamic:
            return {0: 1, self.rounds - 1: self.rounds}
        return {0: 1}

    def checked_rounds(self) -> tuple[int, int]:
        return (1, self.rounds)


WORKLOADS = {
    w.name: w for w in (
        Workload("knn-dynamic", "dvwu-dk", "logistic", rows=2001,
                 train_fraction=0.7, rounds=40, per_round=2, tied=False,
                 warmup_rows=300, round_kernel="array"),
        Workload("knn-dynamic-tied", "dvwu-dk", "logistic", rows=2001,
                 train_fraction=0.7, rounds=40, per_round=2, tied=True,
                 warmup_rows=0, round_kernel="array"),
        Workload("stream-static", "dvwu-k", "huberized_svm", rows=9333,
                 train_fraction=0.9, rounds=150, per_round=2, tied=False,
                 warmup_rows=600, round_kernel="stream"),
    )
}


def rep_seed(workload: Workload, seed: int, rep: int) -> int:
    """Seed of the rep-th repetition of a run started with `seed`."""
    if workload.tied:
        return TIED_SEED
    return 1000 * seed + rep


def write_tied_table(path: Path) -> Path:
    """Write the tied CSV table and its manifest; returns the manifest path.

    Rows repeat a small pool of integer-coded (categorical) feature vectors;
    labels follow a linear rule on the pool vector and are then flipped per
    row, so copies of one vector can carry different labels.
    """
    rng = np.random.default_rng(TIED_TABLE_SEED)
    pool = rng.integers(0, TIED_LEVELS, size=(TIED_POOL, TIED_D)).astype(np.float64)
    rows = WORKLOADS["knn-dynamic-tied"].rows
    members = rng.integers(0, TIED_POOL, size=rows)
    X = pool[members]
    score = X @ rng.normal(size=TIED_D)
    y = np.where(score > np.median(score), 1, -1)
    flip = rng.random(rows) < TIED_LABEL_FLIP
    y[flip] = -y[flip]
    path.mkdir(parents=True, exist_ok=True)
    table = path / "tied.csv"
    with open(table, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"f{j}" for j in range(TIED_D)] + ["label"])
        for i in range(rows):
            writer.writerow([i] + [int(v) for v in X[i]] + [int(y[i])])
    manifest = path / "tied.manifest"
    manifest.write_text("path = tied.csv\nlabel_column = label\n"
                        "positive_token = 1\nid_column = id\n")
    return manifest


def config_text(workload: Workload, seed: int, *, manifest: Path | None = None,
                rows: int | None = None, rounds: int | None = None) -> str:
    """A `dvwu run` config for one repetition."""
    lines = [
        f"method = {workload.method}",
        "perturbation = output",
        f"loss = {workload.loss}",
        f"lam = {LAM}",
        "epsilon = 1.0",
        "delta = 0.0001",
        f"rounds = {rounds or workload.rounds}",
        f"deletions_per_round = {workload.per_round}",
        "repetitions = 1",
        f"base_seed = {seed}",
        f"k = {K}",
        f"alpha = {ALPHA}",
        f"zero_tol = {ZERO_TOL}",
        "check_every = 1",
        "deletion_strategy = uniform",
        f"train_fraction = {workload.train_fraction}",
    ]
    if workload.tied:
        lines.append(f"data_manifest = {manifest}")
    else:
        lines.append(f"synth.n = {rows or workload.rows}")
        lines += [f"synth.{key} = {value}" for key, value in SY1.items()]
        lines.append(f"synth.seed = {seed}")
    return "\n".join(lines) + "\n"
