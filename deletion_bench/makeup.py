"""Print the make-up of each workload's inputs (the README's input table).

    python3 deletion_bench/makeup.py [--seed 1]

Builds repetition 0 of a run with the given seed the way `dvwu run` does
(load or generate, split, standardize, bound row norms) and reports sizes,
the deleted share, the share of training rows whose features equal those of
another training row, and how many reference rows see an exact distance tie.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dvwu.data_io import (SynthConfig, gen_synthetic,  # noqa: E402
                          load_dataset_from_manifest, max_row_norm, norm_bound,
                          split, standardize)
from workloads import SY1, WORKLOADS, rep_seed, write_tied_table  # noqa: E402


def _inputs(workload, seed, table_dir):
    s = rep_seed(workload, seed, 0)
    if workload.tied:
        base = load_dataset_from_manifest(write_tied_table(table_dir))
    else:
        base = gen_synthetic(SynthConfig(n=workload.rows, seed=s, **SY1))
    parts = split(base, workload.train_fraction, seed=s, val_fraction=0.0)
    train, transform = standardize(parts.train)
    scale = max(1.0, max_row_norm(train))
    return norm_bound(train, scale), norm_bound(transform.apply(parts.test), scale)


def _ties(X, ids, R):
    """(reference rows with an exact distance tie, share of adjacent sorted
    neighbours that are tied), by direct differences."""
    tied_refs, tied_pairs, pairs = 0, 0, 0
    for r in R:
        d2 = np.sum((X - r) ** 2, axis=1)
        d2 = d2[np.lexsort((ids, d2))]
        same = d2[1:] == d2[:-1]
        tied_refs += bool(same.any())
        tied_pairs += int(same.sum())
        pairs += len(same)
    return tied_refs, tied_pairs / pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    print("| workload | train rows | reference rows | d | rounds x m | deleted share "
          "| duplicate rows | reference rows with a tie | tied adjacent neighbours |")
    print("|---|---|---|---|---|---|---|---|---|")
    with tempfile.TemporaryDirectory(dir=ROOT / "deletion_bench") as tmp:
        for name, workload in WORKLOADS.items():
            train, test = _inputs(workload, args.seed, Path(tmp))
            X = train.features
            _, counts = np.unique(X, axis=0, return_counts=True)
            duplicates = counts[counts > 1].sum() / len(X)
            tied_refs, tied_adjacent = _ties(X, train.ids, test.features)
            deleted = workload.rounds * workload.per_round
            print(f"| {name} | {train.n} | {test.n} | {train.d} | "
                  f"{workload.rounds} x {workload.per_round} | {deleted / train.n:.1%} | "
                  f"{duplicates:.1%} | {tied_refs} of {test.n} | {tied_adjacent:.1%} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
