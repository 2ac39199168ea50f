"""Calibration kernels: fixed work timed beside every timed segment of a run.

The host this benchmark was built on runs the same code up to twice as fast
or as slow from one minute to the next, and the guest cannot see it: CPU time
tracks wall time and the steal counter barely moves (README, "This
machine's noise").  A fixed kernel timed right before and right after a
segment slows down with it.  So every timed segment is divided by the mean
of the kernel times on its two sides and multiplied by the kernel's nominal
time: the benchmark's times are wall times at the speed at which the kernel
takes its nominal time.

Two kernels, each shaped like the code it stands beside:

* `array`: one block of the k-NN Shapley computation (distances by a matrix
  product, a stable argsort per row, label gather, reversed cumulative sums,
  `np.add.at`, a dict of the totals) for 64 references on fixed inputs.  It
  calibrates set-up, report writing and the rounds of the k-NN workloads.
* `stream`: the value-profile bookkeeping of a static round (an id set, a
  filtered dict, the value-to-weight map over 8,400 fixed entries), then the
  `array` block for 16 references, which stands for the round's numpy work
  (row selection, the engine, scoring).  It calibrates the rounds of
  `stream-static`, where the bookkeeping is about three quarters of a round.

The kernels use numpy and the standard library only, never the package, so a
change to the package moves the measured segment and not its yardstick.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

perf_counter = time.perf_counter

_rng = np.random.default_rng(20251106)
_TRAIN = _rng.normal(size=(1400, 20))
_TRAIN_LABELS = _rng.integers(0, 2, size=1400)
_REF = _rng.normal(size=(64, 20))
_REF_LABELS = _rng.integers(0, 2, size=64)
_VALUES = {i: float(v) for i, v in enumerate(_rng.normal(scale=1e-3, size=8400))}
_KEEP = np.arange(2, 8400)
_ANCHOR = 1e-5


def array_kernel(refs: int = 64) -> dict[int, float]:
    ref, ref_labels = _REF[:refs], _REF_LABELS[:refs]
    totals = np.zeros(len(_TRAIN))
    x_sq = np.sum(_TRAIN * _TRAIN, axis=1)
    d2 = x_sq[None, :] - 2.0 * (ref @ _TRAIN.T) + np.sum(ref * ref, axis=1)[:, None]
    rank = np.argsort(d2, axis=1, kind="stable")
    match = (_TRAIN_LABELS[rank] == ref_labels[:, None]).astype(np.float64)
    np.add.at(totals, rank, np.cumsum(match[:, ::-1], axis=1)[:, ::-1])
    return {i: float(t) for i, t in enumerate(totals)}


def stream_kernel() -> dict[int, float]:
    keep = set(int(i) for i in _KEEP)
    kept = {i: x for i, x in _VALUES.items() if i in keep}
    out = {}
    for i, value in kept.items():
        if abs(value) <= 1e-9:
            out[int(i)] = 0.0
        elif value < 0.0:
            out[int(i)] = 1.0
        else:
            out[int(i)] = min(1.0, 0.5 * _ANCHOR / value)
    array_kernel(16)
    return out


# kernel -> (function, nominal seconds): about its median inside benchmark
# runs on the machine the README describes
KERNELS = {"array": (array_kernel, 0.013), "stream": (stream_kernel, 0.0125)}


def measure(kinds, times: int = 1) -> dict[str, float]:
    """Seconds each kernel in `kinds` takes: the median of `times` calls."""
    out = {}
    for kind in dict.fromkeys(kinds):
        fn = KERNELS[kind][0]
        samples = []
        for _ in range(times):
            t0 = perf_counter()
            fn()
            samples.append(perf_counter() - t0)
        out[kind] = statistics.median(samples)
    return out


def scale(seconds: float, kind: str, before: dict, after: dict) -> float:
    """`seconds` at the kernel's nominal speed, from its times on both sides."""
    return seconds * KERNELS[kind][1] / ((before[kind] + after[kind]) / 2.0)
