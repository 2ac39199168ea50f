"""Data valuation and the value-to-weight map for deletion updates.

Two valuation methods are provided: leave-one-out retraining (utility is
accuracy on a held-out split) and the exact k-nearest-neighbor Shapley value
(utility is the k-NN vote share on a reference set, computed in closed form
by a per-test-point recursion over distance-sorted training rows).

Values q map to deletion weights v: harmful samples (q < 0) keep weight 1,
worthless samples (q = 0) get weight 0, and valuable samples (q > 0) get
alpha * q_min_plus / q clamped to [0, 1], where q_min_plus is the smallest
positive value of the initial round and stays fixed for the whole deletion
sequence.  A ValueProfile keeps only the values and the anchor; a weight is
a function of the two, so it is mapped when its batch is deleted.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset
from .errors import InvalidArgumentError
from .losses import LossKind
from .models import evaluate, train

log = logging.getLogger(__name__)

LEAVE_ONE_OUT = "leave_one_out"
KNN_SHAPLEY = "knn_shapley"
STATIC = "static"
DYNAMIC = "dynamic"

DEFAULT_ALPHA = 0.5
DEFAULT_ZERO_TOL = 1e-9


@dataclass(frozen=True)
class ValuationMethod:
    """Which values to compute and whether to refresh them between rounds."""

    kind: str = KNN_SHAPLEY
    mode: str = STATIC
    k: int = 5

    def __post_init__(self):
        if self.kind not in (LEAVE_ONE_OUT, KNN_SHAPLEY):
            raise InvalidArgumentError(f"unknown valuation kind {self.kind!r}")
        if self.mode not in (STATIC, DYNAMIC):
            raise InvalidArgumentError(f"unknown valuation mode {self.mode!r}")
        if self.k < 1:
            raise InvalidArgumentError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class ValueProfile:
    """Values q per sample id, with the frozen q_min_plus anchor.  Building
    one checks the weight map's parameters, so a bad alpha fails early."""

    q: dict[int, float]
    q_min_plus: float
    alpha: float = DEFAULT_ALPHA
    zero_tol: float = DEFAULT_ZERO_TOL

    def __post_init__(self):
        weights_from_values({}, self.q_min_plus, self.alpha, self.zero_tol)  # checks only

    @classmethod
    def from_initial_values(cls, q: dict[int, float], alpha: float = DEFAULT_ALPHA,
                            zero_tol: float = DEFAULT_ZERO_TOL) -> "ValueProfile":
        """Build the round-1 profile; q_min_plus is anchored here and never moves.

        Values within zero_tol of zero do not count as positive.  When no
        value is positive the anchor is left as NaN, which is fine as long as
        no later round produces a positive value.
        """
        return cls(q={}, q_min_plus=float("nan"), alpha=alpha,
                   zero_tol=zero_tol).with_values(q)

    def with_values(self, q: dict[int, float]) -> "ValueProfile":
        """Same anchor and parameters, new values.

        A still-undefined anchor is set from the first batch of values that
        contains a positive one; after that it never moves.
        """
        anchor = self.q_min_plus
        if np.isnan(anchor):
            positives = [x for x in q.values() if x > self.zero_tol]
            anchor = min(positives) if positives else anchor
        return replace(self, q=dict(q), q_min_plus=anchor)

    def restrict(self, ids) -> "ValueProfile":
        """Drop entries for ids that are gone; used by static mode after a deletion.

        Values and the anchor do not change.  Ids the profile does not hold
        are ignored.
        """
        keep = set(np.asarray(ids, dtype=np.int64).ravel().tolist())
        return replace(self, q={i: x for i, x in self.q.items() if i in keep})

    def weights_for(self, ids) -> dict[int, float]:
        """Deletion weights of the given ids, by weights_from_values."""
        try:
            q = {int(i): self.q[int(i)] for i in np.asarray(ids).ravel()}
        except KeyError as exc:
            raise InvalidArgumentError(f"no weight for id {exc.args[0]}") from None
        return weights_from_values(q, self.q_min_plus, self.alpha, self.zero_tol)


def weights_from_values(q, q_min_plus: float, alpha: float = DEFAULT_ALPHA,
                        zero_tol: float = DEFAULT_ZERO_TOL) -> dict[int, float]:
    """Map values to deletion weights in [0, 1].

    q < 0 -> 1 (remove harmful points at full strength), |q| <= zero_tol -> 0
    (skip worthless points), q > 0 -> min(1, alpha * q_min_plus / q).
    """
    if not 0.0 < alpha <= 1.0:
        raise InvalidArgumentError(f"alpha must be in (0, 1], got {alpha}")
    if not np.isnan(q_min_plus) and not q_min_plus > 0.0:
        raise InvalidArgumentError(f"q_min_plus must be positive, got {q_min_plus}")
    if zero_tol < 0.0:
        raise InvalidArgumentError(f"zero_tol must be nonnegative, got {zero_tol}")
    out: dict[int, float] = {}
    for i, value in q.items():
        if abs(value) <= zero_tol:
            out[int(i)] = 0.0
        elif value < 0.0:
            out[int(i)] = 1.0
        else:
            if np.isnan(q_min_plus):
                raise InvalidArgumentError(
                    f"value {value} for id {i} is positive but q_min_plus is undefined")
            out[int(i)] = min(1.0, alpha * q_min_plus / value)
    return out


def loo_values(data: Dataset, validation: Dataset, lam: float, loss: LossKind,
               tol: float = 1e-8) -> dict[int, float]:
    """Leave-one-out values: validation accuracy of the full model minus the
    accuracy of the model retrained without sample i.

    Retrains n models, so this is for modest n.
    """
    if data.n < 2:
        raise InvalidArgumentError("leave-one-out needs at least two samples")
    base = evaluate(train(data, lam, loss, tol=tol), validation).accuracy
    q: dict[int, float] = {}
    for i in data.ids:
        sub = data.drop([int(i)])
        acc = evaluate(train(sub, lam, loss, tol=tol), validation).accuracy
        q[int(i)] = base - acc
    return q


# A rank cache holds R x N int32 positions; past this many bytes knn_sv keeps
# nothing and every call recomputes the order.
RANK_CACHE_MAX_BYTES = 256 * 2 ** 20


class KnnRankCache:
    """Distance order of the training rows for each reference block, kept
    between `knn_sv` calls on one reference set while training rows are only
    removed, as in one deletion sequence.

    The order is reused only for the same reference object and block size,
    and only when the new training rows are a subset of the cached ones with
    the same features; any other call recomputes the order and replaces it.
    """

    def __init__(self):
        self._reference: Dataset | None = None
        self._block = 0
        self._ids: np.ndarray | None = None       # ascending ids of the cached rows
        self._features: np.ndarray | None = None
        self._orders: list[np.ndarray] = []       # per block, (B, N) int32, farthest first

    def _filtered(self, reference: Dataset, block: int, ids: np.ndarray,
                  X: np.ndarray) -> list[np.ndarray] | None:
        """The cached orders with rows not in ids removed, or None if the
        cache does not cover this call."""
        if self._ids is None or reference is not self._reference or block != self._block:
            return None
        pos = np.searchsorted(self._ids, ids)
        if (pos >= self._ids.size).any() or not np.array_equal(self._ids[pos], ids):
            return None
        if not np.array_equal(self._features[pos], X):
            return None
        if ids.size < self._ids.size:
            # old position -> new position, -1 for a removed row; dropping the
            # removed rows from an order leaves it sorted with the same ties
            remap = np.full(self._ids.size, -1, dtype=np.int32)
            remap[pos] = np.arange(ids.size, dtype=np.int32)
            shrunk = []
            for old in self._orders:
                mapped = remap[old]
                shrunk.append(mapped[mapped >= 0].reshape(old.shape[0], ids.size))
            self._store(reference, block, ids, X, shrunk)
        return self._orders

    def _store(self, reference: Dataset, block: int, ids: np.ndarray, X: np.ndarray,
               orders: list[np.ndarray]) -> None:
        self._reference, self._block = reference, block
        self._ids, self._features, self._orders = ids, X, orders


# rows of a sorted block whose ties are repaired together; keeps the
# repair's working arrays small next to the block itself
_REPAIR_ROWS = 16


def _position_argsort(d2: np.ndarray) -> np.ndarray:
    """Row-wise ascending argsort of d2 with equal values in position order:
    bitwise the order numpy's stable argsort gives along axis 1.

    The default sort kind is several times faster than the stable one but
    orders equal values arbitrarily.  In each sorted row the runs of equal
    values are found and reordered by position: sorting the unique keys
    run * N + position keeps the runs in place and orders within them.  NaNs
    sort last and form one run, and -0.0 ties with 0.0, as in the stable sort.
    """
    rank = np.argsort(d2, axis=1)
    N = d2.shape[1]
    buf = np.empty((_REPAIR_ROWS, N))
    for start in range(0, d2.shape[0], _REPAIR_ROWS):
        r = rank[start:start + _REPAIR_ROWS]
        # the sorted values; one take per row is ~2x faster than take_along_axis
        v = buf[:r.shape[0]]
        for i in range(r.shape[0]):
            np.take(d2[start + i], r[i], out=v[i])
        tie = v[:, 1:] == v[:, :-1]
        nan = np.isnan(v)
        tie |= nan[:, 1:] & nan[:, :-1]
        rows = np.flatnonzero(tie.any(axis=1))
        if rows.size == 0:
            continue
        key = np.zeros((rows.size, N), dtype=np.int64)
        np.cumsum(~tie[rows], axis=1, out=key[:, 1:])      # run index
        key *= N
        key += r[rows]
        key.sort(axis=1)
        r[rows] = key % N
    return rank


def _distance_orders(X: np.ndarray, reference: Dataset, block: int):
    """Yield, per reference block, the training positions from farthest to
    nearest (nearest-first ties broken by position) as contiguous int32.

    Distances come from the deduplicated rows and are gathered back, so
    copies of a row get bitwise equal distances wherever they sit.
    """
    uniq, inverse = np.unique(X, axis=0, return_inverse=True)
    if uniq.shape[0] == X.shape[0]:
        uniq, inverse = X, None        # no copies: nothing to gather
    u_sq = np.sum(uniq * uniq, axis=1)
    for start in range(0, reference.n, block):
        Xr = reference.features[start:start + block]
        # in place, with the same rounding as u_sq - 2 (Xr @ uniq.T) + r_sq
        d2 = Xr @ uniq.T
        d2 *= -2.0
        d2 += u_sq
        d2 += np.sum(Xr * Xr, axis=1)[:, None]
        if inverse is not None:
            d2 = d2[:, inverse.reshape(-1)]
        rank = _position_argsort(d2)
        yield np.ascontiguousarray(rank[:, ::-1], dtype=np.int32)


def _block_values(order: np.ndarray, positive: np.ndarray, ref_positive: np.ndarray,
                  coef: np.ndarray) -> np.ndarray:
    """Sum over one reference block of the per-reference Shapley values, per
    training position; order is farthest first, coef[i] the step weight
    between farthest-first positions i and i + 1."""
    N = order.shape[1]
    match = (positive[order] == ref_positive[:, None]).view(np.int8)
    s = np.empty(order.shape)
    s[:, 0] = match[:, 0] / N
    np.multiply(np.diff(match, axis=1), coef, out=s[:, 1:])
    np.cumsum(s, axis=1, out=s)
    return np.bincount(order.ravel(), weights=s.ravel(), minlength=N)


def knn_sv(data: Dataset, reference: Dataset, k: int, block: int = 256, *,
           cache: KnnRankCache | None = None) -> dict[int, float]:
    """Exact k-NN Shapley values of the training rows, averaged over the
    reference points.

    For one reference point, with training rows sorted by ascending distance
    (ties broken by ascending id) as alpha_1..alpha_N:

        s[alpha_N] = 1[y_{alpha_N} = y_ref] / N
        s[alpha_j] = s[alpha_{j+1}]
                     + (1[y_{alpha_j} = y_ref] - 1[y_{alpha_{j+1}} = y_ref]) / k
                       * min(k, j) / j

    The recursion runs from the farthest row inward, one block of reference
    points at a time.  Distances are computed once per distinct feature row,
    so copies of a row tie exactly.  Rows at exactly equal distance, copies
    or not, are ordered by ascending id: each block is sorted with the
    default argsort kind and its runs of equal distances are then put back
    in id order, which gives the order of a stable sort.  Distinct rows
    whose distances differ only by floating-point rounding of the distance
    product are ordered by that rounding.

    With a `KnnRankCache`, the first call stores each reference's order
    (R x N x 4 bytes); a later call on a subset of those rows, with the same
    reference, drops the removed rows from the stored order and reruns only
    the recursion.  Values are bitwise equal to a call without the cache.
    When the order would exceed RANK_CACHE_MAX_BYTES nothing is stored and
    every call recomputes it.
    """
    if k < 1:
        raise InvalidArgumentError(f"k must be >= 1, got {k}")
    if data.n < 1 or reference.n < 1:
        raise InvalidArgumentError("knn_sv needs non-empty training and reference sets")

    # Rows sorted by id (ids are unique) so that the position order of equal
    # distances is id order.
    by_id = np.argsort(data.ids)
    X = data.features[by_id]
    positive = data.labels[by_id] > 0
    ids = data.ids[by_id]
    N = data.n

    # step weight min(k, j) / (k j) for nearest-first rank j = N - 1 .. 1
    j = np.arange(N - 1, 0, -1, dtype=np.float64)
    coef = np.minimum(float(k), j) / (k * j)

    orders = cache._filtered(reference, block, ids, X) if cache is not None else None
    if orders is None:
        orders = _distance_orders(X, reference, block)
        if cache is not None and reference.n * N * 4 <= RANK_CACHE_MAX_BYTES:
            orders = list(orders)
            cache._store(reference, block, ids, X, orders)

    totals = np.zeros(N)
    ref_positive = reference.labels > 0
    for start, order in zip(range(0, reference.n, block), orders):
        totals += _block_values(order, positive, ref_positive[start:start + block], coef)
    totals /= reference.n
    return dict(zip(ids.tolist(), totals.tolist()))


def compute_values(method: ValuationMethod, data: Dataset, reference: Dataset,
                   lam: float | None = None, loss: LossKind | None = None,
                   tol: float = 1e-8,
                   cache: KnnRankCache | None = None) -> dict[int, float]:
    """Run the configured valuation method and return raw values; a rank
    cache, if given, is passed on to k-NN Shapley."""
    if method.kind == KNN_SHAPLEY:
        return knn_sv(data, reference, method.k, cache=cache)
    if lam is None or loss is None:
        raise InvalidArgumentError("leave-one-out valuation needs lam and loss")
    return loo_values(data, reference, lam, loss, tol=tol)


def save_values_csv(path, profile: ValueProfile) -> None:
    """Write one row per sample: id, value q, weight v."""
    v = weights_from_values(profile.q, profile.q_min_plus, profile.alpha, profile.zero_tol)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "q", "v"])
        for i in sorted(profile.q):
            writer.writerow([i, repr(profile.q[i]), repr(v[i])])


def load_values_csv(path, alpha: float = DEFAULT_ALPHA,
                    zero_tol: float = DEFAULT_ZERO_TOL) -> ValueProfile:
    """Rebuild a profile from a value CSV; q_min_plus is re-anchored from q."""
    q: dict[int, float] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "id" not in reader.fieldnames or "q" not in reader.fieldnames:
            raise InvalidArgumentError(f"{path}: expected columns id,q[,v]")
        for row in reader:
            q[int(row["id"])] = float(row["q"])
    return ValueProfile.from_initial_values(q, alpha=alpha, zero_tol=zero_tol)
