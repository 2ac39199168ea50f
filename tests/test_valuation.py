import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from dvwu import (
    Dataset,
    InvalidArgumentError,
    LossKind,
    ValuationMethod,
    ValueProfile,
    evaluate,
    knn_sv,
    loo_values,
    train,
    weights_from_values,
)
from dvwu import valuation
from dvwu.harness import ExperimentConfig, RoundOutcome, _update_profile
from dvwu.data_io import SynthConfig
from dvwu.valuation import (
    DYNAMIC,
    KNN_SHAPLEY,
    LEAVE_ONE_OUT,
    STATIC,
    KnnRankCache,
    compute_values,
    load_values_csv,
    save_values_csv,
)

import oracles
from conftest import make_dataset


def _rand_instance(rng, n, d=3, n_ref=4):
    train_set = Dataset(features=rng.normal(size=(n, d)),
                        labels=np.where(rng.normal(size=n) >= 0, 1.0, -1.0),
                        ids=rng.permutation(n * 3)[:n])
    ref = Dataset(features=rng.normal(size=(n_ref, d)),
                  labels=np.where(rng.normal(size=n_ref) >= 0, 1.0, -1.0))
    return train_set, ref


class TestKnnShapley:
    def test_two_point_hand_case(self):
        data = Dataset(features=np.array([[0.1], [2.0]]),
                       labels=np.array([1.0, -1.0]), ids=np.array([10, 11]))
        ref = Dataset(features=np.array([[0.0]]), labels=np.array([1.0]))
        q = knn_sv(data, ref, k=1)
        assert_allclose(q[10], 1.0, rtol=0, atol=1e-15)
        assert_allclose(q[11], 0.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n,k", [(5, 1), (5, 2), (6, 3), (8, 2)])
    def test_matches_subset_enumeration(self, n, k):
        rng = np.random.default_rng(900 + n * 10 + k)
        data, ref = _rand_instance(rng, n)
        q = knn_sv(data, ref, k=k)
        expect = oracles.knn_shapley_enumeration(data.features, data.labels,
                                                 data.ids, ref.features,
                                                 ref.labels, k)
        got = np.array([q[int(i)] for i in data.ids])
        assert_allclose(got, expect, rtol=0, atol=1e-10)

    def test_distance_tie_broken_by_ascending_id(self):
        # identical coordinates, so ordering is decided purely by id
        data = Dataset(features=np.array([[0.5], [0.5]]),
                       labels=np.array([-1.0, 1.0]), ids=np.array([7, 3]))
        ref = Dataset(features=np.array([[0.5]]), labels=np.array([1.0]))
        q = knn_sv(data, ref, k=1)
        # id 3 (label +1) is ranked first, id 7 second
        assert_allclose(q[3], 1.0, atol=1e-15)
        assert_allclose(q[7], 0.0, atol=1e-15)
        expect = oracles.knn_shapley_enumeration(data.features, data.labels,
                                                 data.ids, ref.features,
                                                 ref.labels, 1)
        ordered = np.array([q[int(i)] for i in data.ids])
        assert_allclose(ordered, expect, atol=1e-12)

    def test_values_sum_to_full_utility(self, rng):
        """Efficiency: values add up to the utility of the whole set."""
        data, ref = _rand_instance(rng, 30, d=4, n_ref=9)
        k = 3
        q = knn_sv(data, ref, k=k)
        total = 0.0
        for xr, yr in zip(ref.features, ref.labels):
            d2 = np.sum((data.features - xr) ** 2, axis=1)
            order = np.lexsort((data.ids, d2))
            top = order[:k]
            total += float(np.sum(data.labels[top] == yr)) / k
        assert_allclose(sum(q.values()), total / ref.n, rtol=0, atol=1e-10)

    def test_duplicate_rows_share_value(self, rng):
        data, ref = _rand_instance(rng, 10, d=2, n_ref=5)
        dup_features = np.vstack([data.features, data.features[4]])
        dup_labels = np.append(data.labels, data.labels[4])
        dup = Dataset(features=dup_features, labels=dup_labels)
        q = knn_sv(dup, ref, k=2)
        assert q[4] == q[10]

    def test_block_size_irrelevant(self, rng):
        data, ref = _rand_instance(rng, 20, d=3, n_ref=11)
        q1 = knn_sv(data, ref, k=3, block=2)
        q2 = knn_sv(data, ref, k=3, block=4096)
        assert q1.keys() == q2.keys()
        assert_allclose([q1[i] for i in sorted(q1)],
                        [q2[i] for i in sorted(q2)], rtol=0, atol=1e-12)

    def test_row_order_irrelevant(self, rng):
        data, ref = _rand_instance(rng, 12, d=3)
        perm = rng.permutation(12)
        shuffled = data.take(perm)
        q1 = knn_sv(data, ref, k=2)
        q2 = knn_sv(shuffled, ref, k=2)
        assert q1.keys() == q2.keys()
        for i in q1:
            assert_allclose(q1[i], q2[i], atol=1e-14)

    def test_invalid_k(self, rng):
        data, ref = _rand_instance(rng, 5)
        with pytest.raises(InvalidArgumentError):
            knn_sv(data, ref, k=0)


class TestLeaveOneOut:
    def test_definition_bookkeeping(self, rng):
        data = make_dataset(rng, 12, 3, scale=0.8)
        val = make_dataset(rng, 16, 3, scale=0.8)
        lam, loss = 0.05, LossKind.logistic()
        q = loo_values(data, val, lam, loss)
        base = evaluate(train(data, lam, loss), val).accuracy
        probe = int(data.ids[5])
        direct = evaluate(train(data.drop([probe]), lam, loss), val).accuracy
        assert_allclose(q[probe], base - direct, rtol=0, atol=1e-15)
        assert set(q) == set(int(i) for i in data.ids)

    def test_mislabeled_point_scores_negative(self):
        # a clean problem (second column is a bias feature) plus one flipped
        # label that drags the decision boundary past a validation point
        x = np.array([[-2.0, 1.0], [-1.5, 1.0], [-1.0, 1.0], [1.0, 1.0],
                      [1.5, 1.0], [2.0, 1.0], [0.6, 1.0]])
        y = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0, -1.0])
        data = Dataset(features=x, labels=y)
        val = Dataset(features=np.array([[-1.2, 1.0], [-0.4, 1.0],
                                         [0.4, 1.0], [1.2, 1.0]]),
                      labels=np.array([-1.0, -1.0, 1.0, 1.0]))
        q = loo_values(data, val, 0.01, LossKind.logistic())
        assert q[6] < 0.0
        # the clean points never hurt
        assert all(q[i] >= 0.0 for i in range(6))

    def test_needs_two_samples(self):
        data = Dataset(features=np.array([[1.0]]), labels=np.array([1.0]))
        with pytest.raises(InvalidArgumentError):
            loo_values(data, data, 0.1, LossKind.logistic())


class TestWeights:
    def test_branch_table(self):
        q = {1: -0.2, 2: 0.0, 3: 0.1, 4: 0.4, 5: 0.02}
        v = weights_from_values(q, q_min_plus=0.1, alpha=0.5)
        assert v[1] == 1.0                       # harmful, full strength
        assert v[2] == 0.0                       # worthless, skipped
        assert_allclose(v[3], 0.5)               # alpha * 0.1 / 0.1
        assert_allclose(v[4], 0.125)             # alpha * 0.1 / 0.4
        assert v[5] == 1.0                       # 0.5*0.1/0.02 = 2.5, clamped

    def test_zero_tolerance_band(self):
        v = weights_from_values({1: 5e-10, 2: -5e-10, 3: 2e-9},
                                q_min_plus=2e-9, alpha=1.0, zero_tol=1e-9)
        assert v[1] == 0.0
        assert v[2] == 0.0
        assert v[3] == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(InvalidArgumentError):
            weights_from_values({1: 1.0}, q_min_plus=1.0, alpha=0.0)
        with pytest.raises(InvalidArgumentError):
            weights_from_values({1: 1.0}, q_min_plus=1.0, alpha=1.5)
        with pytest.raises(InvalidArgumentError):
            weights_from_values({1: 1.0}, q_min_plus=-0.5)

    def test_positive_value_without_anchor(self):
        with pytest.raises(InvalidArgumentError):
            weights_from_values({1: 0.3}, q_min_plus=float("nan"))
        # all-nonpositive values are fine without an anchor
        v = weights_from_values({1: -0.3, 2: 0.0}, q_min_plus=float("nan"))
        assert v == {1: 1.0, 2: 0.0}

    @given(q=st.dictionaries(st.integers(0, 100),
                             st.floats(-10, 10, allow_nan=False), max_size=15),
           alpha=st.floats(0.01, 1.0),
           anchor=st.floats(1e-6, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_weights_live_in_unit_interval(self, q, alpha, anchor):
        v = weights_from_values(q, q_min_plus=anchor, alpha=alpha)
        assert all(0.0 <= x <= 1.0 for x in v.values())

    @given(qa=st.floats(1e-6, 10.0), qb=st.floats(1e-6, 10.0),
           alpha=st.floats(0.01, 1.0), anchor=st.floats(1e-6, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_on_positive_values(self, qa, qb, alpha, anchor):
        lo, hi = sorted((qa, qb))
        v = weights_from_values({1: lo, 2: hi}, q_min_plus=anchor, alpha=alpha)
        assert v[1] >= v[2]


class TestValueProfile:
    def test_anchor_is_smallest_positive(self):
        p = ValueProfile.from_initial_values({1: -0.5, 2: 0.0, 3: 0.3, 4: 0.07})
        assert p.q_min_plus == 0.07
        assert_allclose(p.weights_for([3])[3], 0.5 * 0.07 / 0.3)

    def test_anchor_never_moves(self):
        p = ValueProfile.from_initial_values({1: 0.2, 2: 0.5})
        p2 = p.with_values({1: 0.05, 2: 0.5})
        assert p2.q_min_plus == 0.2
        assert p2.weights_for([1])[1] == 1.0    # 0.5*0.2/0.05 = 2, clamped

    def test_lazy_anchor(self):
        p = ValueProfile.from_initial_values({1: -0.1, 2: 0.0})
        assert math.isnan(p.q_min_plus)
        assert p.weights_for([1, 2]) == {1: 1.0, 2: 0.0}
        p2 = p.with_values({1: 0.4, 2: 0.9})
        assert p2.q_min_plus == 0.4
        p3 = p2.with_values({1: 0.1})
        assert p3.q_min_plus == 0.4

    def test_restrict_drops_ids(self):
        p = ValueProfile.from_initial_values({1: 0.1, 2: 0.2, 3: -0.3})
        p2 = p.restrict([1, 3, 99])             # ids it does not hold are ignored
        assert set(p2.q) == {1, 3}
        assert p2.q_min_plus == 0.1
        # the kept ids keep their weights, bitwise
        assert p2.weights_for([1, 3]) == p.weights_for([1, 3]) == {1: 0.5, 3: 1.0}
        assert list(p2.q) == [1, 3]

    @pytest.mark.parametrize("kwargs", [{"alpha": 1.5}, {"alpha": 0.0},
                                        {"zero_tol": -1.0}])
    def test_bad_map_parameters_fail_at_build(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            ValueProfile.from_initial_values({1: 0.1, 2: -0.2}, **kwargs)

    def test_weights_for_missing_id(self):
        p = ValueProfile.from_initial_values({1: 0.1})
        with pytest.raises(InvalidArgumentError):
            p.weights_for([1, 99])


def _refresh(profile, remaining, ref, method, retrained=False, cache=None):
    """One call of the harness's per-round profile refresh."""
    cfg = ExperimentConfig(method="dvwu-dk", synth=SynthConfig(n=100, d_informative=2))
    outcome = RoundOutcome(t=1, w_internal=np.zeros(remaining.d), w_published=None,
                           residual_norm=float("nan"), threshold=float("nan"),
                           certified=not retrained, retrained=retrained)
    return _update_profile(cfg, method, profile, outcome, remaining, ref,
                           LossKind.logistic(), cache)


class TestDynamicUpdate:
    """The per-round refresh, `harness._update_profile`."""

    def test_static_restricts_only(self, rng):
        data, ref = _rand_instance(rng, 10, d=2)
        method = ValuationMethod(kind=KNN_SHAPLEY, mode=STATIC, k=2)
        p = ValueProfile.from_initial_values(knn_sv(data, ref, 2))
        remaining = data.drop([int(data.ids[0]), int(data.ids[1])])
        p2 = _refresh(p, remaining, ref, method)
        assert set(p2.q) == set(int(i) for i in remaining.ids)
        for i in p2.q:
            assert p2.q[i] == p.q[i]

    def test_dynamic_recomputes(self, rng):
        data, ref = _rand_instance(rng, 10, d=2)
        method = ValuationMethod(kind=KNN_SHAPLEY, mode=DYNAMIC, k=2)
        p = ValueProfile.from_initial_values(knn_sv(data, ref, 2))
        remaining = data.drop([int(data.ids[0])])
        p2 = _refresh(p, remaining, ref, method)
        fresh = knn_sv(remaining, ref, 2)
        assert p2.q == fresh
        assert p2.q_min_plus == p.q_min_plus

    def test_loo_needs_objective(self, rng):
        data, ref = _rand_instance(rng, 6, d=2)
        method = ValuationMethod(kind=LEAVE_ONE_OUT)
        with pytest.raises(InvalidArgumentError):
            compute_values(method, data, ref)


def _tied_instance(rng, n, pool=300, d=20, levels=4, n_ref=64):
    """Rows drawn from a pool of standardized integer-coded vectors, so most
    rows have exact copies; labels follow a linear rule with 10% flipped, so
    copies can disagree.  Reference points are continuous."""
    codes = rng.integers(0, levels, size=(pool, d)).astype(np.float64)
    X = codes[rng.integers(0, pool, size=n)]
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    score = X @ rng.normal(size=d)
    y = np.where(score > np.median(score), 1.0, -1.0)
    flip = rng.random(n) < 0.1
    y[flip] = -y[flip]
    data = Dataset(features=X, labels=y, ids=rng.permutation(3 * n)[:n])
    ref = Dataset(features=rng.normal(size=(n_ref, d)),
                  labels=np.where(rng.normal(size=n_ref) >= 0, 1.0, -1.0))
    return data, ref


def _bits(q, ids):
    return np.array([q[int(i)] for i in ids]).view(np.int64)


class TestKnnTies:
    @pytest.mark.parametrize("n", [1401, 1403, 2100])
    def test_copies_ordered_by_ascending_id(self, n):
        rng = np.random.default_rng(n)
        data, ref = _tied_instance(rng, n)
        k = 5
        q = knn_sv(data, ref, k)
        expect, utility = oracles.knn_shapley_recursion(
            data.features, data.labels, data.ids, ref.features, ref.labels, k)
        got = np.array([q[int(i)] for i in data.ids])
        assert_allclose(got, expect, rtol=0, atol=1e-10)
        assert_allclose(got.sum(), utility, rtol=0, atol=1e-10)

    def test_untied_matches_recursion_oracle(self):
        rng = np.random.default_rng(5)
        data, ref = _rand_instance(rng, 700, d=6, n_ref=40)
        q = knn_sv(data, ref, 5, block=16)
        expect, _ = oracles.knn_shapley_recursion(
            data.features, data.labels, data.ids, ref.features, ref.labels, 5)
        got = np.array([q[int(i)] for i in data.ids])
        assert_allclose(got, expect, rtol=0, atol=1e-12)


def _stable_orders(d2):
    return np.argsort(d2, axis=1, kind="stable")


def _order_instance(case):
    if case.startswith("pool"):
        n = int(case[len("pool"):])
        return _tied_instance(np.random.default_rng(n), n)
    rng = np.random.default_rng(17)
    if case == "gaussian":
        return _rand_instance(rng, 900, d=5, n_ref=40)
    if case == "quantized":
        data, ref = _rand_instance(rng, 900, d=3, n_ref=40)
        return (Dataset(np.round(data.features, 1), data.labels, data.ids),
                Dataset(np.round(ref.features, 1), ref.labels))
    if case == "zero-distance":    # references on training rows that have copies
        data, ref = _rand_instance(rng, 600, d=2, n_ref=40)
        data = Dataset(np.round(data.features, 1), data.labels, data.ids)
        return data, Dataset(data.features[:40], ref.labels)
    # finite rows whose squared norms overflow: d2 holds inf and inf - inf
    data, ref = _rand_instance(rng, 600, d=3, n_ref=40)
    X, R = data.features.copy(), ref.features.copy()
    X[::5] *= 1e155
    R[::4] *= 1e155
    return Dataset(X, data.labels, data.ids), Dataset(R, ref.labels)


class TestDistanceOrder:
    """The default-kind argsort with its tie repair gives bitwise the orders
    and values of a stable argsort."""

    CASES = ["gaussian", "pool1401", "pool1403", "pool2100", "quantized",
             "zero-distance", "overflow"]

    @pytest.mark.parametrize("case", CASES)
    def test_orders_and_values_equal_stable_sort(self, case, monkeypatch):
        data, ref = _order_instance(case)
        blocks = []
        real = valuation._position_argsort

        def checked(d2):
            got = real(d2)
            assert np.array_equal(got, _stable_orders(d2))
            blocks.append(d2)
            return got

        with np.errstate(over="ignore", invalid="ignore"):   # the overflow case
            monkeypatch.setattr(valuation, "_position_argsort", checked)
            got = knn_sv(data, ref, 5, block=16)
            monkeypatch.setattr(valuation, "_position_argsort", _stable_orders)
            expect = knn_sv(data, ref, 5, block=16)
        assert list(got) == list(expect)
        assert np.array_equal(_bits(got, data.ids), _bits(expect, data.ids))
        d2 = np.concatenate(blocks)
        if case == "overflow":
            assert np.isinf(d2).any() and np.isnan(d2).any()
        if case == "zero-distance":
            assert (d2 == 0.0).sum() > ref.n
        if case != "gaussian":
            sorted_d2 = np.take_along_axis(d2, _stable_orders(d2), axis=1)
            assert (sorted_d2[:, 1:] == sorted_d2[:, :-1]).any()

    def test_signed_zeros_tie(self):
        # knn_sv's d2 never holds -0.0 (u_sq + r_sq adds a +0.0 last), so the
        # block is built by hand; -0.0 == 0.0 and the stable sort keeps them
        # in position order
        rng = np.random.default_rng(3)
        d2 = rng.choice(np.array([-0.0, 0.0, 0.5, 1.0, np.nan]), size=(40, 700))
        assert np.array_equal(valuation._position_argsort(d2), _stable_orders(d2))

    @pytest.mark.parametrize("shape", [(3, 1), (17, 2), (5, 0)])
    def test_degenerate_rows(self, shape):
        d2 = np.zeros(shape)
        assert np.array_equal(valuation._position_argsort(d2), _stable_orders(d2))


class TestKnnRankCache:
    ROUNDS = 24

    @staticmethod
    def _instance(rng, tied):
        if tied:
            return _tied_instance(rng, 400, pool=60, n_ref=40)
        return _rand_instance(rng, 400, d=5, n_ref=40)

    @pytest.mark.parametrize("tied", [False, True])
    def test_incremental_equals_fresh(self, tied):
        rng = np.random.default_rng(11)
        remaining, ref = self._instance(rng, tied)
        cache = KnnRankCache()
        for _ in range(self.ROUNDS):
            got = knn_sv(remaining, ref, 5, block=16, cache=cache)
            fresh = knn_sv(remaining, ref, 5, block=16)
            assert list(got) == list(fresh)
            assert np.array_equal(_bits(got, remaining.ids), _bits(fresh, remaining.ids))
            remaining = remaining.drop(rng.choice(remaining.ids, size=7, replace=False))
        assert cache._ids.size == remaining.n + 7

    @pytest.mark.parametrize("tied", [False, True])
    def test_retrain_refresh_equals_fresh(self, tied):
        rng = np.random.default_rng(12)
        remaining, ref = self._instance(rng, tied)
        method = ValuationMethod(kind=KNN_SHAPLEY, mode=STATIC, k=5)
        cache = KnnRankCache()
        profile = ValueProfile.from_initial_values(
            compute_values(method, remaining, ref, cache=cache))
        refreshed = 0
        for t in range(1, self.ROUNDS + 1):
            remaining = remaining.drop(rng.choice(remaining.ids, size=7, replace=False))
            retrained = t % 3 == 0     # static values are only recomputed on a retrain
            profile = _refresh(profile, remaining, ref, method, retrained, cache)
            if retrained:
                refreshed += 1
                fresh = knn_sv(remaining, ref, 5)
                assert np.array_equal(_bits(profile.q, remaining.ids),
                                      _bits(fresh, remaining.ids))
        assert refreshed == self.ROUNDS // 3
        assert cache._ids.size == remaining.n

    @pytest.mark.parametrize("tied", [False, True])
    def test_capped_cache_recomputes(self, tied, monkeypatch):
        rng = np.random.default_rng(13)
        remaining, ref = self._instance(rng, tied)
        uncapped = KnnRankCache()
        capped = KnnRankCache()
        for _ in range(self.ROUNDS):
            expect = knn_sv(remaining, ref, 5, block=16, cache=uncapped)
            with monkeypatch.context() as m:
                m.setattr(valuation, "RANK_CACHE_MAX_BYTES", 0)
                got = knn_sv(remaining, ref, 5, block=16, cache=capped)
            assert np.array_equal(_bits(got, remaining.ids), _bits(expect, remaining.ids))
            remaining = remaining.drop(rng.choice(remaining.ids, size=7, replace=False))
        assert capped._ids is None

    def test_cache_not_reused_for_other_inputs(self, rng):
        data, ref = _rand_instance(rng, 30, d=3, n_ref=6)
        cache = KnnRankCache()
        knn_sv(data, ref, 3, cache=cache)
        other_ref = Dataset(ref.features + 1.0, ref.labels)
        moved = Dataset(data.features[::-1] * 0.5, data.labels[::-1], data.ids[::-1])
        grown = Dataset(np.vstack([data.features, ref.features]),
                        np.concatenate([data.labels, ref.labels]),
                        np.concatenate([data.ids, [1000 + i for i in range(ref.n)]]))
        for d, r in ((data, other_ref), (moved, ref), (grown, ref)):
            got = knn_sv(d, r, 3, cache=cache)
            assert got == knn_sv(d, r, 3)


class TestValuesCsv:
    def test_round_trip(self, tmp_path, rng):
        data, ref = _rand_instance(rng, 15, d=3)
        p = ValueProfile.from_initial_values(knn_sv(data, ref, 3))
        path = tmp_path / "values.csv"
        save_values_csv(path, p)
        p2 = load_values_csv(path)
        assert p2.q == p.q
        assert p2.weights_for(list(p2.q)) == p.weights_for(list(p.q))
        assert p2.q_min_plus == p.q_min_plus

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,weight\n1,0.5\n")
        with pytest.raises(InvalidArgumentError):
            load_values_csv(path)
