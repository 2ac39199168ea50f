import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from dvwu import (
    BudgetExhaustedError,
    CertBudget,
    ConvergenceError,
    Dataset,
    IllConditionedHessianError,
    InfluenceUnlearner,
    InvalidArgumentError,
    LossKind,
    NewtonUnlearner,
    certify_or_retrain,
    dvwu_newton_step,
    epsilon1_prime,
    epsilon2_prime,
    gauss_constant,
    gradient_residual,
    hessian_downdate,
    objective_perturb_setup,
    output_perturb,
    threshold1,
    train,
    unlearn_gradient_ascent,
    weighted_gradient,
)
from dvwu.models import full_gradient, full_hessian, loss_value
from dvwu.unlearn import (
    PERTURB_OBJECTIVE,
    PERTURB_OUTPUT,
    objective_noise_std,
    output_noise_std,
)

import oracles
from conftest import make_dataset


def _ones(ids):
    return {int(i): 1.0 for i in ids}


def _split(data, m):
    gone = [int(i) for i in data.ids[:m]]
    return data.select(gone), data.drop(gone)


def _naive_weighted_gradient(w, deleted, v, lam, kind, gamma=2.0, b=None):
    total = np.zeros_like(w)
    for i in range(deleted.n):
        _, g, _ = oracles._per_sample_terms(w, deleted.features[i],
                                            deleted.labels[i], kind, gamma)
        reg = lam * np.asarray(w) + (0.0 if b is None else b)
        total += v[int(deleted.ids[i])] * (g + reg)
    return total / deleted.n


class TestWeightedGradient:
    def test_matches_naive_loop(self, rng):
        data = make_dataset(rng, 15, 4, scale=0.6)
        w = rng.normal(size=4)
        v = {int(i): float(x) for i, x in zip(data.ids, rng.uniform(0, 1, 15))}
        v[int(data.ids[0])] = 0.0
        got = weighted_gradient(w, data, v, 0.05, LossKind.logistic())
        want = _naive_weighted_gradient(w, data, v, 0.05, "logistic")
        assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_unit_weights_equal_plain_gradient(self, rng):
        data = make_dataset(rng, 20, 3)
        w = rng.normal(size=3)
        lam = 0.1
        got = weighted_gradient(w, data, _ones(data.ids), lam,
                                LossKind.huberized_svm())
        want = full_gradient(w, data, lam, LossKind.huberized_svm())
        assert_allclose(got, want, rtol=1e-13)
        # v=None is the unit-weight form without the lookup, bitwise
        assert np.array_equal(
            weighted_gradient(w, data, None, lam, LossKind.huberized_svm()), got)

    def test_linear_term_included(self, rng):
        data = make_dataset(rng, 10, 3)
        w = rng.normal(size=3)
        b = rng.normal(size=3)
        v = _ones(data.ids)
        got = weighted_gradient(w, data, v, 0.1, LossKind.logistic(), b=b)
        want = _naive_weighted_gradient(w, data, v, 0.1, "logistic", b=b)
        assert_allclose(got, want, rtol=1e-12)

    def test_all_zero_weights_zero_gradient(self, rng):
        data = make_dataset(rng, 8, 3)
        v = {int(i): 0.0 for i in data.ids}
        g = weighted_gradient(rng.normal(size=3), data, v, 0.1, LossKind.logistic())
        assert np.array_equal(g, np.zeros(3))

    def test_missing_weight_rejected(self, rng):
        data = make_dataset(rng, 5, 3)
        v = {int(i): 1.0 for i in data.ids[:-1]}
        with pytest.raises(InvalidArgumentError):
            weighted_gradient(np.zeros(3), data, v, 0.1, LossKind.logistic())

    @pytest.mark.parametrize("bad", [7.0, -0.1, float("nan"), float("inf")])
    def test_weight_outside_unit_interval_rejected(self, bad, rng):
        data = make_dataset(rng, 5, 3)
        v = _ones(data.ids)
        v[int(data.ids[2])] = bad
        with pytest.raises(InvalidArgumentError, match="in \\[0, 1\\]"):
            weighted_gradient(np.zeros(3), data, v, 0.1, LossKind.logistic())


class TestHessianDowndate:
    @pytest.mark.parametrize("kind", ["logistic", "huberized_svm", "squared_error"])
    def test_first_round_exact(self, kind, rng):
        data = make_dataset(rng, 50, 4, scale=0.7)
        loss = LossKind.from_name(kind)
        lam = 0.05
        w = rng.normal(size=4)
        h_full = full_hessian(w, data, lam, loss)
        deleted, remaining = _split(data, 10)
        h_down = hessian_downdate(h_full, w, deleted, 40, lam, loss)
        assert_allclose(h_down, full_hessian(w, remaining, lam, loss),
                        rtol=1e-12, atol=1e-14)

    def test_exactly_symmetric(self, rng):
        data = make_dataset(rng, 30, 5)
        w = rng.normal(size=5)
        h = full_hessian(w, data, 0.01, LossKind.logistic())
        deleted, _ = _split(data, 6)
        h2 = hessian_downdate(h, w, deleted, 24, 0.01, LossKind.logistic())
        assert np.array_equal(h2, h2.T)

    def test_chain_at_fixed_parameters(self, rng):
        """Two downdates at the same w equal the direct Hessian."""
        data = make_dataset(rng, 40, 4)
        loss = LossKind.logistic()
        lam = 0.02
        w = rng.normal(size=4)
        d1, rest = _split(data, 8)
        d2, rest2 = _split(rest, 8)
        h = full_hessian(w, data, lam, loss)
        h = hessian_downdate(h, w, d1, 32, lam, loss)
        h = hessian_downdate(h, w, d2, 24, lam, loss)
        assert_allclose(h, full_hessian(w, rest2, lam, loss),
                        rtol=1e-11, atol=1e-13)

    def test_budget_exhaustion(self, rng):
        data = make_dataset(rng, 8, 3)
        deleted, _ = _split(data, 8)
        with pytest.raises(BudgetExhaustedError):
            hessian_downdate(np.eye(3), np.zeros(3), deleted, 0, 0.1,
                             LossKind.logistic())


class TestNewtonStep:
    def test_quadratic_removal_is_exact(self, rng):
        data = make_dataset(rng, 100, 4, scale=0.7)
        loss = LossKind.squared_error()
        lam = 0.05
        model = train(data, lam, loss, tol=1e-12)
        deleted, remaining = _split(data, 10)
        h1 = hessian_downdate(model.H, model.w, deleted, 90, lam, loss)
        g = weighted_gradient(model.w, deleted, None, lam, loss)
        w1 = dvwu_newton_step(model.w, h1, g, 10, 90)
        w_exact = oracles.ridge_closed_form(remaining.features, remaining.labels, lam)
        assert_allclose(w1, w_exact, rtol=1e-10, atol=1e-13)

    def test_zero_gradient_leaves_parameters_bitwise(self, rng):
        w = rng.normal(size=4)
        h = np.eye(4) * 0.5
        w1 = dvwu_newton_step(w, h, np.zeros(4), 10, 90)
        assert np.array_equal(w1, w)

    def test_step_scales_with_batch_fraction(self, rng):
        w = np.zeros(3)
        h = np.eye(3)
        g = rng.normal(size=3)
        s1 = dvwu_newton_step(w, h, g, 10, 90) - w     # 10/90
        s2 = dvwu_newton_step(w, h, g, 30, 70) - w     # 30/70
        assert_allclose(s2, s1 * (30.0 / 70.0) / (10.0 / 90.0), rtol=1e-12)

    def test_minimum_eigenvalue_floor(self):
        w = np.zeros(2)
        g = np.ones(2)
        with pytest.raises(IllConditionedHessianError):
            dvwu_newton_step(w, 0.2 * np.eye(2), g, 10, 90, min_eig_floor=0.5)
        dvwu_newton_step(w, 1.0 * np.eye(2), g, 10, 90, min_eig_floor=0.5)

    def test_indefinite_hessian_rejected(self):
        h = np.array([[1.0, 0.0], [0.0, -0.5]])
        with pytest.raises(IllConditionedHessianError):
            dvwu_newton_step(np.zeros(2), h, np.ones(2), 10, 90)

    def test_budget_exhaustion(self):
        with pytest.raises(BudgetExhaustedError):
            dvwu_newton_step(np.zeros(2), np.eye(2), np.ones(2), 100, 0)


def _budget(**kw):
    base = dict(epsilon=1.0, delta=1e-4, C=1.0, beta=0.1, schedule=(1000,) * 15,
                n=21000, lam=1e-3)
    base.update(kw)
    return CertBudget(**base)


class TestBoundsAndThresholds:
    def test_gauss_constant_reference_values(self):
        assert_allclose(gauss_constant(1e-4), 4.3436122, atol=5e-7)
        assert_allclose(gauss_constant(0.05), math.sqrt(2.0 * math.log(25.0)),
                        rtol=1e-15)
        assert gauss_constant(1.25) == 0.0

    def test_gauss_constant_monotone(self):
        deltas = [1e-6, 1e-4, 1e-2, 0.5, 1.0]
        vals = [gauss_constant(d) for d in deltas]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_gauss_constant_domain(self):
        for bad in (0.0, -0.1, 1.3):
            with pytest.raises(InvalidArgumentError):
                gauss_constant(bad)

    def test_epsilon1_formula_transcription(self):
        b = _budget()
        m = 1000
        for t in (1, 5, 15):
            s = t * m
            rem = b.n - s
            want = (4.0 * b.beta * b.C ** 2 * m * s / (b.lam ** 3 * rem ** 2)
                    + 4.0 * b.C * s / (b.lam * rem))
            assert_allclose(epsilon1_prime(b, t), want, rtol=1e-15)

    def test_epsilon2_is_final_round_epsilon1_scaled(self):
        for lam in (1e-3, 0.05, 1.0):
            b = _budget(lam=lam)
            assert_allclose(epsilon2_prime(b), lam * epsilon1_prime(b, len(b.schedule)),
                            rtol=1e-12)

    def test_threshold1_is_scaled_epsilon1(self):
        b = _budget()
        for t in (1, 7, 15):
            assert_allclose(threshold1(b, t), b.lam * epsilon1_prime(b, t),
                            rtol=1e-15)

    def test_nonuniform_schedule_uses_running_totals(self):
        b = _budget(schedule=(500, 1500) + (1000,) * 12 + (999,))
        # after rounds of 500 and 1500: m_t = 1500 and s_t = 2000
        s, rem = 2000, b.n - 2000
        want = (4.0 * b.beta * b.C ** 2 * 1500 * s / (b.lam ** 3 * rem ** 2)
                + 4.0 * b.C * s / (b.lam * rem))
        assert_allclose(epsilon1_prime(b, 2), want, rtol=1e-15)

    def test_epsilon2_on_nonuniform_schedule(self):
        b = _budget(schedule=(500, 1500) + (1000,) * 12 + (999,))
        # s_T = 14999 and m = ceil(14999 / 15) = 1000, for noise and threshold alike
        s, m, rem = 14999, 1000, b.n - 14999
        want = (4.0 * b.beta * b.C ** 2 * m * s / (b.lam ** 2 * rem ** 2)
                + 4.0 * b.C * s / rem)
        assert_allclose(epsilon2_prime(b), want, rtol=1e-15)
        assert objective_noise_std(b) == gauss_constant(b.delta) / b.epsilon * epsilon2_prime(b)

    def test_budget_validation(self):
        with pytest.raises(InvalidArgumentError):
            _budget(epsilon=0.0)
        with pytest.raises(InvalidArgumentError):
            _budget(delta=1.0)
        with pytest.raises(InvalidArgumentError):
            _budget(n=1000, schedule=(100,) * 10)   # nothing would remain
        for bad in ((), (10, 0)):
            with pytest.raises(InvalidArgumentError):
                _budget(schedule=bad)
        assert _budget(n=26, schedule=(5, 12, 8)).schedule == (5, 12, 8)   # 1 row left
        with pytest.raises(InvalidArgumentError):
            epsilon1_prime(_budget(), 0)
        with pytest.raises(BudgetExhaustedError):
            epsilon1_prime(_budget(), 16)   # past the last round


class TestPerturbation:
    def test_output_noise_scale_definition(self):
        b = _budget()
        for t in (1, 15):
            assert_allclose(output_noise_std(b, t),
                            gauss_constant(b.delta) * epsilon1_prime(b, t) / b.epsilon,
                            rtol=1e-15)

    def test_output_perturb_deterministic(self):
        b = _budget()
        w = np.zeros(50)
        assert np.array_equal(output_perturb(w, b, 3, 77), output_perturb(w, b, 3, 77))
        assert not np.array_equal(output_perturb(w, b, 3, 77),
                                  output_perturb(w, b, 3, 78))

    def test_output_perturb_moments(self):
        b = _budget()
        w = np.zeros(200000)
        noise = output_perturb(w, b, 2, 123)
        target = output_noise_std(b, 2)
        assert abs(noise.std() / target - 1.0) < 0.01
        assert abs(noise.mean()) < 3.0 * target / math.sqrt(w.size)

    def test_objective_setup_moments(self):
        b = _budget()
        vec = objective_perturb_setup(b, 200000, 9)
        target = objective_noise_std(b)
        assert abs(vec.std() / target - 1.0) < 0.01
        assert np.array_equal(vec, objective_perturb_setup(b, 200000, 9))

    def test_objective_setup_validation(self):
        with pytest.raises(InvalidArgumentError):
            objective_perturb_setup(_budget(), 0, 1)


class TestCertifyOrRetrain:
    def test_certified_round_passes_through(self, rng):
        data = make_dataset(rng, 60, 4, norm_cap=1.0)
        lam, loss = 0.05, LossKind.logistic()
        model = train(data, lam, loss)
        pub = model.w + 0.001
        out = certify_or_retrain(1, model.w, data, threshold=1.0, lam=lam,
                                 loss=loss, w_published=pub)
        assert out.certified and not out.retrained
        assert np.array_equal(out.w_internal, model.w)
        assert np.array_equal(out.w_published, pub)
        assert out.residual_norm <= 1e-8

    def test_exceeded_threshold_retrains(self, rng):
        data = make_dataset(rng, 60, 4, norm_cap=1.0)
        lam, loss = 0.05, LossKind.logistic()
        w_bad = rng.normal(size=4) * 5.0
        out = certify_or_retrain(2, w_bad, data, threshold=1e-6, lam=lam, loss=loss)
        assert out.retrained and not out.certified
        assert out.w_published is None
        assert out.residual_norm > out.threshold
        assert gradient_residual(out.w_internal, data, lam, loss) <= 1e-8

    def test_retrain_keeps_linear_term(self, rng):
        data = make_dataset(rng, 60, 4, norm_cap=1.0)
        lam, loss = 0.05, LossKind.logistic()
        b = rng.normal(size=4) * 0.01
        out = certify_or_retrain(1, rng.normal(size=4) * 5.0, data, 1e-6,
                                 lam, loss, b=b)
        assert out.retrained
        assert gradient_residual(out.w_internal, data, lam, loss, b) <= 1e-8

    def test_invalid_threshold(self, rng):
        data = make_dataset(rng, 10, 3)
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(InvalidArgumentError):
                certify_or_retrain(1, np.zeros(3), data, bad, 0.1,
                                   LossKind.logistic())


def _engine_setup(rng, n=300, d=5, m=20, T=5, lam=0.05, perturbation="none",
                  noise_rng=None, loss=None, b=None):
    loss = loss or LossKind.logistic()
    data = make_dataset(rng, n, d, scale=0.6, norm_cap=1.0)
    model = train(data, lam, loss, b=b)
    budget = CertBudget(epsilon=1.0, delta=1e-4, C=loss.C, beta=loss.beta,
                        schedule=(m,) * T, n=n, lam=lam)
    engine = NewtonUnlearner(model, budget, perturbation=perturbation,
                             noise_rng=noise_rng)
    return data, model, budget, engine


class TestNewtonUnlearner:
    def test_default_weights_are_unit_weights(self, rng):
        data, model, budget, e1 = _engine_setup(rng)
        _, _, _, e2 = _engine_setup(np.random.default_rng(1234))
        deleted, remaining = _split(data, 20)
        o1 = e1.delete(deleted, remaining)
        o2 = e2.delete(deleted, remaining, weights=_ones(deleted.ids))
        assert np.array_equal(o1.w_internal, o2.w_internal)
        assert np.array_equal(e1.H, e2.H)
        assert o1.residual_norm == o2.residual_norm

    def test_zero_weight_round_freezes_parameters(self, rng):
        data, model, budget, engine = _engine_setup(rng)
        deleted, remaining = _split(data, 20)
        h_before = np.array(engine.H)
        w_before = np.array(engine.w)
        out = engine.delete(deleted, remaining,
                            weights={int(i): 0.0 for i in deleted.ids})
        assert np.array_equal(out.w_internal, w_before)
        assert not np.array_equal(engine.H, h_before)

    def test_moves_toward_retrained_parameters(self, rng):
        data, model, budget, engine = _engine_setup(rng)
        deleted, remaining = _split(data, 20)
        out = engine.delete(deleted, remaining)
        w_retrain = train(remaining, engine.lam, engine.loss).w
        err_update = np.linalg.norm(out.w_internal - w_retrain)
        err_stale = np.linalg.norm(model.w - w_retrain)
        assert err_update < 0.2 * err_stale

    def test_round_bookkeeping_and_residuals(self, rng):
        data, model, budget, engine = _engine_setup(rng)
        rest = data
        for t in range(1, 4):
            deleted, rest = _split(rest, 20)
            out = engine.delete(deleted, rest)
            assert out.t == t
            assert engine.t == t
            assert out.residual_norm == pytest.approx(
                gradient_residual(out.w_internal, rest, engine.lam, engine.loss))
            assert math.isnan(out.threshold)   # certification off without noise
            assert not out.certified

    def test_overlapping_sets_rejected(self, rng):
        data, model, budget, engine = _engine_setup(rng)
        deleted, remaining = _split(data, 20)
        with pytest.raises(InvalidArgumentError):
            engine.delete(deleted, data)

    def test_wrong_remaining_count_rejected(self, rng):
        data, model, budget, engine = _engine_setup(rng)
        deleted, remaining = _split(data, 20)
        short = remaining.drop([int(remaining.ids[0])])
        with pytest.raises(InvalidArgumentError):
            engine.delete(deleted, short)

    def test_rejected_round_leaves_engine_unchanged(self, rng):
        data, model, budget, engine = _engine_setup(rng)
        deleted, remaining = _split(data, 20)
        short = remaining.drop([int(remaining.ids[0])])     # 279 rows, not 280
        with pytest.raises(InvalidArgumentError):
            engine.delete(deleted, short)
        assert engine.t == 0
        assert np.array_equal(engine.w, model.w) and np.array_equal(engine.H, model.H)
        out = engine.delete(deleted, remaining)             # the next valid call runs
        _, _, _, fresh = _engine_setup(np.random.default_rng(1234))
        assert out.t == 1
        assert np.array_equal(out.w_internal, fresh.delete(deleted, remaining).w_internal)

    def _weak_engine(self, rng, **kwargs):
        data, model, budget, _ = _engine_setup(rng)
        # a running Hessian at the floor cannot survive a downdate
        weak = replace(model, H=0.5 * model.lam * np.eye(model.w.size))
        return data, weak, NewtonUnlearner(weak, budget, **kwargs)

    def test_ill_conditioned_round_falls_back_to_retraining(self, rng):
        data, weak, engine = self._weak_engine(rng, perturbation=PERTURB_OUTPUT,
                                               noise_rng=3)
        deleted, remaining = _split(data, 20)
        out = engine.delete(deleted, remaining)
        assert out.retrained and not out.certified and out.w_published is None
        assert math.isnan(out.residual_norm) and math.isnan(out.threshold)
        exact = train(remaining, weak.lam, weak.loss)
        assert engine.t == 1
        assert np.array_equal(engine.w, exact.w) and np.array_equal(out.w_internal, exact.w)
        assert np.array_equal(engine.H, full_hessian(exact.w, remaining, weak.lam, weak.loss))

    def test_ill_conditioned_round_leaves_engine_unchanged(self, rng, monkeypatch):
        # the round falls back to retraining, and that retraining fails
        data, weak, engine = self._weak_engine(rng)
        deleted, remaining = _split(data, 20)

        def no_convergence(*args, **kwargs):
            raise ConvergenceError("no convergence", residual=1.0)
        monkeypatch.setattr("dvwu.unlearn.train", no_convergence)
        with pytest.raises(ConvergenceError):
            engine.delete(deleted, remaining)
        assert engine.t == 0
        assert np.array_equal(engine.w, weak.w) and np.array_equal(engine.H, weak.H)

    @pytest.mark.parametrize("bad", [7.0, -0.1, float("nan")])
    def test_invalid_weight_rejected_before_any_change(self, bad, rng):
        data, model, budget, engine = _engine_setup(rng)
        deleted, remaining = _split(data, 20)
        v = _ones(deleted.ids)
        v[int(deleted.ids[0])] = bad
        with pytest.raises(InvalidArgumentError):
            engine.delete(deleted, remaining, v)
        assert engine.t == 0
        assert np.array_equal(engine.w, model.w) and np.array_equal(engine.H, model.H)

    def test_output_mode_requires_rng(self, rng):
        with pytest.raises(InvalidArgumentError):
            _engine_setup(rng, perturbation=PERTURB_OUTPUT)

    def test_output_mode_publishes_noisy_parameters(self, rng):
        data, model, budget, engine = _engine_setup(rng, perturbation=PERTURB_OUTPUT,
                                                    noise_rng=5)
        deleted, remaining = _split(data, 20)
        out = engine.delete(deleted, remaining)
        assert out.w_published is not None
        assert not np.array_equal(out.w_published, out.w_internal)
        assert out.certified
        assert out.threshold == pytest.approx(
            threshold1(budget, 1))

    def test_output_noise_deterministic_and_fresh(self, rng):
        data, _, _, e1 = _engine_setup(rng, perturbation=PERTURB_OUTPUT, noise_rng=5)
        _, _, _, e2 = _engine_setup(np.random.default_rng(1234),
                                    perturbation=PERTURB_OUTPUT, noise_rng=5)
        d1, r1 = _split(data, 20)
        d2, r2 = _split(r1, 20)
        o1a = e1.delete(d1, r1)
        o1b = e1.delete(d2, r2)
        o2a = e2.delete(d1, r1)
        assert np.array_equal(o1a.w_published, o2a.w_published)
        n1 = o1a.w_published - o1a.w_internal
        n2 = o1b.w_published - o1b.w_internal
        assert not np.array_equal(n1, n2)

    def test_check_cadence_skips_residual(self, rng):
        loss = LossKind.logistic()
        data = make_dataset(rng, 300, 5, scale=0.6, norm_cap=1.0)
        model = train(data, 0.05, loss)
        budget = CertBudget(epsilon=1.0, delta=1e-4, C=loss.C, beta=loss.beta,
                            schedule=(20,) * 5, n=300, lam=0.05)
        engine = NewtonUnlearner(model, budget, perturbation=PERTURB_OUTPUT,
                                 noise_rng=1, check_every=2)
        d1, r1 = _split(data, 20)
        d2, r2 = _split(r1, 20)
        out1 = engine.delete(d1, r1)
        assert math.isnan(out1.residual_norm) and not out1.certified   # unchecked
        assert out1.w_published is not None   # noise is still drawn
        out2 = engine.delete(d2, r2)
        assert not math.isnan(out2.residual_norm) and out2.certified

    def test_forced_retrain_reanchors(self, rng):
        loss = LossKind.logistic()
        data = make_dataset(rng, 300, 5, scale=0.6, norm_cap=1.0)
        lam = 0.05
        model = train(data, lam, loss)
        # microscopic C shrinks the threshold so the round cannot certify
        budget = CertBudget(epsilon=1.0, delta=1e-4, C=1e-10, beta=0.1,
                            schedule=(20,) * 5, n=300, lam=lam)
        engine = NewtonUnlearner(model, budget, perturbation=PERTURB_OUTPUT,
                                 noise_rng=3)
        d1, r1 = _split(data, 20)
        out = engine.delete(d1, r1)
        assert out.retrained and not out.certified
        assert out.w_published is None
        assert gradient_residual(out.w_internal, r1, lam, loss) <= 1e-8
        assert np.array_equal(engine.H, full_hessian(engine.w, r1, lam, loss))
        d2, r2 = _split(r1, 20)
        out2 = engine.delete(d2, r2)   # sequence continues after the fallback
        assert out2.t == 2

    def test_objective_mode_threshold_and_fallback(self, rng):
        loss = LossKind.logistic()
        data = make_dataset(rng, 300, 5, scale=0.6, norm_cap=1.0)
        lam = 0.05
        budget = CertBudget(epsilon=1.0, delta=1e-4, C=loss.C, beta=loss.beta,
                            schedule=(20,) * 5, n=300, lam=lam)
        b = objective_perturb_setup(budget, 5, 11) * 1e-6
        model = train(data, lam, loss, b=b)
        engine = NewtonUnlearner(model, budget, perturbation=PERTURB_OBJECTIVE,
                                 noise_rng=11)
        d1, r1 = _split(data, 20)
        out = engine.delete(d1, r1)
        assert out.threshold == pytest.approx(epsilon2_prime(budget))
        assert out.certified
        assert out.residual_norm == pytest.approx(
            gradient_residual(out.w_internal, r1, lam, loss, b))

    def test_objective_mode_requires_linear_term(self, rng):
        with pytest.raises(InvalidArgumentError):
            _engine_setup(rng, perturbation=PERTURB_OBJECTIVE, noise_rng=1)


class TestBaselineUpdates:
    def test_single_shot_matches_engine(self, rng):
        data, model, budget, engine = _engine_setup(rng)
        deleted, remaining = _split(data, 20)
        out = engine.delete(deleted, remaining)
        h1 = full_hessian(model.w, remaining, model.lam, model.loss)
        g = weighted_gradient(model.w, deleted, None, model.lam, model.loss)
        w1 = dvwu_newton_step(model.w, h1, g, 20, 280)
        assert_allclose(w1, out.w_internal, rtol=1e-9, atol=1e-12)

    def test_influence_engine_matches_single_shot(self, rng):
        data, model, budget, _ = _engine_setup(rng)
        deleted, remaining = _split(data, 20)
        engine = InfluenceUnlearner(model, budget)
        w1 = engine.delete(deleted, remaining).w_internal
        factor = scipy.linalg.cho_factor(model.H)
        g = weighted_gradient(model.w, deleted, None, model.lam, model.loss)
        direct = model.w + (20 / (300 - 20)) * scipy.linalg.cho_solve(factor, g)
        assert np.array_equal(w1, direct)

    def test_influence_improves_over_stale_parameters(self, rng):
        data, model, budget, _ = _engine_setup(rng, m=40)
        deleted, remaining = _split(data, 40)
        engine = InfluenceUnlearner(model, budget)
        w1 = engine.delete(deleted, remaining).w_internal
        w_retrain = train(remaining, model.lam, model.loss).w
        assert (np.linalg.norm(w1 - w_retrain)
                < np.linalg.norm(model.w - w_retrain))

    def test_influence_indefinite_hessian_raises_ill_conditioned(self, rng):
        data, model, budget, _ = _engine_setup(rng)
        with pytest.raises(IllConditionedHessianError):
            InfluenceUnlearner(replace(model, H=-np.eye(model.w.size)), budget)

    def test_influence_budget_exhaustion(self, rng):
        data, model, budget, _ = _engine_setup(rng)
        engine = InfluenceUnlearner(model, budget)
        with pytest.raises(BudgetExhaustedError):
            engine.delete(data, data.take([]))

    def test_gradient_ascent_raises_deleted_loss(self, rng):
        data, model, budget, _ = _engine_setup(rng)
        deleted, remaining = _split(data, 20)
        lam, loss = model.lam, model.loss
        values = [loss_value(model.w, deleted, lam, loss)]
        w = model.w
        for _ in range(4):
            w = unlearn_gradient_ascent(w, deleted, None, lam, loss,
                                        eta=0.05, steps=1)
            values.append(loss_value(w, deleted, lam, loss))
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_gradient_ascent_zero_weights_noop(self, rng):
        data, model, budget, _ = _engine_setup(rng)
        deleted, _ = _split(data, 20)
        v = {int(i): 0.0 for i in deleted.ids}
        w1 = unlearn_gradient_ascent(model.w, deleted, v, model.lam, model.loss)
        assert np.array_equal(w1, model.w)

    def test_gradient_ascent_validation(self, rng):
        data, model, budget, _ = _engine_setup(rng)
        deleted, _ = _split(data, 20)
        with pytest.raises(InvalidArgumentError):
            unlearn_gradient_ascent(model.w, deleted, None, model.lam,
                                    model.loss, eta=0.0)
        with pytest.raises(InvalidArgumentError):
            unlearn_gradient_ascent(model.w, deleted, None, model.lam,
                                    model.loss, steps=0)

    @pytest.mark.parametrize("bad", [7.0, -0.1, float("nan")])
    def test_gradient_ascent_invalid_weight(self, bad, rng):
        data, model, budget, _ = _engine_setup(rng)
        deleted, _ = _split(data, 20)
        v = _ones(deleted.ids)
        v[int(deleted.ids[-1])] = bad
        with pytest.raises(InvalidArgumentError):
            unlearn_gradient_ascent(model.w, deleted, v, model.lam, model.loss)
