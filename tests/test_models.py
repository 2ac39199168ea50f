import numpy as np
import pytest
from numpy.testing import assert_allclose

from dvwu import (
    ConvergenceError,
    Dataset,
    InvalidArgumentError,
    LossKind,
    evaluate,
    train,
)
from dvwu.models import (
    full_gradient,
    full_hessian,
    loss_value,
)
from dvwu.losses import curvature_coefficients, gradient_coefficients

import oracles
from conftest import make_dataset


class TestObjectiveAssembly:
    """Vectorized objective pieces against the loop-based oracle."""

    @pytest.mark.parametrize("kind,gamma", [("logistic", 2.0),
                                            ("huberized_svm", 2.0),
                                            ("huberized_svm", 0.7),
                                            ("squared_error", 2.0)])
    def test_value_gradient_hessian(self, kind, gamma, rng):
        data = make_dataset(rng, 25, 4, scale=0.6)
        loss = LossKind.from_name(kind, gamma=gamma)
        w = rng.normal(size=4)
        b = rng.normal(size=4) * 0.05
        lam = 0.05

        assert_allclose(loss_value(w, data, lam, loss, b=b),
                        oracles.naive_objective(w, data.features, data.labels,
                                                lam, kind, gamma, b),
                        rtol=1e-12)
        assert_allclose(full_gradient(w, data, lam, loss, b=b),
                        oracles.naive_gradient(w, data.features, data.labels,
                                               lam, kind, gamma, b),
                        rtol=1e-11, atol=1e-14)
        assert_allclose(full_hessian(w, data, lam, loss),
                        oracles.naive_hessian(w, data.features, data.labels,
                                              lam, kind, gamma),
                        rtol=1e-11, atol=1e-14)

    def test_hessian_exactly_symmetric(self, rng):
        data = make_dataset(rng, 60, 7)
        h = full_hessian(rng.normal(size=7), data, 1e-3, LossKind.logistic())
        assert np.array_equal(h, h.T)

    def test_hessian_regularization_floor(self, rng):
        data = make_dataset(rng, 60, 7, norm_cap=1.0)
        lam = 0.2
        h = full_hessian(rng.normal(size=7), data, lam, LossKind.huberized_svm())
        eigs = np.linalg.eigvalsh(h)
        assert eigs.min() >= lam - 1e-12

    def test_per_sample_pieces(self, rng):
        data = make_dataset(rng, 5, 3)
        loss = LossKind.logistic()
        w = rng.normal(size=3)
        for i in range(5):
            _, g, h = oracles._per_sample_terms(w, data.features[i],
                                                data.labels[i], "logistic", 2.0)
            x, y = data.features[i:i + 1], data.labels[i:i + 1]
            assert_allclose(gradient_coefficients(loss, w, x, y)[0] * x[0], g,
                            rtol=1e-12)
            assert_allclose(curvature_coefficients(loss, w, x, y)[0] * np.outer(x[0], x[0]),
                            h, rtol=1e-12)

    def test_invalid_regularization(self, small_data):
        with pytest.raises(InvalidArgumentError):
            loss_value(np.zeros(small_data.d), small_data, 0.0,
                       LossKind.logistic())


class TestTraining:
    def test_matches_gradient_descent_oracle(self, rng):
        data = make_dataset(rng, 80, 5, scale=0.5, norm_cap=1.0)
        lam = 0.1
        model = train(data, lam, LossKind.logistic(), tol=1e-10)
        w_ref = oracles.gd_minimize(data.features, data.labels, lam,
                                    "logistic", tol=1e-9)
        assert_allclose(model.w, w_ref, atol=5e-8)

    def test_quadratic_closed_form_with_linear_term(self, rng):
        data = make_dataset(rng, 50, 4)
        lam = 0.05
        b = rng.normal(size=4) * 0.1
        model = train(data, lam, LossKind.squared_error(), b=b, tol=1e-12)
        assert_allclose(model.w,
                        oracles.ridge_closed_form(data.features, data.labels,
                                                  lam, b),
                        rtol=1e-9, atol=1e-12)

    def test_gradient_below_tolerance(self, rng):
        data = make_dataset(rng, 120, 6, norm_cap=1.0)
        model = train(data, 1e-3, LossKind.huberized_svm(), tol=1e-8)
        g = full_gradient(model.w, data, 1e-3, model.loss)
        assert np.linalg.norm(g) <= 1e-8

    def test_deterministic(self, rng):
        data = make_dataset(rng, 70, 5)
        m1 = train(data, 0.01, LossKind.logistic())
        m2 = train(data, 0.01, LossKind.logistic())
        assert np.array_equal(m1.w, m2.w)
        assert np.array_equal(m1.H, m2.H)

    def test_label_flip_symmetry(self, rng):
        """Negating every label negates the trained parameters."""
        data = make_dataset(rng, 90, 4, scale=0.6)
        flipped = Dataset(features=data.features, labels=-data.labels,
                          ids=data.ids)
        m1 = train(data, 0.1, LossKind.logistic(), tol=1e-10)
        m2 = train(flipped, 0.1, LossKind.logistic(), tol=1e-10)
        assert_allclose(m2.w, -m1.w, atol=1e-7)

    def test_hessian_cached_at_solution(self, rng):
        data = make_dataset(rng, 40, 3)
        model = train(data, 0.02, LossKind.logistic())
        assert_allclose(model.H,
                        full_hessian(model.w, data, 0.02, model.loss),
                        rtol=1e-12)

    def test_unreachable_tolerance_raises(self, rng):
        data = make_dataset(rng, 30, 3)
        with pytest.raises(ConvergenceError) as err:
            train(data, 0.01, LossKind.logistic(), tol=1e-300)
        assert err.value.residual is not None
        assert err.value.residual > 0.0


class TestEvaluate:
    def test_confusion_quadrants(self):
        # one true positive, one true negative, one false positive, one
        # false negative under w = [1]
        test = Dataset(features=np.array([[1.0], [-1.0], [1.0], [-1.0]]),
                       labels=np.array([1.0, -1.0, -1.0, 1.0]))
        m = evaluate(np.array([1.0]), test)
        assert m.accuracy == 0.5
        assert m.precision == 0.5
        assert m.recall == 0.5
        assert m.misclassification_cost == 0.5

    def test_asymmetric_costs(self):
        test = Dataset(features=np.array([[1.0], [-1.0], [1.0], [-1.0]]),
                       labels=np.array([1.0, -1.0, -1.0, 1.0]))
        m = evaluate(np.array([1.0]), test, cost_fp=2.0, cost_fn=0.5)
        assert_allclose(m.misclassification_cost, (2.0 + 0.5) / 4.0)

    def test_zero_score_counts_positive(self):
        test = Dataset(features=np.array([[0.0]]), labels=np.array([1.0]))
        assert evaluate(np.array([1.0]), test).accuracy == 1.0

    def test_empty_positive_predictions(self):
        test = Dataset(features=np.array([[-1.0], [-2.0]]),
                       labels=np.array([-1.0, -1.0]))
        m = evaluate(np.array([1.0]), test)
        assert m.precision == 0.0
        assert m.recall == 0.0
        assert m.accuracy == 1.0

    def test_accepts_model_state(self, rng):
        data = make_dataset(rng, 50, 4)
        model = train(data, 0.01, LossKind.logistic())
        assert evaluate(model, data).accuracy == evaluate(model.w, data).accuracy
