"""Release gate for the library: ten numbered end-to-end checks.

Each test enforces a pinned tolerance and a wall-clock budget, and prints a
single "[C##] <label>: PASS" or ": FAIL" line, so ``pytest -v
tests/test_acceptance.py`` gives one verdict per criterion (add ``-s`` to see
the labels for passing checks too).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from dvwu.data_io import (Dataset, SynthConfig, gen_synthetic, max_row_norm,
                          norm_bound, split, standardize)
from dvwu.harness import (ExperimentConfig, run_continuous_deletion,
                          run_efficiency_bench)
from dvwu.losses import curvature_coefficients, gradient_coefficients, sample_losses
from dvwu.models import LossKind, train
from dvwu.unlearn import (CertBudget, NewtonUnlearner, epsilon1_prime,
                          gauss_constant, hessian_downdate, output_noise_std,
                          output_perturb, threshold1)
from dvwu.valuation import (ValueProfile, knn_sv, save_values_csv,
                            weights_from_values)

from oracles import (fd_gradient, fd_jacobian, knn_shapley_enumeration,
                     ridge_closed_form)


@contextmanager
def criterion(num: int, label: str):
    tic = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[C{num:02d}] {label}: FAIL ({time.perf_counter() - tic:.1f}s)")
        raise
    print(f"[C{num:02d}] {label}: PASS ({time.perf_counter() - tic:.1f}s)")


# Shared benchmark scenario: a 3000-sample training split in 20 dimensions,
# 15 rounds of 100 deletions, 20 repetitions on fresh data and seeds.
SY1_SCALED = SynthConfig(n=4286, d_informative=18, d_redundant=2,
                         positive_ratio=0.5, noise_ratio=0.05, seed=100)


def scenario_config(method: str) -> ExperimentConfig:
    return ExperimentConfig(method=method, perturbation="output",
                            loss="logistic", lam=1e-3, epsilon=1.0, delta=1e-4,
                            rounds=15, deletions_per_round=100, repetitions=20,
                            base_seed=0, k=5, synth=SY1_SCALED)


@pytest.fixture(scope="module")
def scenario_reports():
    out = {}
    for method in ("dvwu-k", "newton", "retrain"):
        tic = time.perf_counter()
        report = run_continuous_deletion(scenario_config(method))
        out[method] = (report, time.perf_counter() - tic)
        for rep in report.repetitions:
            assert rep.error is None, rep.error
    return out


def mean_accuracy(report, t: int) -> float:
    accs = [rec.accuracy for rec in report.records if rec.t == t]
    assert len(accs) == report.config.repetitions
    return float(np.mean(accs))


def test_criterion_01_quadratic_newton_equals_retraining():
    with criterion(1, "one-step Newton exact on quadratic loss"):
        tic = time.perf_counter()
        rng = np.random.default_rng(42)
        n, d, lam, m = 200, 5, 0.01, 20
        X = rng.normal(size=(n, d))
        X /= np.maximum(1.0, np.linalg.norm(X, axis=1))[:, None]
        y = np.where(X @ rng.normal(size=d) + 0.2 * rng.normal(size=n) > 0,
                     1.0, -1.0)
        data = Dataset(features=X, labels=y)
        loss = LossKind.squared_error()

        model = train(data, lam, loss, tol=1e-12)
        budget = CertBudget(epsilon=1.0, delta=1e-4, C=loss.C, beta=loss.beta,
                            schedule=(m,), n=n, lam=lam)
        engine = NewtonUnlearner(model, budget)
        ids = rng.choice(data.ids, size=m, replace=False)
        outcome = engine.delete(data.select(ids), data.drop(ids))

        remaining = data.drop(ids)
        w_retrain = train(remaining, lam, loss, tol=1e-12).w
        w_closed = ridge_closed_form(remaining.features, remaining.labels, lam)
        rel_retrain = (np.linalg.norm(outcome.w_internal - w_retrain)
                       / np.linalg.norm(w_retrain))
        rel_closed = (np.linalg.norm(outcome.w_internal - w_closed)
                      / np.linalg.norm(w_closed))
        elapsed = time.perf_counter() - tic

        assert rel_retrain <= 1e-8
        assert rel_closed <= 1e-8
        assert elapsed < 1.0


def test_criterion_02_knn_shapley_matches_enumeration():
    with criterion(2, "KNN Shapley equals exact subset enumeration"):
        tic = time.perf_counter()
        worst = 0.0
        for n in range(3, 9):
            for k in (1, 2, 3):
                for case in (0, 1, 2):
                    rng = np.random.default_rng(1000 * n + 10 * k + case)
                    if case < 2:
                        X = rng.normal(size=(n, 2))
                        T = rng.normal(size=(3, 2))
                    else:
                        # quantized coordinates force exact distance ties
                        X = rng.integers(0, 3, size=(n, 2)) / 2.0
                        T = rng.integers(0, 3, size=(3, 2)) / 2.0
                    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
                    ty = np.where(rng.random(3) < 0.5, 1.0, -1.0)
                    data = Dataset(features=X, labels=y)
                    ref = Dataset(features=T, labels=ty)

                    got = knn_sv(data, ref, k=k)
                    got_arr = np.array([got[int(i)] for i in data.ids])
                    want = knn_shapley_enumeration(X, y, data.ids, T, ty, k)
                    worst = max(worst, float(np.abs(got_arr - want).max()))
        elapsed = time.perf_counter() - tic

        assert worst <= 1e-10
        assert elapsed < 10.0


def test_criterion_03_loss_derivatives_match_finite_differences():
    with criterion(3, "per-sample derivatives match finite differences"):
        tic = time.perf_counter()
        for name in ("logistic", "huberized_svm"):
            kind = LossKind.from_name(name)
            rng = np.random.default_rng(77)
            probes = 0
            while probes < 100:
                w = rng.normal(size=4)
                x = rng.normal(size=4)
                nx = np.linalg.norm(x)
                if nx > 1.0:
                    x = x / nx
                y = 1.0 if rng.random() < 0.5 else -1.0
                u = y * float(x @ w)
                # keep the difference stencil inside one smoothness zone
                if kind.kind == "huberized_svm" and (
                        abs(u - 1.0) < 1e-2 or abs(u - (1.0 - kind.gamma)) < 1e-2):
                    continue
                probes += 1
                X1, y1 = x[None, :], np.array([y])

                grad = gradient_coefficients(kind, w, X1, y1)[0] * x
                hess = curvature_coefficients(kind, w, X1, y1)[0] * np.outer(x, x)
                fd_g = fd_gradient(
                    lambda ww: float(sample_losses(kind, ww, X1, y1)[0]), w)
                fd_h = fd_jacobian(
                    lambda ww: gradient_coefficients(kind, ww, X1, y1)[0] * x, w)

                np.testing.assert_allclose(fd_g, grad, rtol=1e-5, atol=1e-9)
                np.testing.assert_allclose(fd_h, hess, rtol=1e-4, atol=1e-8)
        elapsed = time.perf_counter() - tic
        assert elapsed < 5.0


def test_criterion_04_residuals_stay_below_certification_threshold(scenario_reports):
    with criterion(4, "residual below threshold every round, no retrains"):
        report, elapsed = scenario_reports["dvwu-k"]
        records = report.records
        assert len(records) == 20 * 15
        assert all(rec.certified for rec in records)
        assert not any(rec.retrained for rec in records)
        assert all(rec.residual < rec.threshold for rec in records)
        assert elapsed < 300.0


def test_criterion_05_parameter_and_gradient_bounds_hold():
    with criterion(5, "update error and residual within closed-form bounds"):
        tic = time.perf_counter()
        lam, m, rounds, k = 1e-3, 100, 10, 5
        loss = LossKind.logistic()
        worst_grad = worst_param = 0.0
        for seed in range(1000, 1050):
            synth = SynthConfig(n=2860, d_informative=9, d_redundant=1,
                                positive_ratio=0.5, noise_ratio=0.05, seed=seed)
            parts = split(gen_synthetic(synth), 0.7, seed=seed, val_fraction=0.0)
            train_std, transform = standardize(parts.train)
            scale = max(1.0, max_row_norm(train_std))
            train_set = norm_bound(train_std, scale)
            test_set = norm_bound(transform.apply(parts.test), scale)
            train_set = train_set.drop(train_set.ids[-2:])
            assert train_set.n == 2000

            budget = CertBudget(epsilon=1.0, delta=1e-4, C=loss.C,
                                beta=loss.beta, schedule=(m,) * rounds,
                                n=train_set.n, lam=lam)
            model = train(train_set, lam, loss)
            profile = ValueProfile.from_initial_values(
                knn_sv(train_set, test_set, k=k))
            engine = NewtonUnlearner(model, budget)
            rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))

            remaining = train_set
            for t in range(1, rounds + 1):
                ids = rng.choice(remaining.ids, size=m, replace=False)
                deleted = remaining.select(ids)
                remaining = remaining.drop(ids)
                outcome = engine.delete(deleted, remaining,
                                        profile.weights_for(ids))
                profile = profile.restrict(remaining.ids)
                assert not outcome.retrained

                bound_grad = threshold1(budget, t)
                bound_param = epsilon1_prime(budget, t)
                param_err = float(np.linalg.norm(
                    np.asarray(outcome.w_internal) - train(remaining, lam, loss).w))
                assert outcome.residual_norm <= bound_grad
                assert param_err <= bound_param
                worst_grad = max(worst_grad, outcome.residual_norm / bound_grad)
                worst_param = max(worst_param, param_err / bound_param)
        elapsed = time.perf_counter() - tic

        assert worst_grad <= 1.0
        assert worst_param <= 1.0
        assert elapsed < 600.0


def test_criterion_06_weighted_method_preserves_accuracy_under_deletion(scenario_reports):
    with criterion(6, "weighted accuracy holds while baselines degrade"):
        dvwu, el_d = scenario_reports["dvwu-k"]
        newton, el_n = scenario_reports["newton"]
        retrain, el_r = scenario_reports["retrain"]

        assert mean_accuracy(dvwu, 15) >= mean_accuracy(newton, 15) - 0.002
        assert mean_accuracy(newton, 15) <= mean_accuracy(newton, 1)
        assert mean_accuracy(retrain, 15) <= mean_accuracy(retrain, 1)
        assert el_d + el_n + el_r < 900.0


def test_criterion_07_single_deletion_timing_ordering():
    with criterion(7, "per-deletion cost ordering across methods"):
        tic = time.perf_counter()
        cfg = ExperimentConfig(
            method="dvwu-k", perturbation="output", loss="huberized_svm",
            lam=1e-3, epsilon=1.0, delta=1e-4, rounds=15,
            deletions_per_round=1000, repetitions=1, base_seed=0, k=5,
            synth=SynthConfig(n=30000, d_informative=18, d_redundant=2,
                              positive_ratio=0.5, noise_ratio=0.05, seed=100))
        results = run_efficiency_bench(
            cfg, methods=("retrain", "newton", "dvwu-k", "influence",
                          "gradient-ascent"), trials=10)
        elapsed = time.perf_counter() - tic

        total = {r.method: r.total_s for r in results}
        assert total["retrain"] > 5.0 * total["newton"]
        assert total["dvwu-k"] <= 3.0 * total["newton"]
        assert total["influence"] <= total["newton"]
        assert total["gradient-ascent"] <= total["influence"]
        assert elapsed < 300.0


def test_criterion_08_noise_calibration():
    with criterion(8, "Gaussian constant and empirical noise scale"):
        tic = time.perf_counter()
        assert abs(gauss_constant(1e-4) - 4.34361) <= 1e-3

        budget = CertBudget(epsilon=1.0, delta=1e-4, C=1.0, beta=0.1,
                            schedule=(1000,) * 15, n=21000, lam=1e-3)
        expected = output_noise_std(budget, 1)
        rng = np.random.default_rng(31)
        draws = output_perturb(np.zeros(100_000), budget, 1, rng)
        empirical = float(np.std(draws, ddof=1))
        elapsed = time.perf_counter() - tic

        assert abs(empirical - expected) <= 0.02 * expected
        assert elapsed < 30.0


def test_criterion_09_weighting_function_branches():
    with criterion(9, "weight branches, clamp, monotonicity, zero passthrough"):
        tic = time.perf_counter()
        anchor, alpha = 0.1, 0.5
        v = weights_from_values(
            {0: -0.2, 1: 0.0, 2: 0.3, 3: 0.02, 4: anchor}, anchor, alpha)
        assert v[0] == 1.0                    # negative value: full strength
        assert v[1] == 0.0                    # zero value: skipped
        assert v[2] == (alpha * anchor) / 0.3  # positive value: scaled down
        assert v[3] == 1.0                    # below alpha*anchor: clamped
        assert v[4] == alpha                  # the anchor itself
        band = weights_from_values({0: 5e-10, 1: -5e-10}, anchor, alpha)
        assert band[0] == 0.0 and band[1] == 0.0

        qs = np.sort(np.random.default_rng(3).uniform(1e-4, 5.0, size=50))
        ws = [weights_from_values({0: float(q)}, anchor, alpha)[0] for q in qs]
        assert all(0.0 <= w <= 1.0 for w in ws)
        assert all(a >= b for a, b in zip(ws, ws[1:]))

        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 3))
        X /= np.maximum(1.0, np.linalg.norm(X, axis=1))[:, None]
        y = np.where(rng.random(60) < 0.5, 1.0, -1.0)
        data = Dataset(features=X, labels=y)
        loss = LossKind.logistic()
        model = train(data, 0.05, loss)
        budget = CertBudget(epsilon=1.0, delta=1e-4, C=loss.C, beta=loss.beta,
                            schedule=(10,), n=60, lam=0.05)
        engine = NewtonUnlearner(model, budget)
        w0, H0 = np.array(engine.w), np.array(engine.H)
        ids = data.ids[:10]
        deleted, remaining = data.select(ids), data.drop(ids)
        outcome = engine.delete(deleted, remaining,
                                {int(i): 0.0 for i in ids})
        assert np.array_equal(outcome.w_internal, w0)
        assert not np.array_equal(engine.H, H0)
        assert np.array_equal(
            engine.H,
            hessian_downdate(H0, w0, deleted, 50, 0.05, loss))
        elapsed = time.perf_counter() - tic
        assert elapsed < 5.0


def test_criterion_10_unit_weights_reduce_to_newton_baseline(tmp_path):
    with criterion(10, "unit-weight pipeline is bitwise the Newton baseline"):
        tic = time.perf_counter()
        synth = SynthConfig(n=400, d_informative=3, d_redundant=1,
                            positive_ratio=0.5, noise_ratio=0.1, seed=21)

        def config(method, values_path=None):
            return ExperimentConfig(method=method, perturbation="output",
                                    loss="logistic", lam=1e-3, epsilon=1.0,
                                    delta=1e-4, rounds=5, deletions_per_round=10,
                                    repetitions=1, base_seed=7, k=3, synth=synth,
                                    values_path=values_path)

        report_newton = run_continuous_deletion(config("newton"))

        values = tmp_path / "values.csv"
        save_values_csv(values, ValueProfile.from_initial_values(
            {i: -1.0 for i in range(400)}))
        report_dvwu = run_continuous_deletion(config("dvwu-k", str(values)))

        traj_n = report_newton.repetitions[0].trajectory
        traj_d = report_dvwu.repetitions[0].trajectory
        assert len(traj_n) == len(traj_d) == 6
        for wn, wd in zip(traj_n, traj_d):
            assert np.array_equal(wn, wd)
        for rn, rd in zip(report_newton.records, report_dvwu.records):
            assert rn.residual == rd.residual
            assert rn.threshold == rd.threshold
            assert rn.accuracy == rd.accuracy
        elapsed = time.perf_counter() - tic
        assert elapsed < 60.0
