"""Certified deletion by weighted one-step Newton updates.

One deletion round removes a batch M of m samples from the n - (t-1)m that
remain, then moves the parameters by a single Newton step built from three
pieces:

  * the weighted deletion gradient
        g_v = (1/m) sum_{v_i != 0} v_i (grad ell(w, z_i) + lam w [+ b]),
  * a Hessian downdate that removes the batch's curvature without touching
    the other samples,
        H_t = ((n - tm + m) H_{t-1} - sum_i (hess ell(w, z_i) + lam I)) / (n - tm),
  * the step itself,  w_t = w_{t-1} + m/(n - tm) * solve(H_t, g_v).

Certification compares the gradient residual on the remaining data against a
closed-form threshold; when it fails, the engine falls back to exact
retraining and signals the caller to rebuild its value profile.  Indistin-
guishability from retraining comes from Gaussian noise, either added to the
published parameters each round (output perturbation) or folded into the
training objective once as a linear term (objective perturbation).

Every method is an unlearner with one interface, delete(deleted, remaining,
weights) -> RoundOutcome, and shares the round bookkeeping, the output-noise
draw and the residual check: NewtonUnlearner (the weighted update; plain
unweighted Newton is weights=None), and the baselines InfluenceUnlearner
(reuses the initial Hessian factorization, never retrains), AscentUnlearner
((weighted) gradient ascent) and RetrainUnlearner (exact retraining).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np
import scipy.linalg

from .dataset import Dataset
from .errors import (BudgetExhaustedError, IllConditionedHessianError,
                     InvalidArgumentError)
from .losses import LossKind, curvature_coefficients, gradient_coefficients
from .models import ModelState, full_gradient, full_hessian, train

log = logging.getLogger(__name__)

PERTURB_NONE = "none"
PERTURB_OUTPUT = "output"
PERTURB_OBJECTIVE = "objective"
_PERTURBATIONS = (PERTURB_NONE, PERTURB_OUTPUT, PERTURB_OBJECTIVE)


@dataclass(frozen=True)
class CertBudget:
    """Constants that fix the certification thresholds and noise scales.

    n is the initial training-set size, m the nominal per-round deletion
    count, T the number of rounds the budget must survive.  C bounds the
    per-sample gradient norm and beta the Hessian Lipschitz constant, both
    valid for feature rows with norm <= 1.
    """

    epsilon: float
    delta: float
    C: float
    beta: float
    m: int
    n: int
    T: int
    lam: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise InvalidArgumentError(f"epsilon must be positive, got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise InvalidArgumentError(f"delta must be in (0, 1), got {self.delta}")
        if not self.C > 0 or self.beta < 0:
            raise InvalidArgumentError("need C > 0 and beta >= 0")
        if self.m < 1 or self.T < 1:
            raise InvalidArgumentError("need m >= 1 and T >= 1")
        if not self.lam > 0:
            raise InvalidArgumentError(f"lam must be positive, got {self.lam}")
        if self.n - self.T * self.m <= 0:
            raise InvalidArgumentError(
                f"deletion budget infeasible: n - T*m = {self.n - self.T * self.m} <= 0")

    @classmethod
    def for_loss(cls, loss: LossKind, epsilon: float, delta: float, m: int, n: int,
                 T: int, lam: float) -> "CertBudget":
        return cls(epsilon=epsilon, delta=delta, C=loss.C, beta=loss.beta,
                   m=m, n=n, T=T, lam=lam)


def gauss_constant(delta: float) -> float:
    """sqrt(2 ln(1.25/delta)), the Gaussian-mechanism noise multiplier."""
    if not 0 < delta <= 1.25:
        raise InvalidArgumentError(f"delta must be in (0, 1.25], got {delta}")
    return math.sqrt(2.0 * math.log(1.25 / delta))


def epsilon1_prime(budget: CertBudget, t: int, *, m_round: int | None = None,
                   deleted_total: int | None = None) -> float:
    """Round-t bound on the parameter gap to exact retraining.

        eps1'(t) = 4 beta C^2 m^2 t / (lam^3 (n - tm)^2) + 4 C m t / (lam (n - tm))

    Non-uniform round sizes substitute the running deleted count for t*m and
    the current round's size for the lone m factor.
    """
    m_r, s_t = _round_counts(budget, t, m_round, deleted_total)
    rem = budget.n - s_t
    lam = budget.lam
    return (4.0 * budget.beta * budget.C ** 2 * m_r * s_t / (lam ** 3 * rem ** 2)
            + 4.0 * budget.C * s_t / (lam * rem))


def epsilon2_prime(budget: CertBudget, *, deleted_total: int | None = None,
                   m_round: int | None = None) -> float:
    """Whole-sequence bound on the gradient residual, evaluated at t = T.

        eps2' = 4 beta C^2 m^2 T / (lam^2 (n - Tm)^2) + 4 C m T / (n - Tm)
    """
    s_T = budget.T * budget.m if deleted_total is None else int(deleted_total)
    m_r = budget.m if m_round is None else int(m_round)
    rem = budget.n - s_T
    if rem <= 0:
        raise BudgetExhaustedError(f"n - T*m = {rem} <= 0")
    lam = budget.lam
    return (4.0 * budget.beta * budget.C ** 2 * m_r * s_T / (lam ** 2 * rem ** 2)
            + 4.0 * budget.C * s_T / rem)


def threshold0(budget: CertBudget, t: int, *, m_round: int | None = None,
               deleted_total: int | None = None) -> float:
    """Certification threshold when every deleted sample has weight zero:
    the update is skipped, so the residual bound tightens to 2 C m t / (n - tm).
    """
    _, s_t = _round_counts(budget, t, m_round, deleted_total)
    return 2.0 * budget.C * s_t / (budget.n - s_t)


def threshold1(budget: CertBudget, t: int, *, m_round: int | None = None,
               deleted_total: int | None = None) -> float:
    """General output-perturbation certification threshold, lam * eps1'(t)."""
    return budget.lam * epsilon1_prime(budget, t, m_round=m_round,
                                       deleted_total=deleted_total)


def output_noise_std(budget: CertBudget, t: int, *, m_round: int | None = None,
                     deleted_total: int | None = None) -> float:
    """Per-coordinate std of the round-t output noise, c * eps1'(t) / epsilon."""
    return (gauss_constant(budget.delta) / budget.epsilon
            * epsilon1_prime(budget, t, m_round=m_round, deleted_total=deleted_total))


def objective_noise_std(budget: CertBudget) -> float:
    """Per-coordinate std of the objective-perturbation vector, c * eps2' / epsilon."""
    return gauss_constant(budget.delta) / budget.epsilon * epsilon2_prime(budget)


def output_perturb(w_t: np.ndarray, budget: CertBudget, t: int,
                   rng: int | np.random.Generator, *, m_round: int | None = None,
                   deleted_total: int | None = None) -> np.ndarray:
    """Publishable parameters: w_t plus fresh spherical Gaussian noise."""
    gen = np.random.default_rng(rng) if isinstance(rng, (int, np.integer)) else rng
    std = output_noise_std(budget, t, m_round=m_round, deleted_total=deleted_total)
    return w_t + gen.normal(0.0, std, size=w_t.shape)


def objective_perturb_setup(budget: CertBudget, d: int,
                            rng: int | np.random.Generator) -> np.ndarray:
    """Draw the linear-term vector b once, before initial training.

    The same b is reused by every fallback retrain in the sequence.
    """
    if d < 1:
        raise InvalidArgumentError(f"d must be >= 1, got {d}")
    gen = np.random.default_rng(rng) if isinstance(rng, (int, np.integer)) else rng
    return gen.normal(0.0, objective_noise_std(budget), size=d)


def weighted_gradient(w: np.ndarray, deleted: Dataset, v: Mapping[int, float] | None,
                      lam: float, loss: LossKind, b: np.ndarray | None = None) -> np.ndarray:
    """Weighted gradient of the deletion batch,
    (1/m) sum_{v_i != 0} v_i (grad ell(w, z_i) + lam w [+ b]).

    v maps every deleted id to a weight in [0, 1]; v=None means every weight
    is 1 and skips the lookup.  The two forms agree bitwise for unit weights:
    multiplying the coefficients by 1.0 and scaling the regularizer by m/m
    are exact.
    """
    if deleted.n < 1:
        raise InvalidArgumentError("deletion batch is empty")
    if not lam > 0:
        raise InvalidArgumentError(f"lam must be positive, got {lam}")
    if v is not None:
        try:
            weights = np.array([v[int(i)] for i in deleted.ids], dtype=np.float64)
        except KeyError as exc:
            raise InvalidArgumentError(f"missing weight for deleted id {exc.args[0]}") from None
        bad = ~((weights >= 0.0) & (weights <= 1.0))    # NaN fails both comparisons
        if bad.any():
            i = int(np.argmax(bad))
            raise InvalidArgumentError(
                f"weights must be finite and in [0, 1]; id {deleted.ids[i]} has {weights[i]}")
    a = gradient_coefficients(loss, w, deleted.features, deleted.labels)
    reg = lam * w if b is None else lam * w + b
    if v is None:
        return deleted.features.T @ a / deleted.n + reg
    g = deleted.features.T @ (a * weights) / deleted.n
    return g + weights.sum() / deleted.n * reg


def hessian_downdate(H_prev: np.ndarray, w_prev: np.ndarray, deleted: Dataset,
                     n: int, m: int, t: int, lam: float, loss: LossKind, *,
                     n_prev: int | None = None, n_curr: int | None = None) -> np.ndarray:
    """Remove the deleted batch's curvature from the running Hessian:

        H_t = ((n - tm + m) H_{t-1} - sum_i (hess ell(w_{t-1}, z_i) + lam I)) / (n - tm)

    Applied to the full batch regardless of weights: the samples leave the
    dataset either way.  n_prev / n_curr override the uniform-schedule counts
    when round sizes vary.
    """
    if deleted.n != m:
        raise InvalidArgumentError(f"batch has {deleted.n} rows but m = {m}")
    before = n - (t - 1) * m if n_prev is None else int(n_prev)
    after = n - t * m if n_curr is None else int(n_curr)
    if after < 1:
        raise BudgetExhaustedError(
            f"round {t} would leave {after} samples; deletion budget exhausted")
    if before - after != deleted.n:
        raise InvalidArgumentError("sample counts disagree with the batch size")
    c = curvature_coefficients(loss, w_prev, deleted.features, deleted.labels)
    S = (deleted.features.T * c) @ deleted.features
    S = 0.5 * (S + S.T) + deleted.n * lam * np.eye(deleted.d)
    H = (before * H_prev - S) / after
    return 0.5 * (H + H.T)


def dvwu_newton_step(w_prev: np.ndarray, H_t: np.ndarray, grad_v: np.ndarray,
                     n: int, m: int, t: int, *, n_curr: int | None = None,
                     min_eig_floor: float | None = None) -> np.ndarray:
    """One weighted Newton update, w_t = w_{t-1} + m/(n - tm) * H_t^{-1} grad_v.

    Solved by Cholesky factorization, never an explicit inverse.  When
    min_eig_floor is given, H_t - floor*I must also factor, which certifies
    the smallest eigenvalue is above the floor.
    """
    after = n - t * m if n_curr is None else int(n_curr)
    if after < 1:
        raise BudgetExhaustedError(f"n - tm = {after} <= 0")
    try:
        if min_eig_floor is not None:
            scipy.linalg.cho_factor(H_t - min_eig_floor * np.eye(H_t.shape[0]))
        factor = scipy.linalg.cho_factor(H_t)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedHessianError(f"Hessian not positive definite enough: {exc}") from exc
    return w_prev + (m / after) * scipy.linalg.cho_solve(factor, grad_v)


def gradient_residual(w: np.ndarray, data: Dataset, lam: float, loss: LossKind,
                      b: np.ndarray | None = None) -> float:
    """Two-norm of the (optionally perturbed) full objective gradient."""
    return float(np.linalg.norm(full_gradient(w, data, lam, loss, b)))


@dataclass(frozen=True)
class RoundOutcome:
    """Everything one deletion round produced."""

    t: int
    w_internal: np.ndarray
    w_published: np.ndarray | None
    residual_norm: float
    threshold: float
    certified: bool          # residual checked against the threshold and below it
    retrained: bool
    elapsed: dict[str, float] = field(default_factory=dict)

    @property
    def elapsed_ms(self) -> float:
        return 1000.0 * sum(self.elapsed.values())


def certify_or_retrain(t: int, w_t: np.ndarray, data_t: Dataset, threshold: float,
                       lam: float, loss: LossKind, b: np.ndarray | None = None,
                       train_tol: float = 1e-8,
                       w_published: np.ndarray | None = None) -> RoundOutcome:
    """Compare the gradient residual on the remaining data against the
    threshold; retrain exactly (keeping b, if any) when it is exceeded.

    A retrained round publishes nothing and the caller must reinitialize its
    value profile on the remaining data.
    """
    if not threshold > 0:
        raise InvalidArgumentError(f"threshold must be positive, got {threshold}")
    residual = gradient_residual(w_t, data_t, lam, loss, b)
    certified = residual <= threshold
    if certified:
        return RoundOutcome(t=t, w_internal=w_t, w_published=w_published,
                            residual_norm=residual, threshold=threshold,
                            certified=True, retrained=False)
    model = train(data_t, lam, loss, b=b, tol=train_tol)
    return RoundOutcome(t=t, w_internal=model.w, w_published=None,
                        residual_norm=residual, threshold=threshold,
                        certified=False, retrained=True)


class Unlearner:
    """One deletion method: delete(deleted, remaining, weights) -> RoundOutcome.

    The base holds what every method shares: the parameters, the deletion
    counters, the output-noise draw and the residual check on the check_every
    cadence.  A subclass's delete() runs _validate, computes its update into
    locals, then _finish and _commit, so a rejected or failed round leaves the
    counters, parameters and Hessian as they were (the noise generator may
    have advanced).  The caller owns the datasets and the value profile.
    """

    publishes = True    # draws output noise under output perturbation
    fallback = False    # retrains exactly when the residual is above the threshold

    def __init__(self, model: ModelState, budget: CertBudget, *,
                 perturbation: str = PERTURB_NONE,
                 noise_rng: int | np.random.Generator | None = None,
                 train_tol: float = 1e-8, check_every: int = 1,
                 planned_total: int | None = None, certify: bool | None = None):
        if perturbation not in _PERTURBATIONS:
            raise InvalidArgumentError(f"unknown perturbation mode {perturbation!r}")
        if perturbation == PERTURB_OBJECTIVE and model.b is None:
            raise InvalidArgumentError(
                "objective perturbation needs a model trained with the linear term b")
        if check_every < 1:
            raise InvalidArgumentError(f"check_every must be >= 1, got {check_every}")
        if perturbation != PERTURB_NONE and noise_rng is None:
            raise InvalidArgumentError(f"{perturbation} perturbation needs noise_rng")
        self.budget = budget
        self.lam = model.lam
        self.loss = model.loss
        # the linear term enters gradients and residuals only under objective perturbation
        self.b = model.b if perturbation == PERTURB_OBJECTIVE else None
        self.perturbation = perturbation
        self.train_tol = train_tol
        self.check_every = check_every
        self.planned_total = planned_total
        self.certify = (perturbation != PERTURB_NONE) if certify is None else certify
        self.w = np.array(model.w)
        self.t = 0
        self.deleted_total = 0
        self.noise_rng = (np.random.default_rng(noise_rng)
                          if isinstance(noise_rng, (int, np.integer)) or noise_rng is None
                          else noise_rng)

    def _validate(self, deleted: Dataset, remaining: Dataset) -> None:
        if deleted.n < 1:
            raise InvalidArgumentError("deletion batch is empty")
        if remaining.n < 1:
            raise BudgetExhaustedError("no samples would remain after this round")
        if np.intersect1d(deleted.ids, remaining.ids).size:
            raise InvalidArgumentError("deleted and remaining datasets overlap")
        expected = self.budget.n - self.deleted_total - deleted.n
        if remaining.n != expected:
            raise InvalidArgumentError(
                f"remaining set has {remaining.n} rows, expected {expected}")

    def _finish(self, w_t: np.ndarray, deleted: Dataset, remaining: Dataset,
                elapsed: dict[str, float]) -> RoundOutcome:
        """Draw the output noise, then on checked rounds compare the residual
        with the threshold.  Only a residual compared and found below the
        threshold certifies a round."""
        t, total = self.t + 1, self.deleted_total + deleted.n
        w_pub = None
        if self.publishes and self.perturbation == PERTURB_OUTPUT:
            tic = time.perf_counter()
            w_pub = output_perturb(w_t, self.budget, t, self.noise_rng,
                                   m_round=deleted.n, deleted_total=total)
            elapsed["noise"] = time.perf_counter() - tic
        outcome = RoundOutcome(t=t, w_internal=w_t, w_published=w_pub,
                               residual_norm=float("nan"), threshold=float("nan"),
                               certified=False, retrained=False, elapsed=elapsed)
        if t % self.check_every != 0:
            return outcome
        if not self.certify:
            threshold = float("nan")
        elif self.perturbation == PERTURB_OBJECTIVE:
            threshold = epsilon2_prime(self.budget, deleted_total=self.planned_total)
        else:
            threshold = threshold1(self.budget, t, m_round=deleted.n, deleted_total=total)
        tic = time.perf_counter()
        if self.certify and self.fallback:
            outcome = certify_or_retrain(t, w_t, remaining, threshold, self.lam,
                                         self.loss, b=self.b, train_tol=self.train_tol,
                                         w_published=w_pub)
        else:
            residual = gradient_residual(w_t, remaining, self.lam, self.loss, self.b)
            outcome = replace(outcome, residual_norm=residual, threshold=threshold,
                              certified=residual <= threshold)
        elapsed["certify"] = time.perf_counter() - tic
        if outcome.retrained:
            log.info("round %d: residual %.3e above threshold %.3e, retrained",
                     t, outcome.residual_norm, outcome.threshold)
        return replace(outcome, elapsed=elapsed)

    def _commit(self, deleted: Dataset, outcome: RoundOutcome) -> RoundOutcome:
        self.t += 1
        self.deleted_total += deleted.n
        self.w = outcome.w_internal
        return outcome


class NewtonUnlearner(Unlearner):
    """The weighted Newton engine: weighted gradient, Hessian downdate, Newton
    step, then noise and certification with the exact-retrain fallback.
    Serves newton (weights=None, all ones) and the value-weighted methods.
    """

    fallback = True

    def __init__(self, model: ModelState, budget: CertBudget, **kwargs):
        super().__init__(model, budget, **kwargs)
        self.H = np.array(model.H)

    def delete(self, deleted: Dataset, remaining: Dataset,
               weights: Mapping[int, float] | None = None) -> RoundOutcome:
        """Run one deletion round.  weights=None means all ones."""
        self._validate(deleted, remaining)
        t, m, n_curr = self.t + 1, deleted.n, remaining.n
        elapsed: dict[str, float] = {}
        tic = time.perf_counter()
        g_v = weighted_gradient(self.w, deleted, weights, self.lam, self.loss, self.b)
        elapsed["gradient"] = time.perf_counter() - tic

        tic = time.perf_counter()
        H = hessian_downdate(self.H, self.w, deleted, self.budget.n, m, t, self.lam,
                             self.loss, n_prev=n_curr + m, n_curr=n_curr)
        elapsed["hessian"] = time.perf_counter() - tic

        tic = time.perf_counter()
        w_t = dvwu_newton_step(self.w, H, g_v, self.budget.n, m, t, n_curr=n_curr,
                               min_eig_floor=self.lam / 2.0)
        elapsed["solve"] = time.perf_counter() - tic

        outcome = self._finish(w_t, deleted, remaining, elapsed)
        if outcome.retrained:
            # Re-anchor the running Hessian at the retrained parameters.
            H = full_hessian(outcome.w_internal, remaining, self.lam, self.loss)
        self.H = H
        return self._commit(deleted, outcome)


class InfluenceUnlearner(Unlearner):
    """Influence-style removals that reuse one Hessian factorization.

    The full-data Hessian at the initial parameters is factored once; every
    later round only computes the unweighted batch gradient and back-
    substitutes, which is what makes this baseline cheap and approximate.
    Rounds are checked like Newton's but never fall back to retraining: the
    stale-Hessian shortcut is the baseline's whole point.  Weights are ignored.
    """

    def __init__(self, model: ModelState, budget: CertBudget, **kwargs):
        super().__init__(model, budget, **kwargs)
        self.factor = scipy.linalg.cho_factor(model.H)

    def delete(self, deleted: Dataset, remaining: Dataset,
               weights: Mapping[int, float] | None = None) -> RoundOutcome:
        self._validate(deleted, remaining)
        tic = time.perf_counter()
        g = weighted_gradient(self.w, deleted, None, self.lam, self.loss, self.b)
        w_t = self.w + (deleted.n / remaining.n) * scipy.linalg.cho_solve(self.factor, g)
        elapsed = {"update": time.perf_counter() - tic}
        return self._commit(deleted, self._finish(w_t, deleted, remaining, elapsed))


class AscentUnlearner(Unlearner):
    """(Weighted) gradient ascent on the deleted batch, `steps` steps of size
    `eta` per round.  It publishes no noise and has no threshold, so no round
    is certified; the residual is still recorded on checked rounds.
    """

    publishes = False

    def __init__(self, model: ModelState, budget: CertBudget, *, eta: float = 0.01,
                 steps: int = 5, **kwargs):
        super().__init__(model, budget, certify=False, **kwargs)
        self.eta = eta
        self.steps = steps

    def delete(self, deleted: Dataset, remaining: Dataset,
               weights: Mapping[int, float] | None = None) -> RoundOutcome:
        self._validate(deleted, remaining)
        tic = time.perf_counter()
        w_t = unlearn_gradient_ascent(self.w, deleted, weights, self.lam, self.loss,
                                      eta=self.eta, steps=self.steps, b=self.b)
        elapsed = {"gradient": time.perf_counter() - tic}
        return self._commit(deleted, self._finish(w_t, deleted, remaining, elapsed))


class RetrainUnlearner(Unlearner):
    """The reference: exact re-minimization on the remaining data every round.

    It trains the unperturbed objective and publishes no noise, whatever the
    perturbation mode, and has no threshold, so no round is certified; the
    residual is still recorded on checked rounds.  Weights are ignored.
    """

    publishes = False

    def __init__(self, model: ModelState, budget: CertBudget, **kwargs):
        super().__init__(model, budget, certify=False, **kwargs)
        self.b = None

    def delete(self, deleted: Dataset, remaining: Dataset,
               weights: Mapping[int, float] | None = None) -> RoundOutcome:
        self._validate(deleted, remaining)
        tic = time.perf_counter()
        w_t = train(remaining, self.lam, self.loss, tol=self.train_tol).w
        elapsed = {"retrain": time.perf_counter() - tic}
        return self._commit(deleted, self._finish(w_t, deleted, remaining, elapsed))


def unlearn_gradient_ascent(w: np.ndarray, deleted: Dataset, v: Mapping[int, float] | None,
                            lam: float, loss: LossKind, eta: float = 0.01,
                            steps: int = 5, b: np.ndarray | None = None) -> np.ndarray:
    """Ascend the deleted batch's (weighted) regularized loss for a few steps:
    w <- w + eta * (1/m) sum v_i (grad ell(w, z_i) + lam w [+ b]).
    """
    if not eta > 0:
        raise InvalidArgumentError(f"eta must be positive, got {eta}")
    if steps < 1:
        raise InvalidArgumentError(f"steps must be >= 1, got {steps}")
    out = np.array(w, dtype=np.float64)
    for _ in range(steps):
        out = out + eta * weighted_gradient(out, deleted, v, lam, loss, b)
    return out


def _round_counts(budget: CertBudget, t: int, m_round: int | None,
                  deleted_total: int | None) -> tuple[int, int]:
    if t < 1:
        raise InvalidArgumentError(f"t must be >= 1, got {t}")
    m_r = budget.m if m_round is None else int(m_round)
    s_t = t * budget.m if deleted_total is None else int(deleted_total)
    if budget.n - s_t <= 0:
        raise BudgetExhaustedError(f"n - tm = {budget.n - s_t} <= 0 at round {t}")
    return m_r, s_t
