"""Certified deletion by weighted one-step Newton updates.

A deletion budget (CertBudget) fixes the schedule: round t removes a batch M
of m_t samples, and n_t = n - s_t remain, where s_t = m_1 + ... + m_t (a
uniform schedule of m per round has s_t = tm).  The schedule is the one
source of these counts; every batch must follow it.  One round moves the
parameters by a single Newton step built from three pieces:

  * the weighted deletion gradient
        g_v = (1/m_t) sum_{v_i != 0} v_i (grad ell(w, z_i) + lam w [+ b]),
  * a Hessian downdate that removes the batch's curvature without touching
    the other samples,
        H_t = (n_{t-1} H_{t-1} - sum_i (hess ell(w, z_i) + lam I)) / n_t,
  * the step itself,  w_t = w_{t-1} + m_t / n_t * solve(H_t, g_v).

Certification compares the gradient residual on the remaining data against a
closed-form threshold; when it fails, or the downdated Hessian has lost its
lam/2 floor, the engine retrains exactly and signals the caller to rebuild
its value profile.  Indistin-
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
from .models import ModelState, cholesky_factor, full_gradient, full_hessian, train

log = logging.getLogger(__name__)

PERTURB_NONE = "none"
PERTURB_OUTPUT = "output"
PERTURB_OBJECTIVE = "objective"
_PERTURBATIONS = (PERTURB_NONE, PERTURB_OUTPUT, PERTURB_OBJECTIVE)


@dataclass(frozen=True)
class CertBudget:
    """Constants that fix the certification thresholds and noise scales.

    n is the initial training-set size and schedule the number of samples
    each round deletes, one entry per round: a uniform schedule of T rounds
    of m is (m,) * T.  Every deletion count the bounds use comes from the
    schedule.  C bounds the per-sample gradient norm and beta the Hessian
    Lipschitz constant, both valid for feature rows with norm <= 1.
    """

    epsilon: float
    delta: float
    C: float
    beta: float
    schedule: tuple[int, ...]
    n: int
    lam: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise InvalidArgumentError(f"epsilon must be positive, got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise InvalidArgumentError(f"delta must be in (0, 1), got {self.delta}")
        if not self.C > 0 or self.beta < 0:
            raise InvalidArgumentError("need C > 0 and beta >= 0")
        schedule = tuple(int(m) for m in self.schedule)
        if not schedule or min(schedule) < 1:
            raise InvalidArgumentError(
                f"the schedule needs at least one round and m >= 1 in each, got {schedule}")
        object.__setattr__(self, "schedule", schedule)
        if not self.lam > 0:
            raise InvalidArgumentError(f"lam must be positive, got {self.lam}")
        if self.n - sum(schedule) <= 0:
            raise InvalidArgumentError(
                f"deletion budget infeasible: n - sum(schedule) = {self.n - sum(schedule)} <= 0")

    def counts(self, t: int) -> tuple[int, int]:
        """(m_t, s_t): the size of round t's batch and the total deleted by its end."""
        if t < 1:
            raise InvalidArgumentError(f"t must be >= 1, got {t}")
        if t > len(self.schedule):
            raise BudgetExhaustedError(
                f"round {t} is past the schedule's {len(self.schedule)} rounds")
        return self.schedule[t - 1], sum(self.schedule[:t])


def gauss_constant(delta: float) -> float:
    """sqrt(2 ln(1.25/delta)), the Gaussian-mechanism noise multiplier."""
    if not 0 < delta <= 1.25:
        raise InvalidArgumentError(f"delta must be in (0, 1.25], got {delta}")
    return math.sqrt(2.0 * math.log(1.25 / delta))


def epsilon1_prime(budget: CertBudget, t: int) -> float:
    """Round-t bound on the parameter gap to exact retraining,

        eps1'(t) = 4 beta C^2 m_t s_t / (lam^3 (n - s_t)^2) + 4 C s_t / (lam (n - s_t)),

    with m_t and s_t from the schedule; a uniform schedule has s_t = tm.
    """
    m_t, s_t = budget.counts(t)
    rem = budget.n - s_t
    lam = budget.lam
    return (4.0 * budget.beta * budget.C ** 2 * m_t * s_t / (lam ** 3 * rem ** 2)
            + 4.0 * budget.C * s_t / (lam * rem))


def epsilon2_prime(budget: CertBudget) -> float:
    """Whole-sequence bound on the gradient residual,

        eps2' = 4 beta C^2 m s_T / (lam^2 (n - s_T)^2) + 4 C s_T / (n - s_T),

    with s_T = sum(schedule) and m = ceil(s_T / T), which is (m, Tm) on a
    uniform schedule.  The objective noise and the objective threshold both
    use this one value.
    """
    s_T = sum(budget.schedule)
    m = -(-s_T // len(budget.schedule))
    rem = budget.n - s_T
    lam = budget.lam
    return (4.0 * budget.beta * budget.C ** 2 * m * s_T / (lam ** 2 * rem ** 2)
            + 4.0 * budget.C * s_T / rem)


def threshold1(budget: CertBudget, t: int) -> float:
    """General output-perturbation certification threshold, lam * eps1'(t)."""
    return budget.lam * epsilon1_prime(budget, t)


def output_noise_std(budget: CertBudget, t: int) -> float:
    """Per-coordinate std of the round-t output noise, c * eps1'(t) / epsilon."""
    return gauss_constant(budget.delta) / budget.epsilon * epsilon1_prime(budget, t)


def objective_noise_std(budget: CertBudget) -> float:
    """Per-coordinate std of the objective-perturbation vector, c * eps2' / epsilon."""
    return gauss_constant(budget.delta) / budget.epsilon * epsilon2_prime(budget)


def output_perturb(w_t: np.ndarray, budget: CertBudget, t: int,
                   rng: int | np.random.Generator) -> np.ndarray:
    """Publishable parameters: w_t plus fresh spherical Gaussian noise."""
    gen = np.random.default_rng(rng) if isinstance(rng, (int, np.integer)) else rng
    return w_t + gen.normal(0.0, output_noise_std(budget, t), size=w_t.shape)


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
                     n_after: int, lam: float, loss: LossKind) -> np.ndarray:
    """Remove the deleted batch's curvature from the running Hessian:

        H_t = ((n_t + m_t) H_{t-1} - sum_i (hess ell(w_{t-1}, z_i) + lam I)) / n_t

    with m_t = deleted.n and n_t = n_after, the rows that remain.  Applied to
    the full batch regardless of weights: the samples leave the dataset
    either way.
    """
    if n_after < 1:
        raise BudgetExhaustedError(
            f"the round would leave {n_after} samples; deletion budget exhausted")
    c = curvature_coefficients(loss, w_prev, deleted.features, deleted.labels)
    S = (deleted.features.T * c) @ deleted.features
    S = 0.5 * (S + S.T) + deleted.n * lam * np.eye(deleted.d)
    H = ((n_after + deleted.n) * H_prev - S) / n_after
    return 0.5 * (H + H.T)


def dvwu_newton_step(w_prev: np.ndarray, H_t: np.ndarray, grad_v: np.ndarray,
                     m: int, n_after: int, *,
                     min_eig_floor: float | None = None) -> np.ndarray:
    """One weighted Newton update, w_t = w_{t-1} + m/n_after * H_t^{-1} grad_v,
    for a batch of m rows that leaves n_after.

    Solved by Cholesky factorization, never an explicit inverse.  When
    min_eig_floor is given, H_t - floor*I must also factor, which certifies
    the smallest eigenvalue is above the floor.
    """
    if n_after < 1:
        raise BudgetExhaustedError(f"the round would leave {n_after} samples")
    if min_eig_floor is not None:
        cholesky_factor(H_t - min_eig_floor * np.eye(H_t.shape[0]))
    return w_prev + (m / n_after) * scipy.linalg.cho_solve(cholesky_factor(H_t), grad_v)


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

    The base holds what every method shares: the parameters, the round
    counter, the schedule check, the output-noise draw and the residual check
    on the check_every cadence.  A subclass's delete() runs _validate,
    computes its update into locals, then _finish and _commit, so a rejected
    or failed round leaves the counter, parameters and Hessian as they were
    (the noise generator may have advanced).  The caller owns the datasets
    and the value profile.
    """

    certifies = True    # under a perturbation: draws output noise, checks a threshold
    fallback = False    # retrains exactly when the residual is above the threshold

    def __init__(self, model: ModelState, budget: CertBudget, *,
                 perturbation: str = PERTURB_NONE,
                 noise_rng: int | np.random.Generator | None = None,
                 train_tol: float = 1e-8, check_every: int = 1):
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
        self.certify = self.certifies and perturbation != PERTURB_NONE
        self.w = np.array(model.w)
        self.t = 0
        self.noise_rng = (np.random.default_rng(noise_rng)
                          if isinstance(noise_rng, (int, np.integer)) or noise_rng is None
                          else noise_rng)

    def _validate(self, deleted: Dataset, remaining: Dataset) -> None:
        """Reject a round that does not follow the budget's schedule."""
        if deleted.n < 1:
            raise InvalidArgumentError("deletion batch is empty")
        if remaining.n < 1:
            raise BudgetExhaustedError("no samples would remain after this round")
        m_t, s_t = self.budget.counts(self.t + 1)    # raises past the last round
        if deleted.n != m_t:
            raise InvalidArgumentError(
                f"round {self.t + 1} deletes {m_t} rows by the schedule, got {deleted.n}")
        if np.isin(deleted.ids, remaining.ids).any():
            raise InvalidArgumentError("deleted and remaining datasets overlap")
        if remaining.n != self.budget.n - s_t:
            raise InvalidArgumentError(
                f"remaining set has {remaining.n} rows, expected {self.budget.n - s_t}")

    def _finish(self, w_t: np.ndarray, remaining: Dataset,
                elapsed: dict[str, float]) -> RoundOutcome:
        """Draw the output noise, then on checked rounds compare the residual
        with the threshold.  Only a residual compared and found below the
        threshold certifies a round."""
        t = self.t + 1
        w_pub = None
        if self.certify and self.perturbation == PERTURB_OUTPUT:
            tic = time.perf_counter()
            w_pub = output_perturb(w_t, self.budget, t, self.noise_rng)
            elapsed["noise"] = time.perf_counter() - tic
        outcome = RoundOutcome(t=t, w_internal=w_t, w_published=w_pub,
                               residual_norm=float("nan"), threshold=float("nan"),
                               certified=False, retrained=False, elapsed=elapsed)
        if t % self.check_every != 0:
            return outcome
        if not self.certify:
            threshold = float("nan")
        elif self.perturbation == PERTURB_OBJECTIVE:
            threshold = epsilon2_prime(self.budget)
        else:
            threshold = threshold1(self.budget, t)
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

    def _commit(self, outcome: RoundOutcome) -> RoundOutcome:
        self.t += 1
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
        """Run one deletion round.  weights=None means all ones.  A downdated
        Hessian below the lam/2 floor makes the round retrain exactly."""
        self._validate(deleted, remaining)
        elapsed: dict[str, float] = {}
        tic = time.perf_counter()
        g_v = weighted_gradient(self.w, deleted, weights, self.lam, self.loss, self.b)
        elapsed["gradient"] = time.perf_counter() - tic

        tic = time.perf_counter()
        H = hessian_downdate(self.H, self.w, deleted, remaining.n, self.lam, self.loss)
        elapsed["hessian"] = time.perf_counter() - tic

        tic = time.perf_counter()
        try:
            w_t = dvwu_newton_step(self.w, H, g_v, deleted.n, remaining.n,
                                   min_eig_floor=self.lam / 2.0)
        except IllConditionedHessianError as exc:
            elapsed["solve"] = time.perf_counter() - tic
            log.info("round %d: %s; retrained", self.t + 1, exc)
            tic = time.perf_counter()
            model = train(remaining, self.lam, self.loss, b=self.b, tol=self.train_tol)
            elapsed["certify"] = time.perf_counter() - tic
            self.H = model.H
            return self._commit(RoundOutcome(
                self.t + 1, model.w, None, residual_norm=float("nan"), threshold=float("nan"),
                certified=False, retrained=True, elapsed=elapsed))
        elapsed["solve"] = time.perf_counter() - tic

        outcome = self._finish(w_t, remaining, elapsed)
        if outcome.retrained:
            # Re-anchor the running Hessian at the retrained parameters.
            H = full_hessian(outcome.w_internal, remaining, self.lam, self.loss)
        self.H = H
        return self._commit(outcome)


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
        self.factor = cholesky_factor(model.H)

    def delete(self, deleted: Dataset, remaining: Dataset,
               weights: Mapping[int, float] | None = None) -> RoundOutcome:
        self._validate(deleted, remaining)
        tic = time.perf_counter()
        g = weighted_gradient(self.w, deleted, None, self.lam, self.loss, self.b)
        w_t = self.w + (deleted.n / remaining.n) * scipy.linalg.cho_solve(self.factor, g)
        elapsed = {"update": time.perf_counter() - tic}
        return self._commit(self._finish(w_t, remaining, elapsed))


class AscentUnlearner(Unlearner):
    """(Weighted) gradient ascent on the deleted batch, `steps` steps of size
    `eta` per round.  It publishes no noise and has no threshold, so no round
    is certified; the residual is still recorded on checked rounds.
    """

    certifies = False

    def __init__(self, model: ModelState, budget: CertBudget, *, eta: float = 0.01,
                 steps: int = 5, **kwargs):
        super().__init__(model, budget, **kwargs)
        self.eta = eta
        self.steps = steps

    def delete(self, deleted: Dataset, remaining: Dataset,
               weights: Mapping[int, float] | None = None) -> RoundOutcome:
        self._validate(deleted, remaining)
        tic = time.perf_counter()
        w_t = unlearn_gradient_ascent(self.w, deleted, weights, self.lam, self.loss,
                                      eta=self.eta, steps=self.steps, b=self.b)
        elapsed = {"gradient": time.perf_counter() - tic}
        return self._commit(self._finish(w_t, remaining, elapsed))


class RetrainUnlearner(Unlearner):
    """The reference: exact re-minimization on the remaining data every round.

    It trains the unperturbed objective and publishes no noise, whatever the
    perturbation mode, and has no threshold, so no round is certified; the
    residual is still recorded on checked rounds.  Weights are ignored.
    """

    certifies = False

    def __init__(self, model: ModelState, budget: CertBudget, **kwargs):
        super().__init__(model, budget, **kwargs)
        self.b = None

    def delete(self, deleted: Dataset, remaining: Dataset,
               weights: Mapping[int, float] | None = None) -> RoundOutcome:
        self._validate(deleted, remaining)
        tic = time.perf_counter()
        w_t = train(remaining, self.lam, self.loss, tol=self.train_tol).w
        elapsed = {"retrain": time.perf_counter() - tic}
        return self._commit(self._finish(w_t, remaining, elapsed))


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

