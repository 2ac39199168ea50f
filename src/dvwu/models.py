"""Regularized empirical risk minimization for linear models.

The objective is L(w; D) = (1/n) sum_i ell(w, z_i) + (lam/2) ||w||^2, with an
optional linear term b^T w used by objective perturbation.  Training runs a
limited-memory quasi-Newton minimizer and then polishes with damped exact
Newton steps until the gradient two-norm meets the requested tolerance.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from . import losses
from .dataset import Dataset
from .errors import ConvergenceError, IllConditionedHessianError, InvalidArgumentError
from .losses import LossKind

log = logging.getLogger(__name__)

_POLISH_CAP = 50


@dataclass(frozen=True)
class ModelState:
    """Trained parameters plus the Hessian anchored at them.

    ``H`` is the full objective Hessian at ``w`` on the training set, kept
    because the downdate recursion and the influence baseline both start from
    it.  ``b`` is the objective-perturbation vector the model was trained
    with, or None.
    """

    w: np.ndarray
    H: np.ndarray
    lam: float
    loss: LossKind
    b: np.ndarray | None = None

    def __post_init__(self):
        for arr in (self.w, self.H, self.b):
            if arr is not None:
                np.asarray(arr).setflags(write=False)


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float
    misclassification_cost: float


def loss_value(w: np.ndarray, data: Dataset, lam: float, loss: LossKind,
               b: np.ndarray | None = None) -> float:
    """Objective value L(w; data), plus b^T w when b is given."""
    _check_objective_args(data, lam)
    val = float(np.mean(losses.sample_losses(loss, w, data.features, data.labels)))
    val += 0.5 * lam * float(w @ w)
    if b is not None:
        val += float(b @ w)
    return val


def full_gradient(w: np.ndarray, data: Dataset, lam: float, loss: LossKind,
                  b: np.ndarray | None = None) -> np.ndarray:
    """Gradient of L(w; data) (plus b when given)."""
    _check_objective_args(data, lam)
    a = losses.gradient_coefficients(loss, w, data.features, data.labels)
    g = data.features.T @ a / data.n + lam * w
    if b is not None:
        g = g + b
    return g


def full_hessian(w: np.ndarray, data: Dataset, lam: float, loss: LossKind) -> np.ndarray:
    """Hessian of L(w; data); exactly symmetric and positive definite for lam > 0."""
    _check_objective_args(data, lam)
    c = losses.curvature_coefficients(loss, w, data.features, data.labels)
    H = (data.features.T * c) @ data.features / data.n
    H = 0.5 * (H + H.T) + lam * np.eye(data.d)
    return H


def cholesky_factor(H: np.ndarray):
    """scipy's Cholesky factor of H; a matrix that is not positive definite
    (or not finite) raises IllConditionedHessianError."""
    try:
        return scipy.linalg.cho_factor(H)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise IllConditionedHessianError(f"Hessian not positive definite enough: {exc}") from exc


def train(data: Dataset, lam: float, loss: LossKind, b: np.ndarray | None = None,
          tol: float = 1e-8, max_iter: int = 1000) -> ModelState:
    """Minimize L(w; data) (+ b^T w) to gradient two-norm <= tol.

    Deterministic for identical inputs.  Raises ConvergenceError, carrying the
    final residual, if the tolerance cannot be met within the iteration caps,
    and IllConditionedHessianError if a polish step's Hessian does not factor.
    """
    _check_objective_args(data, lam)
    if not tol > 0:
        raise InvalidArgumentError(f"tol must be positive, got {tol}")
    if b is not None and np.asarray(b).shape != (data.d,):
        raise InvalidArgumentError(f"b must have shape ({data.d},)")

    def fun_and_grad(w):
        return (loss_value(w, data, lam, loss, b),
                full_gradient(w, data, lam, loss, b))

    w0 = np.zeros(data.d)
    result = scipy.optimize.minimize(
        fun_and_grad, w0, jac=True, method="L-BFGS-B",
        options={"maxiter": max_iter, "maxfun": 10 * max_iter,
                 "ftol": 1e-16, "gtol": tol / (10.0 * np.sqrt(data.d))},
    )
    w = np.asarray(result.x, dtype=np.float64)

    # Damped Newton polish: the quasi-Newton stop test is on the max-norm, the
    # contract is on the two-norm.
    value = loss_value(w, data, lam, loss, b)
    grad = full_gradient(w, data, lam, loss, b)
    residual = float(np.linalg.norm(grad))
    for _ in range(_POLISH_CAP):
        if residual <= tol:
            break
        H = full_hessian(w, data, lam, loss)
        step = scipy.linalg.cho_solve(cholesky_factor(H), grad)
        scale = 1.0
        while scale > 1e-12:
            w_try = w - scale * step
            v_try = loss_value(w_try, data, lam, loss, b)
            if v_try <= value or np.linalg.norm(
                    full_gradient(w_try, data, lam, loss, b)) < residual:
                break
            scale *= 0.5
        w = w - scale * step
        value = loss_value(w, data, lam, loss, b)
        grad = full_gradient(w, data, lam, loss, b)
        residual = float(np.linalg.norm(grad))
    if residual > tol:
        raise ConvergenceError(
            f"training stopped at gradient norm {residual:.3e} > tol {tol:.3e}",
            residual=residual)
    return ModelState(w=w, H=full_hessian(w, data, lam, loss), lam=lam, loss=loss, b=b)


def evaluate(model_or_w, test: Dataset, cost_fp: float = 1.0, cost_fn: float = 1.0) -> Metrics:
    """Score sign(w^T x) predictions against +-1 labels; ties predict +1.

    Precision and recall are with respect to the +1 class and defined as 0
    when their denominator is empty.  The misclassification cost is
    (cost_fp * FP + cost_fn * FN) / n.
    """
    w = model_or_w.w if isinstance(model_or_w, ModelState) else np.asarray(model_or_w)
    if test.n < 1:
        raise InvalidArgumentError("evaluate() needs a non-empty test set")
    if cost_fp < 0 or cost_fn < 0:
        raise InvalidArgumentError("costs must be nonnegative")
    scores = test.features @ w
    pred = np.where(scores >= 0.0, 1.0, -1.0)
    y = test.labels
    tp = int(np.sum((pred == 1.0) & (y == 1.0)))
    fp = int(np.sum((pred == 1.0) & (y == -1.0)))
    fn = int(np.sum((pred == -1.0) & (y == 1.0)))
    correct = int(np.sum(pred == y))
    return Metrics(
        accuracy=correct / test.n,
        precision=tp / (tp + fp) if tp + fp else 0.0,
        recall=tp / (tp + fn) if tp + fn else 0.0,
        misclassification_cost=(cost_fp * fp + cost_fn * fn) / test.n,
    )


def _check_objective_args(data: Dataset, lam: float) -> None:
    if data.n < 1:
        raise InvalidArgumentError("objective needs at least one sample")
    if not lam > 0:
        raise InvalidArgumentError(f"lam must be positive, got {lam}")
