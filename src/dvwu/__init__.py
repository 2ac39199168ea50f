"""Data value-weighted certified unlearning for convex linear models.

The package trains L2-regularized linear classifiers, values their training
samples (leave-one-out or exact k-NN Shapley), and removes batches of samples
with single weighted Newton steps whose strength per sample is set by its
value.  Gaussian output or objective perturbation plus a gradient-residual
certification check make the deletions (epsilon, delta)-certified, with exact
retraining as the fallback.  A harness runs continuous-deletion experiments
and efficiency benchmarks against retraining, influence-function, and
gradient-ascent baselines.
"""

__version__ = "0.1.0"

from .dataset import Dataset
from .errors import (BudgetExhaustedError, ConvergenceError, DataLoadError,
                     IllConditionedHessianError, InvalidArgumentError,
                     UnlearnError)
from .losses import LossKind
from .models import (Metrics, ModelState, evaluate, full_gradient, full_hessian,
                     loss_value, train)
from .valuation import (KnnRankCache, ValuationMethod, ValueProfile, knn_sv,
                        loo_values, weights_from_values)
from .unlearn import (AscentUnlearner, CertBudget, InfluenceUnlearner,
                      NewtonUnlearner, RetrainUnlearner, RoundOutcome,
                      Unlearner, certify_or_retrain, dvwu_newton_step,
                      epsilon1_prime, epsilon2_prime, gauss_constant,
                      gradient_residual, hessian_downdate,
                      objective_perturb_setup, output_perturb, threshold1,
                      unlearn_gradient_ascent, weighted_gradient)
from .data_io import (SynthConfig, gen_synthetic, load_csv, norm_bound, split,
                      standardize)
from .harness import (ExperimentConfig, ExperimentReport, emit_report,
                      run_continuous_deletion, run_efficiency_bench)

__all__ = [
    "Dataset",
    "BudgetExhaustedError", "ConvergenceError", "DataLoadError",
    "IllConditionedHessianError", "InvalidArgumentError", "UnlearnError",
    "LossKind",
    "Metrics", "ModelState", "evaluate", "full_gradient", "full_hessian",
    "loss_value", "train",
    "KnnRankCache", "ValuationMethod", "ValueProfile", "knn_sv", "loo_values",
    "weights_from_values",
    "AscentUnlearner", "CertBudget", "InfluenceUnlearner", "NewtonUnlearner",
    "RetrainUnlearner", "RoundOutcome", "Unlearner", "certify_or_retrain",
    "dvwu_newton_step", "epsilon1_prime", "epsilon2_prime", "gauss_constant",
    "gradient_residual", "hessian_downdate", "objective_perturb_setup",
    "output_perturb", "threshold1", "unlearn_gradient_ascent",
    "weighted_gradient",
    "SynthConfig", "gen_synthetic", "load_csv", "norm_bound", "split",
    "standardize",
    "ExperimentConfig", "ExperimentReport", "emit_report",
    "run_continuous_deletion", "run_efficiency_bench",
]
