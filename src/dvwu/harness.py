"""Continuous-deletion experiments: configuration, execution, reporting.

A run repeats the same protocol R times with per-repetition seeds
base_seed + repetition: draw (or load) data, split, standardize with training
statistics, bound row norms, train, then delete m samples per round for T
rounds with the configured method, certifying and scoring against the fixed
test split after every round.  Repetitions are independent and the per-round
records aggregate into mean/std tables.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import statistics
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .data_io import (SplitResult, SynthConfig, gen_synthetic,
                      load_dataset_from_manifest, max_row_norm, norm_bound,
                      split, standardize)
from .dataset import Dataset
from .errors import InvalidArgumentError, UnlearnError
from .losses import LossKind
from .models import Metrics, ModelState, evaluate, train
from .unlearn import (AscentUnlearner, CertBudget, InfluenceUnlearner,
                      NewtonUnlearner, PERTURB_NONE, PERTURB_OBJECTIVE,
                      PERTURB_OUTPUT, RetrainUnlearner, RoundOutcome, Unlearner,
                      epsilon2_prime, gauss_constant, objective_perturb_setup,
                      threshold1)
from .valuation import (DYNAMIC, KNN_SHAPLEY, LEAVE_ONE_OUT, STATIC,
                        KnnRankCache, ValuationMethod, ValueProfile,
                        compute_values, load_values_csv)

log = logging.getLogger(__name__)

METHOD_RETRAIN = "retrain"
METHOD_NEWTON = "newton"
METHOD_INFLUENCE = "influence"
METHOD_GA = "gradient-ascent"
METHOD_WGA = "weighted-ga"
METHOD_DVWU_K = "dvwu-k"
METHOD_DVWU_L = "dvwu-l"
METHOD_DVWU_DK = "dvwu-dk"
METHOD_DVWU_DL = "dvwu-dl"

METHODS = (METHOD_RETRAIN, METHOD_NEWTON, METHOD_INFLUENCE, METHOD_GA,
           METHOD_WGA, METHOD_DVWU_K, METHOD_DVWU_L, METHOD_DVWU_DK, METHOD_DVWU_DL)

_METHOD_ALIASES = {m.replace("-", ""): m for m in METHODS}
_METHOD_ALIASES.update({"gradienta": METHOD_GA, "ga": METHOD_GA, "wga": METHOD_WGA})

# static knn / loo and their per-round-recomputing variants
_DVWU_VALUATION = {
    METHOD_DVWU_K: (KNN_SHAPLEY, STATIC),
    METHOD_DVWU_L: (LEAVE_ONE_OUT, STATIC),
    METHOD_DVWU_DK: (KNN_SHAPLEY, DYNAMIC),
    METHOD_DVWU_DL: (LEAVE_ONE_OUT, DYNAMIC),
}

DELETE_UNIFORM = "uniform"
DELETE_HIGH_VALUE = "high-value-first"
DELETE_LOW_VALUE = "low-value-first"
_DELETION_STRATEGIES = (DELETE_UNIFORM, DELETE_HIGH_VALUE, DELETE_LOW_VALUE)


def normalize_method(name: str) -> str:
    key = name.strip().lower().replace("-", "").replace("_", "")
    if key not in _METHOD_ALIASES:
        raise InvalidArgumentError(
            f"unknown method {name!r}; expected one of {', '.join(METHODS)}")
    return _METHOD_ALIASES[key]


@dataclass
class ExperimentConfig:
    """Everything a continuous-deletion run needs; serializable to/from text."""

    method: str = METHOD_DVWU_K
    perturbation: str = PERTURB_NONE
    loss: str = "logistic"
    gamma: float = 2.0
    lam: float = 1e-3
    epsilon: float = 1.0
    delta: float = 1e-4
    rounds: int = 15
    deletions_per_round: int | list[int] = 1000
    repetitions: int = 1
    base_seed: int = 0
    check_every: int = 1
    alpha: float = 0.5
    k: int = 5
    zero_tol: float = 1e-9
    ga_eta: float = 0.01
    ga_steps: int = 5
    ga_valuation: str = KNN_SHAPLEY
    ga_valuation_mode: str = STATIC
    train_fraction: float = 0.7
    val_fraction: float = 0.1
    fresh_data_per_rep: bool = True
    score_published: bool = False
    cost_fp: float = 1.0
    cost_fn: float = 1.0
    train_tol: float = 1e-8
    deletion_strategy: str = DELETE_UNIFORM
    synth: SynthConfig | None = None
    data_manifest: str | None = None
    values_path: str | None = None

    def __post_init__(self):
        self.method = normalize_method(self.method)
        if self.perturbation not in (PERTURB_NONE, PERTURB_OUTPUT, PERTURB_OBJECTIVE):
            raise InvalidArgumentError(f"unknown perturbation {self.perturbation!r}")
        if self.deletion_strategy not in _DELETION_STRATEGIES:
            raise InvalidArgumentError(
                f"unknown deletion strategy {self.deletion_strategy!r}")
        if self.rounds < 1:
            raise InvalidArgumentError(f"rounds must be >= 1, got {self.rounds}")
        if self.repetitions < 1:
            raise InvalidArgumentError(f"repetitions must be >= 1, got {self.repetitions}")
        if isinstance(self.deletions_per_round, (list, tuple)):
            sched = [int(m) for m in self.deletions_per_round]
            if len(sched) != self.rounds:
                raise InvalidArgumentError(
                    f"deletion schedule has {len(sched)} entries for {self.rounds} rounds")
            if any(m < 1 for m in sched):
                raise InvalidArgumentError("every deletion size must be >= 1")
            self.deletions_per_round = sched
        elif self.deletions_per_round < 1:
            raise InvalidArgumentError(
                f"deletions_per_round must be >= 1, got {self.deletions_per_round}")
        if (self.synth is None) == (self.data_manifest is None):
            raise InvalidArgumentError(
                "config needs exactly one data source: synth parameters or a manifest")

    def schedule(self) -> list[int]:
        if isinstance(self.deletions_per_round, list):
            return list(self.deletions_per_round)
        return [int(self.deletions_per_round)] * self.rounds

    def loss_kind(self) -> LossKind:
        return LossKind.from_name(self.loss, gamma=self.gamma)

    def valuation_method(self) -> ValuationMethod | None:
        if self.method in _DVWU_VALUATION:
            kind, mode = _DVWU_VALUATION[self.method]
            return ValuationMethod(kind=kind, mode=mode, k=self.k)
        if self.method == METHOD_WGA:
            return ValuationMethod(kind=self.ga_valuation, mode=self.ga_valuation_mode,
                                   k=self.k)
        return None

    def to_dict(self) -> dict:
        out = asdict(self)
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        raw = dict(raw)
        synth = raw.pop("synth", None)
        fields = cls.__dataclass_fields__
        unknown = set(raw) - set(fields)
        if unknown:
            raise InvalidArgumentError(f"unknown config keys: {sorted(unknown)}")
        raw = {key: _json_value(key, value, optional=fields[key].default is None)
               for key, value in raw.items()}
        try:
            if isinstance(synth, dict):
                synth = SynthConfig(**{name: _json_value(f"synth.{name}", value, optional=False)
                                       for name, value in synth.items()})
            elif synth is not None and not isinstance(synth, SynthConfig):
                raise InvalidArgumentError(f"synth must be an object, got {synth!r}")
            return cls(synth=synth, **raw)
        except TypeError as exc:    # an unknown or missing synth key
            raise InvalidArgumentError(f"bad config: {exc}") from None


@dataclass(frozen=True)
class RoundRecord:
    """One row of the raw results table."""

    repetition: int
    t: int
    residual: float
    threshold: float
    certified: bool
    retrained: bool
    accuracy: float
    precision: float
    recall: float
    cost: float
    elapsed_ms: float
    phases: dict[str, float] = field(default_factory=dict, compare=False)


@dataclass
class RepetitionResult:
    repetition: int
    seed: int
    records: list[RoundRecord] = field(default_factory=list)
    trajectory: list[np.ndarray] = field(default_factory=list)
    initial_metrics: Metrics | None = None
    error: str | None = None
    budget: CertBudget | None = None    # set once the repetition built it
    # wall seconds of the set-up parts that ran: prepare, train, valuation
    setup_s: dict[str, float] = field(default_factory=dict)


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    repetitions: list[RepetitionResult]
    constants: dict[str, float | list[float]]

    @property
    def records(self) -> list[RoundRecord]:
        return [rec for rep in self.repetitions for rec in rep.records]


# ---------------------------------------------------------------------------
# execution


def run_continuous_deletion(cfg: ExperimentConfig) -> ExperimentReport:
    """Run every repetition; a failing repetition is recorded, not fatal."""
    reps: list[RepetitionResult] = []
    for rep in range(cfg.repetitions):
        seed = cfg.base_seed + rep
        result = RepetitionResult(repetition=rep, seed=seed)
        try:
            _run_repetition(cfg, rep, result)
        except UnlearnError as exc:
            result.error = f"{type(exc).__name__}: {exc}"
            log.warning("repetition %d failed: %s", rep, result.error)
        reps.append(result)
    budget = next((rep.budget for rep in reps if rep.budget is not None), None)
    return ExperimentReport(config=cfg, repetitions=reps,
                            constants=_constants(cfg, budget))


def _constants(cfg: ExperimentConfig, budget: CertBudget | None) -> dict:
    """The certification constants, with the thresholds of the budget a
    repetition built (none if every repetition failed before building one)."""
    loss = cfg.loss_kind()
    out: dict = {"C": loss.C, "beta": loss.beta, "gauss_constant": gauss_constant(cfg.delta)}
    if budget is not None:
        out["thresholds"] = [threshold1(budget, t)
                             for t in range(1, len(budget.schedule) + 1)]
        out["epsilon2_prime"] = epsilon2_prime(budget)
    return out


def _effective_val_fraction(cfg: ExperimentConfig) -> float:
    vm = cfg.valuation_method()
    needs_validation = vm is not None and vm.kind == LEAVE_ONE_OUT
    return cfg.val_fraction if needs_validation else 0.0


def _make_budget(cfg: ExperimentConfig, n: int) -> CertBudget:
    loss = cfg.loss_kind()
    return CertBudget(epsilon=cfg.epsilon, delta=cfg.delta, C=loss.C, beta=loss.beta,
                      schedule=tuple(cfg.schedule()), n=n, lam=cfg.lam)


def _prepare_data(cfg: ExperimentConfig, data_seed: int) -> SplitResult:
    if cfg.synth is not None:
        base = gen_synthetic(replace(cfg.synth, seed=data_seed))
    else:
        base = load_dataset_from_manifest(cfg.data_manifest)
    parts = split(base, cfg.train_fraction, seed=data_seed,
                  val_fraction=_effective_val_fraction(cfg))
    train_std, transform = standardize(parts.train)
    scale = max(1.0, max_row_norm(train_std))
    bound = norm_bound(train_std, scale)
    val = (norm_bound(transform.apply(parts.validation), scale)
           if parts.validation is not None else None)
    test = norm_bound(transform.apply(parts.test), scale)
    return SplitResult(train=bound, validation=val, test=test)


def _run_repetition(cfg: ExperimentConfig, rep: int, result: RepetitionResult) -> None:
    seed = result.seed
    if cfg.synth is not None:
        data_seed = cfg.synth.seed + (rep if cfg.fresh_data_per_rep else 0)
    else:
        # the file is fixed; only the split can be redrawn per repetition
        data_seed = seed if cfg.fresh_data_per_rep else cfg.base_seed
    delete_rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    noise_rng = np.random.default_rng(np.random.SeedSequence([seed, 202]))

    tic = time.perf_counter()
    parts = _prepare_data(cfg, data_seed)
    result.setup_s["prepare"] = time.perf_counter() - tic
    train_set, test_set = parts.train, parts.test
    loss = cfg.loss_kind()
    budget = result.budget = _make_budget(cfg, n=train_set.n)

    b = None
    if cfg.perturbation == PERTURB_OBJECTIVE:
        b = objective_perturb_setup(budget, train_set.d, noise_rng)
    tic = time.perf_counter()
    model = train(train_set, cfg.lam, loss, b=b, tol=cfg.train_tol)
    result.setup_s["train"] = time.perf_counter() - tic
    result.initial_metrics = evaluate(model, test_set, cfg.cost_fp, cfg.cost_fn)
    result.trajectory.append(np.array(model.w))

    vm = cfg.valuation_method()
    utility_set = parts.validation if (vm is not None and vm.kind == LEAVE_ONE_OUT) else test_set
    # dynamic k-NN values are refreshed every round on ever fewer rows, so
    # the per-reference distance order is computed once and then filtered
    knn_cache = (KnnRankCache() if vm is not None and vm.kind == KNN_SHAPLEY
                 and vm.mode == DYNAMIC else None)
    profile: ValueProfile | None = None
    tic = time.perf_counter()
    if cfg.values_path is not None:
        profile = load_values_csv(cfg.values_path, alpha=cfg.alpha, zero_tol=cfg.zero_tol)
    elif vm is not None:
        q = compute_values(vm, train_set, utility_set, cfg.lam, loss, tol=cfg.train_tol,
                           cache=knn_cache)
        profile = ValueProfile.from_initial_values(q, alpha=cfg.alpha, zero_tol=cfg.zero_tol)
    if profile is not None:
        result.setup_s["valuation"] = time.perf_counter() - tic

    unlearner = _make_unlearner(cfg, model, budget, noise_rng)
    remaining = train_set
    for t, m_t in enumerate(budget.schedule, start=1):
        deleted_ids = _sample_deletion(cfg, delete_rng, remaining, profile, m_t)
        deleted = remaining.select(deleted_ids)
        next_remaining = remaining.drop(deleted_ids)

        weights = profile.weights_for(deleted_ids) if (profile is not None and
                                                       cfg.method != METHOD_NEWTON) else None
        outcome = unlearner.delete(deleted, next_remaining, weights)

        score_w = outcome.w_published if (cfg.score_published and
                                          outcome.w_published is not None) else outcome.w_internal
        metrics = evaluate(score_w, test_set, cfg.cost_fp, cfg.cost_fn)
        result.records.append(RoundRecord(
            repetition=rep, t=t, residual=outcome.residual_norm,
            threshold=outcome.threshold, certified=outcome.certified,
            retrained=outcome.retrained, accuracy=metrics.accuracy,
            precision=metrics.precision, recall=metrics.recall,
            cost=metrics.misclassification_cost, elapsed_ms=outcome.elapsed_ms,
            phases=dict(outcome.elapsed)))
        result.trajectory.append(np.array(outcome.w_internal))

        if profile is not None:
            profile = _update_profile(cfg, vm, profile, outcome, next_remaining,
                                      utility_set, loss, knn_cache)
        remaining = next_remaining


def _sample_deletion(cfg: ExperimentConfig, rng: np.random.Generator,
                     remaining: Dataset, profile: ValueProfile | None,
                     m_t: int) -> np.ndarray:
    if cfg.deletion_strategy == DELETE_UNIFORM:
        return rng.choice(remaining.ids, size=m_t, replace=False)
    if profile is None:
        raise InvalidArgumentError(
            f"deletion strategy {cfg.deletion_strategy} needs a value profile")
    ids = remaining.ids
    q = np.array([profile.q[i] for i in ids.tolist()])
    ranked = ids[np.lexsort((ids, q))]     # ties broken by ascending id
    chosen = ranked[-m_t:] if cfg.deletion_strategy == DELETE_HIGH_VALUE else ranked[:m_t]
    return np.sort(chosen)


def _make_unlearner(cfg: ExperimentConfig, model: ModelState, budget: CertBudget,
                    noise_rng: np.random.Generator) -> Unlearner:
    """The unlearner for cfg.method, starting from the trained model."""
    common = dict(perturbation=cfg.perturbation, noise_rng=noise_rng,
                  train_tol=cfg.train_tol, check_every=cfg.check_every)
    if cfg.method == METHOD_RETRAIN:
        return RetrainUnlearner(model, budget, **common)
    if cfg.method == METHOD_INFLUENCE:
        return InfluenceUnlearner(model, budget, **common)
    if cfg.method in (METHOD_GA, METHOD_WGA):
        return AscentUnlearner(model, budget, eta=cfg.ga_eta, steps=cfg.ga_steps, **common)
    return NewtonUnlearner(model, budget, **common)


def _update_profile(cfg: ExperimentConfig, vm: ValuationMethod | None,
                    profile: ValueProfile, outcome: RoundOutcome,
                    remaining: Dataset, utility_set: Dataset, loss: LossKind,
                    knn_cache: KnnRankCache | None = None) -> ValueProfile:
    """Per-round refresh of the profile after a deletion.

    Values are recomputed on the remaining data after a retrained round
    (certification failed) and in dynamic mode; otherwise the carried values
    are restricted to the remaining ids.  The q_min_plus anchor never moves.
    """
    if vm is not None and (outcome.retrained or vm.mode == DYNAMIC):
        q = compute_values(vm, remaining, utility_set, cfg.lam, loss, tol=cfg.train_tol,
                           cache=knn_cache)
        return profile.with_values(q)
    return profile.restrict(remaining.ids)


# ---------------------------------------------------------------------------
# aggregation and reports

_METRIC_COLUMNS = ("residual", "threshold", "accuracy", "precision", "recall",
                   "cost", "elapsed_ms")


def aggregate_rounds(records: list[RoundRecord]) -> list[dict]:
    """Per-round mean/std across repetitions, plus certification counts."""
    by_t: dict[int, list[RoundRecord]] = {}
    for rec in records:
        by_t.setdefault(rec.t, []).append(rec)
    rows = []
    for t in sorted(by_t):
        group = by_t[t]
        row: dict = {"t": t, "n_reps": len(group),
                     "certified": sum(r.certified for r in group),
                     "retrained": sum(r.retrained for r in group)}
        for col in _METRIC_COLUMNS:
            values = [getattr(r, col) for r in group]
            finite = [v for v in values if not math.isnan(v)]
            row[f"mean_{col}"] = statistics.fmean(finite) if finite else float("nan")
            row[f"std_{col}"] = (statistics.stdev(finite) if len(finite) > 1
                                 else (0.0 if finite else float("nan")))
        rows.append(row)
    return rows


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    return str(value)


def emit_report(report: ExperimentReport, out_dir) -> dict[str, str]:
    """Write rounds.csv, aggregate.csv, timings.csv, and manifest.json.

    Everything except timing fields is byte-reproducible for the same config
    and seed.  The manifest holds the full config, so `dvwu run --config
    manifest.json` replays the experiment.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name) for name in
             ("rounds.csv", "aggregate.csv", "timings.csv", "manifest.json")}

    with open(paths["rounds.csv"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["repetition", "t", "residual", "threshold", "certified",
                         "retrained", "accuracy", "precision", "recall", "cost",
                         "elapsed_ms"])
        for rec in report.records:
            writer.writerow([_fmt(getattr(rec, col)) for col in
                             ("repetition", "t", "residual", "threshold", "certified",
                              "retrained", "accuracy", "precision", "recall", "cost",
                              "elapsed_ms")])

    write_aggregate_csv(aggregate_rounds(report.records), paths["aggregate.csv"])

    samples: dict[str, list[float]] = {}
    for rec in report.records:
        for phase, sec in rec.phases.items():
            samples.setdefault(phase, []).append(sec)
    samples = dict(sorted(samples.items()))
    # set-up rows follow the round phases; their count is of repetitions
    for rep in report.repetitions:
        for part, sec in rep.setup_s.items():
            samples.setdefault(f"setup.{part}", []).append(sec)
    with open(paths["timings.csv"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "phase", "median_s", "rounds"])
        for phase, secs in samples.items():
            writer.writerow([report.config.method, phase,
                             repr(statistics.median(secs)), len(secs)])

    manifest = {
        "package_version": __version__,
        "config": report.config.to_dict(),
        "constants": report.constants,
        "repetition_seeds": [rep.seed for rep in report.repetitions],
        "errors": {rep.repetition: rep.error for rep in report.repetitions
                   if rep.error is not None},
        "initial_metrics": {
            rep.repetition: asdict(rep.initial_metrics)
            for rep in report.repetitions if rep.initial_metrics is not None},
    }
    with open(paths["manifest.json"], "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def write_aggregate_csv(rows: list[dict], path) -> None:
    header = ["t", "n_reps", "certified", "retrained"]
    for col in _METRIC_COLUMNS:
        header += [f"mean_{col}", f"std_{col}"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[h]) for h in header])


def read_rounds_csv(path) -> list[RoundRecord]:
    """Parse a rounds.csv back into records (for the report subcommand)."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            records.append(RoundRecord(
                repetition=int(row["repetition"]), t=int(row["t"]),
                residual=float(row["residual"]) if row["residual"] else float("nan"),
                threshold=float(row["threshold"]) if row["threshold"] else float("nan"),
                certified=row["certified"] == "true",
                retrained=row["retrained"] == "true",
                accuracy=float(row["accuracy"]), precision=float(row["precision"]),
                recall=float(row["recall"]), cost=float(row["cost"]),
                elapsed_ms=float(row["elapsed_ms"]) if row["elapsed_ms"] else float("nan")))
    return records


# ---------------------------------------------------------------------------
# config files

_BOOL_FIELDS = {"fresh_data_per_rep", "score_published"}
_INT_FIELDS = {"rounds", "repetitions", "base_seed", "check_every", "k", "ga_steps"}
_STR_FIELDS = {"method", "perturbation", "loss", "ga_valuation", "ga_valuation_mode",
               "deletion_strategy", "data_manifest", "values_path"}
_SYNTH_INT_FIELDS = {"n", "d_informative", "d_redundant", "seed"}
_FLOAT_MAX = int(np.finfo(np.float64).max)   # a larger JSON int has no float
_KIND_NAMES = {"bool": "true or false", "int": "an integer", "str": "a string",
               "float": "a number", "schedule": "an integer or a list of integers"}


def _field_kind(key: str) -> str:
    """How a config key's value is parsed: bool, int, str, float or schedule;
    synth parameters are keyed 'synth.<name>'."""
    if key.startswith("synth."):
        return "int" if key[len("synth."):] in _SYNTH_INT_FIELDS else "float"
    if key == "deletions_per_round":
        return "schedule"
    if key in _BOOL_FIELDS:
        return "bool"
    if key in _INT_FIELDS:
        return "int"
    return "str" if key in _STR_FIELDS else "float"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _json_value(key: str, value, optional: bool):
    """A JSON config value checked against its key's kind.  A JSON int is
    taken for a float (and converted), a bool for no number; None only for
    optional keys."""
    if value is None and optional:
        return None
    kind = _field_kind(key)
    if kind == "schedule":
        ok = _is_int(value) or (isinstance(value, list) and all(map(_is_int, value)))
    elif kind == "float":
        ok = isinstance(value, float) or (_is_int(value) and abs(value) <= _FLOAT_MAX)
        value = float(value) if ok else value
    elif kind == "int":
        ok = _is_int(value)
    else:
        ok = isinstance(value, bool if kind == "bool" else str)
    if not ok:
        raise InvalidArgumentError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def load_experiment_config(path) -> ExperimentConfig:
    """Read an experiment config: 'key = value' text, or an emitted manifest
    (JSON with a 'config' object), chosen by content."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidArgumentError(f"cannot open config {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidArgumentError(f"{path}: invalid JSON: {exc}") from exc
        try:
            return ExperimentConfig.from_dict(raw.get("config", raw))
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(f"{path}: {exc}") from None
    return parse_experiment_config(text, source=str(path))


def parse_experiment_config(text: str, source: str = "<config>") -> ExperimentConfig:
    raw: dict = {}
    synth: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidArgumentError(f"{source}: line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        in_synth = key.startswith("synth.")
        name = key[len("synth."):] if in_synth else key
        if name not in (SynthConfig if in_synth else ExperimentConfig).__dataclass_fields__:
            raise InvalidArgumentError(f"{source}: line {lineno}: unknown key {key!r}")
        kind = _field_kind(key)
        if kind == "bool" and value.lower() not in ("true", "false"):
            raise InvalidArgumentError(f"{source}: line {lineno}: {key} must be true or false")
        try:
            if kind == "schedule":
                parts = [int(v) for v in value.split(",") if v.strip()]
                parsed = parts[0] if len(parts) == 1 else parts
            elif kind == "bool":
                parsed = value.lower() == "true"
            elif kind == "int":
                parsed = int(value)
            elif kind == "str":
                parsed = value
            else:
                parsed = float(value)
        except ValueError as exc:
            raise InvalidArgumentError(f"{source}: line {lineno}: {key}: {exc}") from None
        (synth if in_synth else raw)[name] = parsed
    try:
        if synth:
            raw["synth"] = SynthConfig(**synth)
        return ExperimentConfig(**raw)
    except TypeError as exc:
        raise InvalidArgumentError(f"{source}: {exc}") from exc


# ---------------------------------------------------------------------------
# efficiency benchmark

BENCH_METHODS = (METHOD_RETRAIN, METHOD_NEWTON, METHOD_INFLUENCE, METHOD_GA,
                 METHOD_DVWU_K)


@dataclass
class BenchResult:
    method: str
    total_s: float
    phases: dict[str, float]
    trials: int
    setup_valuation_s: float = 0.0


def run_efficiency_bench(cfg: ExperimentConfig, deletion_size: int | None = None,
                         methods: tuple[str, ...] = BENCH_METHODS, trials: int = 10,
                         warmup: int = 2) -> list[BenchResult]:
    """Median wall time of one deletion round, per method.

    Every trial builds a fresh unlearner for each method, the same one
    `dvwu run` builds, and times one delete() of a fixed batch: the update,
    the output-noise draw and the certification check (every round is
    checked here); the phases come from RoundOutcome.elapsed.  The shared
    setup (training, static values and weights for the weighted methods)
    stays outside the timed region.  Within a trial the methods run back to
    back, so a drift in host speed reaches all of them alike; retrain runs
    its trials in a pass of its own after the others.  Gradient ascent is
    timed at a single step, its cheapest useful form.
    """
    if trials < 1:
        raise InvalidArgumentError(f"trials must be >= 1, got {trials}")
    loss = cfg.loss_kind()
    parts = _prepare_data(cfg, cfg.synth.seed if cfg.synth is not None else cfg.base_seed)
    train_set, test_set = parts.train, parts.test
    m = int(deletion_size if deletion_size is not None else cfg.schedule()[0])
    budget = _make_budget(replace(cfg, rounds=1, deletions_per_round=m), n=train_set.n)
    noise_rng = np.random.default_rng(np.random.SeedSequence([cfg.base_seed, 404]))
    b = (objective_perturb_setup(budget, train_set.d, noise_rng)
         if cfg.perturbation == PERTURB_OBJECTIVE else None)
    model = train(train_set, cfg.lam, loss, b=b, tol=cfg.train_tol)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.base_seed, 303]))
    deleted_ids = rng.choice(train_set.ids, size=m, replace=False)
    deleted = train_set.select(deleted_ids)
    remaining = train_set.drop(deleted_ids)

    configs = [replace(cfg, method=method, ga_steps=1, check_every=1) for method in methods]
    weights, valuation_s = [None] * len(configs), [0.0] * len(configs)
    for i, vm in enumerate(mcfg.valuation_method() for mcfg in configs):
        if vm is not None:
            tic = time.perf_counter()
            q = compute_values(replace(vm, mode=STATIC), train_set, test_set, cfg.lam, loss,
                               tol=cfg.train_tol)
            profile = ValueProfile.from_initial_values(q, alpha=cfg.alpha,
                                                       zero_tol=cfg.zero_tol)
            valuation_s[i] = time.perf_counter() - tic
            weights[i] = profile.weights_for(deleted.ids)

    # Retraining keeps the BLAS threads busy for tens of milliseconds, and on two
    # cores the rounds timed right after it often stall; it gets a pass of its own.
    samples: list[list[dict[str, float]]] = [[] for _ in configs]
    for retrain_pass in (False, True):
        group = [i for i, c in enumerate(configs) if (c.method == METHOD_RETRAIN) == retrain_pass]
        for trial in range(warmup + trials):
            for i in group:
                unlearner = _make_unlearner(configs[i], model, budget, noise_rng)
                outcome = unlearner.delete(deleted, remaining, weights[i])
                if trial >= warmup:
                    samples[i].append(outcome.elapsed)
    results = []
    for mcfg, setup_s, kept in zip(configs, valuation_s, samples):
        med_phases = {ph: statistics.median(p[ph] for p in kept) for ph in kept[0]}
        results.append(BenchResult(method=mcfg.method,
                                   total_s=statistics.median(sum(p.values()) for p in kept),
                                   phases=med_phases, trials=len(kept),
                                   setup_valuation_s=setup_s))
    return results


def write_bench_csv(results: list[BenchResult], path) -> None:
    phases = sorted({ph for r in results for ph in r.phases})
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "total_s", "trials", "setup_valuation_s"]
                        + [f"{p}_s" for p in phases])
        for r in results:
            writer.writerow([r.method, repr(r.total_s), r.trials,
                             repr(r.setup_valuation_s)]
                            + [repr(r.phases[p]) if p in r.phases else "" for p in phases])
