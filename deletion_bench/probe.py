"""Hooks placed on the package from outside it, around one `dvwu run` call.

Always installed (one wrapper call each, a few microseconds per round):

* `harness._sample_deletion`, called first in every round: a
  `perf_counter()` on entry ends the previous segment (set-up or round), the
  calibration kernels run, and a second `perf_counter()` starts the round;
  the wrapper also keeps the drawn ids and, in round 1, the training set it
  drew from;
* `harness._run_repetition`: its return ends the last round; the kernels
  run again before report writing starts;
* `cli.emit_report`: keeps the report (records, phases, trajectory);
* `valuation.knn_sv`, `ValueProfile.weights_for`, `NewtonUnlearner.delete`:
  keep the inputs and outputs the checks need.

With tracing on, every public function listed in `TRACED` is wrapped as well
and records a span (name, start, end, parent) in memory.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

import calib

perf_counter = time.perf_counter

# (module, attribute path) of each traced public function
TRACED = (
    ("data_io", "gen_synthetic"), ("data_io", "load_dataset_from_manifest"),
    ("data_io", "load_csv"), ("data_io", "split"), ("data_io", "standardize"),
    ("data_io", "StandardizeTransform.apply"), ("data_io", "max_row_norm"),
    ("data_io", "norm_bound"),
    ("models", "train"), ("models", "evaluate"),
    ("dataset", "Dataset.select"), ("dataset", "Dataset.drop"),
    ("valuation", "compute_values"), ("valuation", "knn_sv"),
    ("valuation", "weights_from_values"),
    ("valuation", "ValueProfile.from_initial_values"),
    ("valuation", "ValueProfile.with_values"), ("valuation", "ValueProfile.restrict"),
    ("valuation", "ValueProfile.weights_for"),
    ("unlearn", "NewtonUnlearner.delete"), ("unlearn", "weighted_gradient"),
    ("unlearn", "hessian_downdate"), ("unlearn", "dvwu_newton_step"),
    ("unlearn", "output_perturb"), ("unlearn", "certify_or_retrain"),
    ("unlearn", "gradient_residual"),
    ("harness", "emit_report"),
)


@dataclass
class Repetition:
    """What one `dvwu run` call left behind for the metrics and the checks."""

    start: float = 0.0
    end: float = 0.0
    round_starts: list = field(default_factory=list)
    round_ends: list = field(default_factory=list)    # set-up end, then each round's
    loop_end: float = 0.0
    report_start: float = 0.0
    wall_s: float = 0.0                               # calibration included
    # kernel seconds around the segments: before set-up, at each round start,
    # after the last round, after report writing
    cal_start: dict = field(default_factory=dict)
    cal_rounds: list = field(default_factory=list)
    cal_loop_end: dict = field(default_factory=dict)
    cal_end: dict = field(default_factory=dict)
    exit_code: int | None = None
    error: str | None = None
    train_set: object = None
    deleted_ids: list = field(default_factory=list)
    knn_calls: int = 0
    knn_kept: dict = field(default_factory=dict)      # call index -> (data, ref, values)
    profiles: list = field(default_factory=list)      # per round, see _weights_for
    engine_weights: list = field(default_factory=list)
    report: object = None
    spans: list = field(default_factory=list)         # (name, start, end, parent)
    span_extra: dict = field(default_factory=dict)    # span index -> {key: value}

    def setup_s(self, scaled: bool = False) -> float:
        seconds = self.round_ends[0] - self.start
        if scaled:
            return calib.scale(seconds, "array", self.cal_start, self.cal_rounds[0])
        return seconds

    def round_ms(self, kind: str | None = None) -> list[float]:
        """Round times; with a kernel kind, scaled to that kernel's nominal speed."""
        ends = self.round_ends[1:] + [self.loop_end]
        out = [1000.0 * (b - a) for a, b in zip(self.round_starts, ends)]
        if kind is None:
            return out
        cals = self.cal_rounds + [self.cal_loop_end]
        return [calib.scale(ms, kind, before, after)
                for ms, before, after in zip(out, cals, cals[1:])]

    def report_s(self, scaled: bool = False) -> float:
        seconds = self.end - self.report_start
        if scaled:
            return calib.scale(seconds, "array", self.cal_loop_end, self.cal_end)
        return seconds

    def rep_s(self, kind: str | None = None) -> float:
        """Set-up, rounds and report writing, the calibration between them left out."""
        scaled = kind is not None
        return (self.setup_s(scaled) + sum(self.round_ms(kind)) / 1000.0
                + self.report_s(scaled))


class Probe:
    """Installs the hooks, runs repetitions, and removes the hooks again."""

    def __init__(self, dvwu, *, trace: bool, keep_knn: dict[int, int],
                 checked_rounds: tuple[int, ...], round_kernel: str):
        self.dvwu = dvwu
        self.trace = trace
        self.round_kernel = round_kernel
        self.keep_knn = keep_knn
        self.checked_rounds = checked_rounds
        self.rep: Repetition | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- running ----------------------------------------------------------

    def run(self, config_path, out_dir) -> Repetition:
        rep = self.rep = Repetition()
        argv = ["run", "--config", str(config_path), "--out", str(out_dir)]
        sink = io.StringIO()
        if self.trace:
            self._stack.append(0)
            rep.spans.append(None)
        wall_start = perf_counter()
        rep.cal_start = calib.measure(("array",), 3)
        rep.start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rep.exit_code = self.dvwu.cli.main(argv)
        except Exception as exc:  # a crash is a failed repetition, not a failed run
            rep.error = f"{type(exc).__name__}: {exc}"
        rep.end = perf_counter()
        rep.cal_end = calib.measure(("array",), 3)
        rep.wall_s = perf_counter() - wall_start
        if self.trace:
            self._stack.pop()
            rep.spans[0] = ("run", rep.start, rep.end, -1)
        if rep.error is None and rep.exit_code != 0:
            rep.error = f"dvwu run exited {rep.exit_code}: {sink.getvalue().strip()}"
        self.rep = None
        return rep

    # -- installing -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        d = self.dvwu
        try:
            self._wrap_function(d.harness, "_sample_deletion", self._sample_deletion)
            self._wrap_function(d.harness, "_run_repetition", self._run_repetition)
            self._wrap_function(d.cli, "emit_report", self._emit_report)
            self._wrap_function(d.valuation, "knn_sv", self._knn_sv)
            self._wrap_method(d.valuation.ValueProfile, "weights_for", self._weights_for)
            self._wrap_method(d.unlearn.NewtonUnlearner, "delete", self._delete)
            if self.trace:
                for module, path in TRACED:
                    self._trace(getattr(d, module), module, path)
            yield self
        finally:
            for owner, attr, original in reversed(self._undo):
                setattr(owner, attr, original)
            self._undo.clear()

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "dvwu" or name.startswith("dvwu."))]

    def _wrap_function(self, module, name, make):
        """Replace a function in every package module that imported it."""
        original = getattr(module, name)
        wrapper = make(original)
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _wrap_method(self, cls, name, make):
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._undo.append((cls, name, raw))
        setattr(cls, name, wrapped)

    def _trace(self, module, module_name, path):
        span_name = f"{module_name}.{path.split('.')[-1]}"
        make = lambda fn: self._span(span_name, fn)  # noqa: E731
        if "." in path:
            cls_name, meth = path.split(".")
            self._wrap_method(getattr(module, cls_name), meth, make)
        else:
            self._wrap_function(module, path, make)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        stack = self._stack
        measure_alloc = name == "valuation.knn_sv"

        def wrapper(*args, **kwargs):
            rep = self.rep
            idx = len(rep.spans)
            rep.spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            if measure_alloc:
                tracemalloc.start()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if measure_alloc:
                    _, peak = tracemalloc.get_traced_memory()
                    tracemalloc.stop()
                    data, ref = args[0], args[1]
                    rep.span_extra[idx] = {"alloc_mb": peak / 2 ** 20,
                                           "pairs": data.n * ref.n}
                stack.pop()
                rep.spans[idx] = (name, t0, t1, parent)
        return wrapper

    def _sample_deletion(self, fn):
        def wrapper(cfg, rng, remaining, profile, m_t):
            rep = self.rep
            rep.round_ends.append(perf_counter())
            if rep.round_starts:
                rep.cal_rounds.append(calib.measure((self.round_kernel,)))
            else:   # also closes set-up, which the array kernel calibrates
                rep.cal_rounds.append(calib.measure(("array", self.round_kernel), 3))
            rep.round_starts.append(perf_counter())
            if rep.train_set is None:
                rep.train_set = remaining
            ids = fn(cfg, rng, remaining, profile, m_t)
            rep.deleted_ids.append(ids)
            return ids
        return wrapper

    def _run_repetition(self, fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                rep = self.rep
                rep.loop_end = perf_counter()
                rep.cal_loop_end = calib.measure(("array", self.round_kernel), 3)
                rep.report_start = perf_counter()
        return wrapper

    def _emit_report(self, fn):
        def wrapper(report, out_dir):
            self.rep.report = report
            return fn(report, out_dir)
        return wrapper

    def _knn_sv(self, fn):
        def wrapper(data, reference, k, *args, **kwargs):
            values = fn(data, reference, k, *args, **kwargs)
            rep = self.rep
            if rep.knn_calls in self.keep_knn:
                rep.knn_kept[rep.knn_calls] = (data, reference, values)
            rep.knn_calls += 1
            return values
        return wrapper

    def _weights_for(self, fn):
        def wrapper(profile, ids):
            out = fn(profile, ids)
            t = len(self.rep.round_starts)
            q = [profile.q[int(i)] for i in ids]
            full = profile.q if t in self.checked_rounds else None
            self.rep.profiles.append((t, list(ids), q, profile.q_min_plus, full))
            return out
        return wrapper

    def _delete(self, fn):
        def wrapper(engine, deleted, remaining, weights=None):
            rep = self.rep
            rep.engine_weights.append((len(rep.round_starts), deleted.ids, weights))
            return fn(engine, deleted, remaining, weights)
        return wrapper
