"""Per-layer metrics from the spans of a traced run.

A span's self time is its duration minus the durations of its direct
children (children of one call never overlap).  A span belongs to the round
in which it started; rounds are the intervals between consecutive
round-boundary timestamps.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# engine phase name in RoundRecord.phases -> span that times the same call
PHASES = {"gradient": "unlearn.weighted_gradient", "hessian": "unlearn.hessian_downdate",
          "solve": "unlearn.dvwu_newton_step", "noise": "unlearn.output_perturb",
          "certify": "unlearn.certify_or_retrain"}
DATA_IO = "data_io."
PROFILE = ("valuation.from_initial_values", "valuation.with_values",
           "valuation.restrict", "valuation.weights_for")
SELECT_DROP = ("dataset.select", "dataset.drop")

PER_ROUND = {
    "models.evaluate_ms": ("models.evaluate",),
    "dataset.select_drop_ms": SELECT_DROP,
    "valuation.profile_ms": PROFILE,
    "unlearn.delete_ms": ("unlearn.delete",),
    **{f"unlearn.{phase}_ms": (span,) for phase, span in PHASES.items()},
}
PHASE_GAP_MS = 0.05


def _median(values):
    return statistics.median(values) if values else 0.0


class RepetitionSpans:
    """Index over the spans of one repetition."""

    def __init__(self, rep):
        self.spans = rep.spans
        self.extra = rep.span_extra
        self.children = defaultdict(list)
        for idx, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                self.children[parent].append(idx)
        bounds = rep.round_starts + [rep.loop_end]
        self.bounds = bounds
        self.round_of = {}
        r = 0
        for idx in sorted(range(1, len(self.spans)), key=lambda i: self.spans[i][1]):
            start = self.spans[idx][1]
            while r < len(bounds) and bounds[r] <= start:
                r += 1
            # r - 1 is the round index (0-based); -1 before round 1, len-1 after
            if 1 <= r < len(bounds):
                self.round_of[idx] = r - 1

    def duration(self, idx):
        _, t0, t1, _ = self.spans[idx]
        return t1 - t0

    def self_time(self, idx):
        return self.duration(idx) - sum(self.duration(c) for c in self.children[idx])

    def outermost(self, names):
        """Spans named in `names` with no ancestor named in `names`."""
        names = set(names)
        out = []

        def walk(idx, covered):
            name = self.spans[idx][0]
            hit = name in names and not covered
            if hit:
                out.append(idx)
            for c in self.children[idx]:
                walk(c, covered or name in names)
        walk(0, False)
        return out

    def per_round_ms(self, names):
        sums = [0.0] * (len(self.bounds) - 1)
        for idx in self.outermost(names):
            r = self.round_of.get(idx)
            if r is not None:
                sums[r] += 1000.0 * self.duration(idx)
        return sums

    def prefixed(self, prefix):
        return sorted({s[0] for s in self.spans if s[0].startswith(prefix)})


def layer_metrics(reps):
    """Every per-layer metric of a traced run, plus the coverage figures."""
    per_round = defaultdict(list)
    per_rep = defaultdict(list)
    knn_ms, knn_alloc = [], []
    coverage, phase_gaps = [], defaultdict(list)
    for rep in reps:
        ix = RepetitionSpans(rep)
        rounds_ms = rep.round_ms()
        for metric, names in PER_ROUND.items():
            per_round[metric] += ix.per_round_ms(names)
        delete_self = [0.0] * len(rounds_ms)
        layer_self = [0.0] * len(rounds_ms)
        for idx, r in ix.round_of.items():
            self_ms = 1000.0 * ix.self_time(idx)
            layer_self[r] += self_ms
            if ix.spans[idx][0] == "unlearn.delete":
                delete_self[r] += self_ms
        per_round["unlearn.delete_self_ms"] += delete_self
        # what the wrapped layers' self times leave of a round is the harness's own
        per_round["harness.round_self_ms"] += [rt - ls for rt, ls in zip(rounds_ms, layer_self)]
        coverage += [ls / rt for ls, rt in zip(layer_self, rounds_ms)]

        per_rep["data_io.prepare_ms"].append(
            sum(1000.0 * ix.duration(i) for i in ix.outermost(ix.prefixed(DATA_IO))))
        trains = ix.outermost(("models.train",))
        per_rep["models.train_ms"].append(sum(1000.0 * ix.duration(i) for i in trains))
        per_rep["models.train_calls"].append(
            sum(1 for s in ix.spans if s[0] == "models.train"))
        knn = [i for i, s in enumerate(ix.spans) if s[0] == "valuation.knn_sv"]
        knn_ms += [1000.0 * ix.duration(i) for i in knn]
        knn_alloc += [ix.extra[i]["alloc_mb"] for i in knn]
        per_rep["valuation.knn_sv_calls"].append(len(knn))
        per_rep["valuation.knn_sv_pairs"].append(sum(ix.extra[i]["pairs"] for i in knn))
        records = rep.report.records
        per_rep["unlearn.certified_rounds"].append(sum(r.certified for r in records))
        per_rep["unlearn.retrained_rounds"].append(sum(r.retrained for r in records))
        per_rep["harness.report_ms"].append(
            sum(1000.0 * ix.duration(i) for i in ix.outermost(("harness.emit_report",))))

        by_round = {phase: ix.per_round_ms((span,)) for phase, span in PHASES.items()}
        for t, rec in enumerate(records):
            for phase, sec in rec.phases.items():
                phase_gaps[phase].append(1000.0 * sec - by_round[phase][t])

    metrics = {name: _median(values) for name, values in per_round.items()}
    metrics.update({name: _median(values) for name, values in per_rep.items()})
    metrics["valuation.knn_sv_ms"] = _median(knn_ms)
    metrics["valuation.knn_sv_alloc_mb"] = _median(knn_alloc)
    gaps = {phase: (min(g), _median(g)) for phase, g in phase_gaps.items()}
    problems = [f"traced {PHASES[phase]} disagrees with RoundRecord.phases[{phase!r}]: "
                f"phase minus span min {lo:.4f} ms, median {mid:.4f} ms"
                for phase, (lo, mid) in gaps.items()
                if lo < 0.0 or mid > PHASE_GAP_MS]
    summary = {"layer_share_of_round_p50": _median(coverage),
               "layer_share_of_round_min": min(coverage) if coverage else 0.0,
               "phase_minus_span_ms": {p: {"min": lo, "median": mid}
                                       for p, (lo, mid) in gaps.items()}}
    return metrics, summary, problems
