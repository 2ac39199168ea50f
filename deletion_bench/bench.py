"""One benchmark run: repetitions of `dvwu run` on one workload, then checks.

The load is a closed loop with one client: each round starts as soon as the
previous one has been certified, scored and had its values refreshed, and
each repetition starts when the previous one (and its checks) are done.
Repetitions run until their wall time, calibration included, reaches the
requested seconds, with at least MIN_REPS of them.  Every time metric is
scaled to the nominal speed of a calibration kernel timed beside each
segment (calib.py); the unscaled figures are kept in the full result.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import statistics
from pathlib import Path

import numpy as np

import checks
import layers
from probe import Probe
from workloads import (ALPHA, K, LAM, WORKLOADS, ZERO_TOL, config_text, rep_seed,
                       write_tied_table)

MIN_REPS = 3
# p90 leaves at least 12 rounds beyond it in every run (3 x 40 rounds at
# least); p97 on stream-static, the highest with ten beyond it, moved with
# bursts too short for the calibration to follow (README)
TAIL_PERCENTILE = 90
# The known fault: on knn-dynamic-tied, knn_sv breaks exact distance ties by
# BLAS rounding noise, so its values differ from the exact ones by up to
# 5.6e-6 (measured).  Only that problem, and only within this cap, leaves the
# run correct; its rounds still count as failed.
KNOWN_FAULT_WORKLOAD = "knn-dynamic-tied"
KNOWN_FAULT_CAP = 5e-5

END_TO_END_UNITS = {"rep_s": "s", "setup_s": "s", "round_ms_p50": "ms",
                    "round_ms_tail": "ms", "deletions_per_s": "1/s",
                    "peak_rss_mb": "MB", "final_accuracy": "fraction"}
PER_LAYER_UNITS = {
    "data_io.prepare_ms": "ms", "models.train_ms": "ms", "models.train_calls": "count",
    "models.evaluate_ms": "ms", "dataset.select_drop_ms": "ms",
    "valuation.knn_sv_ms": "ms", "valuation.knn_sv_calls": "count",
    "valuation.knn_sv_pairs": "count", "valuation.knn_sv_alloc_mb": "MB",
    "valuation.profile_ms": "ms", "unlearn.delete_ms": "ms",
    "unlearn.gradient_ms": "ms", "unlearn.hessian_ms": "ms", "unlearn.solve_ms": "ms",
    "unlearn.noise_ms": "ms", "unlearn.certify_ms": "ms",
    "unlearn.delete_self_ms": "ms", "unlearn.certified_rounds": "count",
    "unlearn.retrained_rounds": "count", "harness.round_self_ms": "ms",
    "harness.report_ms": "ms",
}


def run_workload(dvwu, name: str, seed: int, seconds: float, trace: bool,
                 run_dir: Path) -> dict:
    workload = WORKLOADS[name]
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest = write_tied_table(run_dir / "table") if workload.tied else None

    def write_config(label, seed_value, **overrides):
        path = run_dir / f"{label}.cfg"
        path.write_text(config_text(workload, seed_value, manifest=manifest, **overrides))
        return path

    probe = Probe(dvwu, trace=trace, keep_knn=workload.knn_calls_checked(),
                  checked_rounds=workload.checked_rounds(),
                  round_kernel=workload.round_kernel)
    report_dir = run_dir / "report"
    with probe.installed():
        # warm-up: the same code paths on a small input, neither timed nor checked
        warm = write_config("warmup", 0, rows=workload.warmup_rows or None, rounds=2)
        probe.run(warm, report_dir)

        reps, outcomes = [], []
        measured = 0.0
        while len(reps) < MIN_REPS or measured + reps[-1].wall_s <= seconds:
            config = write_config(f"rep{len(reps)}", rep_seed(workload, seed, len(reps)))
            gc.collect()
            rep = probe.run(config, report_dir)
            measured += rep.wall_s
            if not reps:    # before any check has run, so checks stay out of it
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            outcomes.append(check_repetition(workload, rep))
            _drop_check_inputs(rep)
            reps.append(rep)

    attempted = workload.rounds * len(reps)
    failed = sum(len(o["failed_rounds"]) for o in outcomes)
    unexpected = [p for o in outcomes for p in o["problems"]
                  if not _known_fault(name, p)]
    ok_reps = [r for r in reps if r.error is None]
    metrics, raw = {}, {}
    if ok_reps:
        for out, kind in ((metrics, workload.round_kernel), (raw, None)):
            rounds_ms = [ms for r in ok_reps for ms in r.round_ms(kind)]
            out.update({
                "rep_s": statistics.median(r.rep_s(kind) for r in ok_reps),
                "setup_s": statistics.median(r.setup_s(kind is not None) for r in ok_reps),
                "round_ms_p50": statistics.median(rounds_ms),
                "round_ms_tail": float(np.percentile(rounds_ms, TAIL_PERCENTILE)),
                "deletions_per_s": (workload.per_round * len(rounds_ms)
                                    / (sum(rounds_ms) / 1000.0)),
            })
        metrics["peak_rss_mb"] = peak_rss_mb
        metrics["final_accuracy"] = statistics.fmean(
            o["final_accuracy"] for o in outcomes[:MIN_REPS])
    result = {
        "workload": name, "seed": seed, "trace": int(trace),
        "repetitions": len(reps), "rounds_timed": sum(len(r.round_starts) for r in ok_reps),
        "tail_percentile": TAIL_PERCENTILE, "measured_s": measured,
        "attempted": attempted, "failed": failed,
        "correct": bool(ok_reps) and not unexpected,
        "problems": sorted(set(p for o in outcomes for p in o["problems"]))[:20],
        "end_to_end": metrics, "end_to_end_unscaled": raw,
        "calibration_ms": _calibration_ms(ok_reps, workload.round_kernel),
    }
    if trace:
        layer, summary, problems = layers.layer_metrics(ok_reps)
        result["per_layer"] = layer
        result["trace_summary"] = summary
        result["problems"] += problems
        result["correct"] = result["correct"] and not problems
        with open(run_dir / "trace.json", "w") as fh:
            json.dump([{"round_starts": r.round_starts, "round_ends": r.round_ends,
                        "loop_end": r.loop_end,
                        "spans": r.spans, "extra": r.span_extra} for r in reps], fh)
    shutil.rmtree(report_dir, ignore_errors=True)
    shutil.rmtree(run_dir / "table", ignore_errors=True)
    return result


def _calibration_ms(reps, round_kernel) -> dict:
    """Median kernel times of the run, set-up boundaries and round starts apart."""
    setup = [c["array"] for r in reps for c in (r.cal_start, r.cal_rounds[0])]
    rounds = [c[round_kernel] for r in reps for c in r.cal_rounds]
    return {"array_setup": 1000.0 * statistics.median(setup) if setup else None,
            f"{round_kernel}_rounds": 1000.0 * statistics.median(rounds) if rounds else None}


def _known_fault(name, problem) -> bool:
    error = checks.knn_value_error(problem)
    return name == KNOWN_FAULT_WORKLOAD and error is not None and error <= KNOWN_FAULT_CAP


def _drop_check_inputs(rep):
    """Release what only the checks needed, so later repetitions start lean."""
    rep.train_set = rep.knn_kept = rep.profiles = rep.engine_weights = None
    rep.deleted_ids = None
    if rep.report is not None:
        for r in rep.report.repetitions:
            r.trajectory = []


def check_repetition(workload, rep) -> dict:
    """Run checks (a)-(d) on one repetition; map each problem to its round."""
    T = workload.rounds
    if rep.error is not None or rep.report is None or rep.report.repetitions[0].error:
        error = rep.error or (rep.report.repetitions[0].error if rep.report else "no report")
        return {"failed_rounds": set(range(1, T + 1)), "problems": [f"repetition: {error}"],
                "final_accuracy": float("nan")}
    result = rep.report.repetitions[0]
    records = result.records
    problems_by_round: dict[int, list[str]] = {}

    def note(t, problems):
        if problems:
            problems_by_round.setdefault(t, []).extend(problems)

    if len(records) != T or len(rep.round_starts) != T:
        note(T, [f"repetition ran {len(records)} rounds, expected {T}"])

    # (a) exact k-NN values behind the weights of the checked rounds
    for call, t in workload.knn_calls_checked().items():
        if call not in rep.knn_kept:
            note(t, [f"(a) k-NN call {call} did not happen"])
            continue
        problems = checks.check_knn(rep.knn_kept[call], K)
        rounds = workload.checked_rounds() if not workload.dynamic else (t,)
        for r in rounds:
            note(r, problems)

    # (b) residuals of certified rounds, on the remaining rows
    train = rep.train_set
    X, y, ids = train.features, train.labels, train.ids
    gone = np.zeros(len(ids), dtype=bool)
    position = {int(i): p for p, i in enumerate(ids)}
    deleted_total = 0
    for t, (rec, drawn) in enumerate(zip(records, rep.deleted_ids), start=1):
        gone[[position[int(i)] for i in drawn]] = True
        deleted_total += len(drawn)
        if not rec.certified or rec.retrained:
            continue
        w = result.trajectory[t]
        note(t, checks.check_residual(t, w, X[~gone], y[~gone], LAM, workload.loss,
                                      rec.residual, len(ids), len(drawn), deleted_total))

    # (c) value-to-weight map with the round-1 anchor
    initial = rep.knn_kept[0][2] if 0 in rep.knn_kept else {}
    anchor = checks.round1_anchor(initial, ZERO_TOL)
    engine = {t: (deleted, weights) for t, deleted, weights in rep.engine_weights}
    survivors = set(initial)
    for t, drawn, q, q_min_plus, full in rep.profiles:
        deleted, weights = engine.get(t, (None, None))
        if weights is None or sorted(map(int, deleted)) != sorted(map(int, drawn)):
            note(t, [f"(c) round {t}: engine got no weights for the drawn ids"])
            continue
        note(t, checks.check_weights(t, drawn, q, weights, anchor, q_min_plus,
                                     ALPHA, ZERO_TOL))
        if not workload.dynamic:
            if any(initial[int(i)] != qi for i, qi in zip(drawn, q)):
                note(t, [f"(c) round {t}: a deleted row's value moved from round 1"])
            if full is not None and (set(full) != survivors
                                     or any(initial[i] != v for i, v in full.items())):
                note(t, [f"(c) round {t}: surviving rows do not keep their round-1 values"])
        elif full is not None and t - 1 in rep.knn_kept:
            values = rep.knn_kept[t - 1][2]
            if any(full[i] != values[i] for i in full) or set(full) != set(values):
                note(t, [f"(c) round {t}: profile values differ from the k-NN output"])
        survivors -= {int(i) for i in drawn}

    # (d) final accuracy on the test rows, without evaluate
    test = rep.knn_kept[0][1]
    final_accuracy = records[-1].accuracy
    note(T, checks.check_accuracy(result.trajectory[-1], test.features, test.labels,
                                  final_accuracy))
    return {"failed_rounds": set(problems_by_round),
            "problems": [p for ps in problems_by_round.values() for p in ps],
            "final_accuracy": final_accuracy}
