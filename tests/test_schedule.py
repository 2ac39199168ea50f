"""The deletion schedule in CertBudget is the one source of deletion counts."""

import csv
import json

import numpy as np
import pytest

from dvwu import (BudgetExhaustedError, CertBudget, InvalidArgumentError, LossKind,
                  NewtonUnlearner, SynthConfig, gen_synthetic, train)
from dvwu.data_io import save_csv
from dvwu.harness import ExperimentConfig, emit_report, run_continuous_deletion

from conftest import make_dataset

SYNTH = SynthConfig(n=400, d_informative=3, d_redundant=1, noise_ratio=0.1, seed=21)


def _config(source, tmp_path, **kw):
    base = dict(method="newton", perturbation="output", lam=1e-3, rounds=3,
                repetitions=2, base_seed=7, check_every=1)
    if source == "synth":
        base["synth"] = SYNTH
    else:
        save_csv(gen_synthetic(SYNTH), tmp_path / "data.csv")
        (tmp_path / "data.manifest").write_text("path = data.csv\n")
        base["data_manifest"] = str(tmp_path / "data.manifest")
    base.update(kw)
    return ExperimentConfig(**base)


def test_schedule_leaving_one_row_runs():
    # 5 + 12 + 8 = 25 of 26 training rows; a budget of 3 * ceil(25 / 3) = 27
    # deletions would call this infeasible.  At lam = 0.1 every round keeps
    # the Hessian floor (see the next test for lam = 1e-3).
    cfg = ExperimentConfig(method="newton", perturbation="output", rounds=3, lam=0.1,
                           deletions_per_round=[5, 12, 8], repetitions=1,
                           synth=SynthConfig(n=37, d_informative=3, seed=5))
    report = run_continuous_deletion(cfg)
    rep = report.repetitions[0]
    assert rep.error is None
    assert [rec.t for rec in rep.records] == [1, 2, 3]
    assert rep.budget.n == 26 and rep.budget.schedule == (5, 12, 8)


def test_lost_hessian_floor_falls_back_to_retraining():
    # At lam = 1e-3 the last round downdates 9 rows to 1, and the running
    # Hessian can drop below the lam/2 floor; such a round retrains exactly
    # instead of failing the repetition.
    reps = []
    for seed in (0, 5, 21):
        cfg = ExperimentConfig(method="newton", perturbation="output", rounds=3, lam=1e-3,
                               deletions_per_round=[5, 12, 8], repetitions=3, base_seed=seed,
                               synth=SynthConfig(n=37, d_informative=3, seed=seed))
        reps += run_continuous_deletion(cfg).repetitions
    assert [rep.error for rep in reps] == [None] * 9
    assert all(len(rep.records) == 3 for rep in reps)
    retrained = [rec for rep in reps for rec in rep.records if rec.retrained]
    assert retrained and not any(rec.certified for rec in retrained)


@pytest.mark.parametrize("source", ["synth", "manifest"])
@pytest.mark.parametrize("schedule", [10, [5, 12, 8]], ids=["uniform", "5-12-8"])
def test_manifest_thresholds_match_rounds_csv(source, schedule, tmp_path):
    cfg = _config(source, tmp_path, deletions_per_round=schedule)
    emit_report(run_continuous_deletion(cfg), tmp_path / "out")
    constants = json.loads((tmp_path / "out" / "manifest.json").read_text())["constants"]
    with open(tmp_path / "out" / "rounds.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 3
    for row in rows:
        assert float(row["threshold"]) == constants["thresholds"][int(row["t"]) - 1]


def test_objective_threshold_is_the_manifest_epsilon2(tmp_path):
    cfg = _config("manifest", tmp_path, perturbation="objective",
                  deletions_per_round=[5, 12, 8])
    emit_report(run_continuous_deletion(cfg), tmp_path / "out")
    constants = json.loads((tmp_path / "out" / "manifest.json").read_text())["constants"]
    with open(tmp_path / "out" / "rounds.csv", newline="") as fh:
        assert {float(row["threshold"]) for row in csv.DictReader(fh)} == {
            constants["epsilon2_prime"]}


class TestEngineFollowsSchedule:
    @pytest.fixture
    def setup(self, rng):
        loss = LossKind.logistic()
        data = make_dataset(rng, 100, 4, scale=0.6, norm_cap=1.0)
        model = train(data, 0.05, loss)
        budget = CertBudget(epsilon=1.0, delta=1e-4, C=loss.C, beta=loss.beta,
                            schedule=(10, 20), n=data.n, lam=0.05)
        return data, model, NewtonUnlearner(model, budget)

    @staticmethod
    def _round(data, m):
        gone = data.ids[:m]
        return data.select(gone), data.drop(gone)

    @staticmethod
    def _unchanged(engine, t, w, H):
        return engine.t == t and np.array_equal(engine.w, w) and np.array_equal(engine.H, H)

    def test_wrong_batch_size_rejected(self, setup):
        data, model, engine = setup
        with pytest.raises(InvalidArgumentError, match="deletes 10 rows by the schedule"):
            engine.delete(*self._round(data, 11))
        assert self._unchanged(engine, 0, model.w, model.H)
        deleted, rest = self._round(data, 10)
        engine.delete(deleted, rest)
        w, H = np.array(engine.w), np.array(engine.H)
        with pytest.raises(InvalidArgumentError, match="deletes 20 rows"):
            engine.delete(*self._round(rest, 10))
        assert self._unchanged(engine, 1, w, H)

    def test_round_past_schedule_rejected(self, setup):
        data, model, engine = setup
        rest = data
        for m in (10, 20):
            deleted, rest = self._round(rest, m)
            engine.delete(deleted, rest)
        w, H = np.array(engine.w), np.array(engine.H)
        with pytest.raises(BudgetExhaustedError, match="past the schedule"):
            engine.delete(*self._round(rest, 20))
        assert self._unchanged(engine, 2, w, H)
