import csv
import json
import math
import os
import statistics
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dvwu import (
    Dataset,
    ExperimentConfig,
    InvalidArgumentError,
    SynthConfig,
    ValueProfile,
    emit_report,
    run_continuous_deletion,
    run_efficiency_bench,
)
from dvwu.harness import (
    DELETE_HIGH_VALUE,
    DELETE_LOW_VALUE,
    METHOD_DVWU_K,
    METHOD_NEWTON,
    METHODS,
    RoundRecord,
    _sample_deletion,
    aggregate_rounds,
    load_experiment_config,
    normalize_method,
    parse_experiment_config,
    read_rounds_csv,
    write_bench_csv,
)
from dvwu.valuation import save_values_csv
from dvwu import cli, valuation


def tiny_config(**kw):
    base = dict(
        method="dvwu-k",
        lam=1e-3,
        rounds=3,
        deletions_per_round=10,
        repetitions=2,
        base_seed=7,
        k=3,
        synth=SynthConfig(n=400, d_informative=3, d_redundant=1,
                          noise_ratio=0.1, seed=21),
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestMethodNames:
    def test_aliases(self):
        assert normalize_method("DVWUk") == "dvwu-k"
        assert normalize_method("dvwu_dk") == "dvwu-dk"
        assert normalize_method("GradientA") == "gradient-ascent"
        assert normalize_method("ga") == "gradient-ascent"
        assert normalize_method("WGA") == "weighted-ga"
        assert normalize_method("Retrain") == "retrain"
        for m in METHODS:
            assert normalize_method(m) == m

    def test_unknown(self):
        with pytest.raises(InvalidArgumentError):
            normalize_method("sisa")


class TestExperimentConfig:
    def test_needs_one_data_source(self):
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(method="newton")
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(method="newton", data_manifest="d.manifest",
                             synth=SynthConfig(n=100, d_informative=2))

    def test_schedule_length_checked(self):
        with pytest.raises(InvalidArgumentError):
            tiny_config(deletions_per_round=[10, 10])

    def test_schedule_expansion(self):
        cfg = tiny_config()
        assert cfg.schedule() == [10, 10, 10]
        cfg2 = tiny_config(deletions_per_round=[5, 10, 15])
        assert cfg2.schedule() == [5, 10, 15]

    def test_valuation_method_mapping(self):
        assert tiny_config(method="newton").valuation_method() is None
        assert tiny_config(method="retrain").valuation_method() is None
        vk = tiny_config(method="dvwu-k").valuation_method()
        assert (vk.kind, vk.mode) == ("knn_shapley", "static")
        vl = tiny_config(method="dvwu-l").valuation_method()
        assert (vl.kind, vl.mode) == ("leave_one_out", "static")
        vdk = tiny_config(method="dvwu-dk").valuation_method()
        assert (vdk.kind, vdk.mode) == ("knn_shapley", "dynamic")
        vdl = tiny_config(method="dvwu-dl").valuation_method()
        assert (vdl.kind, vdl.mode) == ("leave_one_out", "dynamic")
        wga = tiny_config(method="weighted-ga").valuation_method()
        assert wga.kind == "knn_shapley"

    def test_dict_round_trip(self):
        cfg = tiny_config(deletions_per_round=[5, 10, 15])
        back = ExperimentConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig.from_dict({"method": "newton", "warp": 9})


class TestConfigText:
    def test_parse_full_text(self):
        text = """
        # continuous deletion experiment
        method = DVWUk
        perturbation = output
        loss = huberized_svm
        lam = 0.001
        rounds = 3
        deletions_per_round = 5, 10, 15
        repetitions = 2
        fresh_data_per_rep = false
        synth.n = 500          # generator block
        synth.d_informative = 4
        synth.d_redundant = 2
        synth.noise_ratio = 0.05
        synth.seed = 3
        """
        cfg = parse_experiment_config(text)
        assert cfg.method == "dvwu-k"
        assert cfg.perturbation == "output"
        assert cfg.deletions_per_round == [5, 10, 15]
        assert cfg.fresh_data_per_rep is False
        assert cfg.synth == SynthConfig(n=500, d_informative=4, d_redundant=2,
                                        noise_ratio=0.05, seed=3)

    def test_parse_errors(self):
        with pytest.raises(InvalidArgumentError, match="line 1"):
            parse_experiment_config("no equals sign")
        with pytest.raises(InvalidArgumentError, match="unknown key"):
            parse_experiment_config("mystery = 1\nsynth.n = 100\nsynth.d_informative = 2")
        with pytest.raises(InvalidArgumentError, match="true or false"):
            parse_experiment_config(
                "score_published = maybe\nsynth.n = 100\nsynth.d_informative = 2")

    def test_load_from_file_and_manifest(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("method = newton\nrounds = 2\ndeletions_per_round = 5\n"
                            "synth.n = 200\nsynth.d_informative = 3\n")
        cfg = load_experiment_config(cfg_path)
        assert cfg.method == "newton" and cfg.rounds == 2

        report = run_continuous_deletion(tiny_config(repetitions=1))
        out = tmp_path / "out"
        emit_report(report, out)
        replay_cfg = load_experiment_config(out / "manifest.json")
        assert replay_cfg == report.config


class TestRunStructure:
    def test_records_and_trajectories(self):
        cfg = tiny_config()
        report = run_continuous_deletion(cfg)
        assert len(report.repetitions) == 2
        for rep in report.repetitions:
            assert rep.error is None
            assert [r.t for r in rep.records] == [1, 2, 3]
            assert len(rep.trajectory) == 4          # initial + one per round
            assert rep.initial_metrics is not None
            for rec in rep.records:
                assert 0.0 <= rec.accuracy <= 1.0
                assert rec.residual >= 0.0
        assert len(report.records) == 6
        assert "gauss_constant" in report.constants

    def test_fresh_data_toggle(self):
        fixed = run_continuous_deletion(tiny_config(fresh_data_per_rep=False))
        w0 = [rep.trajectory[0] for rep in fixed.repetitions]
        assert np.array_equal(w0[0], w0[1])
        fresh = run_continuous_deletion(tiny_config(fresh_data_per_rep=True))
        w1 = [rep.trajectory[0] for rep in fresh.repetitions]
        assert not np.array_equal(w1[0], w1[1])

    def test_deterministic_replay(self):
        r1 = run_continuous_deletion(tiny_config())
        r2 = run_continuous_deletion(tiny_config())
        for a, b in zip(r1.repetitions, r2.repetitions):
            for wa, wb in zip(a.trajectory, b.trajectory):
                assert np.array_equal(wa, wb)

    def test_infeasible_budget_recorded_not_fatal(self):
        cfg = tiny_config(deletions_per_round=140, rounds=3, repetitions=2)
        report = run_continuous_deletion(cfg)
        for rep in report.repetitions:
            assert rep.error is not None
            assert "budget" in rep.error.lower()
            assert rep.records == []

    def test_every_method_runs(self):
        for method in METHODS:
            cfg = tiny_config(method=method, rounds=2, repetitions=1,
                              synth=SynthConfig(n=120, d_informative=3,
                                                noise_ratio=0.1, seed=5),
                              deletions_per_round=6, val_fraction=0.2)
            report = run_continuous_deletion(cfg)
            assert report.repetitions[0].error is None, method
            assert len(report.records) == 2

    def test_output_perturbation_scoring_toggle(self):
        base = dict(method="newton", perturbation="output", rounds=2,
                    repetitions=1)
        internal = run_continuous_deletion(tiny_config(**base))
        published = run_continuous_deletion(tiny_config(**base,
                                                        score_published=True))
        acc_i = [r.accuracy for r in internal.records]
        acc_p = [r.accuracy for r in published.records]
        assert acc_i != acc_p   # noisy parameters score differently

    def test_retrain_rounds_match_tolerance(self):
        cfg = tiny_config(method="retrain", repetitions=1)
        report = run_continuous_deletion(cfg)
        for rec in report.records:
            assert rec.residual <= 1e-6
            # retraining compares no residual with a threshold
            assert not rec.retrained and not rec.certified

    def test_influence_records_certification(self):
        cfg = tiny_config(method="influence", perturbation="output",
                          repetitions=1)
        report = run_continuous_deletion(cfg)
        for rec in report.records:
            assert not rec.retrained
            assert rec.threshold > 0.0
            assert isinstance(rec.certified, bool)


class TestOneDeletionPath:
    @pytest.mark.parametrize("perturbation", ["none", "output", "objective"])
    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_and_perturbation(self, method, perturbation):
        cfg = tiny_config(method=method, perturbation=perturbation, rounds=3,
                          repetitions=1, check_every=2, deletions_per_round=6,
                          val_fraction=0.2,
                          synth=SynthConfig(n=120, d_informative=3,
                                            noise_ratio=0.1, seed=5))
        report = run_continuous_deletion(cfg)
        for rep in report.repetitions:
            assert rep.error is None
            assert [r.t for r in rep.records] == [1, 2, 3]
        for rec in report.records:
            if math.isnan(rec.threshold):
                assert not rec.certified, (rec.t, rec.residual)
        assert math.isnan(report.records[0].residual)     # round 1 is unchecked
        assert not math.isnan(report.records[1].residual)


class TestUnitWeightReduction:
    def test_dvwu_with_unit_weights_matches_newton(self, tmp_path):
        cfg_newton = tiny_config(method="newton", repetitions=1)
        report_n = run_continuous_deletion(cfg_newton)

        # weight 1 for every sample: all values negative
        values = tmp_path / "values.csv"
        profile = ValueProfile.from_initial_values(
            {i: -1.0 for i in range(400)})
        save_values_csv(values, profile)
        cfg_dvwu = tiny_config(method="dvwu-k", repetitions=1,
                               values_path=str(values))
        report_d = run_continuous_deletion(cfg_dvwu)

        for wn, wd in zip(report_n.repetitions[0].trajectory,
                          report_d.repetitions[0].trajectory):
            assert np.array_equal(wn, wd)
        for rn, rd in zip(report_n.records, report_d.records):
            assert rn.residual == rd.residual
            assert rn.accuracy == rd.accuracy


class TestSampleDeletion:
    def _profile(self):
        return ValueProfile.from_initial_values(
            {i: (i - 3) / 10.0 for i in range(10)})

    def _remaining(self, rng):
        return Dataset(features=rng.normal(size=(10, 2)),
                       labels=np.ones(10), ids=np.arange(10))

    def test_uniform_without_replacement(self, rng):
        cfg = tiny_config()
        remaining = self._remaining(rng)
        ids = _sample_deletion(cfg, np.random.default_rng(0), remaining, None, 6)
        assert len(set(ids.tolist())) == 6
        assert set(ids.tolist()) <= set(range(10))

    def test_high_value_first(self, rng):
        cfg = tiny_config(deletion_strategy=DELETE_HIGH_VALUE)
        ids = _sample_deletion(cfg, np.random.default_rng(0),
                               self._remaining(rng), self._profile(), 3)
        assert sorted(ids.tolist()) == [7, 8, 9]

    def test_low_value_first(self, rng):
        cfg = tiny_config(deletion_strategy=DELETE_LOW_VALUE)
        ids = _sample_deletion(cfg, np.random.default_rng(0),
                               self._remaining(rng), self._profile(), 3)
        assert sorted(ids.tolist()) == [0, 1, 2]

    # rows rank by (value, id) ascending; low-value-first takes the front of
    # that order and high-value-first its back, so a tie at the cut gives the
    # smallest ids to the one and the largest to the other
    @pytest.mark.parametrize("strategy,want", [(DELETE_HIGH_VALUE, [6, 7]),
                                               (DELETE_LOW_VALUE, [2, 5])])
    def test_equal_values_ranked_by_ascending_id(self, rng, strategy, want):
        profile = ValueProfile.from_initial_values(
            {i: (0.5 if i in (4, 6, 7) else -0.5 if i in (2, 5, 8) else 0.1)
             for i in range(10)})
        remaining = Dataset(features=rng.normal(size=(10, 2)), labels=np.ones(10),
                            ids=np.array([7, 3, 9, 5, 1, 2, 8, 0, 6, 4]))
        ids = _sample_deletion(tiny_config(deletion_strategy=strategy),
                               np.random.default_rng(0), remaining, profile, 2)
        assert ids.tolist() == want

    def test_value_strategy_needs_profile(self, rng):
        cfg = tiny_config(deletion_strategy=DELETE_HIGH_VALUE)
        with pytest.raises(InvalidArgumentError):
            _sample_deletion(cfg, np.random.default_rng(0),
                             self._remaining(rng), None, 3)


def _record(rep, t, **kw):
    base = dict(repetition=rep, t=t, residual=0.1, threshold=1.0,
                certified=True, retrained=False, accuracy=0.9, precision=0.8,
                recall=0.7, cost=0.1, elapsed_ms=5.0)
    base.update(kw)
    return RoundRecord(**base)


class TestAggregate:
    def test_mean_std_counts(self):
        records = [_record(0, 1, accuracy=0.8), _record(1, 1, accuracy=0.9),
                   _record(0, 2, accuracy=0.7, certified=False, retrained=True),
                   _record(1, 2, accuracy=0.6)]
        rows = aggregate_rounds(records)
        assert [row["t"] for row in rows] == [1, 2]
        assert rows[0]["n_reps"] == 2
        assert_allclose(rows[0]["mean_accuracy"], statistics.fmean([0.8, 0.9]))
        assert_allclose(rows[0]["std_accuracy"], statistics.stdev([0.8, 0.9]))
        assert rows[1]["certified"] == 1
        assert rows[1]["retrained"] == 1

    def test_single_repetition_std_zero(self):
        rows = aggregate_rounds([_record(0, 1)])
        assert rows[0]["std_accuracy"] == 0.0

    def test_nan_values_skipped(self):
        records = [_record(0, 1, threshold=float("nan")),
                   _record(1, 1, threshold=2.0)]
        rows = aggregate_rounds(records)
        assert rows[0]["mean_threshold"] == 2.0
        records = [_record(0, 1, threshold=float("nan"))]
        assert math.isnan(aggregate_rounds(records)[0]["mean_threshold"])


def _strip_columns(path, drop):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [j for j, name in enumerate(rows[0]) if name not in drop]
    return [[row[j] for j in keep] for row in rows]


class TestEmitAndReplay:
    def test_outputs_and_byte_identical_replay(self, tmp_path):
        cfg = tiny_config(perturbation="output")
        report = run_continuous_deletion(cfg)
        dir1 = tmp_path / "run1"
        paths = emit_report(report, dir1)
        for name in ("rounds.csv", "aggregate.csv", "timings.csv", "manifest.json"):
            assert os.path.exists(paths[name])

        manifest = json.loads((dir1 / "manifest.json").read_text())
        assert manifest["config"]["method"] == "dvwu-k"
        assert manifest["repetition_seeds"] == [7, 8]
        assert manifest["errors"] == {}

        replay_cfg = load_experiment_config(dir1 / "manifest.json")
        dir2 = tmp_path / "run2"
        emit_report(run_continuous_deletion(replay_cfg), dir2)

        assert (_strip_columns(dir1 / "rounds.csv", {"elapsed_ms"})
                == _strip_columns(dir2 / "rounds.csv", {"elapsed_ms"}))
        drop = {"mean_elapsed_ms", "std_elapsed_ms"}
        assert (_strip_columns(dir1 / "aggregate.csv", drop)
                == _strip_columns(dir2 / "aggregate.csv", drop))
        assert (dir1 / "manifest.json").read_bytes() == (dir2 / "manifest.json").read_bytes()

    @pytest.mark.parametrize("method,parts", [
        ("dvwu-k", ["prepare", "train", "valuation"]), ("newton", ["prepare", "train"])])
    def test_setup_timings(self, tmp_path, method, parts):
        report = run_continuous_deletion(tiny_config(method=method))
        emit_report(report, tmp_path)
        with open(tmp_path / "timings.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        setup = [r for r in rows if r["phase"].startswith("setup.")]
        assert [r["phase"] for r in setup] == [f"setup.{p}" for p in parts]
        assert rows[-len(setup):] == setup            # after the round phases
        for row in setup:
            part = row["phase"][len("setup."):]
            assert int(row["rounds"]) == 2
            assert float(row["median_s"]) == statistics.median(
                rep.setup_s[part] for rep in report.repetitions)
            assert float(row["median_s"]) > 0.0

    def test_rounds_csv_round_trip(self, tmp_path):
        report = run_continuous_deletion(tiny_config(repetitions=1))
        out = tmp_path / "out"
        emit_report(report, out)
        back = read_rounds_csv(out / "rounds.csv")
        assert len(back) == len(report.records)
        for a, b in zip(back, report.records):
            assert (a.repetition, a.t) == (b.repetition, b.t)
            assert a.accuracy == b.accuracy
            assert a.residual == b.residual
            assert a.elapsed_ms == b.elapsed_ms


class TestCheckCadence:
    @pytest.mark.parametrize("method", ["dvwu-k", "influence"])
    def test_unchecked_rounds_not_certified(self, tmp_path, method):
        cfg = tiny_config(method=method, perturbation="output", rounds=4,
                          repetitions=1, check_every=2)
        emit_report(run_continuous_deletion(cfg), tmp_path)
        with open(tmp_path / "rounds.csv", newline="") as fh:
            rows = {int(r["t"]): r for r in csv.DictReader(fh)}
        for t in (1, 3):
            assert rows[t]["certified"] == "false"
            assert rows[t]["residual"] == ""
        for t in (2, 4):
            assert rows[t]["certified"] == "true"
            assert float(rows[t]["residual"]) <= float(rows[t]["threshold"])


class TestDynamicKnnCache:
    def test_cached_run_matches_capped_run(self, monkeypatch):
        cfg = tiny_config(method="dvwu-dk", perturbation="output", rounds=6,
                          deletions_per_round=4, repetitions=2)
        calls = []
        orders = valuation._distance_orders

        def counted(*args):
            calls.append(1)
            return orders(*args)

        monkeypatch.setattr(valuation, "_distance_orders", counted)
        cached = run_continuous_deletion(cfg)
        assert len(calls) == cfg.repetitions     # the initial valuation only
        monkeypatch.setattr(valuation, "RANK_CACHE_MAX_BYTES", 0)
        capped = run_continuous_deletion(cfg)
        assert len(calls) == cfg.repetitions * (2 + cfg.rounds)

        def comparable(report):
            return [replace(r, elapsed_ms=0.0) for r in report.records]

        assert all(rep.error is None for rep in cached.repetitions)
        assert comparable(cached) == comparable(capped)
        for a, b in zip(cached.repetitions, capped.repetitions):
            assert all(np.array_equal(wa, wb) for wa, wb in zip(a.trajectory, b.trajectory))


class TestBench:
    def test_structure_and_csv(self, tmp_path):
        cfg = tiny_config(repetitions=1, perturbation="output")
        results = run_efficiency_bench(cfg, deletion_size=20,
                                       methods=("retrain", "newton", "dvwu-k",
                                                "influence", "gradient-ascent"),
                                       trials=3, warmup=1)
        names = [r.method for r in results]
        assert names == ["retrain", "newton", "dvwu-k", "influence",
                         "gradient-ascent"]
        for r in results:
            assert r.total_s > 0.0
            assert r.trials == 3
            assert math.isclose(sum(r.phases.values()), r.total_s,
                                rel_tol=0.9)   # phases cover the total loosely
        dvwu = results[2]
        assert dvwu.setup_valuation_s > 0.0    # valuation happened, untimed
        assert set(results[0].phases) == {"retrain", "certify"}
        assert set(results[1].phases) == {"gradient", "hessian", "solve", "noise",
                                          "certify"}
        assert set(results[2].phases) == set(results[1].phases)
        assert set(results[3].phases) == {"update", "noise", "certify"}
        assert set(results[4].phases) == {"gradient", "certify"}

        out = tmp_path / "bench.csv"
        write_bench_csv(results, out)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == names
        assert all(float(r["total_s"]) > 0 for r in rows)

    def test_invalid_trials(self):
        with pytest.raises(InvalidArgumentError):
            run_efficiency_bench(tiny_config(), trials=0)


class TestCli:
    def _gen(self, tmp_path, name="data.csv", n=150):
        path = tmp_path / name
        code = cli.main(["gen-data", "--n", str(n), "--d-informative", "3",
                         "--d-redundant", "1", "--noise-ratio", "0.1",
                         "--seed", "4", "--out", str(path)])
        assert code == 0
        return path

    def test_gen_data_requires_shape_or_preset(self, tmp_path, capsys):
        code = cli.main(["gen-data", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "needs --preset" in capsys.readouterr().err

    def test_gen_data_preset_with_overrides(self, tmp_path):
        out = tmp_path / "p.csv"
        code = cli.main(["gen-data", "--preset", "sy1", "--n", "200",
                         "--out", str(out)])
        assert code == 0
        from dvwu import load_csv
        data = load_csv(out)
        assert data.n == 200 and data.d == 20

    def test_value_matches_library(self, tmp_path):
        from dvwu import knn_sv, load_csv
        from dvwu.valuation import load_values_csv
        data_path = self._gen(tmp_path)
        out = tmp_path / "values.csv"
        code = cli.main(["value", "--data", str(data_path), "--method",
                         "knn-sv", "--k", "3", "--out", str(out)])
        assert code == 0
        data = load_csv(data_path)
        expect = knn_sv(data, data, k=3)
        profile = load_values_csv(out)
        assert profile.q == pytest.approx(expect)

    def test_train_writes_parameters(self, tmp_path, capsys):
        data_path = self._gen(tmp_path)
        out = tmp_path / "model.json"
        code = cli.main(["train", "--data", str(data_path), "--loss",
                         "huberized-svm", "--lam", "0.01", "--out", str(out)])
        assert code == 0
        assert "training accuracy" in capsys.readouterr().out
        params = json.loads(out.read_text())
        assert len(params["w"]) == 4
        assert params["loss"] == "huberized-svm"

    def test_run_report_pipeline(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "method = dvwu-k\nperturbation = output\nrounds = 2\n"
            "deletions_per_round = 10\nrepetitions = 2\nbase_seed = 1\n"
            "k = 3\nsynth.n = 300\nsynth.d_informative = 3\n"
            "synth.d_redundant = 1\nsynth.noise_ratio = 0.1\nsynth.seed = 2\n")
        out_dir = tmp_path / "results"
        code = cli.main(["run", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 0
        assert "completed 2/2" in capsys.readouterr().out

        agg2 = tmp_path / "agg2.csv"
        code = cli.main(["report", "--rounds", str(out_dir / "rounds.csv"),
                         "--out", str(agg2)])
        assert code == 0
        assert agg2.read_text() == (out_dir / "aggregate.csv").read_text()

    def test_bench_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("method = newton\nrounds = 1\ndeletions_per_round = 10\n"
                       "synth.n = 200\nsynth.d_informative = 3\nsynth.seed = 2\n")
        out = tmp_path / "bench.csv"
        code = cli.main(["bench", "--config", str(cfg), "--trials", "2",
                         "--methods", "newton,influence", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "newton" in capsys.readouterr().out

    def test_ill_conditioned_influence_fails_run_cleanly(self, tmp_path, capsys,
                                                         monkeypatch):
        from dvwu import harness
        real_train = harness.train
        monkeypatch.setattr(harness, "train", lambda *a, **kw: replace(
            real_train(*a, **kw), H=-np.eye(4)))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("method = influence\nrounds = 1\ndeletions_per_round = 10\n"
                       "synth.n = 200\nsynth.d_informative = 3\nsynth.d_redundant = 1\n")
        out_dir = tmp_path / "results"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        errors = json.loads((out_dir / "manifest.json").read_text())["errors"]
        assert errors["0"].startswith("IllConditionedHessianError")

    def test_missing_files_exit_2(self, tmp_path, capsys):
        assert cli.main(["run", "--config", str(tmp_path / "nope.cfg"),
                         "--out", str(tmp_path)]) == 2
        assert "no such file" in capsys.readouterr().err
        assert cli.main(["value", "--data", str(tmp_path / "nope.csv"),
                         "--out", str(tmp_path / "v.csv")]) == 2

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("method = newton\nwhatever = 1\n")
        assert cli.main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("line,key", [("synth.n = 1e3", "synth.n"),
                                          ("rounds = two", "rounds"),
                                          ("lam = abc", "lam")])
    def test_malformed_value_exit_2(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"method = newton\nsynth.d_informative = 3\n{line}\n")
        assert cli.main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{cfg}: line 3: {key}:" in err

    def test_manifest_unknown_synth_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "manifest.json"
        cfg.write_text(json.dumps({"config": {
            "method": "newton", "synth": {"n": 200, "d_informative": 3, "warp": 9}}}))
        assert cli.main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert str(cfg) in err and "warp" in err

    @pytest.mark.parametrize("key,value", [("lam", "abc"), ("epsilon", True),
                                           ("delta", 10 ** 400),
                                           ("fresh_data_per_rep", 1),
                                           ("synth.n", 200.0)])
    def test_manifest_wrong_value_type_exit_2(self, tmp_path, capsys, key, value):
        config = {"method": "newton", "synth": {"n": 200, "d_informative": 3}}
        if key.startswith("synth."):
            config["synth"][key[len("synth."):]] = value
        else:
            config[key] = value
        cfg = tmp_path / "manifest.json"
        cfg.write_text(json.dumps({"config": config}))
        assert cli.main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{cfg}: {key} must be" in err

    def test_manifest_int_accepted_for_float(self):
        cfg = ExperimentConfig.from_dict({
            "method": "newton", "lam": 1, "deletions_per_round": [3, 4], "rounds": 2,
            "data_manifest": None, "synth": {"n": 200, "d_informative": 3,
                                             "noise_ratio": 0}})
        assert cfg.lam == 1.0 and isinstance(cfg.lam, float)
        assert isinstance(cfg.synth.noise_ratio, float)
        assert cfg.schedule() == [3, 4]

    def test_unknown_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["transmogrify"])
        assert err.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["--version"])
        assert err.value.code == 0
        assert "dvwu" in capsys.readouterr().out
