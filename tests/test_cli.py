import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from advlab import attacks, cli, config, intensity, nn, training

# frozen oracle value shared with test_privacy: compose([0.1], N/delta'=100)
COMPOSE_HAND = 0.30848126337324882


def tiny_config(tmp_path, **overrides):
    base = dict(
        n_per_class=30, num_classes=3, dim=4, spread=1.0, data_seed=3, n_train=60,
        hidden=(8,), total_iterations=60, batch_size=16, log_every=20,
        lr_decay_every=40, radius_list=(0.0, 0.15), seeds=(1, 2),
        noise_tau=16, noise_batches=20, noise_components=30,
        output_dir=str(tmp_path / "runs"), workers=1)
    base.update(overrides)
    cfg = dataclasses.replace(config.ExperimentConfig(), **base)
    path = tmp_path / "exp.ini"
    config.save_config(cfg, path)
    return cfg, path


class TestTrainCommand:
    def test_rho_zero_intensity_is_one(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path)
        rc = cli.main(["train", "--config", str(path), "--rho", "0", "--seed", "1"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert abs(summary["intensity_1t"] - 1.0) <= 1e-9
        assert summary["index_digests"]["match"] is True

    def test_rerun_identical_bytes(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path)
        assert cli.main(["train", "--config", str(path), "--rho", "0.15",
                         "--seed", "2"]) == 0
        run = cli.run_dir_for(cfg, 0.15, 2)
        first = {f.name: f.read_bytes() for f in run.iterdir() if f.name != "meta.json"}
        capsys.readouterr()
        assert cli.main(["train", "--config", str(path), "--rho", "0.15",
                         "--seed", "2"]) == 0
        for name, blob in first.items():
            assert (run / name).read_bytes() == blob, name

    def test_artifacts_exist(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path)
        cli.main(["train", "--config", str(path), "--rho", "0", "--seed", "1"])
        run = cli.run_dir_for(cfg, 0.0, 1)
        for name in ("ledger.csv", "erm.ckpt", "adv.ckpt", "noise_hist.csv",
                     "summary.json", "meta.json"):
            assert (run / name).exists(), name
        meta = json.loads((run / "meta.json").read_text())
        assert meta["started"] <= meta["finished"]
        stages = meta["stages_s"]
        assert set(stages) == {"train", "noise", "mia", "adv_eval", "writes"}
        assert all(v >= 0 for v in stages.values())
        assert sum(stages.values()) <= meta["finished"] - meta["started"]
        assert meta["max_rss_mb"] > 0
        peaks = meta["stage_peak_rss_mb"]
        assert set(peaks) == set(stages)
        order = [peaks[k] for k in ("train", "noise", "mia", "adv_eval", "writes")]
        assert 0 < order[0] and order == sorted(order) and order[-1] <= meta["max_rss_mb"]
        assert meta["blas_env"] == cli.BLAS_ENV
        assert meta["numpy_preloaded"] is True  # the test session imported numpy first
        assert meta["versions"] == {"advlab": "0.1.0", "numpy": np.__version__,
                                    "python": ".".join(map(str, sys.version_info[:3]))}

    def test_all_degenerate_run_is_one_line_error_exit_1(self, tmp_path, capsys):
        # a loss bound this small clips every loss, so every clean max gradient norm is 0
        cfg, path = tiny_config(tmp_path, loss_bound=1e-9, seeds=(1,))
        assert cli.main(["train", "--config", str(path), "--rho", "0.15"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "degenerate" in err
        assert cli.main(["sweep", "--config", str(path)]) == 1
        failures = json.loads((Path(cfg.output_dir) / "analysis.json").read_text())["failures"]
        assert len(failures) == 2 and all("degenerate" in f for f in failures)

    def test_zero_intensity_run_is_one_line_error_exit_1(self, tmp_path, capsys, monkeypatch):
        # a dead adversarial net has a max gradient norm, so an intensity, of exactly 0
        cfg, path = tiny_config(tmp_path, radius_list=(0.0,), seeds=(1,))
        train_twin = training.train_twin

        def dead_adversary(*args, **kwargs):
            ledger = train_twin(*args, **kwargs)
            ledger.records[1] = dataclasses.replace(ledger.records[1], l_adv=0.0, intensity=0.0)
            return ledger

        monkeypatch.setattr(training, "train_twin", dead_adversary)
        assert cli.main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "intensity is 0" in err
        assert cli.main(["sweep", "--config", str(path)]) == 1
        failures = json.loads((Path(cfg.output_dir) / "analysis.json").read_text())["failures"]
        assert len(failures) == 1 and "intensity is 0" in failures[0]

    def test_erm_side_does_not_depend_on_the_radius(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path)
        for rho in ("0", "0.1"):
            assert cli.main(["train", "--config", str(path), "--rho", rho, "--seed", "1"]) == 0
        runs = [cli.run_dir_for(cfg, rho, 1) for rho in (0.0, 0.1)]
        assert (runs[0] / "erm.ckpt").read_bytes() == (runs[1] / "erm.ckpt").read_bytes()

        def erm_columns(run):
            header, *rows = (run / "ledger.csv").read_text().splitlines()
            i, j = header.split(",").index("l_erm"), header.split(",").index("erm_loss")
            return [(cells[i], cells[j]) for cells in (row.split(",") for row in rows)]

        assert erm_columns(runs[0]) == erm_columns(runs[1]) != []

    def test_config_error_exit_code_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(config.to_ini(config.ExperimentConfig()).replace(
            "radius_list = 0.0,", "radius_list = 0.5,"))
        assert cli.main(["train", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_cardinality_and_analysis(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path)
        rc = cli.main(["sweep", "--config", str(path)])
        assert rc == 0
        lines = (tmp_path / "runs" / "sweep.csv").read_text().splitlines()
        assert lines[0] == ",".join(cli.SWEEP_COLUMNS)
        assert len(lines) - 1 == len(cfg.radius_list) * len(cfg.seeds)
        report = json.loads((tmp_path / "runs" / "analysis.json").read_text())
        assert "intensity_vs_attack_accuracy" in report["spearman"]
        assert "intensity_vs_gen_gap" in report["spearman"]
        assert report["failures"] == []

    def test_sweep_resumes_completed_runs(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path, seeds=(1,))
        assert cli.main(["sweep", "--config", str(path)]) == 0
        stamps = {}
        for rho in cfg.radius_list:
            p = cli.run_dir_for(cfg, rho, 1) / "summary.json"
            stamps[str(p)] = p.stat().st_mtime_ns
        assert cli.main(["sweep", "--config", str(path)]) == 0
        for p, t in stamps.items():
            assert Path(p).stat().st_mtime_ns == t  # untouched, not re-run

    def test_config_edit_reruns_every_run(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path, seeds=(1,))
        assert cli.main(["sweep", "--config", str(path)]) == 0
        runs = [cli.run_dir_for(cfg, rho, 1) for rho in cfg.radius_list]
        before = {run: (run / "summary.json").stat().st_mtime_ns for run in runs}
        # the worker count cannot change a run's artifacts
        config.save_config(dataclasses.replace(cfg, workers=2), path)
        assert cli.main(["sweep", "--config", str(path)]) == 0
        assert {run: (run / "summary.json").stat().st_mtime_ns for run in runs} == before

        edited = dataclasses.replace(cfg, lr_init=0.05)
        config.save_config(edited, path)
        capsys.readouterr()
        assert cli.main(["report", "--config", str(path)]) == 1
        assert capsys.readouterr().err.count("written under another config") == len(runs)
        assert cli.main(["sweep", "--config", str(path)]) == 0
        for run in runs:
            summary = json.loads((run / "summary.json").read_text())
            assert summary["config_digest"] == config.config_digest(edited)
            assert summary["config_digest"] != config.config_digest(cfg)

    def test_pool_and_serial_sweeps_write_identical_bytes(self, tmp_path, capsys):
        trees = []
        for workers in (1, 2):
            (tmp_path / str(workers)).mkdir()
            cfg, path = tiny_config(tmp_path / str(workers), workers=workers)
            assert cli.main(["sweep", "--config", str(path)]) == 0
            out = Path(cfg.output_dir)
            trees.append({f.relative_to(out): f.read_bytes() for f in out.rglob("*")
                          if f.is_file() and f.name != "meta.json"})
        assert len(trees[0]) == 2 + 4 * 5  # sweep.csv, analysis.json, 4 runs x 5 files
        assert trees[0] == trees[1]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched run must reach the workers by fork")
    def test_dead_worker_fails_its_unfinished_runs_and_merge_still_runs(
            self, tmp_path, capsys, monkeypatch):
        cfg, path = tiny_config(tmp_path, workers=2)
        real = cli.run_experiment

        def dies_on_last_run(cfg, rho, seed):
            if (rho, seed) == (cfg.radius_list[-1], cfg.seeds[-1]):
                os._exit(3)
            return real(cfg, rho, seed)

        monkeypatch.setattr(cli, "run_experiment", dies_on_last_run)
        assert cli.main(["sweep", "--config", str(path)]) == 1
        failures = json.loads((tmp_path / "runs" / "analysis.json").read_text())["failures"]
        rows = (tmp_path / "runs" / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) + len(failures) == len(cfg.radius_list) * len(cfg.seeds)
        assert all("worker process died" in f for f in failures)
        assert any(f.startswith("rho=0.15 seed=2:") for f in failures)
        assert "worker process died" in capsys.readouterr().err
        monkeypatch.undo()
        assert cli.main(["sweep", "--config", str(path)]) == 0

    def test_report_rebuilds_merge(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path, seeds=(1,))
        cli.main(["sweep", "--config", str(path)])
        sweep_csv = (tmp_path / "runs" / "sweep.csv").read_bytes()
        (tmp_path / "runs" / "sweep.csv").unlink()
        assert cli.main(["report", "--config", str(path)]) == 0
        assert (tmp_path / "runs" / "sweep.csv").read_bytes() == sweep_csv

    def test_diverged_run_stays_a_failure_on_resume_and_report(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path, seeds=(1,), lr_init=1e200)
        assert cli.main(["sweep", "--config", str(path)]) == 1
        # the diverged runs left summary.json behind; loading it is no success
        assert cli.main(["sweep", "--config", str(path)]) == 1
        failures = json.loads((tmp_path / "runs" / "analysis.json").read_text())["failures"]
        assert len(failures) == len(cfg.radius_list)
        assert all("diverged at t=" in f for f in failures)
        capsys.readouterr()
        assert cli.main(["report", "--config", str(path)]) == 1
        assert "diverged at t=" in capsys.readouterr().err
        assert json.loads((tmp_path / "runs" / "analysis.json").read_text())["failures"] == failures

    def test_truncated_summary_is_a_failure_then_rerun(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path, seeds=(1,))
        assert cli.main(["sweep", "--config", str(path)]) == 0
        sweep_csv = (tmp_path / "runs" / "sweep.csv").read_bytes()
        summary = cli.run_dir_for(cfg, cfg.radius_list[-1], 1) / "summary.json"
        whole = summary.read_bytes()
        summary.write_bytes(whole[:100])  # as left by a run killed mid-write
        capsys.readouterr()
        assert cli.main(["report", "--config", str(path)]) == 1
        assert "unreadable" in capsys.readouterr().err
        failures = json.loads((tmp_path / "runs" / "analysis.json").read_text())["failures"]
        assert len(failures) == 1 and "unreadable" in failures[0]
        assert cli.main(["sweep", "--config", str(path)]) == 0
        assert summary.read_bytes() == whole
        assert (tmp_path / "runs" / "sweep.csv").read_bytes() == sweep_csv


# every artifact writer, called with a version number k that changes its bytes
WRITERS = {
    "json": lambda path, k: cli._write_json(path, {"a": k}),
    "ledger": lambda path, k: training.write_ledger_csv(
        [training.IterationRecord(20, 1.0, 2.0 * k, 2.0 * k, 0.5, 0.5)], path),
    "checkpoint": lambda path, k: training.save_checkpoint(
        nn.DenseNet.random((2, 3, 2), "relu", seed=k), path),
    "histogram": lambda path, k: cli._write_histogram_csv(path, np.full(10, float(k))),
    "sweep_csv": lambda path, k: cli.write_sweep_csv(
        [{c: float(k) for c in cli.SWEEP_COLUMNS} | {"seed": k}], path),
    "config": lambda path, k: config.save_config(
        dataclasses.replace(config.ExperimentConfig(), data_seed=k), path),
}


class TestWriteJson:
    @pytest.mark.parametrize("writer", WRITERS)
    def test_failed_write_keeps_old_file_and_no_temporary(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "artifact"
        WRITERS[writer](path, 1)
        old = path.read_bytes()

        def killed(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(KeyboardInterrupt):
            WRITERS[writer](path, 2)
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]
        monkeypatch.undo()
        WRITERS[writer](path, 2)
        assert path.read_bytes() != old  # the interrupted write had new bytes to lose


class TestCsvCells:
    def test_every_cell_of_run_and_sweep_tables_is_a_number(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path, seeds=(1,))
        assert cli.main(["sweep", "--config", str(path)]) == 0
        out = Path(cfg.output_dir)
        tables = [out / "sweep.csv", *out.rglob("ledger.csv"), *out.rglob("noise_hist.csv")]
        assert len(tables) == 1 + 2 * len(cfg.radius_list)
        for table in tables:
            header, *rows = table.read_text().splitlines()
            assert rows, table
            for row in rows:
                for cell in row.split(","):
                    try:
                        int(cell)
                    except ValueError:
                        float(cell)  # raises on text such as np.float64(-10.0)


class TestNoiseFields:
    @pytest.mark.parametrize("command", ["train", "sweep", "noise"])
    @pytest.mark.parametrize("field, value", [
        ("noise_tau", 61),  # n_train + 1
        ("noise_components", 68),  # the 4-8-3 net has 67 parameters
    ])
    def test_outside_the_data_is_config_error_before_training(
            self, tmp_path, capsys, monkeypatch, command, field, value):
        cfg, path = tiny_config(tmp_path, **{field: value})
        ckpt = tmp_path / "erm.ckpt"
        training.save_checkpoint(nn.DenseNet.random((4, 8, 3), "relu", seed=1), ckpt)

        def never(*args, **kwargs):
            raise AssertionError("trained despite a config error")

        monkeypatch.setattr(training, "train_twin", never)
        extra = ["--checkpoint", str(ckpt), "--out", str(tmp_path / "nh.csv")] if command == "noise" else []
        assert cli.main([command, "--config", str(path), *extra]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("config error: ")
        assert field in err
        assert not Path(cfg.output_dir).exists() and not (tmp_path / "nh.csv").exists()


class TestCheckpointCommands:
    def assert_config_error(self, capsys, argv, *words):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("config error: ")
        assert all(w in err for w in words), err

    @pytest.mark.parametrize("flags, words", [
        (["--taus", "61"], ["--taus", "60"]),  # 60 training rows
        (["--taus", "15,x"], ["--taus", "'x'"]),
        (["--repeats", "0"], ["--repeats"]),
    ], ids=["tau_above_n", "tau_not_an_integer", "zero_repeats"])
    def test_probe_bad_arguments_fail_before_any_gradient(
            self, tmp_path, capsys, monkeypatch, flags, words):
        _, path = tiny_config(tmp_path)
        ckpt = tmp_path / "net.ckpt"
        training.save_checkpoint(nn.DenseNet.random((4, 8, 3), "relu", seed=1), ckpt)

        def never(*args, **kwargs):
            raise AssertionError("probed despite a config error")

        monkeypatch.setattr(intensity, "consistency_probe", never)
        out = tmp_path / "probe.csv"
        self.assert_config_error(capsys, [
            "probe", "--config", str(path), "--erm-checkpoint", str(ckpt),
            "--adv-checkpoint", str(ckpt), "--rho", "0.1", "--out", str(out), *flags], *words)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["attack", "noise", "probe"])
    @pytest.mark.parametrize("widths", [(5, 8, 3), (4, 8, 2)],  # data: 4 features, 3 classes
                             ids=["wide_input", "few_outputs"])
    def test_checkpoint_that_does_not_fit_the_data_is_config_error(
            self, tmp_path, capsys, command, widths):
        _, path = tiny_config(tmp_path)
        ckpt = tmp_path / "net.ckpt"
        training.save_checkpoint(nn.DenseNet.random(widths, "relu", seed=1), ckpt)
        argv = {"attack": ["--checkpoint", str(ckpt)],
                "noise": ["--checkpoint", str(ckpt), "--out", str(tmp_path / "nh.csv")],
                "probe": ["--erm-checkpoint", str(ckpt), "--adv-checkpoint", str(ckpt),
                          "--rho", "0.1", "--out", str(tmp_path / "probe.csv")]}[command]
        self.assert_config_error(capsys, [command, "--config", str(path), *argv],
                                 str(ckpt), "-".join(map(str, widths)))
        assert sorted(tmp_path.iterdir()) == sorted([path, ckpt])

    def test_noise_components_are_checked_against_the_checkpoint(self, tmp_path, capsys):
        # the config's 4-8-3 net has 67 parameters
        _, path = tiny_config(tmp_path, noise_components=30)
        small, large = tmp_path / "small.ckpt", tmp_path / "large.ckpt"
        training.save_checkpoint(nn.DenseNet.random((4, 3, 3), "relu", seed=1), small)  # 27
        training.save_checkpoint(nn.DenseNet.random((4, 16, 3), "relu", seed=1), large)  # 131
        self.assert_config_error(capsys, ["noise", "--config", str(path), "--checkpoint",
                                          str(small), "--out", str(tmp_path / "nh.csv")],
                                 "noise_components", "27")
        _, path = tiny_config(tmp_path, noise_components=131)
        assert cli.main(["noise", "--config", str(path), "--checkpoint", str(large),
                         "--out", str(tmp_path / "nh.csv")]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 20 * 131

    def test_checkpoint_with_extra_outputs_is_accepted(self, tmp_path, capsys):
        _, path = tiny_config(tmp_path)
        ckpt = tmp_path / "net.ckpt"
        training.save_checkpoint(nn.DenseNet.random((4, 8, 5), "relu", seed=1), ckpt)
        assert cli.main(["attack", "--config", str(path), "--checkpoint", str(ckpt)]) == 0


class TestAccountantCommand:
    def test_scalar_mode_reproduces_hand_example(self, capsys):
        # eps_1 = 2*0.5*1/(10*1) = 0.1 and N/delta' = 100
        rc = cli.main(["accountant", "--l-erm", "0.5", "--intensity", "1.0",
                       "--n", "10", "--b", "1.0", "--delta-prime", "0.1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["composed_thm4"]["epsilon"] == pytest.approx(COMPOSE_HAND, abs=1e-12)

    @pytest.mark.parametrize("steps", [1, 2000])
    def test_scalar_mode_composed_is_leading_plus_second_order_sum(self, steps, capsys):
        # constant (L, I): composed_thm4 = leading_thm5 + T * eps * expm1(eps) / (e^eps + 1)
        l_erm, inten, n, b = 0.7, 3.0, 500, 0.25
        assert cli.main(["accountant", "--l-erm", str(l_erm), "--intensity", str(inten),
                         "--iterations", str(steps), "--n", str(n), "--b", str(b),
                         "--delta-prime", "0.5"]) == 0
        out = json.loads(capsys.readouterr().out)
        eps = 2 * l_erm * inten / (n * b)
        second = steps * eps * math.expm1(eps) / (math.exp(eps) + 1)
        assert out["composed_thm4"]["inputs"]["steps"] == steps
        assert out["leading_thm5"]["inputs"]["t"] == steps
        assert out["composed_thm4"]["epsilon"] == pytest.approx(
            out["leading_thm5"]["epsilon"] + second, rel=1e-12)

    def test_run_ledger_as_series_reproduces_the_run_composed_budget(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path)
        assert cli.main(["train", "--config", str(path), "--rho", "0.15", "--seed", "1"]) == 0
        summary = json.loads(capsys.readouterr().out)
        lines = (cli.run_dir_for(cfg, 0.15, 1) / "ledger.csv").read_text().splitlines()
        columns = lines[0].split(",")
        rows = [dict(zip(columns, line.split(","))) for line in lines[1:]]
        series = tmp_path / "series.csv"
        series.write_text("l_erm,intensity\n" + "".join(
            f"{r['l_erm']},{r['intensity']}\n" for r in rows if r["degenerate"] == "0"))
        assert cli.main(["accountant", "--series", str(series), "--n", str(summary["n_train"]),
                         "--b", repr(summary["noise"]["b"]),
                         "--delta-prime", repr(cfg.delta_prime)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["composed_thm4"]["epsilon"] == summary["budgets"]["composed_thm4"]["epsilon"]

    def test_series_csv_mode(self, tmp_path, capsys):
        p = tmp_path / "series.csv"
        p.write_text("l_erm,intensity\n1.0,2.0\n1.0,2.0\n")
        rc = cli.main(["accountant", "--series", str(p), "--n", "1000", "--b", "0.1",
                       "--delta-prime", "1.0"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        # constant series: leading epsilon = 2*1*2/(1000*0.1)*sqrt(2*2*ln 1000)
        want = (2 * 1 * 2 / (1000 * 0.1)) * np.sqrt(2 * 2 * np.log(1000))
        assert out["leading_thm5"]["epsilon"] == pytest.approx(want, rel=1e-12)

    def test_empty_series_is_null_budget(self, tmp_path, capsys):
        p = tmp_path / "series.csv"
        p.write_text("l_erm,intensity\n")
        rc = cli.main(["accountant", "--series", str(p), "--n", "100", "--b", "0.1",
                       "--delta-prime", "1.0"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["composed_thm4"]["epsilon"] == 0.0
        assert out["leading_thm5"] is None

    def test_malformed_series_nonzero_exit(self, tmp_path, capsys):
        p = tmp_path / "series.csv"
        p.write_text("l_erm,intensity\noops\n")
        assert cli.main(["accountant", "--series", str(p), "--n", "100", "--b", "0.1",
                         "--delta-prime", "1.0"]) == 1
        assert "line 2" in capsys.readouterr().err


class TestCalculatorCommands:
    def test_bounds_command(self, capsys):
        rc = cli.main(["bounds", "--eps", "0.1", "--delta", "0.01",
                       "--loss-bound", "1.0", "--n", "1000", "--gamma", "0.05"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["beta"] == out["on_avg_bound"]
        assert out["inputs"]["c"] == 1.0

    def test_bounds_invalid_gamma_is_config_error(self, capsys):
        assert cli.main(["bounds", "--eps", "0.1", "--delta", "0.01", "--n", "1000",
                         "--gamma", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "gamma" in err

    def test_accountant_zero_b_is_config_error(self, capsys):
        assert cli.main(["accountant", "--l-erm", "0.5", "--intensity", "1.0",
                         "--n", "10", "--b", "0", "--delta-prime", "0.1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Laplace scale b" in err

    @pytest.mark.parametrize("argv, message", [
        (["accountant", "--l-erm", "inf", "--intensity", "1"], "finite"),
        (["accountant", "--l-erm", "0.5", "--intensity", "nan"], "finite"),
        (["accountant", "--series", "{series}"], "finite"),
        (["accountant", "--l-erm", "0.5", "--intensity", "1", "--iterations", "0"], "--iterations"),
        (["accountant", "--l-erm", "0.5", "--intensity", "1", "--iterations", "-3"], "--iterations"),
        (["bounds", "--eps", "nan", "--delta", "0.1"], "epsilon"),
    ], ids=["inf-l-erm", "nan-intensity", "inf-in-series", "zero-iterations",
            "negative-iterations", "nan-eps"])
    def test_non_finite_or_empty_input_is_config_error(self, argv, message, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("l_erm,intensity\n0.5,1.0\n0.5,inf\n")
        argv = [str(series) if a == "{series}" else a for a in argv]
        argv += ["--n", "100"] + (["--b", "0.1", "--delta-prime", "1"]
                                  if argv[0] == "accountant" else [])
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("config error:")
        assert message in captured.err

    @pytest.mark.parametrize("argv, ini_edit", [
        (["bounds", "--eps", "1", "--delta", "0", "--loss-bound", "inf", "--n", "100"], None),
        (["bounds", "--eps", "1", "--delta", "0", "--c", "inf", "--n", "100"], None),
        (["train", "--rho", "0.1"], ("loss_bound = 10.0", "loss_bound = inf")),
        (["train", "--rho", "0.1"], ("constant_c = 1.0", "constant_c = inf")),
    ], ids=["bounds-loss-bound", "bounds-c", "config-loss-bound", "config-constant-c"])
    def test_infinite_loss_bound_or_c_is_config_error(self, argv, ini_edit, tmp_path, capsys):
        if ini_edit:
            cfg, path = tiny_config(tmp_path)
            text = path.read_text()
            assert ini_edit[0] in text
            path.write_text(text.replace(*ini_edit))
            argv = [*argv, "--config", str(path)]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("config error:")
        assert not (tmp_path / "runs").exists()

    def test_accountant_huge_step_gives_finite_json(self, capsys):
        # one per-step epsilon of 800, past where e^eps overflows
        assert cli.main(["accountant", "--l-erm", "400", "--intensity", "1", "--n", "1",
                         "--b", "1", "--delta-prime", "0.5"]) == 0
        out = json.loads(capsys.readouterr().out, parse_constant=lambda c: pytest.fail(c))
        assert out["composed_thm4"]["epsilon"] > out["leading_thm5"]["epsilon"]

    def test_bounds_infinite_eps_gives_beta_m(self, capsys):
        assert cli.main(["bounds", "--eps", "inf", "--delta", "0.1", "--loss-bound", "3",
                         "--n", "100"]) == 0
        assert json.loads(capsys.readouterr().out)["beta"] == 3.0

    def test_attack_and_noise_and_probe(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path, seeds=(1,), radius_list=(0.0, 0.1))
        cli.main(["train", "--config", str(path), "--rho", "0.1", "--seed", "1"])
        run = cli.run_dir_for(cfg, 0.1, 1)
        capsys.readouterr()

        rc = cli.main(["attack", "--config", str(path),
                       "--checkpoint", str(run / "adv.ckpt"),
                       "--sweep-csv", str(tmp_path / "mia.csv")])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert 0.0 <= out["accuracy"] <= 1.0
        train_set, test_set = cfg.load_datasets()
        net = training.load_checkpoint(run / "adv.ckpt")
        rep = attacks.optimal_threshold(attacks.true_label_confidences(net, train_set),
                                        attacks.true_label_confidences(net, test_set))
        assert out["zeta_optim"] == rep.zeta_optim and out["accuracy"] == rep.accuracy
        assert (tmp_path / "mia.csv").read_text() == "zeta,accuracy\n" + "".join(
            f"{z!r},{a!r}\n" for z, a in rep.sweep.tolist())

        rc = cli.main(["noise", "--config", str(path),
                       "--checkpoint", str(run / "erm.ckpt"),
                       "--out", str(tmp_path / "nh.csv"), "--seed", "4"])
        assert rc == 0
        fit = json.loads(capsys.readouterr().out)
        assert fit["b"] > 0
        assert (tmp_path / "nh.csv").read_text().startswith("bin_left,bin_right,count")

        rc = cli.main(["probe", "--config", str(path),
                       "--erm-checkpoint", str(run / "erm.ckpt"),
                       "--adv-checkpoint", str(run / "adv.ckpt"),
                       "--rho", "0.1", "--taus", "15,30,60", "--repeats", "8",
                       "--out", str(tmp_path / "probe.csv")])
        assert rc == 0
        lines = (tmp_path / "probe.csv").read_text().splitlines()
        assert lines[0] == "tau,mean_estimate,full_value"
        assert len(lines) == 4

    def test_diverged_checkpoint_is_one_line_error_exit_1(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path, seeds=(1,), lr_init=1e200)
        assert cli.main(["train", "--config", str(path), "--rho", "0", "--seed", "1"]) == 1
        ckpt = cli.run_dir_for(cfg, 0.0, 1) / "erm.ckpt"
        assert ckpt.exists()  # finite parameters near 1e200
        for argv in (["attack"], ["noise", "--out", str(tmp_path / "nh.csv")]):
            capsys.readouterr()
            assert cli.main([*argv, "--config", str(path), "--checkpoint", str(ckpt)]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1 and err.startswith("error: "), argv
            assert "non-finite" in err or "nan" in err, argv

    def test_missing_checkpoint_is_error_exit_1(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path)
        assert cli.main(["attack", "--config", str(path),
                         "--checkpoint", str(tmp_path / "nope.ckpt")]) == 1

    def test_config_print_round_trips(self, tmp_path, capsys):
        rc = cli.main(["config"])
        assert rc == 0
        text = capsys.readouterr().out
        assert config.from_ini(text) == config.ExperimentConfig()


class TestBlasPin:
    PROBE = ("import json, os, sys\n"
             "{preamble}"
             "from advlab import cli\n"
             "import numpy as np\n"
             "a = np.ones((600, 600))\n"
             "a @ a\n"
             "print(json.dumps({{'threads': len(os.listdir('/proc/self/task')),\n"
             "    'env': {{v: os.environ[v] for v in cli.BLAS_THREAD_VARS if v in os.environ}},\n"
             "    'blas_env': cli.BLAS_ENV, 'preloaded': cli.NUMPY_PRELOADED}}))\n")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    @pytest.mark.parametrize("preamble, user_env, want_env, want_threads, want_preloaded", [
        ("", {}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"},
         1, False),
        ("", {"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2"}, None, False),
        ("import numpy\n", {}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                                 "MKL_NUM_THREADS": "1"}, None, True),
    ])
    def test_fresh_interpreter(self, preamble, user_env, want_env, want_threads, want_preloaded):
        env = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARS}
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.update(user_env)
        proc = subprocess.run([sys.executable, "-c", self.PROBE.format(preamble=preamble)],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        got = json.loads(proc.stdout)
        assert got["env"] == got["blas_env"] == want_env
        assert got["preloaded"] is want_preloaded
        if want_threads is not None:
            assert got["threads"] == want_threads
