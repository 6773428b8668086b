import dataclasses
import json

import numpy as np
import pytest

from advlab import cli, config

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
            from pathlib import Path
            assert Path(p).stat().st_mtime_ns == t  # untouched, not re-run

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


class TestAccountantCommand:
    def test_scalar_mode_reproduces_hand_example(self, capsys):
        # eps_1 = 2*0.5*1/(10*1) = 0.1 and N/delta' = 100
        rc = cli.main(["accountant", "--l-erm", "0.5", "--intensity", "1.0",
                       "--n", "10", "--b", "1.0", "--delta-prime", "0.1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["composed_thm4"]["epsilon"] == pytest.approx(COMPOSE_HAND, abs=1e-12)

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
        assert (tmp_path / "mia.csv").read_text().startswith("zeta,accuracy")

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

    def test_missing_checkpoint_is_error_exit_1(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path)
        assert cli.main(["attack", "--config", str(path),
                         "--checkpoint", str(tmp_path / "nope.ckpt")]) == 1

    def test_config_print_round_trips(self, tmp_path, capsys):
        rc = cli.main(["config"])
        assert rc == 0
        text = capsys.readouterr().out
        assert config.from_ini(text) == config.ExperimentConfig()
