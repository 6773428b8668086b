import concurrent.futures
import csv
import dataclasses
import inspect
import json
import math
import multiprocessing
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from advlab import analysis, attacks, bounds, cli, config, data, intensity, nn, privacy, rng, training
from conftest import write_dataset_csv

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


def csv_config(tmp_path, train: bytes, test: bytes):
    """``tiny_config`` on train.csv and test.csv holding these bytes, with the
    batch and noise fields small enough for a two-row training set."""
    train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
    train_csv.write_bytes(train)
    test_csv.write_bytes(test)
    return tiny_config(tmp_path, source="csv", train_csv=str(train_csv), test_csv=str(test_csv),
                       batch_size=1, noise_tau=1, delta_prime=1.0, noise_components=1)


def break_summary_then_report_and_resume(tmp_path, capsys, corrupt, seeds=(1,)) -> str:
    """Sweep, replace the last rho's seed-1 summary.json bytes with
    ``corrupt(bytes)``, check that ``report`` fails that run as unreadable and
    that a resumed sweep rewrites it as before; returns ``report``'s stderr."""
    cfg, path = tiny_config(tmp_path, seeds=seeds)
    assert cli.main(["sweep", "--config", str(path)]) == 0
    sweep_csv = (tmp_path / "runs" / "sweep.csv").read_bytes()
    summary = cli.run_dir_for(cfg, cfg.radius_list[-1], 1) / "summary.json"
    whole = summary.read_bytes()
    summary.write_bytes(corrupt(whole))
    capsys.readouterr()
    assert cli.main(["report", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "unreadable" in err
    failures = json.loads((tmp_path / "runs" / "analysis.json").read_text())["failures"]
    assert len(failures) == 1 and "unreadable" in failures[0]
    assert cli.main(["sweep", "--config", str(path)]) == 0
    assert summary.read_bytes() == whole
    assert (tmp_path / "runs" / "sweep.csv").read_bytes() == sweep_csv
    return err


def patch_logged_norm(monkeypatch, side, index, norm):
    """Train twins whose ``side`` ("erm" or "adv") trajectory logs a max gradient
    norm of ``norm`` at its ``index``-th logged step."""
    train_twin = training.train_twin

    def patched(*args, **kwargs):
        ledger = train_twin(*args, **kwargs)
        logged = getattr(ledger, side).logged
        t, _, loss = logged[index]
        logged[index] = (t, norm, loss)
        return ledger

    monkeypatch.setattr(training, "train_twin", patched)


def clips_passed(monkeypatch, module, name) -> list:
    """The ``clip_m`` of every later call of ``module.name``, which still runs."""
    real, seen = getattr(module, name), []

    def spy(*args, **kwargs):
        seen.append(inspect.signature(real).bind(*args, **kwargs).arguments["clip_m"])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return seen


def probe_argv(path, ckpt, out):
    """``probe`` under the config at ``path``, with ``ckpt`` as both models,
    writing its table to ``out``."""
    return ["probe", "--config", str(path), "--erm-checkpoint", str(ckpt),
            "--adv-checkpoint", str(ckpt), "--rho", "0.1", "--repeats", "2", "--out", str(out)]


def kill_the_adversary(monkeypatch):
    """Train twins whose second logged record has a dead adversarial net: a
    max gradient norm, so an intensity, of exactly 0."""
    patch_logged_norm(monkeypatch, "adv", 1, 0.0)


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
        cfg, path = tiny_config(tmp_path, radius_list=(0.0,), seeds=(1,))
        kill_the_adversary(monkeypatch)
        assert cli.main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "intensity is 0" in err
        assert cli.main(["sweep", "--config", str(path)]) == 1
        failures = json.loads((Path(cfg.output_dir) / "analysis.json").read_text())["failures"]
        assert len(failures) == 1 and "intensity is 0" in failures[0]

    @pytest.mark.parametrize("side, name", [("erm", "ERM"), ("adv", "adversarial")])
    def test_dead_model_run_is_one_line_error_exit_1(self, tmp_path, capsys, monkeypatch,
                                                     side, name):
        # a last logged max gradient norm as seed 3's ERM net ends with at n_train 200, spread 2.5
        cfg, path = tiny_config(tmp_path, seeds=(1,))
        patch_logged_norm(monkeypatch, side, -1, 6.1e-136)
        assert cli.main(["train", "--config", str(path), "--rho", "0.15"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: run rho=0.15 seed=1: the {name} model is dead")
        summary = json.loads((cli.run_dir_for(cfg, 0.15, 1) / "summary.json").read_text())
        assert "dead" in summary["failure"] and "mia" not in summary

    def test_accuracies_populated(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path)
        assert cli.main(["train", "--config", str(path), "--rho", "0", "--seed", "1"]) == 0
        summary = json.loads(capsys.readouterr().out)
        for side in ("erm", "adv"):
            acc = summary[side]
            assert 0.0 <= acc["train_acc"] <= 1.0 and 0.0 <= acc["test_acc"] <= 1.0
            assert acc["gen_gap"] == acc["train_acc"] - acc["test_acc"]

    def test_diverged_run_is_one_error_line_and_still_writes_its_summary(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path, lr_init=1e200)
        assert cli.main(["train", "--config", str(path), "--rho", "0.15", "--seed", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: run rho=0.15 seed=1: diverged at t=")
        run = cli.run_dir_for(cfg, 0.15, 1)
        summary = json.loads((run / "summary.json").read_text())
        assert summary["diverged_at"] is not None and (run / "meta.json").exists()
        assert cli.run_experiment(cfg, 0.15, 1) == summary  # returned, not raised

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

    def test_negative_zero_rho_is_the_radius_zero_run(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path, seeds=(1,))
        assert cli.main(["train", "--config", str(path), "--rho", "-0.0", "--seed", "1"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert math.copysign(1.0, summary["rho"]) == 1.0
        assert [d.name for d in Path(cfg.output_dir).iterdir()] == ["rho=0.0"]
        assert (cli.run_dir_for(cfg, 0.0, 1) / "summary.json").exists()

    @pytest.mark.parametrize("command", [
        ["train", "--config", "x.ini"],
        ["probe", "--config", "x.ini", "--erm-checkpoint", "e", "--adv-checkpoint", "a"]])
    def test_every_rho_flag_reads_negative_zero_as_zero(self, command):
        # the flag parses as a float; the attack it names stores the radius 0.0
        rho = cli.build_parser().parse_args([*command, "--rho", "-0.0"]).rho
        radius = config.ExperimentConfig().attack_spec(rho).radius
        assert radius == 0.0 and math.copysign(1.0, radius) == 1.0

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
        assert key_paths(report) == ANALYSIS_PATHS
        assert report["rows"] == len(lines) - 1
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

    @pytest.mark.parametrize("seeds, workers, usable_cpus, pool_sizes", [
        ((1,), 3, {0, 1}, []), ((1, 2), 3, {0, 1}, [2]),
        # workers = 0 counts the CPUs this process may use, not the machine's 8
        ((1, 2), 0, {0}, []), ((1, 2, 3), 0, {0, 1}, [2]),
    ], ids=["one_job_serial", "two_jobs_two_workers", "one_usable_cpu_serial",
            "two_usable_cpus_two_workers"])
    def test_pool_has_no_more_workers_than_unfinished_runs(self, tmp_path, capsys, monkeypatch,
                                                           seeds, workers, usable_cpus,
                                                           pool_sizes):
        cfg, path = tiny_config(tmp_path, radius_list=(0.0,), seeds=seeds, workers=workers)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: usable_cpus, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        sizes = []

        class InlinePool:
            """Records its size and runs each job in this process: it starts no process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        assert cli.main(["sweep", "--config", str(path)]) == 0
        assert sizes == pool_sizes
        assert len((Path(cfg.output_dir) / "sweep.csv").read_text().splitlines()) == 1 + len(seeds)

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

    def test_report_names_a_missing_run(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path, radius_list=(0.0, 0.1, 0.2), seeds=(1,))
        assert cli.main(["sweep", "--config", str(path)]) == 0
        shutil.rmtree(Path(cfg.output_dir) / "rho=0.1")
        capsys.readouterr()
        assert cli.main(["report", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert err == "rho=0.1 seed=1: no summary.json\n"
        assert out.startswith("merged 2 runs")
        analysis_json = json.loads((Path(cfg.output_dir) / "analysis.json").read_text())
        assert analysis_json["failures"] == ["rho=0.1 seed=1: no summary.json"]
        assert cli.main(["sweep", "--config", str(path)]) == 0  # the sweep reruns it
        assert cli.main(["report", "--config", str(path)]) == 0

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

    def test_unaccountable_run_stays_a_failure_and_is_not_retrained(
            self, tmp_path, capsys, monkeypatch):
        # a loss bound this small clips every loss, so every logged record is degenerate
        cfg, path = tiny_config(tmp_path, loss_bound=1e-9, radius_list=(0.0,), seeds=(1,))
        assert cli.main(["sweep", "--config", str(path)]) == 1
        run = cli.run_dir_for(cfg, 0.0, 1)
        assert "degenerate" in json.loads((run / "summary.json").read_text())["failure"]
        assert (run / "meta.json").exists()
        analysis_json = tmp_path / "runs" / "analysis.json"

        def never(*args, **kwargs):
            raise AssertionError("retrained a run that left its summary")

        monkeypatch.setattr(training, "train_twin", never)
        for command in ("sweep", "report"):
            assert cli.main([command, "--config", str(path)]) == 1
            assert json.loads(analysis_json.read_text())["failures"] == [
                f"rho=0.0 seed=1: {json.loads((run / 'summary.json').read_text())['failure']}"]
            assert (tmp_path / "runs" / "sweep.csv").read_text().count("\n") == 1  # header only

    @pytest.mark.parametrize("kind", ["diverged", "degenerate", "zero_intensity", "dead_model"])
    def test_failure_reads_the_same_on_first_sweep_resume_and_report(
            self, tmp_path, capsys, monkeypatch, kind):
        overrides = {"diverged": {"lr_init": 1e200}, "degenerate": {"loss_bound": 1e-9}}
        cfg, path = tiny_config(tmp_path, radius_list=(0.0,), seeds=(1,),
                                **overrides.get(kind, {}))
        if kind == "zero_intensity":
            kill_the_adversary(monkeypatch)
        if kind == "dead_model":
            patch_logged_norm(monkeypatch, "erm", -1, 0.0)
        analysis_json = Path(cfg.output_dir) / "analysis.json"
        seen = []
        for command in ("sweep", "sweep", "report"):
            assert cli.main([command, "--config", str(path)]) == 1
            seen.append((analysis_json.read_bytes(), capsys.readouterr().err))
        assert seen[0] == seen[1] == seen[2]
        failures = json.loads(seen[0][0])["failures"]
        assert len(failures) == 1 and seen[0][1] == failures[0] + "\n"
        assert failures[0].startswith("rho=0.0 seed=1: ") and "Traceback" not in failures[0]

    @pytest.mark.parametrize("text", ["[]", "null", "3", '"done"'])
    def test_summary_that_is_not_an_object_is_unreadable_then_rerun(
            self, tmp_path, capsys, text):
        err = break_summary_then_report_and_resume(tmp_path, capsys, lambda whole: text.encode())
        assert err.count("\n") == 1 and "not a JSON object" in err

    def test_csv_edit_reruns_every_run(self, tmp_path, capsys):
        train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
        write_dataset_csv(data.synth_blobs(20, 3, 4, 1.0, seed=1), train_csv)
        write_dataset_csv(data.synth_blobs(10, 3, 4, 1.0, seed=2), test_csv)
        cfg, path = tiny_config(tmp_path, source="csv", train_csv=str(train_csv),
                                test_csv=str(test_csv), seeds=(1,))
        assert cli.main(["sweep", "--config", str(path)]) == 0
        summaries = [cli.run_dir_for(cfg, rho, 1) / "summary.json" for rho in cfg.radius_list]
        before = [json.loads(s.read_text()) for s in summaries]
        # same shape, new rows
        write_dataset_csv(data.synth_blobs(20, 3, 4, 1.0, seed=3), train_csv)
        assert cli.main(["sweep", "--config", str(path)]) == 0
        after = [json.loads(s.read_text()) for s in summaries]
        for old, new in zip(before, after):
            assert new["config_digest"] == config.config_digest(cfg) != old["config_digest"]
            assert new["noise"] != old["noise"]  # retrained on the new rows, not reused

    def test_truncated_summary_is_a_failure_then_rerun(self, tmp_path, capsys):
        # as left by a run killed mid-write
        break_summary_then_report_and_resume(tmp_path, capsys, lambda whole: whole[:100])

    @pytest.mark.parametrize("column, edit", [
        # beta was on_avg_bound before it was renamed, which left the config digest as it was
        ("beta", lambda s: s["bounds"][0].update(on_avg_bound=s["bounds"][0].pop("beta"))),
        ("beta", lambda s: s.update(bounds=[])),
        ("attack_accuracy", lambda s: s.update(mia=None)),
    ], ids=["renamed", "no-bounds", "null-mia"])
    def test_summary_that_lacks_a_sweep_column_is_unreadable_then_rerun(
            self, tmp_path, capsys, column, edit):
        def corrupt(whole):
            summary = json.loads(whole)
            edit(summary)
            return json.dumps(summary).encode()

        err = break_summary_then_report_and_resume(tmp_path, capsys, corrupt)
        assert err.count("\n") == 1 and err.endswith(f"summary.json: lacks {column}\n"), err

    def test_summary_copied_from_another_run_is_unreadable_then_rerun(self, tmp_path, capsys):
        # the rho=0.0 run's valid summary, copied over the rho=0.15 run's
        other = tmp_path / "runs" / "rho=0.0" / "seed=1" / "summary.json"
        err = break_summary_then_report_and_resume(tmp_path, capsys,
                                                   lambda whole: other.read_bytes())
        assert err.count("\n") == 1, err
        assert err.endswith("rho=0.15/seed=1/summary.json: written for rho=0.0 seed=1\n"), err

    def test_summary_copied_from_another_seed_is_unreadable_then_rerun(self, tmp_path, capsys):
        # the same rho's seed=2 summary, copied over the seed=1 run's
        other = tmp_path / "runs" / "rho=0.15" / "seed=2" / "summary.json"
        err = break_summary_then_report_and_resume(tmp_path, capsys,
                                                   lambda whole: other.read_bytes(), seeds=(1, 2))
        assert err.count("\n") == 1, err
        assert err.endswith("rho=0.15/seed=1/summary.json: written for rho=0.15 seed=2\n"), err


# every artifact writer, called with a version number k that changes its bytes
WRITERS = {
    "json": lambda path, k: cli._write_json(path, {"a": k}),
    "ledger": lambda path, k: training.write_ledger_csv(
        [intensity.IterationRecord(20, 1.0, 2.0 * k, 2.0 * k, 0.5, 0.5)], path),
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


# every key path of a finished run's summary.json; "[]" marks a list of objects
SUMMARY_PATHS = {
    "rho", "seed", "config_digest", "diverged_at", "n_train", "n_test",
    "index_digests.erm", "index_digests.adv", "index_digests.match",
    "erm.train_acc", "erm.test_acc", "erm.gen_gap",
    "adv.train_acc", "adv.test_acc", "adv.gen_gap",
    "records", "records_skipped",
    "noise.b", "noise.location", "noise.count", "noise.divisor",
    "eps_per_step", "intensity_1t", "l_erm_1t",
    "budgets.composed_thm4.epsilon", "budgets.composed_thm4.delta",
    "budgets.composed_thm4.provenance", "budgets.composed_thm4.inputs.n",
    "budgets.composed_thm4.inputs.delta_prime", "budgets.composed_thm4.inputs.steps",
    "budgets.leading_thm5.epsilon", "budgets.leading_thm5.delta",
    "budgets.leading_thm5.provenance", "budgets.leading_thm5.inputs.l_erm_1t",
    "budgets.leading_thm5.inputs.i_1t", "budgets.leading_thm5.inputs.t",
    "budgets.leading_thm5.inputs.n", "budgets.leading_thm5.inputs.b",
    "budgets.leading_thm5.inputs.delta_prime",
    "budgets.erm_corollary.epsilon", "budgets.erm_corollary.delta",
    "budgets.erm_corollary.provenance", "budgets.erm_corollary.inputs.l_erm_1t",
    "budgets.erm_corollary.inputs.i_1t", "budgets.erm_corollary.inputs.t",
    "budgets.erm_corollary.inputs.n", "budgets.erm_corollary.inputs.b",
    "budgets.erm_corollary.inputs.delta_prime",
    "bounds[].beta", "bounds[].high_prob_bound", "bounds[].gamma", "bounds[].c",
    "mia.zeta_optim", "mia.accuracy", "adv_accuracy", "adv_accuracy_common",
}
# every key path of analysis.json, whatever the sweep's row count
ANALYSIS_PATHS = {
    "rows", "failures", "spearman.intensity_vs_radius", "spearman.intensity_vs_attack_accuracy",
    "spearman.intensity_vs_gen_gap", "spearman.intensity_vs_common_attack_accuracy",
    "spearman.intensity_vs_matched_attack_accuracy",
}
SWEEP_HEADER = ("rho,seed,intensity_1t,adv_accuracy,adv_accuracy_common,attack_accuracy,"
                "gen_gap,eps_leading,beta,high_prob_bound")


def key_paths(obj, prefix=""):
    if isinstance(obj, dict):
        return {p for k, v in obj.items() for p in key_paths(v, f"{prefix}.{k}".lstrip("."))}
    if isinstance(obj, list) and obj and isinstance(obj[0], dict):
        return {p for v in obj for p in key_paths(v, f"{prefix}[]")}
    return {prefix}


class TestOutputLayout:
    def test_summary_key_paths_and_sweep_header_are_pinned(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path, radius_list=(0.0,), seeds=(1,))
        assert cli.main(["sweep", "--config", str(path)]) == 0
        summary = json.loads((cli.run_dir_for(cfg, 0.0, 1) / "summary.json").read_text())
        assert key_paths(summary) == SUMMARY_PATHS
        header = (Path(cfg.output_dir) / "sweep.csv").read_text().splitlines()[0]
        assert header == SWEEP_HEADER
        analysis_json = Path(cfg.output_dir) / "analysis.json"
        report = json.loads(analysis_json.read_text())
        assert key_paths(report) == ANALYSIS_PATHS
        assert report["rows"] == 1 and set(report["spearman"].values()) == {None}
        assert cli.main(["report", "--config", str(path)]) == 0
        assert key_paths(json.loads(analysis_json.read_text())) == ANALYSIS_PATHS


def sweep_summary(rho=0.1, seed=1):
    """The ``SWEEP_COLUMNS`` part of a run's summary.json, every value distinct."""
    return {"rho": rho, "seed": seed, "intensity_1t": 1.5, "adv_accuracy": 0.6,
            "adv_accuracy_common": 0.55, "mia": {"accuracy": 0.52, "zeta_optim": 0.3},
            "adv": {"gen_gap": 0.04}, "budgets": {"leading_thm5": {"epsilon": 7.0}},
            "bounds": [{"beta": 0.2, "high_prob_bound": 0.9}, {"beta": 0.3, "high_prob_bound": 1.1}]}


def sweep_report_row(rho, ii, attack=0.5, gap=0.0, common=0.5, matched=0.5):
    return {**cli.sweep_row(sweep_summary(rho)), "intensity_1t": ii, "attack_accuracy": attack,
            "gen_gap": gap, "adv_accuracy_common": common, "adv_accuracy": matched}


class TestSweepReport:
    """``sweep_row`` (the one ``SWEEP_COLUMNS`` walker) and ``analyze_rows``."""

    def test_sweep_row_reads_each_column_at_its_summary_path(self):
        row = cli.sweep_row(sweep_summary(rho=0.35, seed=2))
        assert list(row) == list(cli.SWEEP_COLUMNS)
        assert row == {"rho": 0.35, "seed": 2, "intensity_1t": 1.5, "adv_accuracy": 0.6,
                       "adv_accuracy_common": 0.55, "attack_accuracy": 0.52, "gen_gap": 0.04,
                       "eps_leading": 7.0, "beta": 0.2, "high_prob_bound": 0.9}

    @pytest.mark.parametrize("corrupt, column", [
        ("no_intensity", "intensity_1t"), ("null_adv", "gen_gap"),
        ("no_leading_budget", "eps_leading"), ("no_seed_and_no_bounds", "seed")])
    def test_sweep_row_names_the_first_column_it_lacks(self, corrupt, column):
        summary = sweep_summary()
        if corrupt == "no_intensity":
            del summary["intensity_1t"]
        elif corrupt == "null_adv":
            summary["adv"] = None
        elif corrupt == "no_leading_budget":
            summary["budgets"] = {"erm_corollary": {"epsilon": 1.0}}
        else:
            del summary["seed"], summary["bounds"]
        with pytest.raises(ValueError, match=f"^lacks {column}$"):
            cli.sweep_row(summary)

    def test_sweep_rows_are_in_rho_then_seed_order(self):
        keys = [(0.35, 1), (0.0, 2), (0.35, 0), (0.0, 1)]
        rows = cli.sweep_rows([sweep_summary(rho, seed) for rho, seed in keys])
        assert [(r["rho"], r["seed"]) for r in rows] == sorted(keys)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_under_three_rows_every_correlation_is_null(self, n):
        rows = [sweep_report_row(0.1 * (k + 1), ii=1.0 + k, attack=0.5 + 0.1 * k)
                for k in range(n)]
        report = cli.analyze_rows(rows)
        assert report["rows"] == n
        assert set(report["spearman"]) == {p.split(".", 1)[1] for p in ANALYSIS_PATHS
                                           if p.startswith("spearman.")}
        assert set(report["spearman"].values()) == {None}

    def test_a_constant_column_nulls_only_its_own_correlation(self):
        rows = [sweep_report_row(rho, ii=1.0 + rho, attack=0.5, gap=0.1 * rho,
                                 common=0.9 - rho, matched=0.2 + rho)
                for rho in (0.0, 0.1, 0.2, 0.3)]
        assert cli.analyze_rows(rows)["spearman"] == {
            "intensity_vs_radius": 1.0, "intensity_vs_attack_accuracy": None,
            "intensity_vs_gen_gap": 1.0, "intensity_vs_common_attack_accuracy": -1.0,
            "intensity_vs_matched_attack_accuracy": 1.0}

    def test_robust_correlations_read_only_the_attacked_rows(self):
        # radius-0 rows whose accuracies would reverse both robust trends if read
        erm = [sweep_report_row(0.0, ii=0.1 * k, common=0.95 + 0.01 * k,
                                matched=0.95 + 0.01 * k) for k in range(3)]
        robust = [sweep_report_row(rho, ii=1.0 + rho, common=rho, matched=rho)
                  for rho in (0.1, 0.2, 0.3)]
        spearman = cli.analyze_rows(erm + robust)["spearman"]
        assert spearman["intensity_vs_common_attack_accuracy"] == 1.0
        assert spearman["intensity_vs_matched_attack_accuracy"] == 1.0
        spearman = cli.analyze_rows(erm + robust[:2])["spearman"]  # two attacked rows
        assert spearman["intensity_vs_radius"] is not None
        assert spearman["intensity_vs_common_attack_accuracy"] is None
        assert spearman["intensity_vs_matched_attack_accuracy"] is None


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
    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("field, value", [
        ("noise_tau", 61),  # n_train + 1
        ("noise_components", 68),  # the 4-8-3 net has 67 parameters
        ("delta_prime", 60.0),  # ln(n_train / delta_prime) must be positive
    ])
    def test_outside_the_data_is_config_error_before_training(
            self, tmp_path, capsys, monkeypatch, command, field, value):
        cfg, path = tiny_config(tmp_path, **{field: value})

        def never(*args, **kwargs):
            raise AssertionError("trained despite a config error")

        monkeypatch.setattr(training, "train_twin", never)
        assert cli.main([command, "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("config error: ")
        assert field in err
        assert not Path(cfg.output_dir).exists()


class TestInvalidValues:
    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("field, value", [
        ("total_iterations", "0"), ("log_every", "0"), ("lr_decay_every", "0"),
        ("batch_size", "0"), ("batch_size", "5000"), ("steps", "-1"), ("norm", "l3"),
        ("activation", "sigmoid"), ("hidden", "8,0"), ("n_per_class", "0"), ("dim", "0"),
        ("num_classes", "0"), ("n_train", "300"), ("spread", "-1.0"), ("workers", "-1"),
        ("lr_init", "nan"), ("weight_decay", "nan"), ("lr_decay", "nan"), ("momentum", "inf"),
        ("spread", "inf"), ("radius_list", "0.0,nan"), ("step_size", "inf"),
        ("delta_prime", "inf"), ("seeds", "-1"), ("seeds", str(2 ** 128)), ("seeds", "1,1"),
        ("data_seed", "-2"), ("log_every", "61"), ("loss_bound", "inf"), ("constant_c", "inf"),
        # past one float64 array or the Philox steps of the noise stream
        ("n_per_class", str(10 ** 19)), ("dim", str(10 ** 19)), ("num_classes", str(10 ** 19)),
        ("hidden", f"8,{10 ** 19}"), ("noise_batches", str(10 ** 19)),
        ("noise_batches", str(2 ** 64 + 5)),
    ])
    def test_is_one_config_error_before_any_directory_or_job(
            self, tmp_path, capsys, monkeypatch, command, field, value):
        cfg, path = tiny_config(tmp_path, total_iterations=40, n_per_class=100, n_train=200)
        text = path.read_text()
        line = next(line for line in text.splitlines(True) if line.startswith(f"{field} = "))
        path.write_text(text.replace(line, f"{field} = {value}\n"))

        def never(*args, **kwargs):
            raise AssertionError("started work despite a config error")

        monkeypatch.setattr(config, "synth_blobs", never)
        monkeypatch.setattr(training, "train_twin", never)
        extra = ["--rho", "0.1"] if command == "train" else []
        assert cli.main([command, "--config", str(path), *extra]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("config error: ")
        assert field in err
        assert not Path(cfg.output_dir).exists()

    @pytest.mark.parametrize("command", ["config", "train", "sweep"])
    @pytest.mark.parametrize("extra, section", [
        ("[trian]\ntotal_iterations = 40\n", "[trian]"),
        ("[DEFAULT]\ntotal_iterations = 40\n", "[DEFAULT]"),
    ], ids=["misspelled", "default-key"])
    def test_unknown_section_is_one_config_error_before_any_directory_or_job(
            self, tmp_path, capsys, monkeypatch, command, extra, section):
        cfg, path = tiny_config(tmp_path)
        path.write_text(path.read_text() + extra)

        def never(*args, **kwargs):
            raise AssertionError("trained despite a config error")

        monkeypatch.setattr(training, "train_twin", never)
        assert cli.main([command, "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"config error: unknown section {section}"), err
        assert not Path(cfg.output_dir).exists()

    @pytest.mark.parametrize("argv, words", [
        (["train", "--rho", "nan"], ["radius", "nan"]),
        (["train", "--rho", "inf"], ["radius", "inf"]),
        (["train", "--rho", "0.1", "--seed", "-1"], ["seed", "-1"]),
        (["probe", "--erm-checkpoint", "{ckpt}", "--adv-checkpoint", "{ckpt}", "--rho", "0.1",
          "--out", "{out}", "--seed", "-1"], ["--seed"]),
    ], ids=["train-rho-nan", "train-rho-inf", "train-seed", "probe-seed"])
    def test_bad_rho_or_seed_flag_is_one_config_error_before_any_work(
            self, tmp_path, capsys, monkeypatch, argv, words):
        cfg, path = tiny_config(tmp_path)
        ckpt, out = tmp_path / "net.ckpt", tmp_path / "out.csv"
        training.save_checkpoint(nn.DenseNet.random((4, 8, 3), "relu", seed=1), ckpt)

        def never(*args, **kwargs):
            raise AssertionError("started work despite a config error")

        for module, name in ((training, "train_twin"), (privacy, "collect_noise"),
                             (intensity, "consistency_probe")):
            monkeypatch.setattr(module, name, never)
        argv = [{"{ckpt}": str(ckpt), "{out}": str(out)}.get(a, a) for a in argv]
        assert cli.main([*argv, "--config", str(path)]) == 2
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.count("\n") == 1 and err.startswith("config error: ")
        assert all(w in err for w in words), err
        assert not Path(cfg.output_dir).exists() and not out.exists()


class TestCheckpointCommands:
    def assert_config_error(self, capsys, argv, *words):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("config error: ")
        assert all(w in err for w in words), err

    @pytest.mark.parametrize("flags, words", [
        (["--taus", "61"], ["--taus", "60"]),  # 60 training rows
        (["--taus", "15,x"], ["--taus", "'x'"]),
        (["--taus", ""], ["--taus", "''"]),
        (["--repeats", "0"], ["--repeats"]),
        (["--repeats", str(10 ** 19)], ["--repeats"]),  # 3 batch sizes: steps past 2**64
        (["--repeats", str(10 ** 20)], ["--repeats"]),  # past numpy's largest dimension too
    ], ids=["tau_above_n", "tau_not_an_integer", "empty_taus", "zero_repeats", "repeats_1e19",
            "repeats_1e20"])
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

    @pytest.mark.parametrize("widths", [(5, 8, 3), (4, 8, 2)],  # data: 4 features, 3 classes
                             ids=["wide_input", "few_outputs"])
    def test_checkpoint_that_does_not_fit_the_data_is_config_error(
            self, tmp_path, capsys, widths):
        _, path = tiny_config(tmp_path)
        ckpt = tmp_path / "net.ckpt"
        training.save_checkpoint(nn.DenseNet.random(widths, "relu", seed=1), ckpt)
        self.assert_config_error(capsys, probe_argv(path, ckpt, tmp_path / "probe.csv"),
                                 str(ckpt), "-".join(map(str, widths)))
        assert sorted(tmp_path.iterdir()) == sorted([path, ckpt])

    def test_checkpoint_with_a_non_finite_parameter_is_one_line_error_exit_1(
            self, tmp_path, capsys):
        _, path = tiny_config(tmp_path)
        ckpt = tmp_path / "net.ckpt"
        net = nn.DenseNet.random((4, 8, 3), "relu", seed=1)
        training.save_checkpoint(net, ckpt)
        blob = bytearray(ckpt.read_bytes())
        first = len(blob) - 8 * net.num_params  # the first payload double
        blob[first:first + 8] = np.array([np.nan], dtype="<f8").tobytes()
        ckpt.write_bytes(bytes(blob))
        assert cli.main(probe_argv(path, ckpt, tmp_path / "probe.csv")) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("error: "), err
        assert str(ckpt) in err and "non-finite" in err, err
        assert sorted(tmp_path.iterdir()) == sorted([path, ckpt])

    def test_checkpoint_with_a_zero_width_is_one_line_error_exit_1(self, tmp_path, capsys):
        # no config builds a 4-0-3 net, whose 3 parameters are the output biases
        _, path = tiny_config(tmp_path)
        ckpt = tmp_path / "net.ckpt"
        ckpt.write_bytes(training.CHECKPOINT_MAGIC + struct.pack("<BI3I", 0, 2, 4, 0, 3)
                         + np.zeros(3).astype("<f8").tobytes())
        assert cli.main(probe_argv(path, ckpt, tmp_path / "probe.csv")) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("error: "), err
        assert str(ckpt) in err and "4-0-3" in err, err
        assert sorted(tmp_path.iterdir()) == sorted([path, ckpt])

    def test_checkpoint_with_extra_outputs_is_accepted(self, tmp_path, capsys):
        _, path = tiny_config(tmp_path)
        ckpt = tmp_path / "net.ckpt"
        training.save_checkpoint(nn.DenseNet.random((4, 8, 5), "relu", seed=1), ckpt)
        assert cli.main(probe_argv(path, ckpt, tmp_path / "probe.csv")) == 0

    def test_probe_writes_a_row_per_batch_size(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path, seeds=(1,), radius_list=(0.0, 0.1))
        assert cli.main(["train", "--config", str(path), "--rho", "0.1", "--seed", "1"]) == 0
        run = cli.run_dir_for(cfg, 0.1, 1)
        assert cli.main(["probe", "--config", str(path),
                         "--erm-checkpoint", str(run / "erm.ckpt"),
                         "--adv-checkpoint", str(run / "adv.ckpt"),
                         "--rho", "0.1", "--taus", "15,30,60", "--repeats", "8",
                         "--out", str(tmp_path / "probe.csv")]) == 0
        lines = (tmp_path / "probe.csv").read_text().splitlines()
        assert lines[0] == "tau,mean_estimate,full_value"
        assert len(lines) == 4

    def test_diverged_checkpoint_is_one_line_error_exit_1(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path, seeds=(1,), lr_init=1e200)
        assert cli.main(["train", "--config", str(path), "--rho", "0", "--seed", "1"]) == 1
        ckpt = cli.run_dir_for(cfg, 0.0, 1) / "erm.ckpt"
        assert ckpt.exists()  # finite parameters near 1e200
        capsys.readouterr()
        assert cli.main(probe_argv(path, ckpt, tmp_path / "probe.csv")) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: non-finite ") and err.endswith(
            ": the model has diverged\n"), err
        assert not (tmp_path / "probe.csv").exists()  # no table from a diverged model

    def test_missing_checkpoint_is_error_exit_1(self, tmp_path, capsys):
        _, path = tiny_config(tmp_path)
        assert cli.main(probe_argv(path, tmp_path / "nope.ckpt", tmp_path / "probe.csv")) == 1


class TestConfigCommand:
    def test_config_print_round_trips(self, tmp_path, capsys):
        rc = cli.main(["config"])
        assert rc == 0
        text = capsys.readouterr().out
        assert config.from_ini(text) == config.ExperimentConfig()

    def test_negative_zero_radius_round_trips_as_zero(self, tmp_path, capsys):
        path = tmp_path / "negzero.ini"
        path.write_text("[attack]\nradius_list = -0.0, 0.1\n")
        assert cli.main(["config", "--config", str(path)]) == 0
        assert "radius_list = 0.0,0.1\n" in capsys.readouterr().out
        radius_0 = config.load_config(path).radius_list[0]
        assert math.copysign(1.0, radius_0) == 1.0


COMMANDS = ("train", "sweep", "report", "probe", "config")


class TestUsageErrors:
    """A command line that argparse rejects exits 2 with a usage line and an
    ``advlab: error:`` line (``advlab <command>: error:`` for a command's flags),
    not the one ``config error:`` line."""

    def usage_error(self, capsys, argv) -> str:
        """The error line of ``argv``'s usage error."""
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "", out
        assert err.startswith("usage: advlab "), err
        *_, line = err.splitlines()
        assert line.startswith("advlab") and ": error: " in line, err
        return line

    @pytest.mark.parametrize("name", ["attack", "noise", "accountant", "bounds"])
    def test_removed_calculator_is_an_unknown_command(self, capsys, name):
        line = self.usage_error(capsys, [name, "--config", "exp.ini"])
        assert line.startswith("advlab: error: ") and f"invalid choice: '{name}'" in line
        assert all(command in line for command in COMMANDS), line

    @pytest.mark.parametrize("argv, words", [
        (["train"], ["--config"]),
        (["train", "--config", "exp.ini", "--seed", "1.5"], ["--seed", "'1.5'"]),
        (["train", "--config", "exp.ini", "--rho", "abc"], ["--rho", "'abc'"]),
        (["sweep"], ["--config"]),
        (["report"], ["--config"]),
        (["probe", "--config", "exp.ini"], ["--erm-checkpoint", "--adv-checkpoint", "--rho"]),
        (["probe", "--config", "exp.ini", "--erm-checkpoint", "a", "--adv-checkpoint", "b",
          "--rho", "0.1", "--repeats", "2.5"], ["--repeats", "'2.5'"]),
    ], ids=["missing-config", "non-integer-seed", "non-float-rho", "sweep-missing-config",
            "report-missing-config", "probe-missing-checkpoints", "probe-non-integer-repeats"])
    def test_bad_flag_names_the_flag(self, capsys, argv, words):
        line = self.usage_error(capsys, argv)
        assert line.startswith(f"advlab {argv[0]}: error: "), line
        assert all(w in line for w in words), line

    @pytest.mark.parametrize("argv, words", [
        ([], "required: command"),
        (["train", "--config", "exp.ini", "--bogus"], "unrecognized arguments: --bogus"),
    ], ids=["no-command", "unknown-flag"])
    def test_no_command_or_unknown_flag_is_a_top_level_error(self, capsys, argv, words):
        line = self.usage_error(capsys, argv)
        assert line.startswith("advlab: error: ") and words in line, line

    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_command_has_its_own_help(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        out, err = capsys.readouterr()
        assert exc.value.code == 0 and err == ""
        assert out.startswith(f"usage: advlab {command} ") and "--config" in out

    def test_help_lists_exactly_the_five_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert f"{{{','.join(COMMANDS)}}}" in capsys.readouterr().out


class TestEachModelScoredOnce:
    """A model's accuracy and its membership-inference confidences on a row set
    come from one ``nn.forward`` pass over it."""

    def forwarded_rows(self, monkeypatch) -> list:
        real, rows = nn.forward, []

        def spy(net, features):
            rows.append(len(features))
            return real(net, features)

        monkeypatch.setattr(nn, "forward", spy)
        return rows

    def test_a_run_forwards_six_times(self, tmp_path, capsys, monkeypatch):
        cfg, path = tiny_config(tmp_path, seeds=(1,))
        n_train, n_test = (len(s) for s in cfg.load_datasets())
        rows = self.forwarded_rows(monkeypatch)
        assert cli.main(["train", "--config", str(path), "--rho", "0.15", "--seed", "1"]) == 0
        # both sets through the ERM and the adversarial model, then the two PGD endpoint sets
        assert rows == [n_train, n_test] * 2 + [n_test] * 2

class TestRunAgreesWithTheLibrary:
    """Every number a run writes is what the library computes from the run's own
    artifacts: the run is the one path to its noise fit, budgets, bounds and attack."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        cfg, _ = tiny_config(tmp_path_factory.mktemp("run"), gamma_list=(0.1, 0.2))
        summary = cli.run_experiment(cfg, 0.15, 2)
        run_dir = cli.run_dir_for(cfg, 0.15, 2)
        assert json.loads((run_dir / "summary.json").read_text()) == summary
        return cfg, run_dir, summary

    def test_ledger_series_reproduces_the_budgets_bitwise(self, run):
        cfg, run_dir, summary = run
        with open(run_dir / "ledger.csv", newline="") as fh:
            good = [r for r in csv.DictReader(fh) if r["degenerate"] == "0"]
        assert len(good) == summary["records"] - summary["records_skipped"] > 0
        eps, budgets = privacy.budgets(
            [float(r["l_erm"]) for r in good], [float(r["intensity"]) for r in good],
            cfg.total_iterations, summary["n_train"], summary["noise"]["b"], cfg.delta_prime)
        assert eps == summary["eps_per_step"]
        assert budgets["composed_thm4"].epsilon == summary["budgets"]["composed_thm4"]["epsilon"]
        assert {k: dataclasses.asdict(b) for k, b in budgets.items()} == summary["budgets"]

    def test_bound_report_reproduces_every_bounds_entry(self, run):
        cfg, _, summary = run
        leading = summary["budgets"]["leading_thm5"]
        assert summary["bounds"] == [
            bounds.bound_report(leading["epsilon"], leading["delta"], cfg.loss_bound,
                                summary["n_train"], gamma, cfg.constant_c)
            | {"gamma": gamma, "c": cfg.constant_c} for gamma in cfg.gamma_list]

    def test_noise_at_the_erm_checkpoint_reproduces_the_fit_and_histogram(self, run, tmp_path):
        cfg, run_dir, summary = run
        train_set, _ = cfg.load_datasets()
        values, fit = cli._noise(cfg, training.load_checkpoint(run_dir / "erm.ckpt"),
                                 train_set, summary["seed"])
        assert fit == summary["noise"]
        cli._write_histogram_csv(tmp_path / "nh.csv", values)
        assert (tmp_path / "nh.csv").read_bytes() == (run_dir / "noise_hist.csv").read_bytes()

    def test_attack_on_the_adversarial_checkpoint_reproduces_the_mia_record(self, run):
        cfg, run_dir, summary = run
        net = training.load_checkpoint(run_dir / "adv.ckpt")
        assert cli._mia(cli._score(net, *cfg.load_datasets())[1]) == summary["mia"]


class TestLossClip:
    def test_a_run_clips_at_the_configs_loss_bound(self, tmp_path, capsys):
        m = 2.0
        cfg, path = tiny_config(tmp_path, loss_bound=m)
        assert cli.main(["train", "--config", str(path), "--rho", "0.15", "--seed", "1"]) == 0
        summary = json.loads(capsys.readouterr().out)
        run = cli.run_dir_for(cfg, 0.15, 1)
        train_set, test_set = cfg.load_datasets()
        erm = training.load_checkpoint(run / "erm.ckpt")
        adv = training.load_checkpoint(run / "adv.ckpt")
        # the clip binds: some training row's raw loss at the ERM model is above M
        assert nn.loss_batch(erm, train_set.features, train_set.labels, math.inf)[1].max() > m

        with open(run / "ledger.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(float(r[k]) <= m for r in rows for k in ("erm_loss", "adv_loss"))

        def noise_b(clip_m):
            sample = privacy.collect_noise(erm, train_set, cfg.noise_tau, cfg.noise_batches,
                                           cfg.noise_components, 1, clip_m)
            return privacy.fit_laplace(sample.values).scale

        def adv_accuracy(clip_m):
            return analysis.adversarial_accuracy(adv, test_set, cfg.attack_spec(0.15), clip_m)

        assert summary["noise"]["b"] == noise_b(m)
        assert summary["adv_accuracy"] == adv_accuracy(m)
        assert (noise_b(10.0), adv_accuracy(10.0)) != (noise_b(m), adv_accuracy(m))

    def test_run_and_probe_hand_the_configs_loss_bound_to_every_evaluation(
            self, tmp_path, capsys, monkeypatch):
        # adv_accuracy rarely moves with the clip on a tiny config, so spy on the calls
        m = 2.0
        cfg, path = tiny_config(tmp_path, loss_bound=m)
        accuracy_clips = clips_passed(monkeypatch, analysis, "adversarial_accuracy")
        probe_clips = clips_passed(monkeypatch, intensity, "consistency_probe")
        assert cli.main(["train", "--config", str(path), "--rho", "0.15", "--seed", "1"]) == 0
        run = cli.run_dir_for(cfg, 0.15, 1)
        assert cli.main(["probe", "--config", str(path), "--erm-checkpoint", str(run / "erm.ckpt"),
                         "--adv-checkpoint", str(run / "adv.ckpt"), "--rho", "0.15",
                         "--repeats", "2", "--out", str(tmp_path / "probe.csv")]) == 0
        assert accuracy_clips == [m, m]  # adv_accuracy and adv_accuracy_common
        assert probe_clips == [m]


class TestDataEntersOnce:
    @staticmethod
    def labeled_sets_built(monkeypatch, cfg) -> int:
        """How many distinct ``LabeledSet`` objects one attacked run of ``cfg`` makes,
        through the validating constructor or through ``subset``."""
        built = []
        post_init, subset = data.LabeledSet.__post_init__, data.LabeledSet.subset

        def counting_post_init(self):
            post_init(self)
            built.append(self)

        def counting_subset(self, indices):
            built.append(subset(self, indices))
            return built[-1]

        with monkeypatch.context() as patch:
            patch.setattr(data.LabeledSet, "__post_init__", counting_post_init)
            patch.setattr(data.LabeledSet, "subset", counting_subset)
            cli.run_experiment(cfg, 0.15, 1)
        return len({id(s) for s in built})  # the list keeps each alive, so no id repeats

    def test_no_set_is_built_per_training_step_or_noise_batch(self, tmp_path, monkeypatch):
        counts = {(iters, batches): self.labeled_sets_built(monkeypatch, tiny_config(
                      tmp_path, total_iterations=iters, noise_batches=batches)[0])
                  for iters, batches in ((40, 4), (80, 4), (40, 8))}
        # the synthetic set and the two sides of its split, whatever the run's length
        assert set(counts.values()) == {3}, counts

    def test_every_kernel_call_gets_rows_the_gates_checked(self, tmp_path, capsys, monkeypatch):
        """The kernels do not check their rows; every command hands them checked ones."""
        cfg, path = tiny_config(tmp_path)
        forward_cached, losses_and_dlogits = nn._forward_cached, nn._losses_and_dlogits
        calls = {"forward": 0, "loss": 0}

        def checked_forward(net, x):
            assert x.dtype == np.float64 and x.ndim == 2 and x.shape[1] == net.in_dim
            calls["forward"] += 1
            return forward_cached(net, x)

        def checked_losses(logits, y):
            assert y.dtype == np.int64 and y.shape == (len(logits),)
            assert 0 <= y.min() and y.max() < logits.shape[1]
            calls["loss"] += 1
            return losses_and_dlogits(logits, y)

        monkeypatch.setattr(nn, "_forward_cached", checked_forward)
        monkeypatch.setattr(nn, "_losses_and_dlogits", checked_losses)
        assert cli.main(["train", "--config", str(path), "--rho", "0.15", "--seed", "1"]) == 0
        run = cli.run_dir_for(cfg, 0.15, 1)
        forwards = calls["forward"]
        assert cli.main(["probe", "--config", str(path), "--erm-checkpoint", str(run / "erm.ckpt"),
                         "--adv-checkpoint", str(run / "adv.ckpt"), "--rho", "0.15",
                         "--repeats", "2", "--out", str(tmp_path / "probe.csv")]) == 0
        assert calls["forward"] > forwards > 0
        assert calls["loss"] > 0


class TestGatesCheckOnce:
    """Each function below takes a value whose check was deleted from it, because a
    gate (named in its docstring) checks that value first. Every call that
    ``train``, ``sweep`` and ``probe`` make must therefore meet the precondition
    the deleted check enforced."""

    PRECONDITIONS = {
        (data, "synth_blobs"): lambda a: (min(a["n_per_class"], a["num_classes"], a["dim"]) >= 1
                                          and a["spread"] >= 0),
        (data, "split"): lambda a: 1 <= a["n_train"] < len(a["dataset"]),
        (data, "BatchSchedule"): lambda a: a["batch_size"] >= 1,
        (nn.DenseNet, "__post_init__"): lambda a: a["self"].activation in nn.ACTIVATIONS,
        (privacy, "fit_laplace"): lambda a: (len(a["values"]) >= 2
                                             and a["values"].min() < a["values"].max()),
        (intensity, "composite_intensity"): lambda a: len(a["values"]) >= 1,
        (attacks, "optimal_threshold"): lambda a: (len(a["train_confs"]) >= 1
                                                   and len(a["test_confs"]) >= 1),
        (rng, "stream"): lambda a: 0 <= a["seed"] < rng.SEED_LIMIT,
    }

    @staticmethod
    def record(monkeypatch, owner, name, calls: list) -> None:
        """Append the bound arguments of every call of ``owner.name`` to ``calls``:
        a method is patched on its class, a function in every advlab module that holds it."""
        original = getattr(owner, name)
        signature = inspect.signature(original)

        def recording(*args, **kwargs):
            calls.append(signature.bind(*args, **kwargs).arguments)
            return original(*args, **kwargs)

        if isinstance(owner, type):
            monkeypatch.setattr(owner, name, recording)
            return
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "advlab":
                for attr in [a for a, v in vars(module).items() if v is original]:
                    monkeypatch.setattr(module, attr, recording)

    def test_every_call_meets_the_precondition_its_gate_checked(self, tmp_path, capsys,
                                                                 monkeypatch):
        cfg, path = tiny_config(tmp_path)
        calls = {key: [] for key in self.PRECONDITIONS}
        for (owner, name), log in calls.items():
            self.record(monkeypatch, owner, name, log)
        assert cli.main(["train", "--config", str(path), "--rho", "0.15", "--seed", "1"]) == 0
        assert cli.main(["sweep", "--config", str(path)]) == 0
        run = cli.run_dir_for(cfg, 0.15, 1)
        assert cli.main(["probe", "--config", str(path), "--erm-checkpoint", str(run / "erm.ckpt"),
                         "--adv-checkpoint", str(run / "adv.ckpt"), "--rho", "0.15",
                         "--repeats", "2", "--out", str(tmp_path / "probe.csv")]) == 0
        for (owner, name), log in calls.items():
            assert log, f"{name} was never called"
            bad = [args for args in log if not self.PRECONDITIONS[owner, name](args)]
            assert not bad, (name, bad[:1])


class TestOversizedCounts:
    """A count that passes its gate but makes an array too large for memory is one
    ``error:`` line with exit 1, not a traceback."""

    def assert_one_error_line(self, capsys, argv):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_probe_estimates_that_do_not_fit_in_memory(self, tmp_path, capsys):
        _, path = tiny_config(tmp_path)
        ckpt, out = tmp_path / "net.ckpt", tmp_path / "probe.csv"
        training.save_checkpoint(nn.DenseNet.random((4, 8, 3), "relu", seed=1), ckpt)
        self.assert_one_error_line(capsys, [
            "probe", "--config", str(path), "--erm-checkpoint", str(ckpt),
            "--adv-checkpoint", str(ckpt), "--rho", "0.1", "--repeats", str(10 ** 17),
            "--out", str(out)])
        assert not out.exists()

    def test_noise_pool_that_does_not_fit_in_memory(self, tmp_path, capsys):
        cfg, path = tiny_config(tmp_path, noise_batches=10 ** 15)
        self.assert_one_error_line(capsys, ["train", "--config", str(path), "--rho", "0.15",
                                            "--seed", "1"])
        assert not (cli.run_dir_for(cfg, 0.15, 1) / "summary.json").exists()


class TestFileErrors:
    def assert_one_line(self, capsys, argv, code, *words):
        assert cli.main(argv) == code
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, err
        assert err.startswith("error: " if code == 1 else "config error: "), err
        assert all(w in err for w in words), err
        return err

    @pytest.mark.parametrize("command", ["train", "config"])
    def test_config_that_is_a_directory_is_one_error_line(self, tmp_path, capsys, command):
        self.assert_one_line(capsys, [command, "--config", str(tmp_path)], 1, str(tmp_path))

    @pytest.mark.parametrize("command", ["train", "config"])
    def test_config_that_is_not_utf8_is_one_config_error(self, tmp_path, capsys, command):
        path = tmp_path / "exp.ini"
        path.write_bytes(b"\xff" + config.to_ini(config.ExperimentConfig()).encode())
        self.assert_one_line(capsys, [command, "--config", str(path)], 2, str(path), "UTF-8")

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_data_csv_with_a_non_finite_feature_is_one_error_line(
            self, tmp_path, capsys, command, value):
        cfg, path = csv_config(tmp_path, f"0.5,1.0,0\n{value},2.0,1\n".encode(),
                               b"0.5,1.0,0\n-0.5,2.0,1\n")
        self.assert_one_line(capsys, [command, "--config", str(path)], 1,
                             cfg.train_csv, "line 2", "non-finite")
        assert not Path(cfg.output_dir).exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_data_csvs_of_different_widths_are_one_config_error_before_any_job(
            self, tmp_path, capsys, monkeypatch, command):
        cfg, path = csv_config(tmp_path, b"0.5,1.0,2.0,0\n-0.5,2.0,1.0,1\n",
                               b"0.5,1.0,2.0,3.0,0\n-0.5,2.0,1.0,3.0,1\n")

        def never(*args, **kwargs):
            raise AssertionError("trained despite a config error")

        monkeypatch.setattr(training, "train_twin", never)
        self.assert_one_line(capsys, [command, "--config", str(path)], 2,
                             "3 features", "test_csv has 4")
        assert not Path(cfg.output_dir).exists()

    @staticmethod
    def probe_writing_to(tmp_path, target):
        """``probe`` under a tiny config, writing its table to ``target``."""
        _, path = tiny_config(tmp_path)
        ckpt = tmp_path / "net.ckpt"
        training.save_checkpoint(nn.DenseNet.random((4, 8, 3), "relu", seed=1), ckpt)
        return probe_argv(path, ckpt, target)

    def test_output_into_a_missing_directory_names_the_target(self, tmp_path, capsys):
        target = str(tmp_path / "nodir" / "x.csv")
        err = self.assert_one_line(capsys, self.probe_writing_to(tmp_path, target), 1, target)
        assert ".tmp" not in err, err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini", "net.ckpt"]

    @pytest.mark.parametrize("target", ["", ".", "/"])
    def test_output_path_with_no_file_name_is_one_error_line(
            self, tmp_path, capsys, monkeypatch, target):
        monkeypatch.chdir(tmp_path)
        self.assert_one_line(capsys, self.probe_writing_to(tmp_path, target), 1, repr(target))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini", "net.ckpt"]

    def test_data_csv_that_is_not_utf8_is_one_error_line(self, tmp_path, capsys):
        cfg, path = csv_config(tmp_path, b"0.5,1.0,0\n-0.5,2.0,1\n",
                               b"0.5,1.0,0\n\xff-0.5,2.0,1\n")
        self.assert_one_line(capsys, ["train", "--config", str(path)], 1, cfg.test_csv, "UTF-8")
        assert not Path(cfg.output_dir).exists()


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
