import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from advlab import cli, config
from advlab.adversarial import AttackSpec
from conftest import write_dataset_csv


class TestRoundTrip:
    def test_default_parse_serialize_parse_identity(self):
        cfg = config.ExperimentConfig()
        text = config.to_ini(cfg)
        again = config.from_ini(text)
        assert again == cfg
        assert config.to_ini(again) == text

    def test_non_default_values_survive(self):
        cfg = dataclasses.replace(
            config.ExperimentConfig(), radius_list=(0.0, 0.4, 0.9),
            hidden=(32,), seeds=(5,), csv_header=True, spread=2.5)
        assert config.from_ini(config.to_ini(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "exp.ini"
        cfg = config.ExperimentConfig()
        config.save_config(cfg, p)
        assert config.load_config(p) == cfg

    @pytest.mark.parametrize("overrides", [
        {"spread": 2}, {"lr_init": 1}, {"radius_list": (0, 0.1)}, {"radius_list": (-0.0, 0.1)},
        {"csv_header": 1}, {"seeds": [5, 6]}, {"hidden": [16]}, {"spread": np.float64(1.5)},
        {"output_dir": Path("x")}, {"output_dir": "runs%1"}],
        ids=["int_spread", "int_lr_init", "int_radius", "negative_zero_radius", "int_csv_header",
             "list_seeds", "list_hidden", "numpy_spread", "path_output_dir", "percent_sign"])
    def test_a_config_built_in_python_is_its_round_trip(self, overrides):
        # a value given in Python is stored as what its INI text reads as
        cfg = config.ExperimentConfig(**overrides)
        again = config.from_ini(config.to_ini(cfg))
        assert again == cfg
        assert config.to_ini(cfg) == config.to_ini(again)
        assert config.config_digest(cfg) == config.config_digest(again)
        run_dirs = [cli.run_dir_for(c, c.radius_list[0], 1) for c in (cfg, again)]
        assert run_dirs[0] == run_dirs[1] == Path(again.output_dir, "rho=0.0", "seed=1")


class TestValidation:
    def test_radius_list_must_include_zero(self):
        with pytest.raises(config.ConfigError, match="include 0"):
            dataclasses.replace(config.ExperimentConfig(), radius_list=(0.1, 0.2))

    def test_radius_list_sorted(self):
        with pytest.raises(config.ConfigError, match="ascending"):
            dataclasses.replace(config.ExperimentConfig(), radius_list=(0.0, 0.3, 0.2))

    def test_radius_nonnegative(self):
        with pytest.raises(config.ConfigError, match="nonnegative"):
            dataclasses.replace(config.ExperimentConfig(), radius_list=(-0.1, 0.0))

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(config.ExperimentConfig)
                                      if "float" in f.type])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_every_float_field_must_be_finite(self, name, value):
        default = getattr(config.ExperimentConfig(), name)
        bad = (0.0, value) if isinstance(default, tuple) else value
        with pytest.raises(config.ConfigError, match=name):
            dataclasses.replace(config.ExperimentConfig(), **{name: bad})

    @pytest.mark.parametrize("name, bad", [
        ("data_seed", -1), ("data_seed", 2 ** 128), ("seeds", (1, -1)), ("seeds", (2 ** 128,))])
    def test_seeds_must_key_philox(self, name, bad):
        with pytest.raises(config.ConfigError, match=name):
            dataclasses.replace(config.ExperimentConfig(), **{name: bad})
        ok = (2 ** 128 - 1,) if name == "seeds" else 2 ** 128 - 1
        dataclasses.replace(config.ExperimentConfig(), **{name: ok})

    def test_noise_batches_positive(self):
        with pytest.raises(config.ConfigError, match="noise_batches"):
            dataclasses.replace(config.ExperimentConfig(), noise_batches=0)

    def test_unknown_key_rejected(self):
        text = config.to_ini(config.ExperimentConfig()).replace(
            "[train]\n", "[train]\nbogus_key = 1\n")
        with pytest.raises(config.ConfigError, match="unknown key"):
            config.from_ini(text)

    # nets are relu-only, the bounds hold at bounds.GAMMA with c = 1, the SGD recipe
    # is training's, the attack is L-infinity PGD of adversarial.STEPS steps of
    # radius / 4, the CSV paths name the source and delta' is privacy.DELTA_PRIME
    REMOVED = [("net", "activation", "relu"), ("bounds", "gamma_list", "0.05"),
               ("bounds", "constant_c", "1.0"), ("train", "lr_decay", "0.1"),
               ("train", "lr_decay_every", "750"), ("train", "momentum", "0.9"),
               ("train", "weight_decay", "0.0002"), ("attack", "step_size", ""),
               ("data", "source", "synthetic"), ("privacy", "delta_prime", "1.0"),
               ("attack", "norm", "linf"), ("attack", "steps", "8")]

    @pytest.mark.parametrize("section, key, value", REMOVED)
    def test_a_removed_key_is_an_unknown_key(self, section, key, value):
        text = config.to_ini(config.ExperimentConfig()).replace(
            f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
        with pytest.raises(config.ConfigError, match=rf"^unknown key \[{section}\] {key}$"):
            config.from_ini(text)

    @pytest.mark.parametrize("section, key, value", REMOVED)
    def test_a_removed_key_is_no_field(self, section, key, value):
        with pytest.raises(TypeError, match=key):
            config.ExperimentConfig(**{key: value})

    def test_the_config_has_22_fields(self):
        names = [f.name for f in dataclasses.fields(config.ExperimentConfig)]
        assert len(names) == 22
        assert not {key for _, key, _ in self.REMOVED} & set(names)

    @pytest.mark.parametrize("text, section", [
        ("[trian]\ntotal_iterations = 40\n", "trian"),  # else the 2000-step default runs
        ("[train]\ntotal_iterations = 40\n[Train]\nbatch_size = 8\n", "Train"),
        ("[DEFAULT]\ntotal_iterations = 40\n", "DEFAULT"),
        # a [DEFAULT] key would reach every section present
        ("[DEFAULT]\nlr_init = 0.5\n[train]\ntotal_iterations = 40\n", "DEFAULT"),
    ], ids=["misspelled", "wrong-case", "default-key-alone", "default-key-beside-a-section"])
    def test_unknown_section_rejected(self, text, section):
        with pytest.raises(config.ConfigError, match=rf"^unknown section \[{section}\]"):
            config.from_ini(text)

    def test_empty_default_section_is_no_config(self):
        cfg = config.from_ini("[DEFAULT]\n[train]\ntotal_iterations = 40\n")
        assert cfg == dataclasses.replace(config.ExperimentConfig(), total_iterations=40)

    @pytest.mark.parametrize("name, value", [
        ("total_iterations", 40.0), ("workers", True), ("hidden", (16.0,))])
    def test_a_wrong_typed_python_value_is_a_bad_value(self, name, value):
        with pytest.raises(config.ConfigError, match=f"^bad value for {name}: "):
            config.ExperimentConfig(**{name: value})

    def test_bad_value_rejected(self):
        text = config.to_ini(config.ExperimentConfig()).replace(
            "total_iterations = 2000", "total_iterations = soon")
        with pytest.raises(config.ConfigError, match="bad value"):
            config.from_ini(text)

    def test_unparsable_text_rejected(self):
        with pytest.raises(config.ConfigError, match="unparsable"):
            config.from_ini("not an ini file [whatsoever")


class TestDatasets:
    def test_synthetic_split_sizes(self):
        cfg = dataclasses.replace(config.ExperimentConfig(), n_per_class=50,
                                  num_classes=4, n_train=120)
        train, test = cfg.load_datasets()
        assert len(train) == 120 and len(test) == 80
        assert train.num_classes == 4

    def test_synthetic_deterministic(self):
        cfg = dataclasses.replace(config.ExperimentConfig(), n_per_class=20, n_train=30,
                                  batch_size=30, noise_tau=30)
        a, _ = cfg.load_datasets()
        b, _ = cfg.load_datasets()
        assert np.array_equal(a.features, b.features)

    def test_csv_source(self, tmp_path):
        from advlab.data import synth_blobs
        tr = synth_blobs(10, 3, 4, 1.0, seed=1)
        te = synth_blobs(5, 3, 4, 1.0, seed=2)
        write_dataset_csv(tr, tmp_path / "train.csv")
        write_dataset_csv(te, tmp_path / "test.csv")
        cfg = dataclasses.replace(config.ExperimentConfig(),
                                  train_csv=str(tmp_path / "train.csv"),
                                  test_csv=str(tmp_path / "test.csv"),
                                  batch_size=30, noise_tau=30)
        train, test = cfg.load_datasets()
        assert len(train) == 30 and len(test) == 15
        assert train.num_classes == test.num_classes == 3

    def test_both_paths_read_the_csv_files(self, tmp_path):
        # the blobs' fields keep their defaults, under which 4000 blobs would be drawn
        train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
        train_csv.write_text("0.5,1.0,0\n-0.5,2.0,1\n")
        test_csv.write_text("0.5,1.0,1\n")
        cfg = config.ExperimentConfig(train_csv=str(train_csv), test_csv=str(test_csv),
                                      batch_size=1, noise_tau=1, noise_components=1)
        train, test = cfg.load_datasets()
        assert train.features.tolist() == [[0.5, 1.0], [-0.5, 2.0]]
        assert test.labels.tolist() == [1]
        missing = dataclasses.replace(cfg, train_csv=str(tmp_path / "missing.csv"))
        with pytest.raises(FileNotFoundError):
            missing.load_datasets()

    @pytest.mark.parametrize("path", ["train_csv", "test_csv"])
    def test_one_csv_path_alone_is_a_config_error(self, path):
        with pytest.raises(config.ConfigError,
                           match="^train_csv and test_csv must be set together"):
            config.ExperimentConfig(**{path: "data.csv"})

    @pytest.mark.parametrize("csv", [False, True], ids=["synthetic", "csv"])
    def test_a_training_set_needs_two_rows(self, tmp_path, csv):
        (tmp_path / "train.csv").write_text("0.5,1.0,0\n")
        (tmp_path / "test.csv").write_text("0.5,1.0,1\n")
        paths = dict(train_csv=str(tmp_path / "train.csv"),
                     test_csv=str(tmp_path / "test.csv")) if csv else {}
        cfg = config.ExperimentConfig(n_train=1, batch_size=1, noise_tau=1, **paths)
        with pytest.raises(config.ConfigError,
                           match="^the training set must have at least 2 rows, got 1$"):
            cfg.load_datasets()

    @pytest.mark.parametrize("csv", [False, True], ids=["synthetic", "csv"])
    def test_noise_fields_checked_against_the_data(self, tmp_path, csv):
        from advlab.data import synth_blobs
        write_dataset_csv(synth_blobs(10, 3, 4, 1.0, seed=1), tmp_path / "train.csv")
        write_dataset_csv(synth_blobs(5, 3, 4, 1.0, seed=2), tmp_path / "test.csv")
        paths = dict(train_csv=str(tmp_path / "train.csv"),
                     test_csv=str(tmp_path / "test.csv")) if csv else {}
        # 30 training rows of 4 features in 3 classes; a 4-8-3 net has 67 parameters
        cfg = dataclasses.replace(config.ExperimentConfig(), n_per_class=15,
                                  num_classes=3, dim=4, n_train=30, hidden=(8,),
                                  batch_size=30, noise_tau=30, noise_components=67, **paths)
        cfg.load_datasets()  # all three near their largest valid value
        for bad in ({"batch_size": 31}, {"noise_tau": 31}, {"noise_tau": 0},
                    {"noise_components": 68}, {"noise_components": 0}):
            with pytest.raises(config.ConfigError, match=next(iter(bad))):
                dataclasses.replace(cfg, **bad).load_datasets()

    def test_csv_feature_widths_must_match(self, tmp_path):
        (tmp_path / "train.csv").write_text("0.5,1.0,2.0,0\n-0.5,2.0,1.0,1\n")
        (tmp_path / "test.csv").write_text("0.5,1.0,2.0,3.0,0\n")
        cfg = dataclasses.replace(config.ExperimentConfig(), batch_size=1,
                                  noise_tau=1, train_csv=str(tmp_path / "train.csv"),
                                  test_csv=str(tmp_path / "test.csv"))
        with pytest.raises(config.ConfigError, match="3 features but test_csv has 4"):
            cfg.load_datasets()


class TestDerivedSpecs:
    def test_attack_spec_carries_radius(self):
        assert config.ExperimentConfig().attack_spec(0.25) == AttackSpec(radius=0.25)


class TestConfigDigest:
    def test_default_digest_is_pinned(self):
        # every default run's summary.json carries it, so it must not move
        assert config.config_digest(config.ExperimentConfig()) == (
            "172a8cc5dba5e0aca90e5b6ab503f35e63440cd82aa6aeb02d751a8b2257a57c")

    def test_default_ini_text_is_pinned(self):
        # the fields' section order decides the file's bytes, so it must not move
        text = config.to_ini(config.ExperimentConfig())
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "d687c4bd9ecbfb271d92a2cc5e3de507b6a2c868c5e3fb1e4116d761741a9f91")

    def test_csv_source_digests_the_bytes_of_both_files(self, tmp_path):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        train.write_text("0.5,1.0,0\n-0.5,2.0,1\n")
        test.write_text("0.5,1.0,0\n")
        cfg = dataclasses.replace(config.ExperimentConfig(),
                                  train_csv=str(train), test_csv=str(test))
        seen = {config.config_digest(cfg)}
        train.write_text("0.5,1.0,0\n-0.5,2.5,1\n")
        seen.add(config.config_digest(cfg))
        test.write_text("0.5,1.0,1\n")
        seen.add(config.config_digest(cfg))
        assert len(seen) == 3

    def test_csv_data_are_digested_by_their_bytes_not_their_paths(self, tmp_path, monkeypatch):
        rows = {"train.csv": "0.5,1.0,0\n-0.5,2.0,1\n", "test.csv": "0.5,1.0,0\n"}
        for where in ("a", "b"):
            (tmp_path / where).mkdir()
            for name, text in rows.items():
                (tmp_path / where / name).write_text(text)
        monkeypatch.chdir(tmp_path / "a")  # a relative path resolves against the working directory

        def digest(train_csv, test_csv):
            return config.config_digest(config.ExperimentConfig(train_csv=train_csv,
                                                                test_csv=test_csv))

        same = {digest("train.csv", "test.csv"), digest("./train.csv", "../a/test.csv"),
                digest(str(tmp_path / "b" / "train.csv"), "../b/test.csv")}
        assert len(same) == 1
        edited = set(same)
        for name in rows:
            path = tmp_path / "b" / name
            path.write_bytes(b"1" + path.read_bytes()[1:])  # one byte: 0.5 becomes 1.5
            edited.add(digest("../b/train.csv", "../b/test.csv"))
            path.write_text(rows[name])
        assert len(edited) == 3

    def test_sweep_bookkeeping_leaves_the_digest_alone(self):
        cfg = config.ExperimentConfig()
        moved = dataclasses.replace(cfg, seeds=(9,), output_dir="elsewhere", workers=3)
        assert config.config_digest(moved) == config.config_digest(cfg)

    @pytest.mark.parametrize("change", [
        {"lr_init": 0.05}, {"radius_list": (0.0, 0.05, 0.4)},
        {"hidden": (32,)}, {"noise_components": 400}, {"noise_tau": 32}, {"loss_bound": 5.0},
    ])
    def test_fields_that_shape_a_run_change_the_digest(self, change):
        cfg = config.ExperimentConfig()
        assert config.config_digest(dataclasses.replace(cfg, **change)) != config.config_digest(cfg)
