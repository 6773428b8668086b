import dataclasses

import pytest

from advlab import config


class TestRoundTrip:
    def test_default_parse_serialize_parse_identity(self):
        cfg = config.ExperimentConfig()
        text = config.to_ini(cfg)
        again = config.from_ini(text)
        assert again == cfg
        assert config.to_ini(again) == text

    def test_non_default_values_survive(self):
        cfg = dataclasses.replace(
            config.ExperimentConfig(), norm="l2", radius_list=(0.0, 0.4, 0.9),
            hidden=(32,), seeds=(5,), step_size=0.07, csv_header=True,
            gamma_list=(0.01, 0.1), spread=2.5)
        assert config.from_ini(config.to_ini(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "exp.ini"
        cfg = config.ExperimentConfig()
        config.save_config(cfg, p)
        assert config.load_config(p) == cfg

    def test_empty_step_size_means_default(self):
        cfg = config.ExperimentConfig()
        assert cfg.step_size is None
        assert "step_size = \n" in config.to_ini(cfg)
        assert config.from_ini(config.to_ini(cfg)).step_size is None


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

    def test_gamma_in_unit_interval(self):
        with pytest.raises(config.ConfigError, match="gamma"):
            dataclasses.replace(config.ExperimentConfig(), gamma_list=(1.5,))

    def test_unknown_key_rejected(self):
        text = config.to_ini(config.ExperimentConfig()).replace(
            "[train]\n", "[train]\nbogus_key = 1\n")
        with pytest.raises(config.ConfigError, match="unknown key"):
            config.from_ini(text)

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
        import numpy as np
        cfg = dataclasses.replace(config.ExperimentConfig(), n_per_class=20, n_train=30)
        a, _ = cfg.load_datasets()
        b, _ = cfg.load_datasets()
        assert np.array_equal(a.features, b.features)

    def test_csv_source(self, tmp_path):
        from advlab.data import save_csv, synth_blobs
        tr = synth_blobs(10, 3, 4, 1.0, seed=1)
        te = synth_blobs(5, 3, 4, 1.0, seed=2)
        save_csv(tr, tmp_path / "train.csv")
        save_csv(te, tmp_path / "test.csv")
        cfg = dataclasses.replace(config.ExperimentConfig(), source="csv",
                                  train_csv=str(tmp_path / "train.csv"),
                                  test_csv=str(tmp_path / "test.csv"))
        train, test = cfg.load_datasets()
        assert len(train) == 30 and len(test) == 15
        assert train.num_classes == test.num_classes == 3

    def test_csv_source_needs_paths(self):
        cfg = dataclasses.replace(config.ExperimentConfig(), source="csv")
        with pytest.raises(config.ConfigError, match="csv source"):
            cfg.load_datasets()


class TestDerivedSpecs:
    def test_attack_spec_carries_radius(self):
        cfg = config.ExperimentConfig()
        spec = cfg.attack_spec(0.25)
        assert spec.radius == 0.25 and spec.norm == cfg.norm and spec.steps == cfg.steps

    def test_train_config_assembly(self):
        cfg = config.ExperimentConfig()
        t = cfg.train_config(0.1, seed=11)
        assert t.seed == 11
        assert t.attack.radius == 0.1
        assert t.total_iterations == cfg.total_iterations
        assert t.batch_size == cfg.batch_size

    def test_loss_spec_uses_loss_bound(self):
        cfg = config.ExperimentConfig()
        assert cfg.loss_spec().clip_m == cfg.loss_bound


class TestConfigDigest:
    def test_sweep_bookkeeping_leaves_the_digest_alone(self):
        cfg = config.ExperimentConfig()
        moved = dataclasses.replace(cfg, seeds=(9,), output_dir="elsewhere", workers=3)
        assert config.config_digest(moved) == config.config_digest(cfg)

    @pytest.mark.parametrize("change", [
        {"lr_init": 0.05}, {"radius_list": (0.0, 0.05, 0.4)}, {"steps": 4},
        {"hidden": (32,)}, {"step_size": 0.01}, {"noise_tau": 32}, {"gamma_list": (0.1,)},
    ])
    def test_fields_that_shape_a_run_change_the_digest(self, change):
        cfg = config.ExperimentConfig()
        assert config.config_digest(dataclasses.replace(cfg, **change)) != config.config_digest(cfg)
