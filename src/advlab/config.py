"""Experiment configuration: a sectioned key=value file and its dataclass twin.

A sweep carries too many knobs for command-line flags, so experiments are
described by an INI file with sections ``data``, ``net``, ``train``,
``attack``, ``privacy``, ``bounds`` and ``sweep``. Parsing and serializing
round-trip exactly. Defaults describe the desk-scale experiment: 4-class
Gaussian blobs in 20 dimensions, a 20-64-64-4 relu net, 2000 SGD
iterations, and an 8-point attack-radius grid that starts at 0 (the plain
ERM baseline row).
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, fields

from .adversarial import AttackSpec
from .data import LabeledSet, load_csv, split, synth_blobs, write_atomic
from .nn import LossSpec, param_count
from .training import TrainConfig


class ConfigError(ValueError):
    """Invalid or unparsable experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    # [data]
    source: str = "synthetic"            # synthetic | csv
    n_per_class: int = 1000
    num_classes: int = 4
    dim: int = 20
    spread: float = 1.0
    data_seed: int = 7
    n_train: int = 2000
    train_csv: str = ""
    test_csv: str = ""
    csv_header: bool = False
    # [net]
    hidden: tuple[int, ...] = (64, 64)
    activation: str = "relu"
    # [train]
    total_iterations: int = 2000
    batch_size: int = 32
    log_every: int = 20
    lr_init: float = 0.1
    lr_decay: float = 0.1
    lr_decay_every: int = 750
    momentum: float = 0.9
    weight_decay: float = 0.0002
    # [attack]
    norm: str = "linf"
    radius_list: tuple[float, ...] = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35)
    steps: int = 8
    step_size: float | None = None       # None: radius / 4
    # [privacy]
    delta_prime: float = 1.0
    noise_tau: int = 64
    noise_batches: int = 200
    noise_components: int = 500
    # [bounds]
    loss_bound: float = 10.0
    constant_c: float = 1.0
    gamma_list: tuple[float, ...] = (0.05,)
    # [sweep]
    seeds: tuple[int, ...] = (1, 2, 3)
    output_dir: str = "runs"
    workers: int = 0                     # 0: one per job, capped by CPU count

    def __post_init__(self):
        if self.source not in ("synthetic", "csv"):
            raise ConfigError(f"unknown data source {self.source!r}")
        if not self.radius_list:
            raise ConfigError("radius_list must be non-empty")
        if any(r < 0 for r in self.radius_list):
            raise ConfigError("radii must be nonnegative")
        if list(self.radius_list) != sorted(set(self.radius_list)):
            raise ConfigError("radius_list must be strictly ascending")
        if self.radius_list[0] != 0.0:
            raise ConfigError("radius_list must include 0 (the ERM baseline row)")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if not all(0 < g < 1 for g in self.gamma_list) or not self.gamma_list:
            raise ConfigError("gamma values must lie in (0, 1)")
        if not 0 < self.delta_prime:
            raise ConfigError("delta_prime must be positive")
        if not (0 < self.loss_bound < math.inf and 0 < self.constant_c < math.inf):
            raise ConfigError("loss_bound and constant_c must be positive and finite")
        if self.noise_batches < 1:
            raise ConfigError("noise_batches must be >= 1")

    # derived pieces ----------------------------------------------------
    def loss_spec(self) -> LossSpec:
        return LossSpec(kind="cross_entropy", clip_m=self.loss_bound)

    def attack_spec(self, radius: float) -> AttackSpec:
        return AttackSpec(norm=self.norm, radius=radius, steps=self.steps,
                          step_size=self.step_size)

    def train_config(self, radius: float, seed: int) -> TrainConfig:
        return TrainConfig(
            total_iterations=self.total_iterations, batch_size=self.batch_size,
            log_every=self.log_every, lr_init=self.lr_init, lr_decay=self.lr_decay,
            lr_decay_every=self.lr_decay_every, momentum=self.momentum,
            weight_decay=self.weight_decay, attack=self.attack_spec(radius), seed=seed)

    def load_datasets(self) -> tuple[LabeledSet, LabeledSet]:
        if self.source == "csv":
            if not self.train_csv or not self.test_csv:
                raise ConfigError("csv source needs train_csv and test_csv paths")
            train = load_csv(self.train_csv, header=self.csv_header)
            test = load_csv(self.test_csv, header=self.csv_header)
            classes = max(train.num_classes, test.num_classes)
            train = LabeledSet(train.features, train.labels, classes)
            test = LabeledSet(test.features, test.labels, classes)
            return train, test
        pool = synth_blobs(self.n_per_class, self.num_classes, self.dim,
                           self.spread, self.data_seed)
        if not 1 <= self.n_train < len(pool):
            raise ConfigError(f"n_train must lie in [1, {len(pool) - 1}]")
        return split(pool, self.n_train, self.data_seed)

    def check_noise(self, train: LabeledSet) -> None:
        """Fit the noise fields to the training set and the net trained on it,
        which the csv source fixes only once its files are read."""
        self.check_noise_for(len(train), param_count((train.dim, *self.hidden, train.num_classes)))

    def check_noise_for(self, n_train: int, params: int) -> None:
        """Fit the noise fields to an ``n_train``-row training set and the
        ``params`` parameters of the net the noise is collected on."""
        if not 1 <= self.noise_tau <= n_train:
            raise ConfigError(f"noise_tau must lie in [1, {n_train}], the training set size")
        if not 1 <= self.noise_components <= params:
            raise ConfigError(f"noise_components must lie in [1, {params}], the parameter count")


_SECTIONS = {
    "data": ("source", "n_per_class", "num_classes", "dim", "spread", "data_seed",
             "n_train", "train_csv", "test_csv", "csv_header"),
    "net": ("hidden", "activation"),
    "train": ("total_iterations", "batch_size", "log_every", "lr_init", "lr_decay",
              "lr_decay_every", "momentum", "weight_decay"),
    "attack": ("norm", "radius_list", "steps", "step_size"),
    "privacy": ("delta_prime", "noise_tau", "noise_batches", "noise_components"),
    "bounds": ("loss_bound", "constant_c", "gamma_list"),
    "sweep": ("seeds", "output_dir", "workers"),
}


def _format(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse(name: str, raw: str, kind):
    raw = raw.strip()
    try:
        if kind == "int_tuple":
            return tuple(int(v) for v in raw.split(",")) if raw else ()
        if kind == "float_tuple":
            return tuple(float(v) for v in raw.split(",")) if raw else ()
        if kind == "opt_float":
            return float(raw) if raw else None
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(f"bad value for {name}: {raw!r}") from None


_FIELD_KINDS = {
    "hidden": "int_tuple", "seeds": "int_tuple",
    "radius_list": "float_tuple", "gamma_list": "float_tuple",
    "step_size": "opt_float",
}


def to_ini(cfg: ExperimentConfig) -> str:
    parser = configparser.ConfigParser()
    for section, names in _SECTIONS.items():
        parser[section] = {name: _format(getattr(cfg, name)) for name in names}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def from_ini(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparsable config: {exc}") from None
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    base_kinds = {"str": str, "int": int, "float": float, "bool": bool}
    kwargs = {}
    for section, names in _SECTIONS.items():
        if not parser.has_section(section):
            continue
        for key in parser[section]:
            if key not in names:
                raise ConfigError(f"unknown key [{section}] {key}")
            kind = _FIELD_KINDS.get(key) or base_kinds[types[key]]
            kwargs[key] = _parse(key, parser[section][key], kind)
    return ExperimentConfig(**kwargs)


# sweep bookkeeping: a run's directory names its seed, and neither the output
# directory nor the worker count changes what a run writes
_NOT_DIGESTED = ("seeds", "output_dir", "workers")


def config_digest(cfg: ExperimentConfig) -> str:
    """sha256 over every field that can change a run's artifacts, each
    written as in the INI file. ``radius_list`` is included because each
    run is also attacked at its last radius; a CSV source enters by its
    paths, not its contents."""
    text = "".join(f"{f.name}={_format(getattr(cfg, f.name))}\n"
                   for f in fields(ExperimentConfig) if f.name not in _NOT_DIGESTED)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return from_ini(fh.read())


def save_config(cfg: ExperimentConfig, path) -> None:
    write_atomic(path, to_ini(cfg))
