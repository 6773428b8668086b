"""Experiment configuration: a sectioned key=value file and its dataclass twin.

A sweep carries too many knobs for command-line flags, so experiments are
described by an INI file with sections ``data``, ``net``, ``train``,
``attack``, ``privacy``, ``bounds`` and ``sweep``, which each field names,
and no other: an unknown section, or a key under ``[DEFAULT]``, is a config
error, so a misspelled section cannot silently leave its fields at their
defaults. Parsing and serializing round-trip exactly. Defaults describe the
desk-scale experiment: 4-class Gaussian blobs in 20 dimensions, a 20-64-64-4
relu net, 2000 SGD iterations, and an 8-point attack-radius grid that starts
at 0 (the plain ERM baseline row).

``ExperimentConfig`` alone decides whether an experiment is valid. A value is
what its INI text reads as (``csv_header=1`` is true, ``seeds=[5, 6]`` a tuple,
``total_iterations=40.0`` a bad value), and a radius what ``AttackSpec`` makes
of it, so a config built in Python writes, digests and names its run
directories as its INI text does. ``__post_init__`` rejects each value that
cannot make a run (among them every non-finite number and every seed that
cannot key a Philox stream), so ``data``, ``nn.DenseNet`` and ``rng.stream``
do not check them again. ``load_datasets`` is the one gate for the rules that
need the data, and for counts past one float64 array or a Philox stream's steps.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .adversarial import AttackSpec
from .data import ENTRY_LIMIT, LabeledSet, load_csv, split, synth_blobs, write_atomic
from .nn import ACTIVATIONS, param_count
from .privacy import check_delta_prime
from .rng import SEED_LIMIT, STEP_LIMIT


class ConfigError(ValueError):
    """Invalid or unparsable experiment configuration."""


def check_seed(name: str, seed: int) -> None:
    """Reject a seed that cannot key a Philox stream."""
    if not 0 <= seed < SEED_LIMIT:
        raise ConfigError(f"{name} must lie in [0, 2**128), got {seed}")


def _in(section: str, default):
    """A field written under ``[section]`` of the INI file."""
    return field(default=default, metadata={"section": section})


@dataclass(frozen=True)
class ExperimentConfig:
    source: str = _in("data", "synthetic")            # synthetic | csv
    n_per_class: int = _in("data", 1000)
    num_classes: int = _in("data", 4)
    dim: int = _in("data", 20)
    spread: float = _in("data", 1.0)
    data_seed: int = _in("data", 7)
    n_train: int = _in("data", 2000)
    train_csv: str = _in("data", "")
    test_csv: str = _in("data", "")
    csv_header: bool = _in("data", False)
    hidden: tuple[int, ...] = _in("net", (64, 64))
    activation: str = _in("net", "relu")
    total_iterations: int = _in("train", 2000)
    batch_size: int = _in("train", 32)
    log_every: int = _in("train", 20)
    lr_init: float = _in("train", 0.1)
    lr_decay: float = _in("train", 0.1)
    lr_decay_every: int = _in("train", 750)
    momentum: float = _in("train", 0.9)
    weight_decay: float = _in("train", 0.0002)
    norm: str = _in("attack", "linf")
    radius_list: tuple[float, ...] = _in("attack", (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35))
    steps: int = _in("attack", 8)
    step_size: float | None = _in("attack", None)    # None: radius / 4
    delta_prime: float = _in("privacy", 1.0)
    noise_tau: int = _in("privacy", 64)
    noise_batches: int = _in("privacy", 200)
    noise_components: int = _in("privacy", 500)
    loss_bound: float = _in("bounds", 10.0)
    constant_c: float = _in("bounds", 1.0)
    gamma_list: tuple[float, ...] = _in("bounds", (0.05,))
    seeds: tuple[int, ...] = _in("sweep", (1, 2, 3))
    output_dir: str = _in("sweep", "runs")
    workers: int = _in("sweep", 0)                   # 0: one per job, capped by usable CPUs

    def __post_init__(self):
        for f in fields(self):  # a value is what its INI text reads as
            raw = _format(getattr(self, f.name)).strip()
            try:
                value = _PARSERS[f.type](raw)
            except ValueError:
                raise ConfigError(f"bad value for {f.name}: {raw!r}") from None
            object.__setattr__(self, f.name, value)
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ConfigError(f"{f.name} must be finite, got {v!r}")
        if self.source not in ("synthetic", "csv"):
            raise ConfigError(f"unknown data source {self.source!r}")
        if self.source == "csv" and not (self.train_csv and self.test_csv):
            raise ConfigError("csv source needs train_csv and test_csv paths")
        check_seed("data_seed", self.data_seed)
        for seed in self.seeds:
            check_seed("seeds", seed)
        if not self.radius_list:
            raise ConfigError("radius_list must be non-empty")
        # also checks norm, steps and step_size
        object.__setattr__(self, "radius_list",
                           tuple(self.attack_spec(radius).radius for radius in self.radius_list))
        if list(self.radius_list) != sorted(set(self.radius_list)):
            raise ConfigError("radius_list must be strictly ascending")
        if self.radius_list[0] != 0.0:
            raise ConfigError("radius_list must include 0 (the ERM baseline row)")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):  # a run directory per (rho, seed)
            raise ConfigError("seeds must be distinct")
        if not all(0 < g < 1 for g in self.gamma_list) or not self.gamma_list:
            raise ConfigError("gamma values must lie in (0, 1)")
        if not 0 < self.delta_prime:
            raise ConfigError("delta_prime must be positive")
        if not (0 < self.loss_bound and 0 < self.constant_c):
            raise ConfigError("loss_bound and constant_c must be positive")
        floors = {"total_iterations": 1, "log_every": 1, "batch_size": 1, "lr_decay_every": 1,
                  "noise_batches": 1, "workers": 0}
        if self.source == "synthetic":
            floors.update(n_per_class=1, num_classes=1, dim=1, spread=0)
        for name, floor in floors.items():
            if getattr(self, name) < floor:
                raise ConfigError(f"{name} must be >= {floor}")
        if self.log_every > self.total_iterations:  # no record would be logged
            raise ConfigError(f"log_every must be <= total_iterations ({self.total_iterations})")
        if any(width < 1 for width in self.hidden):
            raise ConfigError("hidden widths must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        pool = self.n_per_class * self.num_classes
        if self.source == "synthetic" and not 1 <= self.n_train < pool:
            raise ConfigError(f"n_train must lie in [1, {pool - 1}]")

    # derived pieces ----------------------------------------------------
    def attack_spec(self, radius: float) -> AttackSpec:
        try:
            return AttackSpec(norm=self.norm, radius=radius, steps=self.steps,
                              step_size=self.step_size)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def lr(self, t: int) -> float:
        return self.lr_init * self.lr_decay ** ((t - 1) // self.lr_decay_every)

    def load_datasets(self) -> tuple[LabeledSet, LabeledSet]:
        """The train/test pair, once both sets have the same feature width and
        ``batch_size`` and the privacy fields fit them and the net trained on them,
        which the csv source fixes only once its files are read; blobs are drawn last."""
        if self.source == "csv":
            train = load_csv(self.train_csv, header=self.csv_header)
            test = load_csv(self.test_csv, header=self.csv_header)
            if train.dim != test.dim:
                raise ConfigError(f"train_csv has {train.dim} features but test_csv has {test.dim}")
            n, dim, classes = len(train), train.dim, max(train.num_classes, test.num_classes)
        else:
            n, dim, classes = self.n_train, self.dim, self.num_classes
            if self.n_per_class * classes * dim > ENTRY_LIMIT:
                raise ConfigError(f"n_per_class * num_classes * dim must be <= {ENTRY_LIMIT}")
        if self.batch_size > n:
            raise ConfigError(f"batch_size must be <= {n}, the training set size")
        params = param_count((dim, *self.hidden, classes))
        if params > ENTRY_LIMIT:  # the net, like the noise pool below, is one float64 array
            raise ConfigError(f"hidden widths give {params} parameters, more than {ENTRY_LIMIT}")
        try:
            check_delta_prime(self.delta_prime, n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not 1 <= self.noise_tau <= n:
            raise ConfigError(f"noise_tau must lie in [1, {n}], the training set size")
        if not 1 <= self.noise_components <= params:
            raise ConfigError(f"noise_components must lie in [1, {params}], the parameter count")
        if self.noise_batches > STEP_LIMIT:
            raise ConfigError(f"noise_batches must be <= {STEP_LIMIT}, a Philox stream's steps")
        if self.noise_batches * self.noise_components > ENTRY_LIMIT:
            raise ConfigError(f"noise_batches * noise_components must be <= {ENTRY_LIMIT}")
        if self.source == "csv":
            return (LabeledSet(train.features, train.labels, classes),
                    LabeledSet(test.features, test.labels, classes))
        pool = synth_blobs(self.n_per_class, classes, dim, self.spread, self.data_seed)
        return split(pool, n, self.data_seed)


# each field's INI section, and the sections in file order
_SECTION_OF = {f.name: f.metadata["section"] for f in fields(ExperimentConfig)}
_SECTIONS = tuple(dict.fromkeys(_SECTION_OF.values()))


def _format(value) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(map(_format, value))
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # a numpy float too
    return str(value)


def _bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(raw)


def _tuple_of(kind):
    return lambda raw: tuple(kind(v) for v in raw.split(",")) if raw else ()


# a parser per annotation text (see ``from __future__ import annotations``)
_PARSERS = {
    "str": str, "int": int, "float": float, "bool": _bool,
    "tuple[int, ...]": _tuple_of(int), "tuple[float, ...]": _tuple_of(float),
    "float | None": lambda raw: float(raw) if raw else None,
}


def to_ini(cfg: ExperimentConfig) -> str:
    parser = configparser.ConfigParser(interpolation=None)  # a "%" is itself
    parser.read_dict({section: {} for section in _SECTIONS})
    for name, section in _SECTION_OF.items():
        parser[section][name] = _format(getattr(cfg, name))
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def from_ini(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)  # a "%" is itself
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparsable config: {exc}") from None
    for section in parser.sections() + ([parser.default_section] if parser.defaults() else []):
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]; the sections are "
                              + ", ".join(f"[{name}]" for name in _SECTIONS))
    kwargs = {}
    for section in parser.sections():
        for key in parser[section]:
            if _SECTION_OF.get(key) != section:
                raise ConfigError(f"unknown key [{section}] {key}")
            kwargs[key] = parser[section][key]  # parsed by the constructor
    return ExperimentConfig(**kwargs)


# sweep bookkeeping: a run's directory names its seed, and neither the output
# directory nor the worker count changes what a run writes
_NOT_DIGESTED = ("seeds", "output_dir", "workers")


def config_digest(cfg: ExperimentConfig) -> str:
    """sha256 over every field that can change a run's artifacts, each
    written as in the INI file. ``radius_list`` is included because each
    run is also attacked at its last radius. A CSV source also enters by
    the sha256 of each file's bytes, so editing the data reruns a sweep;
    reading them raises ``OSError`` as ``load_datasets`` would."""
    text = "".join(f"{f.name}={_format(getattr(cfg, f.name))}\n"
                   for f in fields(ExperimentConfig) if f.name not in _NOT_DIGESTED)
    if cfg.source == "csv":
        for name in ("train_csv", "test_csv"):
            data = Path(getattr(cfg, name)).read_bytes()
            text += f"{name}_sha256={hashlib.sha256(data).hexdigest()}\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_config(path) -> ExperimentConfig:
    """The config in the file at ``path``; a ``ConfigError`` if it is not UTF-8 text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"unparsable config: {path} is not UTF-8 text: {exc}") from None
    return from_ini(text)


def save_config(cfg: ExperimentConfig, path) -> None:
    write_atomic(path, to_ini(cfg))
