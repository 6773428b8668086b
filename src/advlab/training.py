"""SGD for one model, and the twin run: an ERM model and an adversarial model.

:func:`train_model` runs one model's trajectory from a given initial net
under a given attack: it draws and hashes its own batch schedule and takes
``adv_grad`` plus :func:`sgd_step` at each iteration. Every ``log_every``
iterations it records the batch's max per-example gradient norm and mean
loss at its parameters before the step.

:func:`train_twin` is two such runs from the seed-derived initialization,
not a lockstep loop: the ERM model under the zero-radius ``AttackSpec()``,
for which PGD returns the clean batch, then the adversarial model. It pairs
the logged series into records whose ratio is the intensity
(:mod:`advlab.intensity`). The ERM run does not depend on the radius, and at
radius 0 both runs execute the same code on byte-identical inputs, so they
coincide exactly; tests rely on this.

Divergence: a run stops at the first iteration whose gradient, update or
logged statistics are not finite, and keeps its last finite iterate. If the
ERM run fails at t, the adversarial run takes at most t - 1 steps.
``diverged_at`` is the earlier failure, and the records stop before it.

Checkpoint format (little endian): magic ``RPG1``, uint8 activation code
(0 relu, 1 tanh), uint32 layer count L, uint32 widths[L+1], then float64
parameters in the flattened order documented in :mod:`advlab.nn`.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from . import intensity, nn
from .adversarial import AttackSpec, adv_grad
from .attacks import accuracy
from .data import BatchSchedule, LabeledSet, write_atomic, write_csv

CHECKPOINT_MAGIC = b"RPG1"
_ACT_CODES = {"relu": 0, "tanh": 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}


class DivergenceError(RuntimeError):
    """Training, or a model it produced, gave a non-finite quantity."""


class CheckpointFormatError(ValueError):
    """Checkpoint bytes do not match the documented layout."""


@dataclass(frozen=True)
class TrainConfig:
    """SGD settings for one twin run; defaults follow the full-scale recipe
    (momentum 0.9, weight decay 2e-4, batch 128, lr 0.1 decaying x0.1)."""

    total_iterations: int
    batch_size: int = 128
    log_every: int = 20
    lr_init: float = 0.1
    lr_decay: float = 0.1
    lr_decay_every: int = 750
    momentum: float = 0.9
    weight_decay: float = 0.0002
    attack: AttackSpec = AttackSpec()
    seed: int = 0

    def __post_init__(self):
        if self.total_iterations < 1:
            raise ValueError("total_iterations must be >= 1")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.lr_decay_every < 1:
            raise ValueError("lr_decay_every must be >= 1")

    def lr(self, t: int) -> float:
        return self.lr_init * self.lr_decay ** ((t - 1) // self.lr_decay_every)


@dataclass(frozen=True)
class IterationRecord:
    """One logged iteration: max-gradient norms, their ratio, batch losses."""

    t: int
    l_erm: float
    l_adv: float
    intensity: float  # nan when degenerate
    erm_loss: float
    adv_loss: float
    degenerate: bool = False


def sgd_step(net: nn.DenseNet, grad: np.ndarray, lr: float, velocity: np.ndarray,
             momentum: float, weight_decay: float):
    """Heavy-ball update: v <- mu*v + (g + wd*theta); theta <- theta - lr*v.

    The new parameter vector is fresh and checked finite here, so the new
    net adopts it as read-only views instead of copying and rescanning it.
    """
    theta = net.flatten()
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != theta.shape:
        raise ValueError(f"gradient length {grad.shape} != parameter count {theta.shape}")
    if not np.isfinite(grad).all():
        raise DivergenceError("non-finite gradient in SGD step")
    v = momentum * velocity + (grad + weight_decay * theta)
    new_theta = theta - lr * v
    if new_theta.shape != theta.shape:
        raise ValueError(f"updated parameters {new_theta.shape} != parameter count {theta.shape}")
    if not np.isfinite(new_theta).all():
        raise DivergenceError("non-finite parameters after update")
    return net._adopt(new_theta), v


@dataclass(frozen=True)
class Trajectory:
    """One model's run: its last finite iterate, its logged ``(t, max per-example
    gradient norm, mean loss)``, the sha256 of its batch indices, its failure."""

    net: nn.DenseNet
    logged: list[tuple[int, float, float]]
    index_digest: str
    diverged_at: int | None


@dataclass(frozen=True)
class RunLedger:
    """Everything one twin run produced."""

    erm: Trajectory
    adv: Trajectory
    records: list[IterationRecord]
    erm_train_acc: float
    erm_test_acc: float
    adv_train_acc: float
    adv_test_acc: float
    diverged_at: int | None


def train_model(train_set: LabeledSet, net: nn.DenseNet, config: TrainConfig,
                attack: AttackSpec, loss_spec: nn.LossSpec = nn.LossSpec(),
                iterations: int | None = None) -> Trajectory:
    """The trajectory from ``net`` under ``attack`` for ``iterations`` steps
    (default ``config.total_iterations``), as the module docstring describes."""
    if config.batch_size > len(train_set):
        raise ValueError("batch_size exceeds training set size")
    velocity = np.zeros(net.num_params)
    schedule = BatchSchedule(config.seed, config.batch_size)
    digest, logged, diverged_at = hashlib.sha256(), [], None
    for t in range(1, (config.total_iterations if iterations is None else iterations) + 1):
        idx = schedule.indices(t, len(train_set))
        digest.update(idx.astype("<i8").tobytes())
        g_mean, norms, losses = adv_grad(net, train_set.subset(idx), attack, loss_spec)
        try:
            net, velocity = sgd_step(net, g_mean, config.lr(t), velocity,
                                     config.momentum, config.weight_decay)
        except DivergenceError:
            diverged_at = t
            break
        if t % config.log_every == 0:
            stats = (t, float(norms.max()), float(losses.mean()))
            if not np.isfinite(stats[1:]).all():
                diverged_at = t
                break
            logged.append(stats)
    return Trajectory(net, logged, digest.hexdigest(), diverged_at)


@np.errstate(over="ignore", invalid="ignore")
def train_twin(train_set: LabeledSet, test_set: LabeledSet, config: TrainConfig,
               hidden: tuple[int, ...] = (64, 64), activation: str = "relu",
               loss_spec: nn.LossSpec = nn.LossSpec()) -> RunLedger:
    """Train the ERM model, then the adversarial one; pair their logged series.
    A diverging run overflows before a non-finite value stops it, so numpy's
    overflow and invalid-value warnings are silenced inside this call."""
    net0 = nn.DenseNet.random((train_set.dim, *hidden, train_set.num_classes), activation,
                              config.seed)
    erm = train_model(train_set, net0, config, AttackSpec(), loss_spec)
    adv = train_model(train_set, net0, config, config.attack, loss_spec,
                      None if erm.diverged_at is None else erm.diverged_at - 1)
    records = []
    # zip stops at the shorter series, which ends before either failure
    for (t, l_erm, erm_loss), (_, l_adv, adv_loss) in zip(erm.logged, adv.logged):
        try:
            value, degenerate = intensity.single_intensity(l_adv, l_erm), False
        except intensity.DegenerateDenominatorError:
            value, degenerate = float("nan"), True
        records.append(IterationRecord(t, l_erm, l_adv, value, erm_loss, adv_loss, degenerate))
    # the adversarial run stops before the ERM failure, so its own comes first
    return RunLedger(erm, adv, records,
                     accuracy(erm.net, train_set), accuracy(erm.net, test_set),
                     accuracy(adv.net, train_set), accuracy(adv.net, test_set),
                     adv.diverged_at or erm.diverged_at)


LEDGER_COLUMNS = ("t", "l_erm", "l_adv", "intensity", "erm_loss", "adv_loss", "degenerate")


def write_ledger_csv(records: list[IterationRecord], path) -> None:
    write_csv(path, LEDGER_COLUMNS, ([getattr(r, c) for c in LEDGER_COLUMNS] for r in records))


def save_checkpoint(net: nn.DenseNet, path) -> None:
    widths = net.layer_widths
    blob = CHECKPOINT_MAGIC
    blob += struct.pack("<BI", _ACT_CODES[net.activation], len(net.weights))
    blob += struct.pack(f"<{len(widths)}I", *widths)
    blob += net.flatten().astype("<f8").tobytes()
    write_atomic(path, blob)


def load_checkpoint(path) -> nn.DenseNet:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic {blob[:4]!r}")
    try:
        act_code, n_layers = struct.unpack_from("<BI", blob, 4)
    except struct.error:
        raise CheckpointFormatError(f"{path}: truncated header") from None
    if act_code not in _ACT_NAMES:
        raise CheckpointFormatError(f"{path}: unknown activation code {act_code}")
    if n_layers < 1:
        raise CheckpointFormatError(f"{path}: no layers")
    off = 4 + struct.calcsize("<BI")
    try:
        widths = struct.unpack_from(f"<{n_layers + 1}I", blob, off)
    except struct.error:
        raise CheckpointFormatError(f"{path}: truncated dimension header") from None
    off += struct.calcsize(f"<{n_layers + 1}I")
    n_params = nn.param_count(widths)
    payload = blob[off:]
    if len(payload) != 8 * n_params:
        raise CheckpointFormatError(
            f"{path}: dimension header wants {8 * n_params} payload bytes, found {len(payload)}")
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    template = nn.DenseNet(
        tuple(np.zeros((o, i)) for i, o in zip(widths[:-1], widths[1:])),
        tuple(np.zeros(o) for o in widths[1:]),
        _ACT_NAMES[act_code],
    )
    return template.with_params(flat)
