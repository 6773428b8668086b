"""SGD for one model, and the twin run: an ERM model and an adversarial model.

The SGD recipe is fixed here: ``MOMENTUM``, ``WEIGHT_DECAY`` and the step size
:func:`lr`, which cuts ``lr_init`` by ``LR_DECAY`` every ``LR_DECAY_EVERY``
iterations. The trainers read ``lr_init``, the batch size, iteration count and
logging period, ``hidden`` and the loss clip ``loss_bound`` from an already
validated ``ExperimentConfig``, which is their one check; the run's attack and
seed are arguments. This module only trains: pairing the two logged series into
records, and judging whether they can be accounted, is :mod:`advlab.intensity`'s;
evaluating the models is the caller's.

:func:`train_model` runs one model's trajectory from a given initial net
under a given attack: it draws and hashes its own batch schedule, and at each
iteration takes ``adv_grad`` of the batch's rows ``(features[idx], labels[idx])``
plus :func:`sgd_step`. Every ``log_every`` iterations it records the batch's
max per-example gradient norm and mean loss at its parameters before the step.

:func:`train_twin` is two such runs from the seed-derived initialization,
not a lockstep loop: the ERM model under the zero-radius ``AttackSpec()``,
for which PGD returns the clean batch, then the adversarial model. The ERM
run does not depend on the radius, and at radius 0 both runs execute the
same code on byte-identical inputs, so they coincide exactly; tests rely on
this.

Divergence: a run stops at the first iteration whose update (non-finite if its
gradient is) or logged statistics are not finite (``nn.check_finite``, the
loop's one exit), and keeps its last finite iterate. If the ERM run fails at t,
the adversarial run takes at most t - 1 steps. ``diverged_at`` is the earlier
failure, and both logged series stop before it.

Checkpoint format (little endian): magic ``RPG1``, a reserved uint8
activation byte that is always 0 (relu, the only activation; any other byte,
such as an older version's tanh code 1, is a format error), uint32 layer
count L >= 1, uint32 widths[L+1], each >= 1, then
``nn.param_count(widths)`` finite float64 parameters in the flattened order
documented in :mod:`advlab.nn`: the widths and the one parameter vector that
``nn.DenseNet`` is built from.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from . import nn
from .adversarial import AttackSpec, adv_grad
from .config import ExperimentConfig
from .data import BatchSchedule, LabeledSet, write_atomic, write_csv

CHECKPOINT_MAGIC = b"RPG1"

MOMENTUM, WEIGHT_DECAY = 0.9, 0.0002
LR_DECAY, LR_DECAY_EVERY = 0.1, 750


class CheckpointFormatError(ValueError):
    """Checkpoint bytes do not match the documented layout."""


def lr(lr_init: float, t: int) -> float:
    """The step size of iteration ``t`` >= 1."""
    return lr_init * LR_DECAY ** ((t - 1) // LR_DECAY_EVERY)


def sgd_step(net: nn.DenseNet, grad: np.ndarray, lr: float, velocity: np.ndarray):
    """Heavy-ball update: v <- MOMENTUM*v + (g + WEIGHT_DECAY*theta); theta <- theta - lr*v.

    The new parameter vector is fresh and read-only, so the new net keeps it without a
    copy; the constructor checks that it is finite, which it is not if ``grad`` is
    not. A length-1 ``grad`` would broadcast, so its length is checked here.
    """
    theta = net.params
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != theta.shape:
        raise ValueError(f"gradient length {grad.shape} != parameter count {theta.shape}")
    v = MOMENTUM * velocity + (grad + WEIGHT_DECAY * theta)
    new_theta = theta - lr * v
    new_theta.setflags(write=False)
    return nn.DenseNet(net.layer_widths, new_theta), v


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
    """The two trajectories of one twin run and the run's first failure."""

    erm: Trajectory
    adv: Trajectory
    diverged_at: int | None


def train_model(train_set: LabeledSet, net: nn.DenseNet, cfg: ExperimentConfig,
                attack: AttackSpec, seed: int, iterations: int | None = None) -> Trajectory:
    """The trajectory from ``net`` under ``attack`` and ``seed``'s batch schedule for
    ``iterations`` steps (default ``cfg.total_iterations``); see the module docstring."""
    velocity = np.zeros(net.num_params)
    schedule = BatchSchedule(seed, cfg.batch_size)
    digest, logged, diverged_at = hashlib.sha256(), [], None
    for t in range(1, (cfg.total_iterations if iterations is None else iterations) + 1):
        idx = schedule.indices(t, len(train_set))
        digest.update(idx.astype("<i8").tobytes())
        g_mean, norms, losses = adv_grad(net, train_set.features[idx], train_set.labels[idx],
                                         attack, cfg.loss_bound)
        try:
            net, velocity = sgd_step(net, g_mean, lr(cfg.lr_init, t), velocity)
            if t % cfg.log_every == 0:
                stats = (t, float(norms.max()), float(losses.mean()))
                nn.check_finite("logged gradient statistics", stats[1:])
                logged.append(stats)
        except nn.DivergenceError:
            diverged_at = t
            break
    return Trajectory(net, logged, digest.hexdigest(), diverged_at)


@np.errstate(over="ignore", invalid="ignore")
def train_twin(train_set: LabeledSet, cfg: ExperimentConfig, attack: AttackSpec,
               seed: int) -> RunLedger:
    """Train the ERM model, then the one under ``attack``, from one initialization.
    A diverging run overflows before a non-finite value stops it, so numpy's
    overflow and invalid-value warnings are silenced inside this call."""
    net0 = nn.DenseNet.random((train_set.dim, *cfg.hidden, train_set.num_classes), seed)
    erm = train_model(train_set, net0, cfg, AttackSpec(), seed)
    adv = train_model(train_set, net0, cfg, attack, seed,
                      None if erm.diverged_at is None else erm.diverged_at - 1)
    # the adversarial run stops before the ERM failure, so its own comes first
    return RunLedger(erm, adv, adv.diverged_at or erm.diverged_at)


LEDGER_COLUMNS = ("t", "l_erm", "l_adv", "intensity", "erm_loss", "adv_loss", "degenerate")


def write_ledger_csv(records, path) -> None:
    """One row per record: its ``LEDGER_COLUMNS`` attributes (``intensity.IterationRecord``)."""
    write_csv(path, LEDGER_COLUMNS, ([getattr(r, c) for c in LEDGER_COLUMNS] for r in records))


def save_checkpoint(net: nn.DenseNet, path) -> None:
    widths = net.layer_widths
    blob = CHECKPOINT_MAGIC
    blob += struct.pack("<BI", 0, len(net.weights))  # the activation byte: 0, relu
    blob += struct.pack(f"<{len(widths)}I", *widths)
    blob += net.params.astype("<f8").tobytes()
    write_atomic(path, blob)


def load_checkpoint(path) -> nn.DenseNet:
    """The net in the file at ``path``; a ``CheckpointFormatError`` naming it if it breaks
    the format: a bad header (a nonzero activation byte among them), a payload of
    another length than the widths fix, or widths and parameters that ``nn.DenseNet``
    rejects (a zero width, a non-finite parameter)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic {blob[:4]!r}")
    try:
        act_code, n_layers = struct.unpack_from("<BI", blob, 4)
    except struct.error:
        raise CheckpointFormatError(f"{path}: truncated header") from None
    if act_code != 0:
        raise CheckpointFormatError(f"{path}: activation code {act_code}; only 0 (relu) "
                                    f"is supported")
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
    try:
        return nn.DenseNet(widths, np.frombuffer(payload, dtype="<f8"))
    except (ValueError, nn.DivergenceError) as exc:  # a zero width or a non-finite parameter
        raise CheckpointFormatError(f"{path}: {exc}") from None
