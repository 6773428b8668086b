"""Twin SGD trainer: one ERM model and one adversarially trained model, in lockstep.

Both models start from the same seed-derived initialization and consume the
identical batch index sequence, so the only difference between the two
trajectories is the attack applied to the adversarial model's batches.
Every ``log_every`` iterations the trainer records the max per-example
gradient norm of the current batch at each model's own parameters (clean
gradients at the ERM iterate, attack-endpoint gradients at the adversarial
iterate) together with their ratio, the per-iteration intensity.

Both models take the same step function, :func:`_model_step`: the ERM
model passes the zero-radius ``AttackSpec()``, under which PGD returns the
clean batch. So with attack radius 0 the two models run the same code on
byte-identical inputs and their trajectories coincide exactly; tests rely
on this collapse.

Checkpoint format (little endian): magic ``RPG1``, uint8 activation code
(0 relu, 1 tanh), uint32 layer count L, uint32 widths[L+1], then float64
parameters in the flattened order documented in :mod:`advlab.nn`.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .adversarial import AttackSpec, adv_grad
from .attacks import accuracy
from .data import BatchSchedule, LabeledSet

CHECKPOINT_MAGIC = b"RPG1"
_ACT_CODES = {"relu": 0, "tanh": 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}
DEGENERATE_GRAD_FLOOR = 1e-30


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


@dataclass
class RunLedger:
    """Everything one twin run produced."""

    config: TrainConfig
    records: list[IterationRecord] = field(default_factory=list)
    erm_net: nn.DenseNet | None = None
    adv_net: nn.DenseNet | None = None
    erm_train_acc: float = float("nan")
    erm_test_acc: float = float("nan")
    adv_train_acc: float = float("nan")
    adv_test_acc: float = float("nan")
    erm_index_digest: str = ""
    adv_index_digest: str = ""
    diverged_at: int | None = None


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


def _model_step(net, velocity, batch, t, config, loss_spec, attack):
    """One model's update under ``attack``.

    Returns (net, velocity, per-example gradient norms, per-example losses);
    the caller reduces the statistics only on the steps it logs.
    """
    g_mean, norms, losses = adv_grad(net, batch, attack, loss_spec)
    net, velocity = sgd_step(net, g_mean, config.lr(t), velocity,
                             config.momentum, config.weight_decay)
    return net, velocity, norms, losses


@np.errstate(over="ignore", invalid="ignore")
def train_twin(train_set: LabeledSet, test_set: LabeledSet, config: TrainConfig,
               hidden: tuple[int, ...] = (64, 64), activation: str = "relu",
               loss_spec: nn.LossSpec = nn.LossSpec()) -> RunLedger:
    """Run the lockstep twin trainer and return its ledger.

    On divergence (any non-finite loss or gradient) the partial ledger is
    returned with ``diverged_at`` set instead of raising. A diverging run
    overflows on its way to the non-finite value that stops it, so numpy's
    overflow and invalid-value warnings are silenced inside this call; the
    ``isfinite`` checks in :func:`sgd_step` and on the logged statistics
    still catch the divergence.
    """
    if config.batch_size > len(train_set):
        raise ValueError("batch_size exceeds training set size")
    widths = (train_set.dim, *hidden, train_set.num_classes)
    net0 = nn.DenseNet.random(widths, activation, config.seed)
    schedule = BatchSchedule(config.seed, config.batch_size)

    ledger = RunLedger(config=config)
    erm_net = adv_net = net0
    v_erm = np.zeros(net0.num_params)
    v_adv = np.zeros(net0.num_params)
    h_erm = hashlib.sha256()
    h_adv = hashlib.sha256()

    for t in range(1, config.total_iterations + 1):
        # each model draws its own copy of the schedule so the digests are
        # an actual replay check, not a tautology
        idx_erm = schedule.indices(t, len(train_set))
        idx_adv = schedule.indices(t, len(train_set))
        h_erm.update(idx_erm.astype("<i8").tobytes())
        h_adv.update(idx_adv.astype("<i8").tobytes())
        batch_erm = train_set.subset(idx_erm)
        batch_adv = train_set.subset(idx_adv)
        try:
            erm_net, v_erm, norms_erm, losses_erm = _model_step(
                erm_net, v_erm, batch_erm, t, config, loss_spec, AttackSpec())
            adv_net, v_adv, norms_adv, losses_adv = _model_step(
                adv_net, v_adv, batch_adv, t, config, loss_spec, config.attack)
        except DivergenceError:
            ledger.diverged_at = t
            break
        if t % config.log_every == 0:
            l_erm, erm_loss = float(norms_erm.max()), float(losses_erm.mean())
            l_adv, adv_loss = float(norms_adv.max()), float(losses_adv.mean())
            if not all(np.isfinite(v) for v in (l_erm, l_adv, erm_loss, adv_loss)):
                ledger.diverged_at = t
                break
            degenerate = l_erm <= DEGENERATE_GRAD_FLOOR
            intensity = float("nan") if degenerate else l_adv / l_erm
            ledger.records.append(IterationRecord(t, l_erm, l_adv, intensity,
                                                  erm_loss, adv_loss, degenerate))

    ledger.erm_net, ledger.adv_net = erm_net, adv_net
    ledger.erm_index_digest = h_erm.hexdigest()
    ledger.adv_index_digest = h_adv.hexdigest()
    ledger.erm_train_acc = accuracy(erm_net, train_set)
    ledger.erm_test_acc = accuracy(erm_net, test_set)
    ledger.adv_train_acc = accuracy(adv_net, train_set)
    ledger.adv_test_acc = accuracy(adv_net, test_set)
    return ledger


LEDGER_COLUMNS = ("t", "l_erm", "l_adv", "intensity", "erm_loss", "adv_loss", "degenerate")


def write_ledger_csv(records: list[IterationRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(LEDGER_COLUMNS) + "\n")
        for r in records:
            fh.write(f"{r.t},{r.l_erm!r},{r.l_adv!r},{r.intensity!r},"
                     f"{r.erm_loss!r},{r.adv_loss!r},{int(r.degenerate)}\n")


def read_ledger_csv(path) -> list[IterationRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != ",".join(LEDGER_COLUMNS):
        raise ValueError(f"{path}: not a ledger CSV")
    out = []
    for line in lines[1:]:
        t, le, la, i, el, al, deg = line.split(",")
        out.append(IterationRecord(int(t), float(le), float(la), float(i),
                                   float(el), float(al), bool(int(deg))))
    return out


def save_checkpoint(net: nn.DenseNet, path) -> None:
    widths = net.layer_widths
    blob = CHECKPOINT_MAGIC
    blob += struct.pack("<BI", _ACT_CODES[net.activation], len(net.weights))
    blob += struct.pack(f"<{len(widths)}I", *widths)
    blob += net.flatten().astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(blob)


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
    n_params = sum(o * i + o for i, o in zip(widths[:-1], widths[1:]))
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
