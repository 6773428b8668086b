"""PGD inner maximization on norm balls, and the resulting adversarial gradients.

The attack runs K steps of projected gradient ascent on the per-example
loss, starting from the clean input (no random restart). ``AttackSpec``
holds the ball's norm and radius and K; the step size ``alpha`` is fixed at
radius / 4. The L-infinity update moves by ``alpha * sign(grad)`` and
projects by componentwise clamping; the L2 update moves by ``alpha * grad``
and projects by radial scaling. The gradient of the inner max is taken as
the parameter gradient evaluated at the attack endpoint.

Feature-space box constraints are deliberately not applied: the lab works
in unbounded feature space, so adversarial points are constrained only by
the norm ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn

NORMS = ("linf", "l2")
DEFAULT_STEPS = 8


@dataclass(frozen=True)
class AttackSpec:
    """PGD configuration: ball norm, radius, step count.

    The step size ``alpha`` is radius / 4; with ``radius=0`` the attack is a
    no-op. The radius is stored as ``float(radius) + 0.0``: the one place a
    radius (-0.0 among them) is normalized.
    """

    norm: str = "linf"
    radius: float = 0.0
    steps: int = DEFAULT_STEPS

    def __post_init__(self):
        object.__setattr__(self, "radius", float(self.radius) + 0.0)  # -0.0 + 0.0 is 0.0
        if self.norm not in NORMS:
            raise ValueError(f"unknown norm {self.norm!r}")
        if not 0 <= self.radius < math.inf:
            raise ValueError(f"radius must be finite and nonnegative, got {self.radius!r}")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")

    @property
    def alpha(self) -> float:
        return self.radius / 4.0


def project(clean: np.ndarray, pts: np.ndarray, norm: str, radius: float) -> np.ndarray:
    """Nearest point to each row of ``pts`` in the radius-ball around the same row of ``clean``."""
    d = pts - clean
    if norm == "linf":
        return clean + np.clip(d, -radius, radius)
    dist = np.linalg.norm(d, axis=1, keepdims=True)
    scale = np.where(dist > radius, radius / np.maximum(dist, 1e-300), 1.0)
    return clean + d * scale


def pgd_batch(net: nn.DenseNet, features: np.ndarray, labels: np.ndarray,
              attack: AttackSpec, clip_m: float) -> np.ndarray:
    """PGD endpoints for every row; rows are attacked independently.

    Row i of the result is exactly what a sequential single-example attack
    would produce, so batching is only a speed concern. All K steps run on
    one block of at most ``nn.ROW_BLOCK`` rows before the next block starts,
    so the attack state takes one block's memory whatever the row count.
    """
    if attack.radius == 0.0 or attack.steps == 0:
        return features.copy()

    def attack_rows(clean: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = clean.copy()
        for _ in range(attack.steps):
            g = nn.grad_inputs(net, x, y, clip_m)
            if attack.norm == "linf":
                x = x + attack.alpha * np.sign(g)
            else:
                x = x + attack.alpha * g
            x = project(clean, x, attack.norm, attack.radius)
        return x

    return nn._by_rows(attack_rows, net.in_dim, features, labels)


def adv_grad(net: nn.DenseNet, features: np.ndarray, labels: np.ndarray,
             attack: AttackSpec, clip_m: float):
    """:func:`advlab.nn.grad_params` at the PGD endpoints of the rows ``(features, labels)``.

    Returns ``(mean_grad, per_example_norms, per_example_adv_losses)`` from
    one backward pass. With radius 0 (or 0 steps) :func:`pgd_batch` returns
    the clean features, so the result is bitwise the clean
    ``grad_params`` of the rows; the ERM model trains through this path.
    """
    x_adv = pgd_batch(net, features, labels, attack, clip_m)
    return nn.grad_params(net, x_adv, labels, clip_m)
