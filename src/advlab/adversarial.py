"""L-infinity PGD inner maximization, and the resulting adversarial gradients.

The attack runs ``STEPS`` = K = 8 steps of projected gradient ascent on the
per-example loss, starting from the clean input (no random restart), in the
L-infinity ball of Madry et al. (arXiv:1706.06083). ``AttackSpec`` holds the
ball's radius; the step size ``alpha`` is fixed at radius / 4. Each step
moves by ``alpha * sign(grad)`` and projects by componentwise clamping. The
gradient of the inner max is taken as the parameter gradient evaluated at
the attack endpoint.

Feature-space box constraints are deliberately not applied: the lab works
in unbounded feature space, so adversarial points are constrained only by
the ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn

STEPS = 8


@dataclass(frozen=True)
class AttackSpec:
    """PGD configuration: the L-infinity ball's radius.

    The step size ``alpha`` is radius / 4; with ``radius=0`` the attack is a
    no-op. The radius is stored as ``float(radius) + 0.0``: the one place a
    radius (-0.0 among them) is normalized.
    """

    radius: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "radius", float(self.radius) + 0.0)  # -0.0 + 0.0 is 0.0
        if not 0 <= self.radius < math.inf:
            raise ValueError(f"radius must be finite and nonnegative, got {self.radius!r}")

    @property
    def alpha(self) -> float:
        return self.radius / 4.0


def project(clean: np.ndarray, pts: np.ndarray, radius: float) -> np.ndarray:
    """Nearest point to each row of ``pts`` in the radius-ball around the same row of ``clean``."""
    return clean + np.clip(pts - clean, -radius, radius)


def pgd_batch(net: nn.DenseNet, features: np.ndarray, labels: np.ndarray,
              attack: AttackSpec, clip_m: float) -> np.ndarray:
    """PGD endpoints for every row; rows are attacked independently.

    Row i of the result is exactly what a sequential single-example attack
    would produce, so batching is only a speed concern. All ``STEPS`` steps
    run on one block of at most ``nn.ROW_BLOCK`` rows before the next block
    starts, so the attack state takes one block's memory whatever the row
    count.
    """
    if attack.radius == 0.0:
        return features.copy()

    def attack_rows(clean: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = clean.copy()
        for _ in range(STEPS):
            x = x + attack.alpha * np.sign(nn.grad_inputs(net, x, y, clip_m))
            x = project(clean, x, attack.radius)
        return x

    return nn._by_rows(attack_rows, net.in_dim, features, labels)


def adv_grad(net: nn.DenseNet, features: np.ndarray, labels: np.ndarray,
             attack: AttackSpec, clip_m: float):
    """:func:`advlab.nn.grad_params` at the PGD endpoints of the rows ``(features, labels)``.

    Returns ``(mean_grad, per_example_norms, per_example_adv_losses)`` from
    one backward pass. With radius 0 :func:`pgd_batch` returns the clean
    features, so the result is bitwise the clean ``grad_params`` of the
    rows; the ERM model trains through this path.
    """
    x_adv = pgd_batch(net, features, labels, attack, clip_m)
    return nn.grad_params(net, x_adv, labels, clip_m)
