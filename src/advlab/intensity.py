"""Robustified intensity: the per-iteration ratio, its degeneracy rule, the composite.

The single-iteration intensity is the max per-example gradient norm of the
attacked loss at the adversarial iterate over the max per-example clean
gradient norm at the ERM iterate, on the same batch; a clean norm at most
``DEGENERATE_GRAD_FLOOR`` leaves it undefined. Each norm is read at its own
model's iterate of step t, so I_t compares the two training algorithms, as
the abstract's "robustness of an adversarial training algorithm" suggests.
The clean norm at the adversarial iterate would isolate the attack instead;
it stays a candidate until it is recorded beside this reading, under which
a few late, near-converged ERM records dominate the composite.

A whole run is summarized by the fourth-power mean root of its
per-iteration intensities; the same aggregation is applied to the clean
max-norm series for the privacy accountant. The consistency probe measures
how fast the batch estimate approaches the full-dataset value as the batch
grows, holding both parameter vectors fixed so only batch sampling varies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .adversarial import AttackSpec, adv_grad
from .data import LabeledSet
from .rng import DOMAIN_PROBE, stream

DEGENERATE_GRAD_FLOOR = 1e-30


class DegenerateDenominatorError(ValueError):
    """No intensity to use: a clean max gradient norm is numerically zero
    (training converged)."""


def single_intensity(l_adv: float, l_erm: float) -> float:
    """Ratio l_adv / l_erm of max gradient norms for one iteration."""
    if l_adv < 0:
        raise ValueError("l_adv must be nonnegative")
    if l_erm <= DEGENERATE_GRAD_FLOOR:
        raise DegenerateDenominatorError(
            f"clean max gradient norm {l_erm!r} is degenerate; skip this record")
    return l_adv / l_erm


def composite_intensity(values) -> float:
    """Fourth-power mean root: (mean(v^4))^(1/4)."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("empty series")
    if not (v > 0).all():
        raise ValueError("series entries must be positive")
    return float(np.mean(v ** 4) ** 0.25)


@dataclass(frozen=True)
class ProbeRow:
    tau: int
    mean_estimate: float
    full_value: float


def check_probe(tau_grid, repeats: int, n: int) -> None:
    """Reject batch sizes outside [1, n] and fewer than one repeat."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for tau in tau_grid:
        if not 1 <= tau <= n:
            raise ValueError(f"tau {tau} outside [1, {n}]")


def consistency_probe(net_erm: nn.DenseNet, net_adv: nn.DenseNet, dataset: LabeledSet,
                      attack: AttackSpec, tau_grid, repeats: int, seed: int,
                      loss_spec: nn.LossSpec = nn.LossSpec()) -> list[ProbeRow]:
    """Batch-size sweep of the intensity estimate at a fixed parameter pair.

    Per-example gradient norms do not depend on which batch an example
    lands in, so they are computed once for the whole dataset and each
    batch estimate is a subset max over precomputed norms. The tau == N
    row is the full-dataset value itself, computed exactly once.
    """
    n = len(dataset)
    check_probe(tau_grid, repeats, n)
    clean_norms = nn.grad_params(net_erm, (dataset.features, dataset.labels), loss_spec)[1]
    adv_norms = adv_grad(net_adv, dataset, attack, loss_spec)[1]
    full = single_intensity(float(adv_norms.max()), float(clean_norms.max()))

    rows = []
    for j, tau in enumerate(tau_grid):
        if tau == n:
            rows.append(ProbeRow(tau, full, full))
            continue
        estimates = np.empty(repeats)
        for r in range(repeats):
            rng = stream(seed, DOMAIN_PROBE, j * repeats + r)
            idx = rng.permutation(n)[:tau]
            estimates[r] = single_intensity(float(adv_norms[idx].max()),
                                            float(clean_norms[idx].max()))
        rows.append(ProbeRow(tau, float(estimates.mean()), full))
    return rows
