"""Robustified intensity: a run's records and their verdict, the ratio, the composite.

The single-iteration intensity is the max per-example gradient norm of the
attacked loss at the adversarial iterate over the max per-example clean
gradient norm at the ERM iterate, on the same batch. Each norm is read at
its own model's iterate of step t, so I_t compares the two training
algorithms, as the abstract's "robustness of an adversarial training
algorithm" suggests. The clean norm at the adversarial iterate would isolate
the attack instead; it stays a candidate until it is recorded beside this
reading, under which a few late, near-converged ERM records dominate the
composite.

:func:`judge` owns the rules between training and the accountant: it pairs
the two trajectories' logged series into records and gives the run's one
verdict. A norm at most ``DEGENERATE_GRAD_FLOOR`` is numerically zero
(:func:`degenerate`): a record with such a clean norm is skipped, and a
model whose last logged norm is such is dead.

A whole run is summarized by the fourth-power mean root of its
per-iteration intensities; the same aggregation is applied to the clean
max-norm series for the privacy accountant. The consistency probe measures
how fast the batch estimate approaches the full-dataset value as the batch
grows, holding both parameter vectors fixed so only batch sampling varies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .adversarial import AttackSpec, adv_grad
from .data import ENTRY_LIMIT, LabeledSet
from .rng import DOMAIN_PROBE, STEP_LIMIT, stream

DEGENERATE_GRAD_FLOOR = 1e-30


class DegenerateDenominatorError(ValueError):
    """No intensity: a clean max gradient norm is numerically zero (training converged)."""


def degenerate(norm: float) -> bool:
    """Whether a max gradient norm is numerically zero."""
    return norm <= DEGENERATE_GRAD_FLOOR


def single_intensity(l_adv: float, l_erm: float) -> float:
    """Ratio l_adv / l_erm of max gradient norms for one iteration; an
    ``nn.DivergenceError`` if either is not finite."""
    nn.check_finite("max gradient norm", (l_adv, l_erm))
    if l_adv < 0:
        raise ValueError("l_adv must be nonnegative")
    if degenerate(l_erm):
        raise DegenerateDenominatorError(
            f"clean max gradient norm {l_erm!r} is degenerate; skip this record")
    return l_adv / l_erm


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


def judge(erm_logged, adv_logged) -> tuple[list[IterationRecord], list[IterationRecord],
                                           str | None]:
    """The run's verdict: its records, paired from the ERM and adversarial logged
    series; the good ones, which have an intensity; and why none can be accounted,
    or None. The reason speaks for a run that did not diverge, whose last record
    ends both series."""
    # zip stops at the shorter series, which ends before either failure
    records = [IterationRecord(t, l_erm, l_adv, math.nan if degenerate(l_erm) else l_adv / l_erm,
                               erm_loss, adv_loss, degenerate(l_erm))
               for (t, l_erm, erm_loss), (_, l_adv, adv_loss) in zip(erm_logged, adv_logged)]
    good = [r for r in records if not r.degenerate]
    if not good:
        return records, good, ("every logged record was degenerate (clean max gradient "
                               "norm numerically zero), so there is no intensity to account")
    last = records[-1]
    for name, norm in (("ERM", last.l_erm), ("adversarial", last.l_adv)):
        if degenerate(norm):
            return records, good, (f"the {name} model is dead: its max gradient norm at the "
                                   f"last logged step t={last.t} is {norm!r}")
    zero = [r.t for r in good if r.intensity == 0.0]
    if zero:  # is an intensity of 0 valid? not settled yet
        return records, good, (f"the intensity is 0 (adversarial max gradient norm exactly "
                               f"zero) at {len(zero)} record(s) from t={zero[0]}; the "
                               "composite needs > 0")
    return records, good, None


def composite_intensity(values) -> float:
    """Fourth-power mean root (mean(v^4))^(1/4) of a series ``privacy.budgets`` checks nonempty."""
    v = np.asarray(values, dtype=np.float64)
    if not (v > 0).all():
        raise ValueError("series entries must be positive")
    return float(np.mean(v ** 4) ** 0.25)


@dataclass(frozen=True)
class ProbeRow:
    tau: int
    mean_estimate: float
    full_value: float


def check_probe(tau_grid, repeats: int, n: int) -> None:
    """Reject batch sizes outside [1, n], and fewer than one repeat or so many that
    the Philox steps ``j * repeats + r`` would reach 2**64 or the estimates of one
    batch size would not fit in one float64 array."""
    most = min(STEP_LIMIT // max(len(tau_grid), 1), ENTRY_LIMIT)
    if not 1 <= repeats <= most:
        raise ValueError(f"repeats must lie in [1, {most}]")
    for tau in tau_grid:
        if not 1 <= tau <= n:
            raise ValueError(f"tau {tau} outside [1, {n}]")


def consistency_probe(net_erm: nn.DenseNet, net_adv: nn.DenseNet, dataset: LabeledSet,
                      attack: AttackSpec, tau_grid, repeats: int, seed: int,
                      clip_m: float) -> list[ProbeRow]:
    """Batch-size sweep of the intensity estimate at a fixed parameter pair.

    Per-example gradient norms do not depend on which batch an example
    lands in, so they are computed once for the whole dataset and each
    batch estimate is a subset max over precomputed norms. The tau == N
    row is the full-dataset value itself, computed exactly once.
    ``tau_grid`` and ``repeats`` must pass :func:`check_probe`, which the
    caller runs before any gradient work.
    """
    n = len(dataset)
    clean_norms = nn.grad_params(net_erm, dataset.features, dataset.labels, clip_m)[1]
    adv_norms = adv_grad(net_adv, dataset.features, dataset.labels, attack, clip_m)[1]
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
