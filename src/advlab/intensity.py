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
the two trajectories' logged series into records, computes each record's
ratio I_t (the one place I_t is defined), and gives the run's one verdict.
A norm at most ``DEGENERATE_GRAD_FLOOR`` is numerically zero
(:func:`degenerate`): a record with such a clean norm is skipped, and a
model whose last logged norm is such is dead.

A whole run is summarized by the fourth-power mean root of its
per-iteration intensities; the same aggregation is applied to the clean
max-norm series for the privacy accountant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEGENERATE_GRAD_FLOOR = 1e-30


def degenerate(norm: float) -> bool:
    """Whether a max gradient norm is numerically zero."""
    return norm <= DEGENERATE_GRAD_FLOOR


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
