"""Stability and generalization bounds derived from a privacy budget.

An (eps, delta)-differentially private learner with loss bounded by M is
uniformly stable with

    beta = M * delta * exp(-eps) + M * (1 - exp(-eps))

and beta is itself the on-average generalization bound. For a loss bounded
by 1 and a beta-stable learner, the high-probability bound at confidence
1 - gamma is

    c * (beta * ln(N) * ln(N / gamma) + sqrt(ln(1 / gamma) / N))

with an unspecified universal constant c. Here c = 1, and gamma is the one
constant ``GAMMA`` = 0.05, which each report records. A run has one
high-probability reading: the bound on the normalized loss (loss / M, whose
stability is beta / M, so the bounded-by-1 hypothesis holds verbatim), scaled
back to loss units by M.
"""

from __future__ import annotations

import math

GAMMA = 0.05  # the bounds hold with probability at least 1 - GAMMA


def stability_beta(eps: float, delta: float, m: float) -> float:
    """Uniform stability of an (eps, delta)-private learner with loss <= M."""
    if not 0 < m < math.inf:
        raise ValueError("loss bound M must be positive and finite")
    if not eps >= 0:  # nan fails; eps = inf is valid and gives beta = M
        raise ValueError("epsilon must be nonnegative")
    if not 0 <= delta <= 1:
        raise ValueError("delta must lie in [0, 1]")
    e = math.exp(-eps)
    return m * delta * e + m * (1.0 - e)


def high_prob_bound(beta: float, n: int) -> float:
    """Generalization bound holding with probability at least 1 - ``GAMMA``, for
    a loss bounded by 1 and a learner of stability ``beta``."""
    if n < 2:
        raise ValueError("N must be >= 2")
    if not 0 <= beta <= 1:
        raise ValueError("stability beta must be nonnegative and cannot exceed the loss bound 1")
    return beta * math.log(n) * math.log(n / GAMMA) + math.sqrt(math.log(1.0 / GAMMA) / n)


def bound_report(eps: float, delta: float, m: float, n: int) -> dict:
    """One field per bound: ``beta``, also the on-average bound, and
    ``high_prob_bound``, computed on loss / M and scaled back by M; and the
    ``gamma`` it holds at."""
    beta = stability_beta(eps, delta, m)
    return {"beta": beta, "high_prob_bound": m * high_prob_bound(beta / m, n), "gamma": GAMMA}
