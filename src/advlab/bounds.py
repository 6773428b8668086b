"""Stability and generalization bounds derived from a privacy budget.

An (eps, delta)-differentially private learner with loss bounded by M is
uniformly stable with

    beta = M * delta * exp(-eps) + M * (1 - exp(-eps))

and beta is itself the on-average generalization bound. The
high-probability bound at confidence 1 - gamma is

    c * (beta * ln(N) * ln(N / gamma) + sqrt(ln(1 / gamma) / N))

with an unspecified universal constant c; we default c to 1, always report
it, and additionally report the bound computed on the normalized loss
(loss / M, so the bounded-by-one hypothesis behind the high-probability
result holds verbatim) next to its rescaling back to loss units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _check_privacy(eps: float, delta: float, m: float) -> None:
    if not m > 0:
        raise ValueError("loss bound M must be positive")
    if not eps >= 0:  # nan fails; eps = inf is valid and gives beta = M
        raise ValueError("epsilon must be nonnegative")
    if not 0 <= delta <= 1:
        raise ValueError("delta must lie in [0, 1]")


def stability_beta(eps: float, delta: float, m: float) -> float:
    """Uniform stability of an (eps, delta)-private learner with loss <= M."""
    _check_privacy(eps, delta, m)
    e = math.exp(-eps)
    return m * delta * e + m * (1.0 - e)


def high_prob_bound(beta: float, n: int, gamma: float, c: float = 1.0,
                    m: float | None = None) -> float:
    """Generalization bound holding with probability at least 1 - gamma."""
    if n < 2:
        raise ValueError("N must be >= 2")
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    if not c > 0:
        raise ValueError("c must be positive")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if m is not None and beta > m:
        raise ValueError("stability beta cannot exceed the loss bound M")
    return c * (beta * math.log(n) * math.log(n / gamma)
                + math.sqrt(math.log(1.0 / gamma) / n))


@dataclass(frozen=True)
class BoundReport:
    """Stability plus both generalization bounds and every input that shaped them."""

    beta: float  # also the on-average generalization bound
    high_prob_bound: float
    high_prob_bound_normalized: float  # computed on loss / M
    high_prob_bound_rescaled: float    # normalized bound scaled back by M
    eps: float
    delta: float
    m: float
    n: int
    gamma: float
    c: float


def bound_report(eps: float, delta: float, m: float, n: int, gamma: float,
                 c: float = 1.0) -> BoundReport:
    beta = stability_beta(eps, delta, m)
    normalized = high_prob_bound(beta / m, n, gamma, c, 1.0)
    return BoundReport(
        beta=beta,
        high_prob_bound=high_prob_bound(beta, n, gamma, c, m),
        high_prob_bound_normalized=normalized,
        high_prob_bound_rescaled=m * normalized,
        eps=eps, delta=delta, m=m, n=n, gamma=gamma, c=c,
    )
