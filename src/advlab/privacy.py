"""Gradient-noise analysis and the differential-privacy accountant.

Noise pipeline (five steps): compute the full-dataset mean gradient once;
for each of ``n_batches`` random mini batches compute the batch mean
gradient and subtract the full gradient; sample a random subset of the
difference vector's components; pool every sampled component across
batches; divide the pool by its standard deviation. The normalized pool is
what gets histogrammed and fed to the Laplace fit.

Accountant: modelling batch gradients as Laplace(full gradient, b), one
SGD step on an N-example set leaks

    eps_t = 2 * L_erm_t * I_t / (N * b)

and T steps compose to

    eps = sqrt(2 * ln(N / delta') * sum eps_t^2)
          + sum eps_t * (e^eps_t - 1) / (e^eps_t + 1),      delta = delta' / N,

with delta' = ``DELTA_PRIME`` = 1, so delta = ``DELTA_PRIME`` / N and N > 1.
The leading-term budget replaces the per-step series by its fourth-power
composites: eps = (2 * L_1T * I_1T / (N * b)) * sqrt(2 T ln(N / delta')),
dropping an O(1/N^2) remainder; the ERM baseline is the same with
intensity 1. Logs are natural throughout. :func:`budgets` is the one place
that turns a run's (L_erm, I) series into these budgets; :func:`compose` is
its composition step, and checks each input once (see its docstring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .data import LabeledSet
from .intensity import composite_intensity
from .rng import DOMAIN_NOISE, stream

HISTOGRAM_BINS = 201
HISTOGRAM_RANGE = (-10.0, 10.0)
HISTOGRAM_SLICE = 4096  # values per np.histogram call
DELTA_PRIME = 1.0  # delta' of every budget: delta = DELTA_PRIME / N


class DegenerateNoiseError(ValueError):
    """Noise values have zero spread; nothing to normalize or fit."""


@dataclass(frozen=True)
class NoiseSample:
    """Normalized gradient-noise components (read-only) and the spread divided out of them."""

    values: np.ndarray
    divisor: float           # the pooled standard deviation that was divided out


@dataclass(frozen=True)
class LaplaceFit:
    """Maximum-likelihood Laplace parameters: median location, MAD scale."""

    location: float
    scale: float
    count: int


@dataclass(frozen=True)
class PrivacyBudget:
    epsilon: float
    delta: float
    provenance: str  # composed_thm4 | leading_thm5 | erm_corollary
    inputs: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.epsilon >= 0 or not 0 <= self.delta <= 1:  # nan fails too
            raise ValueError("budget outside the valid (eps >= 0, delta in [0,1]) region")


def collect_noise(net: nn.DenseNet, dataset: LabeledSet, tau: int, n_batches: int,
                  components_per_batch: int, seed: int, clip_m: float) -> NoiseSample:
    """Run the five-step noise pipeline against clean-loss gradients.

    Batch indices are drawn without replacement and kept in ascending
    order, so a tau == N batch reproduces the full-gradient summation
    exactly and correctly trips the degenerate-spread error.

    The arguments are not checked here: ``ExperimentConfig`` owns the rules
    for ``noise_tau`` (in [1, N]), ``noise_batches`` (at least 1) and
    ``noise_components`` (in [1, parameter count]), and every command checks
    them before any gradient work.
    """
    n = len(dataset)
    full = nn.mean_grad(net, dataset.features, dataset.labels, clip_m)
    pooled = np.empty(n_batches * components_per_batch)
    for j in range(n_batches):
        rng = stream(seed, DOMAIN_NOISE, j)
        idx = np.sort(rng.permutation(n)[:tau])
        diff = nn.mean_grad(net, dataset.features[idx], dataset.labels[idx], clip_m) - full
        comp = rng.permutation(full.size)[:components_per_batch]
        pooled[j * components_per_batch:(j + 1) * components_per_batch] = diff[comp]
    sd = float(np.std(pooled))
    nn.check_finite("gradient noise spread", sd)
    if sd == 0.0:
        raise DegenerateNoiseError("pooled gradient noise has standard deviation 0.0")
    # a finite sd > 0 means every value is finite, and not all are equal, so sd is
    # not negligible next to the largest |value| and no quotient overflows
    pooled /= sd
    pooled.setflags(write=False)
    return NoiseSample(pooled, divisor=sd)


def fit_laplace(values: np.ndarray) -> LaplaceFit:
    """Closed-form Laplace MLE: location is the (lower) median, scale the
    mean absolute deviation from it. ``values`` are at least two, not all equal:
    :func:`collect_noise`'s zero-spread check, their gate, makes sure."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    location = float(v[(len(v) - 1) // 2])
    v -= location
    scale = float(np.abs(v, out=v).mean())
    return LaplaceFit(location=location, scale=scale, count=int(v.size))


def noise_histogram(values: np.ndarray):
    """(edges, counts) of ``HISTOGRAM_BINS`` bins over ``HISTOGRAM_RANGE``; values outside drop.

    The counts are summed over slices of ``HISTOGRAM_SLICE`` values, which
    bounds ``np.histogram``'s temporaries; each value falls in the same bin
    either way, so the counts equal one call's.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    counts = 0
    for start in range(0, max(v.size, 1), HISTOGRAM_SLICE):
        part, edges = np.histogram(v[start:start + HISTOGRAM_SLICE], bins=HISTOGRAM_BINS,
                                   range=HISTOGRAM_RANGE)
        counts = counts + part
    return edges, counts


def compose(eps_list, n: int) -> PrivacyBudget:
    """Exact composition of per-step budgets, one per entry of ``eps_list``,
    into a whole-run (eps, delta) on an N-example set, N > ``DELTA_PRIME``
    (:func:`budgets` checks N)."""
    eps = np.asarray(list(eps_list), dtype=np.float64)
    if eps.size and eps.min() < 0:
        raise ValueError("per-step epsilons must be nonnegative")
    log_term = math.log(n / DELTA_PRIME)
    sq = math.sqrt(2.0 * log_term * float(np.sum(eps ** 2)))
    # (e^eps - 1) / (e^eps + 1) written as tanh(eps / 2), which cannot overflow
    second = float(np.sum(eps * np.tanh(eps / 2.0)))
    return PrivacyBudget(
        epsilon=sq + second,
        delta=DELTA_PRIME / n,
        provenance="composed_thm4",
        inputs={"n": n, "delta_prime": DELTA_PRIME, "steps": int(eps.size)},
    )


def budgets(l_erm, intensity, t: int, n: int, b: float):
    """Per-step epsilons and the three budgets of one nonempty (L_erm, I) series.

    Returns ``(eps_per_step, budgets)``, with ``budgets`` keyed by
    provenance. ``composed_thm4`` composes one step per entry; the leading and
    ERM budgets take the series' fourth-power composites (in their
    ``inputs`` as ``l_erm_1t`` and ``i_1t``; ``i_1t`` is 1 for ERM) over
    ``t`` steps. Each input is checked once, here: N, b, the series and T.
    An empty series has no composite, so it is a ``ValueError`` like a T
    below 1.
    """
    if not n > DELTA_PRIME:  # so that ln(N / delta') > 0 and delta = delta' / N < 1
        raise ValueError(f"N must exceed delta' = {DELTA_PRIME}, got {n}")
    if not b > 0:
        raise ValueError("Laplace scale b must be positive")
    if not all(0 <= v < math.inf for v in (*l_erm, *intensity)):
        raise ValueError("gradient statistics must be finite and nonnegative")
    eps = [2.0 * l * i / (n * b) for l, i in zip(l_erm, intensity)]
    if not eps:
        raise ValueError("the (L_erm, I) series is empty: no step to account")
    if t < 1:
        raise ValueError("T must be >= 1")
    out = {"composed_thm4": compose(eps, n)}
    l_1t = composite_intensity(l_erm)
    root = math.sqrt(2.0 * t * math.log(n / DELTA_PRIME))
    for name, i_1t in (("leading_thm5", composite_intensity(intensity)),
                       ("erm_corollary", 1.0)):
        out[name] = PrivacyBudget(
            epsilon=(2.0 * l_1t * i_1t / (n * b)) * root, delta=DELTA_PRIME / n,
            provenance=name, inputs={"l_erm_1t": l_1t, "i_1t": i_1t, "t": t, "n": n,
                                     "b": b, "delta_prime": DELTA_PRIME})
    return eps, out
