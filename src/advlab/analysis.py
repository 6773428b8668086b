"""Sweep-level statistics: polynomial trend fits and rank correlations.

Fits follow the fourth-order polynomial regression style used for the
trend plots; the fit solves the normal equations of a Vandermonde system
built on centered-and-scaled x values (raw fourth powers of unscaled data
would wreck the conditioning) and converts the solution back to ordinary
ascending-power coefficients. A fit is reported, in ``analysis.json``;
nothing in the program evaluates it.

Correlations are Spearman rank correlations: the claims under test are
monotone-trend claims, so Pearson on raw values would be needlessly
sensitive to the bend of the curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .adversarial import AttackSpec, pgd_batch
from .data import LabeledSet


@dataclass(frozen=True)
class PolyFit:
    """Least-squares polynomial fit; its fields are reported, and nothing evaluates it.

    ``coefficients`` are ordinary ascending powers of raw x.
    ``scaled_coefficients`` are ascending powers of ``(x - x_center) /
    x_scale``, the basis the fit was solved in, which stays numerically
    stable even when the raw expansion cancels badly.
    """

    coefficients: tuple[float, ...]
    scaled_coefficients: tuple[float, ...]
    x_center: float
    x_scale: float
    degree: int


def polyfit(xs, ys, degree: int = 4) -> PolyFit:
    """Least-squares fit of a degree-d polynomial via scaled normal equations."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("xs and ys must be equal-length vectors")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if np.unique(x).size <= degree:
        raise ValueError(f"need more than {degree} distinct x values")
    center = float(x.mean())
    scale = float(np.abs(x - center).max())
    if scale == 0.0:
        scale = 1.0
    u = (x - center) / scale
    v = np.vander(u, degree + 1, increasing=True)
    gram = v.T @ v
    try:
        coef_u = np.linalg.solve(gram, v.T @ y)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"degenerate fitting system: {exc}") from None
    # expand p((x - c)/s) into ordinary powers of x
    poly = np.polynomial.Polynomial(coef_u, domain=[center - scale, center + scale],
                                    window=[-1.0, 1.0])
    coef_raw = poly.convert().coef
    coef_raw = np.pad(coef_raw, (0, degree + 1 - len(coef_raw)))
    return PolyFit(tuple(float(c) for c in coef_raw),
                   tuple(float(c) for c in coef_u), center, scale, degree)


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing their average rank."""
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v))
    sorted_v = v[order]
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and sorted_v[j + 1] == sorted_v[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(xs, ys) -> float:
    """Spearman rank correlation (Pearson on average ranks), in [-1, 1]."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("xs and ys must be equal-length vectors")
    if x.size < 3:
        raise ValueError("need at least 3 points")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ValueError("correlation undefined for a constant vector")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry)))


def adversarial_accuracy(net: nn.DenseNet, dataset: LabeledSet, attack: AttackSpec,
                         clip_m: float) -> float:
    """Fraction of examples still classified correctly at their PGD points."""
    x_adv = pgd_batch(net, dataset.features, dataset.labels, attack, clip_m)
    pred = np.argmax(nn.forward(net, x_adv), axis=1)
    return float((pred == dataset.labels).mean())
