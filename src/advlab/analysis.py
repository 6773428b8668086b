"""Sweep-level statistics: Spearman rank correlations, and adversarial accuracy.

The paper's sweep claims are signs: privacy leakage and the generalization
gap rise with the robustified intensity. A rank correlation tests such a
monotone-trend claim; Pearson on raw values would be needlessly sensitive to
the bend of the curve.
"""

from __future__ import annotations

import numpy as np

from . import nn
from .adversarial import AttackSpec, pgd_batch
from .data import LabeledSet


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
