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
from .attacks import accuracy
from .data import LabeledSet


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """Ranks 1..n: a tie run over sorted positions i..j ranks 0.5 * (i + j) + 1.
    -0.0 ties with 0.0, and nan entries (no sweep column holds one) share a run."""
    _, run_of, run_len = np.unique(v, return_inverse=True, return_counts=True)
    j = np.cumsum(run_len) - 1
    i = j - run_len + 1
    return (0.5 * (i + j) + 1.0)[run_of]


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
    return accuracy(nn.forward(net, x_adv), dataset.labels)
