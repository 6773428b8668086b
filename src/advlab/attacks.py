"""Threshold membership inference and generalization-gap measurement.

The attacker sees a model and a candidate example, assumed equally likely
to come from the training or the test set, and predicts "member" when the
model's softmax confidence on the true label reaches a threshold. Attack
accuracy at threshold zeta is

    Acc(zeta) = (frac(train conf >= zeta) + frac(test conf < zeta)) / 2

which is piecewise constant in zeta and changes only at observed
confidence values, so scanning those values (plus sentinels below 0 and
above 1) finds the exact optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .data import LabeledSet


def accuracy(net: nn.DenseNet, dataset: LabeledSet) -> float:
    """0/1 accuracy; argmax over logits, first index wins ties."""
    pred = np.argmax(nn.forward(net, dataset.features), axis=1)
    return float((pred == dataset.labels).mean())


def generalization_gap(net: nn.DenseNet, train_set: LabeledSet, test_set: LabeledSet) -> float:
    """Training accuracy minus test accuracy."""
    return accuracy(net, train_set) - accuracy(net, test_set)


def true_label_confidences(net: nn.DenseNet, dataset: LabeledSet) -> np.ndarray:
    """Softmax probability assigned to each example's true label."""
    p = nn.softmax(nn.forward(net, dataset.features))
    return p[np.arange(len(dataset)), dataset.labels]


def mia_accuracy(train_confs: np.ndarray, test_confs: np.ndarray, zeta: float) -> float:
    """Attack accuracy at one threshold, equal prior on member/non-member."""
    train_confs = np.asarray(train_confs, dtype=np.float64)
    test_confs = np.asarray(test_confs, dtype=np.float64)
    if train_confs.size == 0 or test_confs.size == 0:
        raise ValueError("confidence vectors must be non-empty")
    return 0.5 * (float((train_confs >= zeta).mean()) + float((test_confs < zeta).mean()))


@dataclass(frozen=True)
class AttackReport:
    """Best threshold found by enumeration, with the full candidate sweep."""

    zeta_optim: float
    accuracy: float
    sweep: tuple[tuple[float, float], ...]  # (zeta candidate, Acc(zeta))
    n_train: int
    n_test: int


def optimal_threshold(train_confs: np.ndarray, test_confs: np.ndarray) -> AttackReport:
    """Exact maximizer of Acc over all thresholds; ties break to smallest zeta.

    Candidates are the distinct observed confidences plus sentinels 0 and
    1 + 1e-12; Acc is constant between consecutive observed values, so no
    other threshold can do better.

    All candidates are scored at once from sorted confidences:
    ``searchsorted(..., side="left")`` counts the values below each
    candidate. Each count divided by the vector length is bitwise the
    boolean mean that :func:`mia_accuracy` takes, so every sweep entry
    equals ``mia_accuracy`` at that candidate, in O((n + m) log(n + m)).
    """
    train_confs = np.asarray(train_confs, dtype=np.float64)
    test_confs = np.asarray(test_confs, dtype=np.float64)
    if train_confs.size == 0 or test_confs.size == 0:
        raise ValueError("confidence vectors must be non-empty")
    candidates = np.unique(np.concatenate([
        train_confs, test_confs, [0.0, 1.0 + 1e-12]]))
    train_sorted, test_sorted = np.sort(train_confs), np.sort(test_confs)
    # NaN sorts last and compares false both ways, so it is never counted
    at_least = (np.count_nonzero(~np.isnan(train_sorted))
                - np.searchsorted(train_sorted, candidates, side="left"))
    below = np.where(np.isnan(candidates), 0,
                     np.searchsorted(test_sorted, candidates, side="left"))
    acc = 0.5 * (at_least / train_confs.size + below / test_confs.size)
    sweep = list(zip(candidates.tolist(), acc.tolist()))
    best = max(sweep, key=lambda za: (za[1], -za[0]))
    return AttackReport(zeta_optim=best[0], accuracy=best[1], sweep=tuple(sweep),
                        n_train=train_confs.size, n_test=test_confs.size)
