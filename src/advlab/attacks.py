"""Threshold membership inference and 0/1 accuracy, both read off the logits
of one ``nn.forward`` pass over a row set.

The attacker sees a model and a candidate example, assumed equally likely
to come from the training or the test set, and predicts "member" when the
model's softmax confidence on the true label reaches a threshold. Attack
accuracy at threshold zeta is

    Acc(zeta) = (frac(train conf >= zeta) + frac(test conf < zeta)) / 2

which is piecewise constant in zeta and changes only at observed
confidence values, so scanning those values (plus the sentinels 0 and
1 + 1e-12) finds the exact optimum. Confidences must be finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """0/1 accuracy of the ``logits`` rows against ``labels``; first index wins argmax ties."""
    return float((np.argmax(logits, axis=1) == labels).mean())


def true_label_confidences(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Softmax probability that each ``logits`` row gives its true label in ``labels``."""
    p = np.exp(logits - logits.max(axis=1, keepdims=True))  # stable: each row's max is 0
    return p[np.arange(len(labels)), labels] / p.sum(axis=1)


@dataclass(frozen=True)
class AttackReport:
    """Best threshold found by enumeration, and the attack accuracy there."""

    zeta_optim: float
    accuracy: float


def optimal_threshold(train_confs: np.ndarray, test_confs: np.ndarray) -> AttackReport:
    """Exact maximizer of Acc over all thresholds; ties break to smallest zeta.

    Candidates are the distinct observed confidences plus sentinels 0 and
    1 + 1e-12; Acc is constant between consecutive observed values, so no
    other threshold can do better. A non-finite confidence, as a diverged
    model gives, is an ``nn.DivergenceError``; neither vector is empty (``LabeledSet``).

    All candidates are scored at once from sorted confidences:
    ``searchsorted(..., side="left")`` counts the values below each
    candidate. Each count divided by the vector length is bitwise the
    boolean mean of Acc(zeta) at one threshold, so the accuracy at each
    candidate, and with it the reported optimum, equals the test oracle
    ``conftest.mia_accuracy`` there, in O((n + m) log(n + m)).
    """
    train_confs = np.asarray(train_confs, dtype=np.float64)
    test_confs = np.asarray(test_confs, dtype=np.float64)
    candidates = np.unique(np.concatenate([
        train_confs, test_confs, [0.0, 1.0 + 1e-12]]))
    nn.check_finite("confidences", candidates)
    train_sorted, test_sorted = np.sort(train_confs), np.sort(test_confs)
    at_least = train_confs.size - np.searchsorted(train_sorted, candidates, side="left")
    below = np.searchsorted(test_sorted, candidates, side="left")
    acc = 0.5 * (at_least / train_confs.size + below / test_confs.size)
    best = int(np.argmax(acc))  # the first maximum: candidates ascend
    return AttackReport(zeta_optim=float(candidates[best]), accuracy=float(acc[best]))
