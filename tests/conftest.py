"""Shared oracles and generators for the test suite.

The finite-difference helpers here are the independent gradient oracle:
they never touch the backward pass, only repeated forward losses.
``per_example_grads`` is the materialized per-example gradient matrix that
the library's mean and rank-one norm shortcuts are checked against, and
``mia_accuracy`` is the one-threshold attack accuracy that the threshold
scan is checked against. The ``textbook_*`` functions are the plain dense
pass, with a stored pre-activation per layer and fresh arrays for every
step, that the library's in-place pass must reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from advlab import data, nn

FD_STEP = 1e-4
CLIP_M = 10.0  # a loss clip the random batches stay below, the default loss_bound


def net_from_layers(weights, biases) -> nn.DenseNet:
    """The net with these (out x in) weight matrices and bias vectors: the constructor
    given their widths and the one vector they make in the flattened order."""
    weights = [np.asarray(w, dtype=np.float64) for w in weights]
    widths = (weights[0].shape[1], *(w.shape[0] for w in weights))
    flat = np.concatenate([np.ravel(p) for layer in zip(weights, biases) for p in layer])
    return nn.DenseNet(widths, flat)


def net_with_params(net: nn.DenseNet, flat) -> nn.DenseNet:
    """A net of ``net``'s widths built from ``flat`` by the constructor."""
    return nn.DenseNet(net.layer_widths, flat)


def fd_grad_params(net: nn.DenseNet, X, y, clip_m: float, h: float = FD_STEP) -> np.ndarray:
    """Central finite differences of the mean batch loss w.r.t. parameters."""
    theta = net.params
    out = np.empty_like(theta)
    for i in range(len(theta)):
        tp = theta.copy()
        tp[i] += h
        tm = theta.copy()
        tm[i] -= h
        lp = nn.loss_batch(net_with_params(net, tp), X, y, clip_m)[0]
        lm = nn.loss_batch(net_with_params(net, tm), X, y, clip_m)[0]
        out[i] = (lp - lm) / (2 * h)
    return out


def per_example_grads(net: nn.DenseNet, X, y, clip_m: float) -> np.ndarray:
    """(n, num_params) per-example parameter gradients in the flattened order.

    Materializes every outer product from the shared backward pass; the
    library itself only ever needs their mean and their norms.
    """
    acts, deltas, _ = nn._backward(net, np.asarray(X, dtype=np.float64),
                                   np.asarray(y, dtype=np.int64), clip_m)
    parts = []
    for a, d in zip(acts[:-1], deltas):
        parts.append(np.einsum("no,ni->noi", d, a).reshape(len(d), -1))
        parts.append(d)
    return np.concatenate(parts, axis=1)


def mia_accuracy(train_confs, test_confs, zeta: float) -> float:
    """Attack accuracy at one threshold, equal prior on member/non-member."""
    train_confs = np.asarray(train_confs, dtype=np.float64)
    test_confs = np.asarray(test_confs, dtype=np.float64)
    if train_confs.size == 0 or test_confs.size == 0:
        raise ValueError("confidence vectors must be non-empty")
    return 0.5 * (float((train_confs >= zeta).mean()) + float((test_confs < zeta).mean()))


def fd_grad_inputs(net: nn.DenseNet, X, y, clip_m: float, h: float = FD_STEP) -> np.ndarray:
    """Central finite differences of each per-example loss w.r.t. its features."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty_like(X)
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            Xp = X.copy()
            Xp[i, j] += h
            Xm = X.copy()
            Xm[i, j] -= h
            lp = nn.loss_batch(net, Xp, y, clip_m)[1][i]
            lm = nn.loss_batch(net, Xm, y, clip_m)[1][i]
            out[i, j] = (lp - lm) / (2 * h)
    return out


def write_dataset_csv(dataset: data.LabeledSet, path) -> None:
    """A dataset as the headerless feature+label CSV that ``data.load_csv`` reads."""
    data.write_csv(path, (), ((*x, y) for x, y in zip(dataset.features, dataset.labels)))


def textbook_forward(net: nn.DenseNet, X):
    """(activations incl. input, pre-activations) per layer: ``z = h @ w.T + b``."""
    acts, zs = [np.asarray(X, dtype=np.float64)], []
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w.T + b
        zs.append(z)
        if i == len(net.weights) - 1:
            acts.append(z)
        else:
            acts.append(np.maximum(z, 0.0))
    return acts, zs


def textbook_backward(net: nn.DenseNet, X, y, clip_m: float):
    """(activations, per-layer deltas, clipped losses): ``delta = (delta @ W) * (z > 0)``.

    The loss head is the library's own ``_losses_and_dlogits``; the layer
    recursion around it is written out with the pre-activation mask.
    """
    acts, zs = textbook_forward(net, X)
    y = np.asarray(y, dtype=np.int64)
    raw, dlogits = nn._losses_and_dlogits(acts[-1], y)
    deltas = [dlogits * (raw < clip_m)[:, None]]
    for i in range(len(net.weights) - 1, 0, -1):
        z = zs[i - 1]
        deltas.insert(0, (deltas[0] @ net.weights[i]) * (z > 0))
    return acts, deltas, np.minimum(raw, clip_m)


def textbook_grads(net: nn.DenseNet, X, y, clip_m: float):
    """(mean gradient, per-example norms, clipped losses, input gradient) from the textbook pass."""
    acts, deltas, losses = textbook_backward(net, X, y, clip_m)
    n = len(acts[0])
    parts, sq = [], np.zeros(n)
    for a, d in zip(acts[:-1], deltas):
        parts += [(d.T @ a).ravel() / n, d.sum(axis=0) / n]
        dsq = (d * d).sum(axis=1)
        sq += dsq * (a * a).sum(axis=1) + dsq
    return np.concatenate(parts), np.sqrt(sq), losses, deltas[0] @ net.weights[0]


def random_net_and_batch(seed: int, widths=(4, 6, 3), n: int = 5):
    """Random net plus a batch kept away from relu kinks and the loss clip.

    Pre-activations are resampled until every |z| exceeds 1e-3, which both
    satisfies the kink-exclusion rule and keeps the finite-difference step
    inside a smooth region.
    """
    rng = np.random.default_rng(seed)
    for attempt in range(50):
        ws = tuple(rng.normal(scale=0.6, size=(o, i))
                   for i, o in zip(widths[:-1], widths[1:]))
        bs = tuple(rng.normal(scale=0.3, size=o) for o in widths[1:])
        net = net_from_layers(ws, bs)
        X = rng.normal(size=(n, widths[0]))
        y = rng.integers(0, widths[-1], size=n)
        _, zs = textbook_forward(net, X)
        margin = min(np.abs(z).min() for z in zs[:-1]) if len(zs) > 1 else 1.0
        if margin > 1e-3:
            return net, X, y
    raise AssertionError("could not find a kink-free instance")


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, rtol: float = 1e-5):
    """Componentwise relative comparison with an absolute floor of rtol."""
    scale = np.maximum(1.0, np.abs(numeric))
    err = np.abs(analytic - numeric) / scale
    assert err.max() < rtol, f"gradient mismatch: max scaled error {err.max():.3g}"


@pytest.fixture
def tiny_blobs():
    from advlab.data import split, synth_blobs
    pool = synth_blobs(40, 3, 4, 1.0, seed=9)
    return split(pool, 80, seed=9)
