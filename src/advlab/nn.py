"""Dense feedforward classifiers with exact reverse-mode gradients.

A :class:`DenseNet` is an ordered list of fully-connected layers with a
shared elementwise activation (relu or tanh) between layers and a linear
output layer. All arithmetic is 64-bit; the privacy accountant downstream
is sensitive to tiny epsilon values, so nothing here is allowed to run in
single precision.

Flattened parameter order
-------------------------
Everything that treats the parameters as a single vector (gradients,
checkpoints, SGD state) uses one fixed ordering: for each layer in
sequence, the weight matrix in row-major (C) order followed by the bias
vector. Gradient vectors are plain float64 ndarrays of length
``net.num_params`` in this order, and the only norm applied to them is the
Euclidean norm.

Loss
----
The per-example loss is cross-entropy over softmax, hard-clipped from
above at ``clip_m`` so that it is bounded in ``[0, clip_m]``. Where the
clip is active (raw loss >= clip_m) the example sits on the flat part of
the clipped loss and its gradient is exactly zero. A second loss kind,
``squared``, treats the integer label as a real regression target and sums
squared logit residuals; it exists so that tests can build one-dimensional
convex objectives with hand-computable gradients.

Conventions pinned for determinism: the relu subgradient at 0 is 0, and
the clip subgradient at raw loss == clip_m is 0.

Per-call cost
-------------
Training calls the backward pass on small batches thousands of times, so
per-call overhead matters more than flops. One backward pass exponentiates
the logits once: :func:`_losses_and_dlogits` returns the raw losses and
the logit gradient from the same softmax. The relu derivative and the clip
factor are boolean masks that multiply float arrays directly; multiplying
by a bool gives bitwise the same result as multiplying by 0.0 or 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import DOMAIN_INIT, stream

ACTIVATIONS = ("relu", "tanh")
LOSS_KINDS = ("cross_entropy", "squared")


def _lock(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DenseNet:
    """Immutable dense network: ``weights[i]`` is (out x in), ``biases[i]`` is (out,)."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("need one bias vector per weight matrix, at least one layer")
        ws = tuple(_lock(w) for w in self.weights)
        bs = tuple(_lock(b) for b in self.biases)
        for i, (w, b) in enumerate(zip(ws, bs)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {i}: weight {w.shape} / bias {b.shape} mismatch")
            if i > 0 and w.shape[1] != ws[i - 1].shape[0]:
                raise ValueError(
                    f"layer {i}: input width {w.shape[1]} != previous output {ws[i - 1].shape[0]}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i}: non-finite parameter")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def layer_widths(self) -> tuple[int, ...]:
        """(in, hidden..., out) widths."""
        return (self.in_dim,) + tuple(w.shape[0] for w in self.weights)

    @property
    def num_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def flatten(self) -> np.ndarray:
        """Parameters as one vector in the documented order (row-major W, then b, per layer)."""
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b)
        return np.concatenate(parts)

    def _views(self, flat: np.ndarray):
        """(weights, biases) of this net's shape, as views into ``flat``."""
        ws, bs, k = [], [], 0
        for w, b in zip(self.weights, self.biases):
            ws.append(flat[k : k + w.size].reshape(w.shape))
            k += w.size
            bs.append(flat[k : k + b.size])
            k += b.size
        return tuple(ws), tuple(bs)

    def with_params(self, flat: np.ndarray) -> "DenseNet":
        """New net with the same shape and parameters taken from ``flat``."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.num_params,):
            raise ValueError(f"expected {self.num_params} parameters, got {flat.shape}")
        return DenseNet(*self._views(flat), self.activation)

    def _adopt(self, flat: np.ndarray) -> "DenseNet":
        """New net of this shape that takes ownership of ``flat``; no copy, no scan.

        Private constructor for the SGD hot path, which has just computed
        ``flat`` and checked it finite. The caller guarantees that ``flat``
        is a fresh float64 vector of length ``num_params`` that nothing else
        holds. It is marked read-only here and the weights and biases are
        views into it, so the new net is as immutable as one from
        ``DenseNet(...)``, which copies and validates every array.
        """
        flat.setflags(write=False)
        net = object.__new__(DenseNet)
        ws, bs = self._views(flat)
        object.__setattr__(net, "weights", ws)
        object.__setattr__(net, "biases", bs)
        object.__setattr__(net, "activation", self.activation)
        return net

    @staticmethod
    def random(widths: tuple[int, ...], activation: str, seed: int) -> "DenseNet":
        """Gaussian init scaled by fan-in (He for relu, Xavier for tanh), zero biases."""
        rng = stream(seed, DOMAIN_INIT)
        gain = 2.0 if activation == "relu" else 1.0
        ws, bs = [], []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            ws.append(rng.standard_normal((fan_out, fan_in)) * np.sqrt(gain / fan_in))
            bs.append(np.zeros(fan_out))
        return DenseNet(tuple(ws), tuple(bs), activation)


@dataclass(frozen=True)
class LossSpec:
    """Per-example loss choice plus the hard upper clip ``clip_m``."""

    kind: str = "cross_entropy"
    clip_m: float = 10.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not self.clip_m > 0:
            raise ValueError("clip_m must be positive")


def _check_features(net: DenseNet, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"features must be a 2-d matrix, got shape {x.shape}")
    if x.shape[1] != net.in_dim:
        raise ValueError(f"feature width {x.shape[1]} != net input width {net.in_dim}")
    return x


def _check_labels(net: DenseNet, labels: np.ndarray, n: int) -> np.ndarray:
    y = np.asarray(labels)
    if y.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {y.shape}")
    if y.dtype.kind not in "iu":
        raise ValueError("labels must be integers")
    if y.size and (y.min() < 0 or y.max() >= net.out_dim):
        raise ValueError(f"label out of range [0, {net.out_dim})")
    return y.astype(np.int64, copy=False)


def _act(net: DenseNet, z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) if net.activation == "relu" else np.tanh(z)


def _act_deriv(net: DenseNet, z: np.ndarray) -> np.ndarray:
    # relu subgradient at exactly 0 is taken as 0; a boolean mask
    return z > 0 if net.activation == "relu" else 1.0 - np.tanh(z) ** 2


def _forward_cached(net: DenseNet, x: np.ndarray):
    """Returns (activations per layer incl. input, pre-activations per layer)."""
    acts, zs = [x], []
    h = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w.T + b
        zs.append(z)
        h = z if i == last else _act(net, z)
        acts.append(h)
    return acts, zs


def forward(net: DenseNet, features: np.ndarray) -> np.ndarray:
    """Logits, one row per input row. Deterministic and pure."""
    x = _check_features(net, features)
    return _forward_cached(net, x)[0][-1]


def _losses_and_dlogits(logits: np.ndarray, y: np.ndarray, spec: LossSpec):
    """(raw per-example losses, loss gradient w.r.t. the logits), from one softmax."""
    if spec.kind == "cross_entropy":
        rows = np.arange(len(y))
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        total = e.sum(axis=1, keepdims=True)
        raw = np.log(total[:, 0]) - shifted[rows, y]
        e /= total
        e[rows, y] -= 1.0
        return raw, e
    # squared: label acts as a real target shared by every output coordinate
    r = logits - y[:, None].astype(np.float64)
    return (r ** 2).sum(axis=1), 2.0 * r


def loss_batch(net: DenseNet, batch, spec: LossSpec = LossSpec()):
    """(mean clipped loss, per-example clipped losses) for a (features, labels) batch."""
    x = _check_features(net, batch[0])
    y = _check_labels(net, batch[1], len(x))
    raw, _ = _losses_and_dlogits(forward(net, x), y, spec)
    clipped = np.minimum(raw, spec.clip_m)
    return float(clipped.mean()), clipped


def _backward(net: DenseNet, x: np.ndarray, y: np.ndarray, spec: LossSpec):
    """Shared backward pass: cached activations, per-layer deltas, clipped losses.

    The returned deltas already carry the clip factor, which zeroes every
    example whose raw loss reached clip_m.
    """
    acts, zs = _forward_cached(net, x)
    raw, dlogits = _losses_and_dlogits(acts[-1], y, spec)
    delta = dlogits * (raw < spec.clip_m)[:, None]
    deltas = [delta]
    for i in range(len(net.weights) - 1, 0, -1):
        delta = (delta @ net.weights[i]) * _act_deriv(net, zs[i - 1])
        deltas.append(delta)
    deltas.reverse()
    return acts, deltas, np.minimum(raw, spec.clip_m)


def _mean(acts, deltas, n: int) -> np.ndarray:
    """Mean parameter gradient via aggregated matmuls (no per-example storage)."""
    parts = []
    for a, d in zip(acts[:-1], deltas):
        parts.append((d.T @ a).ravel() / n)
        parts.append(d.sum(axis=0) / n)
    return np.concatenate(parts)


def grad_params(net: DenseNet, batch, spec: LossSpec = LossSpec()):
    """Everything one training step needs, from a single backward pass.

    Returns ``(mean_grad, per_example_norms, losses)``: the mean parameter
    gradient in the flattened order (bitwise equal to :func:`mean_grad`),
    the Euclidean norm of each example's parameter gradient, and each
    example's clipped loss (equal to ``loss_batch(...)[1]``).

    The norms never materialize the (n, num_params) per-example gradients.
    The weight block of example i at layer l is the outer product
    delta x activation, so its squared Frobenius norm is
    ``|delta|^2 * |activation|^2``, and the bias block adds ``|delta|^2``.
    """
    x = _check_features(net, batch[0])
    y = _check_labels(net, batch[1], len(x))
    acts, deltas, losses = _backward(net, x, y, spec)
    sq = np.zeros(len(x))
    for a, d in zip(acts[:-1], deltas):
        dsq = (d * d).sum(axis=1)
        sq += dsq * (a * a).sum(axis=1) + dsq
    return _mean(acts, deltas, len(x)), np.sqrt(sq), losses


def mean_grad(net: DenseNet, batch, spec: LossSpec = LossSpec()) -> np.ndarray:
    """Mean parameter gradient alone; bitwise equal to ``grad_params(...)[0]``."""
    x = _check_features(net, batch[0])
    y = _check_labels(net, batch[1], len(x))
    acts, deltas, _ = _backward(net, x, y, spec)
    return _mean(acts, deltas, len(x))


def grad_inputs(net: DenseNet, features: np.ndarray, labels, spec: LossSpec = LossSpec()) -> np.ndarray:
    """Gradient of each example's clipped loss w.r.t. its own feature row."""
    x = _check_features(net, features)
    y = _check_labels(net, labels, len(x))
    _, deltas, _ = _backward(net, x, y, spec)
    return deltas[0] @ net.weights[0]


def grad_input(net: DenseNet, features: np.ndarray, label: int, spec: LossSpec = LossSpec()) -> np.ndarray:
    """Single-example input-space gradient (feature vector in, vector out)."""
    x = np.asarray(features, dtype=np.float64).reshape(1, -1)
    return grad_inputs(net, x, np.array([label]), spec)[0]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(shifted)
    return p / p.sum(axis=1, keepdims=True)
