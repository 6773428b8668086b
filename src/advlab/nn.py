"""Dense feedforward classifiers with exact reverse-mode gradients.

A :class:`DenseNet` is its layer widths ``(in, hidden..., out)`` and one
parameter vector: fully-connected layers with relu between them and a linear
output layer. relu is the only activation, since the paper's bounds do not
depend on the architecture. All arithmetic is 64-bit; the privacy accountant
downstream is sensitive to tiny epsilon values, so nothing here is allowed to
run in single precision.

Flattened parameter order
-------------------------
Everything that treats the parameters as a single vector (gradients,
checkpoints, SGD state) uses one fixed ordering: for each layer in
sequence, the weight matrix in row-major (C) order followed by the bias
vector. ``DenseNet(layer_widths, params)`` is the one way a vector becomes
a net. It checks at least two widths each >= 1, a float64 vector of
``param_count(layer_widths)`` entries, and, with
:func:`check_finite`, that every entry is finite. It keeps a read-only
vector that owns its data as it is (``DenseNet.random``, the SGD step) and
copies any other (a checkpoint's bytes, a caller's writable array), the rule
``data.LabeledSet`` applies to its rows; ``net.params`` is that vector, and
``net.weights`` and ``net.biases`` are read-only views into it. Gradient
vectors are plain float64 ndarrays of length ``net.num_params`` in this
order, and the only norm applied to them is the Euclidean norm.

Loss
----
The per-example loss is cross-entropy over softmax, hard-clipped from
above at ``clip_m`` so that it is bounded in ``[0, clip_m]``. Every loss
and gradient function takes ``(net, features, labels, clip_m)``; the
caller passes its ``ExperimentConfig.loss_bound``, the M of the paper's
bounds, as ``clip_m``. Where the clip is active (raw loss >= clip_m) the
example sits on the flat part of the clipped loss and its gradient is
exactly zero.

Conventions pinned for determinism: the relu subgradient at 0 is 0, and
the clip subgradient at raw loss == clip_m is 0.

Inputs
------
The kernels take rows checked where they entered the program and do not
check them again: 2-d float64 features of the net's input width, and int64
labels in ``[0, net.out_dim)``. The gates are ``data.LabeledSet`` (finite
features, labels in ``[0, num_classes)``) and ``ExperimentConfig.load_datasets``
(one feature width, a ``batch_size`` that fits). Every net is built as
``(train.dim, *hidden, train.num_classes)``, and PGD endpoints keep their
rows' dtype and shape.

Per-call cost
-------------
Training runs the backward pass on small batches thousands of times, so
per-call overhead and allocations matter more than flops. The forward pass
keeps one array per layer and adds the bias and relu in place. The
backward pass reads each relu derivative from the activation (``h > 0``,
the same mask as ``z > 0``) and scales deltas in place, bitwise equal to
the textbook form. One softmax yields the raw losses and the logit
gradient. A bool mask (relu derivative, clip factor) multiplies
float arrays directly, bitwise like multiplying by 0.0 or 1.0.

Whole-dataset calls (evaluation, PGD over a test set, the full gradient of
the noise pipeline) run the same pass over consecutive blocks of at most
``ROW_BLOCK`` rows, so their layer arrays take one block's memory whatever
the row count. PGD runs all its steps on one block before the next
(``adversarial.pgd_batch``), so :func:`grad_inputs`, called once per step,
is one pass over the rows it is given. Per-row outputs (logits, PGD
endpoints, norms, losses) are written into one array block by block. Each
row's arithmetic is the same as in one pass over all rows, but the BLAS
may pick another matmul kernel for a block's shape, which can round a
row's last bit differently (OpenBLAS 0.3.31 on an AVX-512 CPU does so on
the 64-to-4 output layer of the default net, not on the small nets of the
tests). The parameter gradient is summed over the blocks and divided by
the row count once, so it may also differ from one pass in the last bits.
A batch of at most ``ROW_BLOCK`` rows, such as every training batch, is
one block with one-pass arithmetic.

Divergence
----------
:func:`check_finite` is the one place a model's non-finite number is found,
and :class:`DivergenceError` its one error. The ``DenseNet`` constructor
checks every net's parameters with it, so an SGD update that overflows (or
takes a non-finite gradient) is the run's one ``DivergenceError``; training
also checks each logged statistic, and a run its gradient noise spread and
confidences. The input gates (config, data) reject non-finite input instead,
and a checkpoint's loader turns the constructor's error into a format error
that names the file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import _owned
from .rng import DOMAIN_INIT, stream

ROW_BLOCK = 256  # rows per pass; one (256, 64) float64 layer array is 128 KiB


class DivergenceError(RuntimeError):
    """A model gave a non-finite number: it has diverged."""


def check_finite(what: str, values) -> None:
    """A ``DivergenceError`` naming ``what`` unless every entry of ``values`` is finite."""
    if not np.isfinite(values).all():
        raise DivergenceError(f"non-finite {what}: the model has diverged")


def param_count(widths) -> int:
    """Parameter count of a dense net with layer widths (in, hidden..., out)."""
    return sum(i * o + o for i, o in zip(widths[:-1], widths[1:]))


def _views(widths, flat: np.ndarray):
    """(weights, biases) of a net with layer ``widths``, as views into ``flat``."""
    ws, bs, k = [], [], 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        ws.append(flat[k : k + fan_out * fan_in].reshape(fan_out, fan_in))
        k += fan_out * fan_in
        bs.append(flat[k : k + fan_out])
        k += fan_out
    return tuple(ws), tuple(bs)


@dataclass(frozen=True)
class DenseNet:
    """Immutable dense network: its ``layer_widths`` (in, hidden..., out) and its one
    float64 parameter vector ``params`` in the documented order.

    The constructor is the one way a vector becomes a net. It keeps a
    read-only vector that owns its data as it is and copies any other, so a
    caller's writable array never changes the net. ``weights[i]`` (out x in)
    and ``biases[i]`` (out,) are read-only views into ``params``.
    """

    layer_widths: tuple[int, ...]
    params: np.ndarray
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False)
    biases: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        widths = tuple(self.layer_widths)
        if len(widths) < 2 or min(widths) < 1:
            raise ValueError(f"a {'-'.join(map(str, widths))} net: need at least two layer "
                             f"widths, each >= 1")
        flat = _owned(self.params, np.float64)
        if flat.shape != (param_count(widths),):
            raise ValueError(f"a {'-'.join(map(str, widths))} net has {param_count(widths)} "
                             f"parameters, given an array of shape {flat.shape}")
        check_finite("parameters", flat)
        flat.setflags(write=False)
        ws, bs = _views(widths, flat)
        object.__setattr__(self, "layer_widths", widths)
        object.__setattr__(self, "params", flat)
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)

    @property
    def in_dim(self) -> int:
        return self.layer_widths[0]

    @property
    def out_dim(self) -> int:
        return self.layer_widths[-1]

    @property
    def num_params(self) -> int:
        return self.params.size

    @staticmethod
    def random(widths: tuple[int, ...], seed: int) -> "DenseNet":
        """He init (Gaussian, variance 2 / fan-in), zero biases."""
        rng = stream(seed, DOMAIN_INIT)
        parts = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            parts.append(rng.standard_normal(fan_out * fan_in) * np.sqrt(2.0 / fan_in))
            parts.append(np.zeros(fan_out))
        return DenseNet(widths, np.concatenate(parts))


def _forward_cached(net: DenseNet, x: np.ndarray) -> list[np.ndarray]:
    """Activations per layer, input first and logits last; one array per layer."""
    acts, h = [x], x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w.T
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts


def _row_blocks(n: int) -> list[slice]:
    """Consecutive slices of at most ``ROW_BLOCK`` rows covering ``n`` rows (one if n <= ROW_BLOCK)."""
    return [slice(s, s + ROW_BLOCK) for s in range(0, max(n, 1), ROW_BLOCK)]


def _by_rows(fn, width: int, *arrays) -> np.ndarray:
    """(n, width) rows of ``fn`` over row blocks of ``arrays``, written block by block.

    A batch of at most ``ROW_BLOCK`` rows is passed whole, and ``fn``'s
    result is returned as it is.
    """
    n = len(arrays[0])
    if n <= ROW_BLOCK:
        return fn(*arrays)
    out = np.empty((n, width))
    for s in _row_blocks(n):
        out[s] = fn(*(a[s] for a in arrays))
    return out


def forward(net: DenseNet, features: np.ndarray) -> np.ndarray:
    """Logits, one row per input row. Deterministic and pure."""
    return _by_rows(lambda xb: _forward_cached(net, xb)[-1], net.out_dim, features)


def _losses_and_dlogits(logits: np.ndarray, y: np.ndarray):
    """(raw per-example cross-entropy losses, their gradient w.r.t. the logits), from one
    softmax; the callers apply the clip."""
    rows = np.arange(len(y))
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    raw = np.log(total[:, 0]) - shifted[rows, y]
    e /= total
    e[rows, y] -= 1.0
    return raw, e


def loss_batch(net: DenseNet, features: np.ndarray, labels, clip_m: float):
    """(mean clipped loss, per-example clipped losses) of the rows ``features``."""
    raw, _ = _losses_and_dlogits(forward(net, features), labels)
    clipped = np.minimum(raw, clip_m)
    return float(clipped.mean()), clipped


def _backward(net: DenseNet, x: np.ndarray, y: np.ndarray, clip_m: float):
    """Shared backward pass: cached activations, per-layer deltas, clipped losses.

    The returned deltas already carry the clip factor, which zeroes every
    example whose raw loss reached clip_m.
    """
    acts = _forward_cached(net, x)
    raw, dlogits = _losses_and_dlogits(acts[-1], y)
    delta = dlogits * (raw < clip_m)[:, None]
    deltas = [delta]
    for i in range(len(net.weights) - 1, 0, -1):
        delta = delta @ net.weights[i]
        delta *= acts[i] > 0  # relu at 0 gives 0
        deltas.append(delta)
    deltas.reverse()
    return acts, deltas, np.minimum(raw, clip_m)


def _block_grads(net: DenseNet, x: np.ndarray, y: np.ndarray, clip_m: float, rows: slice,
                 sq, losses) -> np.ndarray:
    """Parameter gradient summed over the row block ``rows``, in the flattened order.

    Unless ``sq`` is None, it also adds each row's squared gradient norm into
    ``sq[rows]`` and writes its clipped loss to ``losses[rows]``. The block's
    layer arrays die on return.
    """
    acts, deltas, block_losses = _backward(net, x[rows], y[rows], clip_m)
    if sq is not None:
        losses[rows] = block_losses
        block_sq = sq[rows]
        for a, d in zip(acts[:-1], deltas):
            dsq = (d * d).sum(axis=1)
            block_sq += dsq * (a * a).sum(axis=1) + dsq
    return np.concatenate([part for a, d in zip(acts[:-1], deltas)
                           for part in ((d.T @ a).ravel(), d.sum(axis=0))])


def _grad_pass(net: DenseNet, features: np.ndarray, labels, clip_m: float, per_row: bool):
    """Mean gradient, with ``per_row`` also per-example norms and clipped losses.

    The row blocks' gradient sums are added up and divided by the row count once.
    """
    n = len(features)
    sq, losses = (np.zeros(n), np.empty(n)) if per_row else (None, None)
    first, *rest = _row_blocks(n)
    total = _block_grads(net, features, labels, clip_m, first, sq, losses)
    for rows in rest:
        total += _block_grads(net, features, labels, clip_m, rows, sq, losses)
    total /= n
    return (total, np.sqrt(sq, out=sq), losses) if per_row else total


def grad_params(net: DenseNet, features: np.ndarray, labels, clip_m: float):
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
    return _grad_pass(net, features, labels, clip_m, per_row=True)


def mean_grad(net: DenseNet, features: np.ndarray, labels, clip_m: float) -> np.ndarray:
    """Mean parameter gradient alone; bitwise equal to ``grad_params(...)[0]``."""
    return _grad_pass(net, features, labels, clip_m, per_row=False)


def grad_inputs(net: DenseNet, features: np.ndarray, labels, clip_m: float) -> np.ndarray:
    """Gradient of each example's clipped loss w.r.t. its own feature row, in one pass."""
    return _backward(net, features, labels, clip_m)[1][0] @ net.weights[0]
