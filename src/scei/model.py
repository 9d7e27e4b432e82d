"""Minimal MLP engine over flat parameter vectors.

Two hidden layers with ReLU, softmax cross-entropy output, analytic gradients,
mini-batch SGD, and accuracy evaluation. Everything is float64 and a pure
function of its inputs plus an explicit seed.

Parameter layout (the "flat vector" every other module trades in): layer by
layer, weights before biases, weights row-major with shape (fan_in, fan_out).
For an architecture (d, [h1, h2], c):

    W1 (d*h1) | b1 (h1) | W2 (h1*h2) | b2 (h2) | W3 (h2*c) | b3 (c)
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import LabeledDataset


@dataclass(frozen=True)
class MlpArchitecture:
    input_dim: int
    hidden_dims: tuple
    output_dim: int

    def __post_init__(self):
        hidden = tuple(int(h) for h in self.hidden_dims)
        if len(hidden) != 2 or min(hidden) < 1:
            raise ValueError(f"hidden widths must be two integers >= 1, got {hidden}")
        object.__setattr__(self, "hidden_dims", hidden)
        if min(self.input_dim, self.output_dim) < 1:
            raise ValueError(f"input and output widths must be >= 1, got {self.input_dim}, {self.output_dim}")

    @property
    def layer_dims(self) -> tuple:
        return (self.input_dim, *self.hidden_dims, self.output_dim)

    # computed on first use and kept: every training step unpacks parameters
    @cached_property
    def layer_shapes(self) -> tuple:
        """(fan_in, fan_out) per layer, input to output."""
        dims = self.layer_dims
        return tuple(zip(dims[:-1], dims[1:]))

    @cached_property
    def param_count(self) -> int:
        return sum(i * o + o for i, o in self.layer_shapes)


@dataclass(frozen=True)
class TrainingConfig:
    batch_size: int
    local_epochs: int
    learning_rate: float
    rng_seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and non-negative, got {self.learning_rate}")


def init_params(arch: MlpArchitecture, seed: int) -> np.ndarray:
    """Seeded uniform fan-in initialization: weights in [-1/sqrt(fan_in), +1/sqrt(fan_in)],
    biases zero."""
    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out in arch.layer_shapes:
        bound = 1.0 / np.sqrt(fan_in)
        parts.append(rng.uniform(-bound, bound, size=fan_in * fan_out))
        parts.append(np.zeros(fan_out))
    return np.concatenate(parts)


def unpack_params(params: np.ndarray, arch: MlpArchitecture) -> list:
    """Views of the flat vector as per-layer (weights, bias) pairs.

    A (K, P) stack of K vectors gives (K, fan_in, fan_out) weights and
    (K, fan_out) biases.
    """
    params = np.asarray(params, dtype=np.float64)
    if params.ndim not in (1, 2) or params.shape[-1] != arch.param_count:
        raise ValueError(
            f"expected {arch.param_count} parameters, got shape {params.shape}"
        )
    return _unpack(params, arch.layer_shapes)


def _unpack(params, shapes) -> list:
    lead = params.shape[:-1]
    layers = []
    offset = 0
    for fan_in, fan_out in shapes:
        weights = params[..., offset : offset + fan_in * fan_out].reshape(*lead, fan_in, fan_out)
        offset += fan_in * fan_out
        bias = params[..., offset : offset + fan_out]
        offset += fan_out
        layers.append((weights, bias))
    return layers


def _as_batch(batch, arch: MlpArchitecture) -> np.ndarray:
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != arch.input_dim:
        raise ValueError(
            f"batch must have {arch.input_dim} feature columns, got shape {x.shape}"
        )
    return x


def _forward_layers(layers, x):
    (w1, b1), *tail = layers
    # biases get a row axis so they broadcast over a stack's batches too
    z1 = x @ w1
    z1 += b1[..., None, :]
    return (z1, *_forward_tail(tail, z1))


def _forward_tail(tail, z1):
    """Layers 2 and 3 from the first layer's pre-activation z1."""
    (w2, b2), (w3, b3) = tail
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ w2
    z2 += b2[..., None, :]
    a2 = np.maximum(z2, 0.0)
    logits = a2 @ w3
    logits += b3[..., None, :]
    return a1, z2, a2, logits


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def loss_and_grad(params: np.ndarray, arch: MlpArchitecture, batch, labels, out=None):
    """Mean softmax cross-entropy over the batch and its analytic gradient.

    The loss uses the fused log-sum-exp form, so huge logits saturate instead of
    overflowing. Returns (loss, gradient) with the gradient in the flat layout.

    Shapes: params (..., P), batch (..., B, d) and labels (..., B), where ...
    is nothing for one node or (K,) for a stack of K; other shapes are refused.
    One node gives a float loss and a (P,) gradient, a stack a (K,) loss array
    and a (K, P) gradient, each row what a call on that node alone gives.

    `out`, as in numpy's own functions, is an optional float64 array of the
    shape of `params`, not overlapping it, that receives the gradient and is
    returned as it; every element is overwritten. Without it the gradient goes
    to a new array. `sgd_train` passes one buffer for all its steps.
    """
    params = np.asarray(params, dtype=np.float64)
    x = np.asarray(batch, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    lead = params.shape[:1] if params.ndim > 1 else ()
    n = x.shape[-2] if x.ndim > 1 else 1
    expected = ((*lead, arch.param_count), (*lead, n, arch.input_dim), (*lead, n))
    given = (params.shape, x.shape, y.shape)
    if given != expected:
        raise ValueError(f"expected parameter, batch and label shapes {expected}, got {given}")
    if n == 0:
        raise ValueError("empty batch")
    if y.size and (y.min() < 0 or y.max() >= arch.output_dim):
        raise ValueError(f"labels must lie in [0, {arch.output_dim})")
    layers = unpack_params(params, arch)
    if out is None:
        out = np.empty(params.shape)
    elif not isinstance(out, np.ndarray) or out.shape != params.shape or out.dtype != np.float64:
        raise ValueError(
            f"out must be a float64 array of the parameters' shape {params.shape}, got "
            f"{getattr(out, 'dtype', type(out).__name__)} of shape {np.shape(out)}"
        )
    elif np.may_share_memory(out, params):
        raise ValueError("out must not overlap the parameters")

    (w1, _), (w2, _), (w3, _) = layers
    z1, a1, z2, a2, logits = _forward_layers(layers, x)
    c = arch.output_dim
    rows = np.arange(y.size)
    picked = y.reshape(-1)

    # one exp serves the loss and the softmax
    shifted = logits  # the forward pass's own array, shifted in place
    shifted -= shifted.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=-1)
    losses = np.mean(np.log(total) - shifted.reshape(-1, c)[rows, picked].reshape(y.shape), axis=-1)
    loss = losses if lead else float(losses)

    dlogits = exp
    dlogits /= total[..., None]
    dlogits.reshape(-1, c)[rows, picked] -= 1.0
    dlogits /= n

    # each piece goes straight to its place in the flat layout
    (gw1, gb1), (gw2, gb2), (gw3, gb3) = unpack_params(out, arch)
    np.matmul(a2.mT, dlogits, out=gw3)
    dlogits.sum(axis=-2, out=gb3)
    dz2 = dlogits @ w3.mT
    dz2 *= z2 > 0
    np.matmul(a1.mT, dz2, out=gw2)
    dz2.sum(axis=-2, out=gb2)
    dz1 = dz2 @ w2.mT
    dz1 *= z1 > 0
    np.matmul(x.mT, dz1, out=gw1)
    dz1.sum(axis=-2, out=gb1)
    return loss, out


def sgd_train(
    params: np.ndarray,
    arch: MlpArchitecture,
    cfg: TrainingConfig,
    dataset: LabeledDataset | Sequence[LabeledDataset],
) -> np.ndarray:
    """Mini-batch SGD for cfg.local_epochs epochs with a seeded shuffle per epoch.

    `params` is a (K, P) stack and `dataset` a sequence of K datasets of equal
    length, or `params` is one (P,) vector and `dataset` one LabeledDataset,
    which trains as the one-row stack (params[None], [dataset]). Every node
    trains on the same shuffle, one loss_and_grad call per step for all K.

    Trains `params` in place and returns it: a caller that needs the starting
    values keeps its own copy. Anything but a writable float64 array is
    refused before the first step. Bit-reproducible for a fixed cfg.rng_seed.
    """
    if not (isinstance(params, np.ndarray) and params.dtype == np.float64 and params.flags.writeable):
        given = (
            f"{'read-only ' * (not params.flags.writeable)}{params.dtype} array"
            if isinstance(params, np.ndarray)
            else type(params).__name__
        )
        raise ValueError(f"sgd_train trains params in place, so it needs a writable float64 array, got {given}")
    stack, datasets = (params, list(dataset)) if params.ndim > 1 else (params[None], [dataset])
    if len(datasets) != len(stack):
        raise ValueError(f"{len(stack)} parameter rows but {len(datasets)} datasets")
    if len({len(ds) for ds in datasets}) != 1:
        raise ValueError("stacked training needs datasets of equal length")
    features = np.stack([ds.features for ds in datasets])
    labels = np.stack([ds.labels for ds in datasets])
    n = labels.shape[-1]
    if n == 0:
        raise ValueError("empty training dataset")
    rng = np.random.default_rng(cfg.rng_seed)
    grad = np.empty_like(stack)
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        # np.take gives every node's rows in one C-contiguous block; a stack
        # indexed as features[:, order] comes out batch-major, and a width-1
        # layer's matmul then sums in another order than a one-node call does
        x_epoch = np.take(features, order, axis=-2)
        y_epoch = np.take(labels, order, axis=-1)
        for start in range(0, n, cfg.batch_size):
            stop = start + cfg.batch_size
            loss_and_grad(stack, arch, x_epoch[..., start:stop, :], y_epoch[..., start:stop], out=grad)
            grad *= cfg.learning_rate
            stack -= grad
    return params


def evaluate(params: np.ndarray, arch: MlpArchitecture, test_set: LabeledDataset) -> float:
    """Fraction of examples whose argmax class matches the label.

    Argmax ties resolve to the lowest class index, so evaluation is
    deterministic even for degenerate models.
    """
    return evaluate_split(*split_first_layer(params, arch, test_set), arch, test_set)


def split_first_layer(params: np.ndarray, arch: MlpArchitecture, test_set: LabeledDataset) -> tuple:
    """(x @ W1, tail): the test features times the first layer's weights, and a
    view of the rest of the flat vector, b1 | W2 | b2 | W3 | b3.

    The product is linear in W1, so the product of a mix of two models is the
    same mix of their products, up to rounding; evaluate_split scores a model
    from the pair.
    """
    if len(test_set) == 0:
        raise ValueError("empty test set")
    x = _as_batch(test_set.features, arch)
    params = np.asarray(params, dtype=np.float64)
    (w1, _), *_ = unpack_params(params, arch)
    return x @ w1, params[w1.size :]


def evaluate_split(product: np.ndarray, tail: np.ndarray, arch: MlpArchitecture, test_set: LabeledDataset) -> float:
    """evaluate() of the model that split_first_layer gives as (product, tail)."""
    (fan_in, hidden), *shapes = arch.layer_shapes
    tail = np.asarray(tail, dtype=np.float64)
    expected = ((len(test_set), hidden), (arch.param_count - fan_in * hidden,))
    if (np.shape(product), tail.shape) != expected:
        raise ValueError(f"expected product and tail shapes {expected}, got {(np.shape(product), tail.shape)}")
    z1 = product + tail[:hidden]
    *_, logits = _forward_tail(_unpack(tail[hidden:], shapes), z1)
    predictions = _softmax(logits).argmax(axis=1)
    return float(np.mean(predictions == test_set.labels))
