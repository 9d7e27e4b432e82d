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

import numpy as np

from .data import LabeledDataset


@dataclass(frozen=True)
class MlpArchitecture:
    input_dim: int
    hidden_dims: tuple
    output_dim: int

    def __post_init__(self):
        hidden = tuple(int(h) for h in self.hidden_dims)
        if len(hidden) != 2:
            raise ValueError(f"hidden_dims must have exactly two entries, got {hidden}")
        object.__setattr__(self, "hidden_dims", hidden)
        for dim in (self.input_dim, *hidden, self.output_dim):
            if dim < 1:
                raise ValueError(f"all layer dims must be >= 1, got {dim}")

    @property
    def layer_dims(self) -> tuple:
        return (self.input_dim, *self.hidden_dims, self.output_dim)

    @property
    def layer_shapes(self) -> tuple:
        """(fan_in, fan_out) per layer, input to output."""
        dims = self.layer_dims
        return tuple(zip(dims[:-1], dims[1:]))

    @property
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
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be non-negative")


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
    lead = params.shape[:-1]
    layers = []
    offset = 0
    for fan_in, fan_out in arch.layer_shapes:
        weights = params[..., offset : offset + fan_in * fan_out].reshape(*lead, fan_in, fan_out)
        offset += fan_in * fan_out
        bias = params[..., offset : offset + fan_out]
        offset += fan_out
        layers.append((weights, bias))
    return layers


def _as_batch(batch, arch: MlpArchitecture) -> np.ndarray:
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if x.ndim != 2 or x.shape[1] != arch.input_dim:
        raise ValueError(
            f"batch must have {arch.input_dim} feature columns, got shape {x.shape}"
        )
    return x


def _forward_cached(params, arch, x):
    (w1, b1), (w2, b2), (w3, b3) = unpack_params(params, arch)
    # biases get a row axis so they broadcast over a stack's batches too
    z1 = x @ w1 + b1[..., None, :]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ w2 + b2[..., None, :]
    a2 = np.maximum(z2, 0.0)
    logits = a2 @ w3 + b3[..., None, :]
    return z1, a1, z2, a2, logits


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def forward(params: np.ndarray, arch: MlpArchitecture, batch) -> np.ndarray:
    """Class-probability matrix for a feature batch (rows sum to 1)."""
    x = _as_batch(batch, arch)
    *_, logits = _forward_cached(params, arch, x)
    return _softmax(logits)


def loss_and_grad(params: np.ndarray, arch: MlpArchitecture, batch, labels):
    """Mean softmax cross-entropy over the batch and its analytic gradient.

    The loss uses the fused log-sum-exp form, so huge logits saturate instead of
    overflowing. Returns (loss, gradient) with the gradient in the flat layout.

    With a leading node axis (params (K, P), batch (K, B, d), labels (K, B))
    it does the same for K nodes at once and returns a (K,) loss array and a
    (K, P) gradient; each node's row equals what a 1-D call on that node gives.
    """
    params = np.asarray(params, dtype=np.float64)
    if params.ndim == 2:
        x = np.asarray(batch, dtype=np.float64)
        y = np.asarray(labels, dtype=np.int64)
        if x.ndim != 3 or x.shape[0] != params.shape[0] or x.shape[2] != arch.input_dim:
            raise ValueError(
                f"a stack of {params.shape[0]} nodes needs a ({params.shape[0]}, B, "
                f"{arch.input_dim}) batch, got shape {x.shape}"
            )
        if y.shape != x.shape[:2]:
            raise ValueError(f"got batch shape {x.shape} but label shape {y.shape}")
    else:
        x = _as_batch(batch, arch)
        y = np.asarray(labels, dtype=np.int64).reshape(-1)
        if y.shape[0] != x.shape[0]:
            raise ValueError(f"got {x.shape[0]} examples but {y.shape[0]} labels")
    n = x.shape[-2]
    if n == 0:
        raise ValueError("empty batch")
    if y.size and (y.min() < 0 or y.max() >= arch.output_dim):
        raise ValueError(f"labels must lie in [0, {arch.output_dim})")

    (w1, _), (w2, _), (w3, _) = unpack_params(params, arch)
    z1, a1, z2, a2, logits = _forward_cached(params, arch, x)
    c = arch.output_dim
    rows = np.arange(y.size)
    picked = y.reshape(-1)

    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1))
    losses = np.mean(log_norm - shifted.reshape(-1, c)[rows, picked].reshape(y.shape), axis=-1)
    loss = losses if params.ndim == 2 else float(losses)

    dlogits = _softmax(logits)
    dlogits.reshape(-1, c)[rows, picked] -= 1.0
    dlogits /= n

    dw3 = a2.mT @ dlogits
    db3 = dlogits.sum(axis=-2)
    da2 = dlogits @ w3.mT
    dz2 = da2 * (z2 > 0)
    dw2 = a1.mT @ dz2
    db2 = dz2.sum(axis=-2)
    da1 = dz2 @ w2.mT
    dz1 = da1 * (z1 > 0)
    dw1 = x.mT @ dz1
    db1 = dz1.sum(axis=-2)

    lead = params.shape[:-1]
    grad = np.concatenate(
        [dw1.reshape(*lead, -1), db1, dw2.reshape(*lead, -1), db2, dw3.reshape(*lead, -1), db3],
        axis=-1,
    )
    return loss, grad


def sgd_train(
    params: np.ndarray,
    arch: MlpArchitecture,
    cfg: TrainingConfig,
    dataset: LabeledDataset | Sequence[LabeledDataset],
) -> np.ndarray:
    """Mini-batch SGD for cfg.local_epochs epochs with a seeded shuffle per epoch.

    `params` is one flat vector and `dataset` one LabeledDataset, or `params`
    is a (K, P) stack and `dataset` a sequence of K datasets of equal length.
    A stack trains every node on the same shuffle, one loss_and_grad call per
    step for all K, and each row comes out equal to a 1-D call on that node.

    Does not mutate the input; bit-reproducible for a fixed cfg.rng_seed.
    """
    out = np.array(params, dtype=np.float64, copy=True)
    if out.ndim == 2:
        datasets = list(dataset)
        if len(datasets) != out.shape[0]:
            raise ValueError(f"{out.shape[0]} parameter rows but {len(datasets)} datasets")
        if len({len(ds) for ds in datasets}) != 1:
            raise ValueError("stacked training needs datasets of equal length")
        features = np.stack([ds.features for ds in datasets])
        labels = np.stack([ds.labels for ds in datasets])
    else:
        features, labels = dataset.features, dataset.labels
    n = labels.shape[-1]
    if n == 0:
        raise ValueError("empty training dataset")
    rng = np.random.default_rng(cfg.rng_seed)
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        # np.take gives every node's rows in one C-contiguous block; a stack
        # indexed as features[:, order] comes out batch-major, and a width-1
        # layer's matmul then sums in another order than a 1-D call does
        x_epoch = np.take(features, order, axis=-2)
        y_epoch = np.take(labels, order, axis=-1)
        for start in range(0, n, cfg.batch_size):
            stop = start + cfg.batch_size
            _, grad = loss_and_grad(out, arch, x_epoch[..., start:stop, :], y_epoch[..., start:stop])
            grad *= cfg.learning_rate
            out -= grad
    return out


def evaluate(params: np.ndarray, arch: MlpArchitecture, test_set: LabeledDataset) -> float:
    """Fraction of examples whose argmax class matches the label.

    Argmax ties resolve to the lowest class index, so evaluation is
    deterministic even for degenerate models.
    """
    if len(test_set) == 0:
        raise ValueError("empty test set")
    probs = forward(params, arch, test_set.features)
    predictions = probs.argmax(axis=1)
    return float(np.mean(predictions == test_set.labels))
