"""Dataset construction: IDX loading, synthetic blobs, non-iid partitioning, skew injection.

The non-iid layout is label-sorted: every node draws a fixed number of distinct
labels, receives an equal number of examples per assigned label (sampled without
replacement from a shared per-label pool), and splits its block 80/20 into
train/test. Skew injection appends out-of-distribution examples (labels outside
the node's assignment, drawn from examples no node trains or tests on) to the
node's test set only, so the train distribution stays non-iid while evaluation
sees fresh foreign-class data.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

TRAIN_FRACTION = 0.8

# rng stream tags, so dataset generation / partitioning / skew draws never share
# a bit stream even when built from the same base seed
_SYNTH_TAG = 1
_PARTITION_TAG = 2
_SKEW_TAG = 3


class IdxFormatError(ValueError):
    """An IDX file failed structural validation (magic, length, or count)."""


class PartitionError(ValueError):
    """The dataset cannot satisfy the requested non-iid partition."""


class SkewError(ValueError):
    """Not enough out-of-distribution examples to build the requested skew."""


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix (examples x input_dim, float64) with integer class labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        if labels.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
        if features.shape[0] != labels.shape[0]:
            raise ValueError(
                f"feature rows ({features.shape[0]}) != labels ({labels.shape[0]})"
            )
        if labels.size and labels.min() < 0:
            raise ValueError("labels must be non-negative class indices")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.features[idx], self.labels[idx])


def _train_count(n: int) -> int:
    return int(round(TRAIN_FRACTION * n))


@dataclass(frozen=True)
class PartitionSpec:
    """Parameters of the label-sorted non-iid partition."""

    num_nodes: int
    samples_per_node: int
    labels_per_node: int
    skew_ratio: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.labels_per_node < 1:
            raise ValueError("labels_per_node must be >= 1")
        if _train_count(self.samples_per_node) >= self.samples_per_node:
            raise ValueError(f"samples_per_node {self.samples_per_node} leaves no test example")
        if self.samples_per_node % self.labels_per_node != 0:
            raise ValueError(
                "samples_per_node must be divisible by labels_per_node "
                f"({self.samples_per_node} % {self.labels_per_node} != 0)"
            )
        if not 0.0 <= self.skew_ratio < 0.25:
            raise ValueError("skew_ratio must lie in [0, 0.25)")


@dataclass(frozen=True)
class NodeDataSplit:
    """One node's train/test data plus its label assignment.

    base_indices records which rows of the source dataset form the node's base
    (pre-skew) data; skew injection uses it to draw only from untouched rows.
    """

    train: LabeledDataset
    test: LabeledDataset
    assigned_labels: frozenset
    base_indices: np.ndarray


def _read_be_u32(buf: bytes, offset: int, path) -> int:
    if offset + 4 > len(buf):
        raise IdxFormatError(f"{path}: truncated header")
    return struct.unpack_from(">I", buf, offset)[0]


def _idx_shape(f, path, magic: int, what: str) -> list:
    """The shape that an open IDX file declares, leaving f at its data.

    The big-endian magic's low byte is the dimension count; one u32 size per
    dimension follows, then exactly that many bytes of data.
    """
    found = _read_be_u32(f.read(4), 0, path)
    if found != magic:
        raise IdxFormatError(f"{path}: wrong magic: expected {magic:#010x}, got {found:#010x}")
    dims = f.read(4 * (magic & 0xFF))
    shape = [_read_be_u32(dims, 4 * i, path) for i in range(magic & 0xFF)]
    size, expected = os.fstat(f.fileno()).st_size, 4 + len(dims) + math.prod(shape)
    if size < expected:
        raise IdxFormatError(f"{path}: truncated {what} data ({size} bytes, need {expected})")
    if size > expected:
        raise IdxFormatError(f"{path}: trailing bytes after {what} data")
    return shape


def _read_idx(path, magic: int, what: str) -> np.ndarray:
    """One IDX file as a uint8 array of its declared shape."""
    with open(path, "rb") as f:
        shape = _idx_shape(f, path, magic, what)
        return np.frombuffer(f.read(), dtype=np.uint8).reshape(shape)


def load_mnist_idx(images_path, labels_path) -> LabeledDataset:
    """Load an IDX image/label file pair into a dataset with pixels scaled to [0,1].

    Validates the big-endian magics (0x00000803 images, 0x00000801 labels),
    exact payload lengths, and that both files agree on the example count.
    """
    images = _read_idx(images_path, IMAGE_MAGIC, "pixel")
    labels = _read_idx(labels_path, LABEL_MAGIC, "label")
    if len(images) != len(labels):
        raise IdxFormatError(f"count mismatch: {len(images)} images vs {len(labels)} labels")
    n_images, rows, cols = images.shape
    features = images.reshape(n_images, rows * cols).astype(np.float64) / 255.0
    return LabeledDataset(features, labels.astype(np.int64))


def check_mnist_idx(images_path, labels_path, input_dim, num_classes) -> tuple:
    """(examples, distinct labels) of an IDX pair that a model of input_dim
    inputs and num_classes outputs fits, read from the image header and the
    label bytes alone; a pair that cannot be read or does not fit is refused."""
    try:
        with open(images_path, "rb") as f:
            count, rows, cols = _idx_shape(f, images_path, IMAGE_MAGIC, "pixel")
        labels = _read_idx(labels_path, LABEL_MAGIC, "label")
    except OSError as exc:
        raise ValueError(f"cannot read {exc.filename}: {exc.strerror}") from exc
    if count != len(labels):
        raise IdxFormatError(f"count mismatch: {count} images vs {len(labels)} labels")
    if rows * cols != input_dim:
        raise ValueError(f"{images_path}: {rows} x {cols} images give {rows * cols} inputs, the model takes {input_dim}")
    if len(labels) and labels.max() >= num_classes:
        raise ValueError(f"{labels_path}: label {labels.max()} outside [0, {num_classes})")
    return count, len(np.unique(labels))


def check_synthetic(num_classes, per_class, input_dim, separation) -> None:
    """Refuse generator settings that cannot give a dataset."""
    if num_classes < 1 or per_class < 1 or input_dim < 1:
        raise ValueError("num_classes, per_class and input_dim must all be >= 1")
    if not 0 <= separation < math.inf:
        raise ValueError(f"separation must be finite and non-negative, got {separation}")


def generate_synthetic(num_classes, per_class, input_dim, separation, seed) -> LabeledDataset:
    """Isotropic Gaussian blobs: class c is N(center_c, I) with center_c a seeded
    random unit direction scaled by `separation`.

    separation 0 collapses all class centers onto the origin, which makes the
    classes statistically indistinguishable.
    """
    check_synthetic(num_classes, per_class, input_dim, separation)
    rng = np.random.default_rng([seed, _SYNTH_TAG])
    centers = np.empty((num_classes, input_dim))
    for c in range(num_classes):
        direction = rng.standard_normal(input_dim)
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            direction[0] = 1.0
            norm = 1.0
        centers[c] = separation * direction / norm
    # each class is drawn straight into its rows, which hold one copy of the data
    features = np.empty((num_classes, per_class, input_dim))
    for c in range(num_classes):
        rng.standard_normal(out=features[c])
        features[c] += centers[c]
    features = features.reshape(-1, input_dim)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    return LabeledDataset(features, labels)


def check_partition(examples, labels, num_nodes, samples_per_node, labels_per_node) -> None:
    """Refuse a partition that a dataset of this many examples and labels
    cannot fill; a label pool that runs dry is found only while partitioning."""
    if examples < num_nodes * samples_per_node:
        raise PartitionError(f"dataset has {examples} examples, need at least {num_nodes * samples_per_node}")
    if labels < labels_per_node:
        raise PartitionError(f"dataset has {labels} labels, need {labels_per_node} per node")


def partition_non_iid(ds: LabeledDataset, spec: PartitionSpec) -> list:
    """Distribute label-sorted data to nodes and split each block 80/20.

    Each node draws `labels_per_node` distinct labels (seeded, without
    replacement within the node; labels may repeat across nodes) and takes
    samples_per_node/labels_per_node examples per label from a shared per-label
    pool, so no example lands on two nodes.
    """
    unique_labels = np.unique(ds.labels)
    check_partition(len(ds), len(unique_labels), spec.num_nodes, spec.samples_per_node, spec.labels_per_node)
    rng = np.random.default_rng([spec.rng_seed, _PARTITION_TAG])

    pools = {int(c): rng.permutation(np.flatnonzero(ds.labels == c)) for c in unique_labels}
    cursors = {int(c): 0 for c in unique_labels}
    per_label = spec.samples_per_node // spec.labels_per_node

    splits = []
    for _node in range(spec.num_nodes):
        chosen = rng.choice(unique_labels, size=spec.labels_per_node, replace=False)
        base_parts = []
        for c in sorted(int(c) for c in chosen):
            start = cursors[c]
            if start + per_label > len(pools[c]):
                raise PartitionError(
                    f"label {c}: need {per_label} more examples, "
                    f"only {len(pools[c]) - start} left in pool"
                )
            base_parts.append(pools[c][start : start + per_label])
            cursors[c] = start + per_label
        base = np.concatenate(base_parts)
        order = rng.permutation(len(base))
        n_train = _train_count(len(base))
        train_idx = base[order[:n_train]]
        test_idx = base[order[n_train:]]
        splits.append(
            NodeDataSplit(
                train=ds.subset(train_idx),
                test=ds.subset(test_idx),
                assigned_labels=frozenset(int(c) for c in chosen),
                base_indices=np.sort(base),
            )
        )
    return splits


def inject_skew(splits, ds: LabeledDataset, spec: PartitionSpec) -> list:
    """Append out-of-distribution examples to each node's test set.

    The skew count is ceil(skew_ratio * base_test / (1 - skew_ratio)) so skewed
    examples make up skew_ratio of the combined test set up to rounding. Skew is
    drawn from rows no node holds as base data, with labels outside the node's
    assignment. Training data is untouched. skew_ratio 0 returns the splits
    unchanged.
    """
    if spec.skew_ratio == 0.0:
        return list(splits)
    used = np.zeros(len(ds), dtype=bool)
    for split in splits:
        used[split.base_indices] = True

    out = []
    for node_id, split in enumerate(splits):
        assigned = np.isin(ds.labels, sorted(split.assigned_labels))
        candidates = np.flatnonzero(~assigned & ~used)
        base_test = len(split.test)
        n_skew = math.ceil(spec.skew_ratio * base_test / (1.0 - spec.skew_ratio))
        if len(candidates) < n_skew:
            raise SkewError(
                f"node {node_id}: need {n_skew} out-of-distribution examples, "
                f"only {len(candidates)} available"
            )
        rng = np.random.default_rng([spec.rng_seed, node_id, _SKEW_TAG])
        picked = rng.choice(candidates, size=n_skew, replace=False)
        skew_ds = ds.subset(picked)
        combined = LabeledDataset(
            np.vstack([split.test.features, skew_ds.features]),
            np.concatenate([split.test.labels, skew_ds.labels]),
        )
        out.append(replace(split, test=combined))
    return out
