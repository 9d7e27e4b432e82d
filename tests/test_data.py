import os
import struct

import numpy as np
import pytest

from scei.data import (
    IMAGE_MAGIC,
    LABEL_MAGIC,
    IdxFormatError,
    LabeledDataset,
    PartitionError,
    PartitionSpec,
    SkewError,
    check_partition,
    generate_synthetic,
    inject_skew,
    load_mnist_idx,
    partition_non_iid,
)
from scei.model import MlpArchitecture, TrainingConfig, evaluate, init_params, sgd_train

MNIST_DIR = os.environ.get("MNIST_DIR", os.path.join("data", "mnist"))


def write_idx_pair(tmp_path, images, labels, image_magic=IMAGE_MAGIC, label_magic=LABEL_MAGIC):
    """Independent IDX writer used as the round-trip oracle for the loader."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", image_magic, n, rows, cols))
        f.write(images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", label_magic, len(labels)))
        f.write(labels.tobytes())
    return images_path, labels_path


def write_mnist_pair(tmp_path, rows=28, cols=28, classes=10):
    """3,000 seeded rows x cols images whose labels cycle through 0..classes-1;
    at the defaults the pair fits the MNIST source."""
    images = np.random.default_rng(0).integers(0, 256, (3000, rows, cols))
    return write_idx_pair(tmp_path, images, np.arange(3000) % classes)


class TestLabeledDataset:
    def test_row_count_must_match_labels(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.ones((3, 2)), np.array([0, 1]))

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.ones((2, 2)), np.array([0, -1]))

    def test_subset_preserves_pairing(self):
        ds = LabeledDataset(np.arange(8.0).reshape(4, 2), np.array([0, 1, 2, 3]))
        sub = ds.subset([2, 0])
        assert np.array_equal(sub.labels, [2, 0])
        assert np.array_equal(sub.features[0], [4.0, 5.0])


class TestIdxLoader:
    def test_round_trips_written_files(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(7, 4, 3), dtype=np.uint8)
        labels = rng.integers(0, 10, size=7, dtype=np.uint8)
        ds = load_mnist_idx(*write_idx_pair(tmp_path, images, labels))
        assert ds.features.shape == (7, 12)
        assert np.array_equal(ds.labels, labels)
        assert np.allclose(ds.features, images.reshape(7, 12) / 255.0)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0

    def test_zero_images_load_as_an_empty_dataset(self, tmp_path):
        ds = load_mnist_idx(*write_idx_pair(tmp_path, np.zeros((0, 4, 3), np.uint8), []))
        assert len(ds) == 0
        assert ds.features.shape == (0, 12) and ds.features.dtype == np.float64
        assert ds.labels.shape == (0,) and ds.labels.dtype == np.int64

    def test_wrong_image_magic(self, tmp_path):
        paths = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1], image_magic=LABEL_MAGIC)
        with pytest.raises(IdxFormatError) as exc:
            load_mnist_idx(*paths)
        assert str(exc.value) == f"{paths[0]}: wrong magic: expected 0x00000803, got 0x00000801"

    def test_wrong_label_magic(self, tmp_path):
        paths = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1], label_magic=0xBAD)
        with pytest.raises(IdxFormatError) as exc:
            load_mnist_idx(*paths)
        assert str(exc.value) == f"{paths[1]}: wrong magic: expected 0x00000801, got 0x00000bad"

    @pytest.mark.parametrize("which, what", [(0, "pixel"), (1, "label")], ids=["images", "labels"])
    def test_faults_name_the_file_and_the_cause(self, tmp_path, which, what):
        paths = write_idx_pair(tmp_path, np.zeros((5, 2, 2), np.uint8), [0, 1, 2, 3, 4])
        path = paths[which]
        blob = path.read_bytes()
        for damaged, message in (
            (blob[:3], "truncated header"),
            (blob[:6], "truncated header"),
            (blob[: 4 * (4 - 2 * which) - 1], "truncated header"),
            (blob[:-3], f"truncated {what} data ({len(blob) - 3} bytes, need {len(blob)})"),
            (blob + b"\x00", f"trailing bytes after {what} data"),
        ):
            path.write_bytes(damaged)
            with pytest.raises(IdxFormatError) as exc:
                load_mnist_idx(*paths)
            assert str(exc.value) == f"{path}: {message}"

    def test_truncated_pixels(self, tmp_path):
        images_path, labels_path = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1])
        blob = images_path.read_bytes()
        images_path.write_bytes(blob[:-3])
        with pytest.raises(IdxFormatError, match="truncated"):
            load_mnist_idx(images_path, labels_path)

    def test_count_mismatch(self, tmp_path):
        images_path, _ = write_idx_pair(tmp_path, np.zeros((3, 2, 2), np.uint8), [0, 1, 2])
        _, labels_path = write_idx_pair(tmp_path / "..", np.zeros((2, 2, 2), np.uint8), [0, 1])
        with pytest.raises(IdxFormatError) as exc:
            load_mnist_idx(images_path, labels_path)
        assert str(exc.value) == "count mismatch: 3 images vs 2 labels"

    @pytest.mark.skipif(
        not (
            os.path.exists(os.path.join(MNIST_DIR, "t10k-images-idx3-ubyte"))
            and os.path.exists(os.path.join(MNIST_DIR, "t10k-labels-idx1-ubyte"))
        ),
        reason="official MNIST test files not present",
    )
    def test_official_test_files(self):
        ds = load_mnist_idx(
            os.path.join(MNIST_DIR, "t10k-images-idx3-ubyte"),
            os.path.join(MNIST_DIR, "t10k-labels-idx1-ubyte"),
        )
        assert len(ds) == 10_000
        assert ds.features.shape[1] == 784
        assert set(np.unique(ds.labels)) <= set(range(10))


class TestGenerateSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(3, 20, 5, 2.0, 9)
        b = generate_synthetic(3, 20, 5, 2.0, 9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_shapes_and_label_blocks(self):
        ds = generate_synthetic(4, 25, 6, 3.0, 0)
        assert ds.features.shape == (100, 6)
        assert np.array_equal(np.bincount(ds.labels), [25] * 4)

    def test_well_separated_classes_are_learnable(self):
        # the trainer itself is the oracle: separation 10 must be easy
        ds = generate_synthetic(2, 100, 8, 10.0, 3)
        rng = np.random.default_rng(0)
        order = rng.permutation(len(ds))
        train, test = ds.subset(order[:150]), ds.subset(order[150:])
        arch = MlpArchitecture(8, (16, 16), 2)
        cfg = TrainingConfig(batch_size=10, local_epochs=5, learning_rate=0.05, rng_seed=0)
        trained = sgd_train(init_params(arch, 0), arch, cfg, train)
        assert evaluate(trained, arch, test) > 0.95

    def test_zero_separation_collapses_centers(self):
        ds = generate_synthetic(3, 200, 5, 0.0, 4)
        means = [ds.features[ds.labels == c].mean(axis=0) for c in range(3)]
        # class means all sit near the origin: nothing to tell the classes apart
        for m in means:
            assert np.linalg.norm(m) < 0.3

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_synthetic(0, 10, 5, 1.0, 0)
        with pytest.raises(ValueError):
            generate_synthetic(2, 10, 5, -1.0, 0)


class TestPartitionNonIid:
    def test_every_node_keeps_a_test_example(self):
        """Blocks of 1 or 2 examples go wholly to training, so such a spec is
        refused; 3 is the smallest block the 80/20 split leaves a test example."""
        for n in (-1, 0, 1, 2):
            with pytest.raises(ValueError, match=rf"^samples_per_node {n} leaves no test example$"):
                PartitionSpec(num_nodes=1, samples_per_node=n, labels_per_node=1)
        ds = generate_synthetic(1, 3, 2, 1.0, 0)
        [split] = partition_non_iid(ds, PartitionSpec(num_nodes=1, samples_per_node=3, labels_per_node=1))
        assert (len(split.train), len(split.test)) == (2, 1)

    def test_paper_shape_counts(self):
        # 10 nodes x 600 samples, 4 labels each: 150 per assigned label before splitting
        ds = generate_synthetic(10, 1500, 6, 4.0, 1)
        spec = PartitionSpec(num_nodes=10, samples_per_node=600, labels_per_node=4, rng_seed=1)
        splits = partition_non_iid(ds, spec)
        assert len(splits) == 10
        for split in splits:
            assert len(split.assigned_labels) == 4
            assert len(split.train) == 480
            assert len(split.test) == 120
            combined = np.concatenate([split.train.labels, split.test.labels])
            counts = {c: int((combined == c).sum()) for c in split.assigned_labels}
            assert all(v == 150 for v in counts.values())

    def test_recount_per_label(self):
        ds = generate_synthetic(5, 200, 4, 3.0, 2)
        spec = PartitionSpec(num_nodes=3, samples_per_node=100, labels_per_node=2, rng_seed=7)
        per_label = 50
        for split in partition_non_iid(ds, spec):
            combined = np.concatenate([split.train.labels, split.test.labels])
            for c in split.assigned_labels:
                assert int((combined == c).sum()) == per_label
            assert set(np.unique(combined)) == set(split.assigned_labels)

    def test_no_duplicates_across_nodes(self):
        ds = generate_synthetic(6, 300, 4, 3.0, 3)
        spec = PartitionSpec(num_nodes=4, samples_per_node=300, labels_per_node=3, rng_seed=5)
        splits = partition_non_iid(ds, spec)
        all_indices = np.concatenate([s.base_indices for s in splits])
        assert len(all_indices) == len(np.unique(all_indices))

    def test_single_node_whole_dataset_is_permutation(self):
        ds = generate_synthetic(4, 30, 3, 2.0, 6)
        spec = PartitionSpec(num_nodes=1, samples_per_node=120, labels_per_node=4, rng_seed=0)
        (split,) = partition_non_iid(ds, spec)
        got = np.concatenate([split.train.labels, split.test.labels])
        assert np.array_equal(np.sort(got), np.sort(ds.labels))
        assert np.array_equal(np.sort(split.base_indices), np.arange(120))

    def test_deterministic(self):
        ds = generate_synthetic(6, 300, 4, 3.0, 3)
        spec = PartitionSpec(num_nodes=4, samples_per_node=300, labels_per_node=3, rng_seed=5)
        a = partition_non_iid(ds, spec)
        b = partition_non_iid(ds, spec)
        for sa, sb in zip(a, b):
            assert sa.assigned_labels == sb.assigned_labels
            assert np.array_equal(sa.train.features, sb.train.features)
            assert np.array_equal(sa.test.labels, sb.test.labels)

    def test_too_few_examples_or_labels_refused_before_drawing(self):
        """A dataset of any source that cannot fill the partition is refused by
        its counts, as build_config refuses a synthetic one up front."""
        ds = LabeledDataset(np.ones((65, 2)), np.array([0] * 30 + [1] * 30 + [2] * 5))
        for spec, message in (
            (PartitionSpec(num_nodes=3, samples_per_node=30, labels_per_node=3), "dataset has 65 examples, need at least 90"),
            (PartitionSpec(num_nodes=1, samples_per_node=40, labels_per_node=4), "dataset has 3 labels, need 4 per node"),
        ):
            with pytest.raises(PartitionError, match=f"^{message}$"):
                partition_non_iid(ds, spec)
        check_partition(90, 3, num_nodes=3, samples_per_node=30, labels_per_node=3)

    def test_insufficient_label_pool_names_label(self):
        # label 2 holds only 5 examples; every node assigns all 3 labels and
        # needs 10 per label, so the partition must fail naming label 2
        labels = np.array([0] * 30 + [1] * 30 + [2] * 5)
        ds = LabeledDataset(np.ones((65, 2)), labels)
        spec = PartitionSpec(num_nodes=2, samples_per_node=30, labels_per_node=3, rng_seed=0)
        with pytest.raises(PartitionError, match="label 2"):
            partition_non_iid(ds, spec)

    def test_train_labels_subset_of_assigned_without_skew(self):
        ds = generate_synthetic(8, 200, 4, 3.0, 9)
        spec = PartitionSpec(num_nodes=3, samples_per_node=200, labels_per_node=4, rng_seed=2)
        for split in partition_non_iid(ds, spec):
            assert set(np.unique(split.train.labels)) <= split.assigned_labels
            assert set(np.unique(split.test.labels)) <= split.assigned_labels


class TestInjectSkew:
    def _splits(self, skew_ratio, seed=4):
        ds = generate_synthetic(10, 800, 4, 3.0, seed)
        spec = PartitionSpec(
            num_nodes=4,
            samples_per_node=600,
            labels_per_node=4,
            skew_ratio=skew_ratio,
            rng_seed=seed,
        )
        splits = partition_non_iid(ds, spec)
        return ds, spec, splits

    def test_twenty_percent_appends_thirty(self):
        ds, spec, splits = self._splits(0.20)
        skewed = inject_skew(splits, ds, spec)
        for split in skewed:
            assert len(split.test) == 150  # 120 base + 30 skew
            foreign = ~np.isin(split.test.labels, sorted(split.assigned_labels))
            assert foreign.sum() == 30
            assert foreign.sum() / len(split.test) == 0.20

    def test_zero_ratio_is_noop(self):
        ds, spec, splits = self._splits(0.0)
        assert inject_skew(splits, ds, spec) == splits

    def test_skew_labels_disjoint_from_assigned(self):
        ds, spec, splits = self._splits(0.15)
        for split in inject_skew(splits, ds, spec):
            base = len(split.base_indices) - len(split.train)
            appended = split.test.labels[base:]
            assert set(np.unique(appended)).isdisjoint(split.assigned_labels)

    def test_training_data_unchanged(self):
        ds, spec, splits = self._splits(0.10)
        skewed = inject_skew(splits, ds, spec)
        for before, after in zip(splits, skewed):
            assert np.array_equal(before.train.features, after.train.features)
            assert np.array_equal(before.train.labels, after.train.labels)

    def test_skew_drawn_from_unused_rows(self):
        ds, spec, splits = self._splits(0.20)
        used = np.concatenate([s.base_indices for s in splits])
        used_rows = {tuple(ds.features[i]) for i in used}
        for split in inject_skew(splits, ds, spec):
            for row in split.test.features[len(split.test) - 30 :]:
                assert tuple(row) not in used_rows

    def test_ratio_within_one_example(self):
        for ratio in (0.05, 0.10, 0.15, 0.20):
            ds, spec, splits = self._splits(ratio)
            for split in inject_skew(splits, ds, spec):
                foreign = (~np.isin(split.test.labels, sorted(split.assigned_labels))).sum()
                ideal = ratio * len(split.test)
                assert abs(foreign - ideal) <= 1.0

    def test_no_out_of_distribution_pool_raises(self):
        # every label assigned to the single node: nothing foreign to draw
        ds = generate_synthetic(4, 40, 3, 2.0, 1)
        spec = PartitionSpec(
            num_nodes=1, samples_per_node=160, labels_per_node=4, skew_ratio=0.2, rng_seed=1
        )
        splits = partition_non_iid(ds, spec)
        with pytest.raises(SkewError):
            inject_skew(splits, ds, spec)
