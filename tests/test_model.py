import math

import numpy as np
import pytest

from scei.data import LabeledDataset
from scei.model import (
    MlpArchitecture,
    TrainingConfig,
    evaluate,
    forward,
    init_params,
    loss_and_grad,
    sgd_train,
    unpack_params,
)

TINY = MlpArchitecture(4, (3, 3), 2)


def finite_difference_gradient(params, arch, batch, labels, eps=1e-5):
    """Central-difference gradient, the independent oracle for loss_and_grad."""
    grad = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy()
        up[i] += eps
        down = params.copy()
        down[i] -= eps
        loss_up, _ = loss_and_grad(up, arch, batch, labels)
        loss_down, _ = loss_and_grad(down, arch, batch, labels)
        grad[i] = (loss_up - loss_down) / (2 * eps)
    return grad


def sample_differentiable_point(rng, arch, batch_size, margin=1e-3):
    """Draw (params, batch, labels) keeping every ReLU pre-activation away from
    zero; the loss is not differentiable at kinks, so the finite-difference
    oracle is only valid with a safe margin around them."""
    from scei.model import _forward_cached

    while True:
        params = init_params(arch, int(rng.integers(0, 2**31)))
        batch = rng.normal(size=(batch_size, arch.input_dim))
        labels = rng.integers(0, arch.output_dim, size=batch_size)
        z1, _, z2, _, _ = _forward_cached(params, arch, batch)
        if min(np.abs(z1).min(), np.abs(z2).min()) > margin:
            return params, batch, labels


class TestArchitecture:
    def test_param_count_tiny(self):
        assert TINY.param_count == 4 * 3 + 3 + 3 * 3 + 3 + 3 * 2 + 2 == 35

    def test_param_count_mnist_mlp(self):
        arch = MlpArchitecture(784, (200, 200), 10)
        assert arch.param_count == 784 * 200 + 200 + 200 * 200 + 200 + 200 * 10 + 10
        assert arch.param_count == 199_210

    def test_rejects_wrong_hidden_count(self):
        with pytest.raises(ValueError):
            MlpArchitecture(4, (3,), 2)
        with pytest.raises(ValueError):
            MlpArchitecture(4, (3, 3, 3), 2)

    def test_rejects_non_positive_dims(self):
        with pytest.raises(ValueError):
            MlpArchitecture(0, (3, 3), 2)
        with pytest.raises(ValueError):
            MlpArchitecture(4, (3, 0), 2)


class TestInitParams:
    def test_length_matches_architecture(self):
        assert init_params(TINY, 7).shape == (35,)

    def test_deterministic(self):
        a = init_params(TINY, 7)
        b = init_params(TINY, 7)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(init_params(TINY, 7), init_params(TINY, 8))

    def test_biases_zero_weights_bounded(self):
        params = init_params(TINY, 3)
        for (weights, bias), (fan_in, _) in zip(
            unpack_params(params, TINY), TINY.layer_shapes
        ):
            assert np.all(bias == 0.0)
            bound = 1.0 / math.sqrt(fan_in)
            assert np.all(np.abs(weights) <= bound)
            assert weights.std() > 0


class TestForward:
    def test_zero_params_give_uniform(self):
        params = np.zeros(TINY.param_count)
        probs = forward(params, TINY, np.ones((3, 4)))
        assert np.allclose(probs, 0.5)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        params = init_params(TINY, 1)
        probs = forward(params, TINY, rng.normal(size=(17, 4)))
        assert np.all(probs >= 0)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9

    def test_single_example_row_sums_to_one(self):
        params = init_params(TINY, 2)
        probs = forward(params, TINY, np.arange(4.0))
        assert probs.shape == (1, 2)
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_dimension_mismatch_rejected(self):
        params = init_params(TINY, 1)
        with pytest.raises(ValueError):
            forward(params, TINY, np.ones((3, 5)))

    def test_hand_computed_forward(self):
        # (2, [2, 2], 2) net evaluated by scalar arithmetic, independent of the engine
        arch = MlpArchitecture(2, (2, 2), 2)
        params = np.array(
            [
                0.5, -0.25, 1.0, 0.75,   # w1 rows: [[0.5, -0.25], [1.0, 0.75]]
                0.1, -0.1,               # b1
                1.0, 0.5, -0.5, 0.25,    # w2 rows: [[1.0, 0.5], [-0.5, 0.25]]
                0.0, 0.2,                # b2
                0.3, -0.3, 0.6, 0.9,     # w3 rows: [[0.3, -0.3], [0.6, 0.9]]
                0.05, -0.05,             # b3
            ]
        )
        x1, x2 = 1.0, -2.0
        z1a = x1 * 0.5 + x2 * 1.0 + 0.1
        z1b = x1 * -0.25 + x2 * 0.75 + -0.1
        a1a, a1b = max(z1a, 0.0), max(z1b, 0.0)
        z2a = a1a * 1.0 + a1b * -0.5 + 0.0
        z2b = a1a * 0.5 + a1b * 0.25 + 0.2
        a2a, a2b = max(z2a, 0.0), max(z2b, 0.0)
        o1 = a2a * 0.3 + a2b * 0.6 + 0.05
        o2 = a2a * -0.3 + a2b * 0.9 + -0.05
        e1, e2 = math.exp(o1), math.exp(o2)
        expected = np.array([[e1 / (e1 + e2), e2 / (e1 + e2)]])
        probs = forward(params, arch, np.array([[x1, x2]]))
        assert np.allclose(probs, expected, atol=1e-12)


class TestLossAndGrad:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            params, batch, labels = sample_differentiable_point(rng, TINY, batch_size=8)
            _, grad = loss_and_grad(params, TINY, batch, labels)
            fd = finite_difference_gradient(params, TINY, batch, labels)
            scale = max(np.abs(grad).max(), np.abs(fd).max(), 1e-12)
            assert np.abs(grad - fd).max() / scale < 1e-4

    def test_zero_params_balanced_batch_loss_is_ln2(self):
        params = np.zeros(TINY.param_count)
        batch = np.random.default_rng(1).normal(size=(6, 4))
        labels = np.array([0, 1, 0, 1, 0, 1])
        loss, _ = loss_and_grad(params, TINY, batch, labels)
        assert abs(loss - math.log(2)) < 1e-12

    def test_duplicated_batch_same_loss_and_grad(self):
        rng = np.random.default_rng(2)
        params = init_params(TINY, 9)
        batch = rng.normal(size=(5, 4))
        labels = rng.integers(0, 2, size=5)
        loss_once, grad_once = loss_and_grad(params, TINY, batch, labels)
        loss_twice, grad_twice = loss_and_grad(
            params, TINY, np.vstack([batch, batch]), np.concatenate([labels, labels])
        )
        assert abs(loss_once - loss_twice) < 1e-12
        assert np.abs(grad_once - grad_twice).max() < 1e-12

    def test_empty_batch_rejected(self):
        params = init_params(TINY, 1)
        with pytest.raises(ValueError):
            loss_and_grad(params, TINY, np.empty((0, 4)), np.empty(0, dtype=int))

    def test_out_of_range_labels_rejected(self):
        params = init_params(TINY, 1)
        with pytest.raises(ValueError):
            loss_and_grad(params, TINY, np.ones((2, 4)), np.array([0, 2]))

    def test_gradient_length(self):
        params = init_params(TINY, 1)
        _, grad = loss_and_grad(params, TINY, np.ones((2, 4)), np.array([0, 1]))
        assert grad.shape == params.shape


def _small_dataset(seed=0, n=12):
    rng = np.random.default_rng(seed)
    return LabeledDataset(rng.normal(size=(n, 4)), rng.integers(0, 2, size=n))


class TestSgdTrain:
    def test_zero_learning_rate_is_identity(self):
        params = init_params(TINY, 3)
        cfg = TrainingConfig(batch_size=4, local_epochs=2, learning_rate=0.0, rng_seed=0)
        out = sgd_train(params, TINY, cfg, _small_dataset())
        assert np.array_equal(out, params)

    def test_single_full_batch_step_matches_manual_update(self):
        ds = _small_dataset(seed=5)
        params = init_params(TINY, 4)
        cfg = TrainingConfig(batch_size=len(ds), local_epochs=1, learning_rate=0.05, rng_seed=0)
        out = sgd_train(params, TINY, cfg, ds)
        # one full-batch step is order-independent, so the shuffle cannot matter
        _, grad = loss_and_grad(params, TINY, ds.features, ds.labels)
        expected = params - 0.05 * grad
        assert np.allclose(out, expected, atol=1e-15)

    def test_deterministic_for_fixed_seed(self):
        ds = _small_dataset(seed=6)
        params = init_params(TINY, 4)
        cfg = TrainingConfig(batch_size=3, local_epochs=3, learning_rate=0.1, rng_seed=11)
        a = sgd_train(params, TINY, cfg, ds)
        b = sgd_train(params, TINY, cfg, ds)
        assert np.array_equal(a, b)

    def test_does_not_mutate_input(self):
        ds = _small_dataset(seed=7)
        params = init_params(TINY, 4)
        before = params.copy()
        cfg = TrainingConfig(batch_size=3, local_epochs=1, learning_rate=0.1, rng_seed=0)
        sgd_train(params, TINY, cfg, ds)
        assert np.array_equal(params, before)

    def test_output_stays_finite(self):
        ds = _small_dataset(seed=8, n=30)
        params = init_params(TINY, 4)
        cfg = TrainingConfig(batch_size=5, local_epochs=10, learning_rate=0.5, rng_seed=1)
        out = sgd_train(params, TINY, cfg, ds)
        assert np.isfinite(out).all()

    def test_empty_dataset_rejected(self):
        params = init_params(TINY, 1)
        cfg = TrainingConfig(batch_size=1, local_epochs=1, learning_rate=0.1)
        with pytest.raises(ValueError):
            sgd_train(params, TINY, cfg, LabeledDataset(np.empty((0, 4)), np.empty(0, dtype=int)))


def _node_datasets(arch, k, n, seed):
    rng = np.random.default_rng(seed)
    return [
        LabeledDataset(rng.normal(size=(n, arch.input_dim)), rng.integers(0, arch.output_dim, size=n))
        for _ in range(k)
    ]


WIDE = MlpArchitecture(784, (200, 200), 10)


class TestStackedTraining:
    """A (K, P) stack trains each node exactly as K separate 1-D calls do."""

    @pytest.mark.parametrize(
        "arch, k, n, batch, epochs",
        [
            (TINY, 1, 12, 5, 2),
            (TINY, 2, 12, 5, 2),
            (TINY, 5, 12, 5, 2),
            (TINY, 5, 7, 1, 2),  # batch 1
            (TINY, 2, 53, 10, 3),  # ragged last batch
            (MlpArchitecture(20, (64, 64), 10), 5, 53, 10, 2),  # 6,154 parameters
            (WIDE, 2, 23, 10, 1),  # 199,210 parameters
            # width-1 layers: their matmuls take the vector paths, which are
            # sensitive to the memory layout of a stacked batch
            (MlpArchitecture(1, (1, 1), 2), 2, 48, 10, 2),
            (MlpArchitecture(1, (1, 1), 2), 5, 53, 64, 2),
            (MlpArchitecture(2, (1, 1), 2), 2, 48, 10, 2),
            (MlpArchitecture(2, (1, 1), 2), 5, 48, 64, 2),
            (MlpArchitecture(2, (1, 2), 2), 2, 53, 10, 2),
            (MlpArchitecture(1, (2, 1), 2), 2, 53, 10, 2),
            (MlpArchitecture(1, (2, 2), 2), 5, 53, 10, 2),
        ],
    )
    def test_stack_equals_separate_calls(self, arch, k, n, batch, epochs):
        datasets = _node_datasets(arch, k, n, seed=n * 100 + batch + k)
        stack = np.stack([init_params(arch, 10 + i) for i in range(k)])
        before = stack.copy()
        cfg = TrainingConfig(batch_size=batch, local_epochs=epochs, learning_rate=0.1, rng_seed=5)
        trained = sgd_train(stack, arch, cfg, datasets)
        assert trained.shape == stack.shape
        assert np.array_equal(stack, before)
        for i in range(k):
            assert np.array_equal(trained[i], sgd_train(stack[i], arch, cfg, datasets[i])), i

    def test_stacked_loss_and_grad_rows_match_single_calls(self):
        rng = np.random.default_rng(4)
        stack = np.stack([init_params(TINY, i) for i in range(3)])
        batch = rng.normal(size=(3, 6, 4))
        labels = rng.integers(0, 2, size=(3, 6))
        losses, grads = loss_and_grad(stack, TINY, batch, labels)
        assert losses.shape == (3,) and grads.shape == (3, TINY.param_count)
        for i in range(3):
            loss, grad = loss_and_grad(stack[i], TINY, batch[i], labels[i])
            assert losses[i] == loss
            assert np.array_equal(grads[i], grad)

    def test_stacked_shape_mismatches_rejected(self):
        stack = np.stack([init_params(TINY, i) for i in range(2)])
        with pytest.raises(ValueError):
            loss_and_grad(stack, TINY, np.ones((3, 5, 4)), np.zeros((3, 5), dtype=int))
        with pytest.raises(ValueError):
            loss_and_grad(stack, TINY, np.ones((2, 5, 4)), np.zeros((2, 4), dtype=int))
        cfg = TrainingConfig(batch_size=2, local_epochs=1, learning_rate=0.1)
        with pytest.raises(ValueError):
            sgd_train(stack, TINY, cfg, _node_datasets(TINY, 3, 6, seed=0))
        with pytest.raises(ValueError):
            sgd_train(stack, TINY, cfg, [_small_dataset(n=6), _small_dataset(n=7)])


class TestEvaluate:
    def test_perfect_classifier_scores_one(self):
        # weights that copy the two input coordinates straight to the logits
        arch = MlpArchitecture(2, (2, 2), 2)
        params = np.array(
            [1.0, 0.0, 0.0, 1.0, 0.0, 0.0,  # w1 = I, b1 = 0
             1.0, 0.0, 0.0, 1.0, 0.0, 0.0,  # w2 = I, b2 = 0
             1.0, 0.0, 0.0, 1.0, 0.0, 0.0]  # w3 = I, b3 = 0
        )
        features = np.array([[3.0, 0.0], [0.0, 3.0]] * 5)
        labels = np.array([0, 1] * 5)
        assert evaluate(params, arch, LabeledDataset(features, labels)) == 1.0

    def test_zero_params_tie_breaks_to_class_zero(self):
        params = np.zeros(TINY.param_count)
        features = np.random.default_rng(0).normal(size=(10, 4))
        labels = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1, 1])
        assert evaluate(params, TINY, LabeledDataset(features, labels)) == 0.3

    def test_matches_recount_oracle(self):
        rng = np.random.default_rng(12)
        params = init_params(TINY, 13)
        ds = LabeledDataset(rng.normal(size=(40, 4)), rng.integers(0, 2, size=40))
        acc = evaluate(params, TINY, ds)
        probs = forward(params, TINY, ds.features)
        correct = 0
        for row, label in zip(probs, ds.labels):
            best = 0
            for j in range(1, len(row)):
                if row[j] > row[best]:
                    best = j
            if best == label:
                correct += 1
        assert acc == correct / len(ds)

    def test_empty_test_set_rejected(self):
        params = init_params(TINY, 1)
        with pytest.raises(ValueError):
            evaluate(params, TINY, LabeledDataset(np.empty((0, 4)), np.empty(0, dtype=int)))
