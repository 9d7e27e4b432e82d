import numpy as np
import pytest

from scei.contract import build_grid, mix
from scei.data import LabeledDataset, NodeDataSplit
from scei.model import MlpArchitecture, TrainingConfig, evaluate, init_params
from scei.node import (
    AdditiveNoise,
    NodeState,
    SignFlip,
    apply_alpha,
    derive_seed,
    evaluate_candidates,
    NonFiniteWeights,
    local_round,
)

ARCH = MlpArchitecture(4, (6, 6), 3)
CFG = TrainingConfig(batch_size=5, local_epochs=2, learning_rate=0.05, rng_seed=17)


def make_split(seed=0, n=40):
    rng = np.random.default_rng(seed)
    ds = LabeledDataset(rng.normal(size=(n, 4)), rng.integers(0, 3, size=n))
    train = ds.subset(range(0, n - 10))
    test = ds.subset(range(n - 10, n))
    return NodeDataSplit(
        train=train,
        test=test,
        assigned_labels=frozenset({0, 1, 2}),
        base_indices=np.arange(n),
    )


def make_node(node_id=0, attack=None, seed=0, n=40):
    weights = init_params(ARCH, 100 + node_id)
    return NodeState(
        node_id=node_id,
        split=make_split(seed, n),
        personalized=weights.copy(),
        local_weights=weights.copy(),
        attack=attack,
    )


class TestLocalRound:
    def test_honest_upload_equals_internal_weights(self):
        node = make_node()
        upload = local_round([node], ARCH, CFG, round_no=1)[0]
        assert np.array_equal(upload, node.local_weights)
        assert upload is not node.local_weights

    def test_training_starts_from_personalized(self):
        node = make_node()
        node.personalized = init_params(ARCH, 999)
        before = node.personalized.copy()
        local_round([node], ARCH, CFG, 1)
        assert np.array_equal(node.personalized, before)  # only w_L moves here
        assert not np.array_equal(node.local_weights, before)

    def test_deterministic_per_round(self):
        a, b = make_node(), make_node()
        up_a = local_round([a], ARCH, CFG, 3)[0]
        up_b = local_round([b], ARCH, CFG, 3)[0]
        assert np.array_equal(up_a, up_b)

    def test_rounds_use_distinct_shuffles(self):
        a, b = make_node(), make_node()
        up_a = local_round([a], ARCH, CFG, 1)[0]
        up_b = local_round([b], ARCH, CFG, 2)[0]
        assert not np.array_equal(up_a, up_b)

    def test_sign_flip_negates_upload_only(self):
        node = make_node(attack=SignFlip(start_round=1))
        upload = local_round([node], ARCH, CFG, 1)[0]
        assert np.array_equal(upload, -node.local_weights)

    def test_sign_flip_example_vector(self):
        node = make_node(attack=SignFlip(start_round=1))
        local_round([node], ARCH, CFG, 1)
        node.local_weights = np.array([1.0, -2.0])
        assert np.array_equal(-node.local_weights, [-1.0, 2.0])

    def test_attack_waits_for_start_round(self):
        node = make_node(attack=SignFlip(start_round=5))
        upload = local_round([node], ARCH, CFG, 4)[0]
        assert np.array_equal(upload, node.local_weights)
        upload = local_round([node], ARCH, CFG, 5)[0]
        assert np.array_equal(upload, -node.local_weights)

    def test_noise_norm_concentrates(self):
        # param_count 2770 >= 1000: the noise norm lands near sigma * sqrt(n)
        arch = MlpArchitecture(50, (30, 30), 10)
        rng = np.random.default_rng(1)
        ds = LabeledDataset(rng.normal(size=(30, 50)), rng.integers(0, 10, size=30))
        split = NodeDataSplit(
            train=ds, test=ds, assigned_labels=frozenset(range(10)), base_indices=np.arange(30)
        )
        weights = init_params(arch, 0)
        node = NodeState(0, split, weights.copy(), weights.copy(), AdditiveNoise(10.0, 1))
        upload = local_round([node], arch, TrainingConfig(10, 1, 0.01, rng_seed=3), 1)[0]
        norm = np.linalg.norm(upload - node.local_weights)
        expected = 10.0 * np.sqrt(arch.param_count)
        assert 0.8 * expected < norm < 1.2 * expected

    def test_noise_reproducible_per_node_round(self):
        a = make_node(attack=AdditiveNoise(2.0, 1))
        b = make_node(attack=AdditiveNoise(2.0, 1))
        assert np.array_equal(local_round([a], ARCH, CFG, 1)[0], local_round([b], ARCH, CFG, 1)[0])
        c = make_node(node_id=1, attack=AdditiveNoise(2.0, 1))
        c_up = local_round([c], ARCH, CFG, 1)[0]
        a2 = make_node(attack=AdditiveNoise(2.0, 1))
        assert not np.array_equal(local_round([a2], ARCH, CFG, 1)[0] - a2.local_weights,
                                  c_up - c.local_weights)


class TestLocalRoundStack:
    """Several nodes per call: stacked by train length, each as if trained alone."""

    def make_nodes(self):
        # train lengths 30, 25, 30, 25, 30: two stacks, interleaved in id order
        return [
            make_node(node_id=i, seed=i, n=40 if i % 2 == 0 else 35,
                      attack=SignFlip(start_round=1) if i == 3 else None)
            for i in range(5)
        ]

    def test_unequal_train_lengths_match_single_node_rounds(self):
        together = self.make_nodes()
        alone = self.make_nodes()
        uploads = local_round(together, ARCH, CFG, 2)
        for node, single, upload in zip(together, alone, uploads):
            assert np.array_equal(upload, local_round([single], ARCH, CFG, 2)[0])
            assert np.array_equal(node.local_weights, single.local_weights)
        assert np.array_equal(uploads[3], -together[3].local_weights)

    def test_stacks_capped_in_bytes_match_single_node_rounds(self, monkeypatch):
        monkeypatch.setattr("scei.node._STACK_BYTES", 2 * 8 * ARCH.param_count)
        together = self.make_nodes()
        alone = self.make_nodes()
        uploads = local_round(together, ARCH, CFG, 2)
        for single, upload in zip(alone, uploads):
            assert np.array_equal(upload, local_round([single], ARCH, CFG, 2)[0])

    def test_every_node_owns_its_weights(self):
        nodes = self.make_nodes()
        uploads = local_round(nodes, ARCH, CFG, 1)
        arrays = [n.local_weights for n in nodes] + uploads
        for i, a in enumerate(arrays):
            assert a.base is None
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_non_finite_weights_name_their_nodes(self):
        nodes = self.make_nodes()
        nodes[1].personalized[0] = np.inf
        nodes[4].personalized[-1] = np.nan
        with np.errstate(all="ignore"), pytest.raises(NonFiniteWeights, match=r"node\(s\) 1, 4 trained") as info:
            local_round(nodes, ARCH, CFG, 1)
        assert info.value.node_ids == (1, 4)


class TestEvaluateCandidates:
    def test_identical_inputs_give_equal_accuracies(self):
        node = make_node()
        grid = build_grid(0.5, 0.8, 0.05)
        report = evaluate_candidates(node, ARCH, node.local_weights.copy(), grid)
        assert len(set(report.accuracies)) == 1
        assert report.alphas == grid.alphas

    def test_alpha_zero_grid_scores_global(self):
        node = make_node()
        global_w = init_params(ARCH, 5)
        from scei.contract import NegotiationGrid

        report = evaluate_candidates(node, ARCH, global_w, NegotiationGrid((0.0,), 0.1))
        assert report.accuracies[0] == evaluate(global_w, ARCH, node.split.test)

    def test_alpha_one_grid_scores_local(self):
        node = make_node()
        node.local_weights = init_params(ARCH, 8)
        from scei.contract import NegotiationGrid

        report = evaluate_candidates(node, ARCH, init_params(ARCH, 5), NegotiationGrid((1.0,), 0.1))
        assert report.accuracies[0] == evaluate(node.local_weights, ARCH, node.split.test)

    def test_accuracies_in_unit_interval(self):
        node = make_node()
        grid = build_grid(0.5, 0.8, 0.05)
        report = evaluate_candidates(node, ARCH, init_params(ARCH, 5), grid)
        assert all(0.0 <= a <= 1.0 for a in report.accuracies)


class TestApplyAlpha:
    def test_alpha_zero_takes_global(self):
        node = make_node()
        global_w = init_params(ARCH, 5)
        apply_alpha(node, global_w, 0.0)
        assert np.array_equal(node.personalized, global_w)

    def test_alpha_one_takes_local(self):
        node = make_node()
        apply_alpha(node, init_params(ARCH, 5), 1.0)
        assert np.array_equal(node.personalized, node.local_weights)

    def test_matches_contract_mix_bit_exact(self):
        node = make_node()
        global_w = init_params(ARCH, 5)
        for alpha in (0.25, 0.5, 0.65):
            apply_alpha(node, global_w, alpha)
            assert np.array_equal(node.personalized, mix(node.local_weights, global_w, alpha))

    def test_invalid_alpha_rejected(self):
        node = make_node()
        with pytest.raises(ValueError):
            apply_alpha(node, node.local_weights, 1.2)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
        assert derive_seed(0, 0, 11) != derive_seed(0, 0, 12)
