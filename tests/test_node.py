import math
import os
import subprocess
import sys

import numpy as np
import pytest

import scei.node as node_mod
from scei.contract import NegotiationGrid, build_grid, mix
from scei.data import LabeledDataset, NodeDataSplit
from scei.harness import build_config, parse_config_file, run_experiment
from scei.ledger import RecordKind
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
        upload = next(local_round([node], ARCH, CFG, round_no=1))
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
        up_a = next(local_round([a], ARCH, CFG, 3))
        up_b = next(local_round([b], ARCH, CFG, 3))
        assert np.array_equal(up_a, up_b)

    def test_rounds_use_distinct_shuffles(self):
        a, b = make_node(), make_node()
        up_a = next(local_round([a], ARCH, CFG, 1))
        up_b = next(local_round([b], ARCH, CFG, 2))
        assert not np.array_equal(up_a, up_b)

    def test_sign_flip_negates_upload_only(self):
        node = make_node(attack=SignFlip(start_round=1))
        upload = next(local_round([node], ARCH, CFG, 1))
        assert np.array_equal(upload, -node.local_weights)

    def test_sign_flip_example_vector(self):
        node = make_node(attack=SignFlip(start_round=1))
        local_round([node], ARCH, CFG, 1)
        node.local_weights = np.array([1.0, -2.0])
        assert np.array_equal(-node.local_weights, [-1.0, 2.0])

    def test_attack_waits_for_start_round(self):
        node = make_node(attack=SignFlip(start_round=5))
        upload = next(local_round([node], ARCH, CFG, 4))
        assert np.array_equal(upload, node.local_weights)
        upload = next(local_round([node], ARCH, CFG, 5))
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
        upload = next(local_round([node], arch, TrainingConfig(10, 1, 0.01, rng_seed=3), 1))
        norm = np.linalg.norm(upload - node.local_weights)
        expected = 10.0 * np.sqrt(arch.param_count)
        assert 0.8 * expected < norm < 1.2 * expected

    def test_attack_fields_refused(self):
        for make, message in (
            (lambda: AdditiveNoise(math.nan, 1), "sigma must be finite and positive, got nan"),
            (lambda: AdditiveNoise(math.inf, 1), "sigma must be finite and positive, got inf"),
            (lambda: AdditiveNoise(0.0, 1), "sigma must be finite and positive, got 0.0"),
            (lambda: AdditiveNoise(1.0, 0), "start_round must be >= 1, got 0"),
            (lambda: SignFlip(0), "start_round must be >= 1, got 0"),
            (lambda: SignFlip(-5), "start_round must be >= 1, got -5"),
        ):
            with pytest.raises(ValueError) as exc:
                make()
            assert str(exc.value) == message

    def test_noise_reproducible_per_node_round(self):
        a = make_node(attack=AdditiveNoise(2.0, 1))
        b = make_node(attack=AdditiveNoise(2.0, 1))
        assert np.array_equal(next(local_round([a], ARCH, CFG, 1)), next(local_round([b], ARCH, CFG, 1)))
        c = make_node(node_id=1, attack=AdditiveNoise(2.0, 1))
        c_up = next(local_round([c], ARCH, CFG, 1))
        a2 = make_node(attack=AdditiveNoise(2.0, 1))
        assert not np.array_equal(next(local_round([a2], ARCH, CFG, 1)) - a2.local_weights,
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
        uploads = list(local_round(together, ARCH, CFG, 2))
        for node, single, upload in zip(together, alone, uploads):
            assert np.array_equal(upload, next(local_round([single], ARCH, CFG, 2)))
            assert np.array_equal(node.local_weights, single.local_weights)
        assert np.array_equal(uploads[3], -together[3].local_weights)

    def test_stacks_capped_in_bytes_match_single_node_rounds(self, monkeypatch):
        monkeypatch.setattr("scei.node._STACK_BYTES", 2 * 8 * ARCH.param_count)
        together = self.make_nodes()
        alone = self.make_nodes()
        uploads = list(local_round(together, ARCH, CFG, 2))
        for single, upload in zip(alone, uploads):
            assert np.array_equal(upload, next(local_round([single], ARCH, CFG, 2)))

    def test_every_node_owns_its_weights(self):
        nodes = self.make_nodes()
        uploads = list(local_round(nodes, ARCH, CFG, 1))
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

    @pytest.mark.parametrize("spare", [0, 1, 2])
    def test_trainer_processes_change_no_upload(self, spare, monkeypatch):
        """With 0, 1 or 2 trainer processes beside the caller, every share of
        the two train-length groups trains to the bits of a one-node round."""
        own = min(os.sched_getaffinity(0))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(own, own + spare + 1)))
        together = self.make_nodes()
        alone = self.make_nodes()
        with node_mod.Trainers(together, ARCH) as trainers:
            assert len(trainers) == spare
            for round_no in (1, 2):
                uploads = list(local_round(together, ARCH, CFG, round_no, trainers))
                for node, single, upload in zip(together, alone, uploads):
                    assert np.array_equal(upload, next(local_round([single], ARCH, CFG, round_no)))
                    assert np.array_equal(node.local_weights, single.local_weights)
                    assert node.local_weights.base is None
                    node.personalized = node.local_weights
                    single.personalized = single.local_weights

    @pytest.mark.parametrize("how", ["one cpu", "closed"])
    def test_trainers_without_processes_train_only_the_caller(self, how, monkeypatch):
        """With no trainer process, on one usable CPU or after close(),
        train runs train_own here and returns no stack, and release does
        nothing."""
        own = min(os.sched_getaffinity(0))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {own} if how == "one cpu" else {own, own + 1})
        trainers = node_mod.Trainers(self.make_nodes(), ARCH)
        trainers.close()
        ran = []
        assert len(trainers) == 0
        assert trainers.train(CFG, [], lambda: ran.append(True)) == []
        trainers.release()
        assert ran == [True]

    def test_importing_scei_loads_no_multiprocessing(self):
        """multiprocessing loads with the first trainers, not with the
        program: every process that imports scei would start 4 ms later."""
        done = subprocess.run(
            [sys.executable, "-c", "import sys, scei; print('multiprocessing' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(node_mod.__file__))),
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout == "False\n"

    @pytest.mark.parametrize("spare", [0, 1, 2])
    def test_non_finite_weights_name_their_nodes_in_any_share(self, spare, monkeypatch):
        """Nodes 1 and 4 train in a trainer process's share when there is
        one, and are named as when they train in the caller's."""
        own = min(os.sched_getaffinity(0))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(own, own + spare + 1)))
        nodes = self.make_nodes()
        nodes[1].personalized[0] = np.inf
        nodes[4].personalized[-1] = np.nan
        with np.errstate(all="ignore"), node_mod.Trainers(nodes, ARCH) as trainers:
            with pytest.raises(NonFiniteWeights, match=r"^node\(s\) 1, 4 trained") as info:
                local_round(nodes, ARCH, CFG, 1, trainers)
        assert info.value.node_ids == (1, 4)


# the width-1 architectures, whose matmuls take numpy's vector paths, plus
# the test architecture and the synthetic shape
ARCHS = [
    MlpArchitecture(1, (1, 1), 2),
    MlpArchitecture(2, (1, 1), 2),
    MlpArchitecture(2, (1, 2), 2),
    MlpArchitecture(1, (2, 1), 2),
    MlpArchitecture(1, (2, 2), 2),
    MlpArchitecture(3, (2, 2), 1),
    ARCH,
    MlpArchitecture(20, (64, 64), 10),
]
GRIDS = [
    NegotiationGrid((0.0, 1.0)),
    build_grid(0.0, 1.0, 0.25),
    NegotiationGrid((0.65,)),
    build_grid(0.0, 1.0, 0.01),
]


class TestEvaluateCandidates:
    def test_identical_inputs_give_equal_accuracies(self):
        node = make_node()
        grid = build_grid(0.5, 0.8, 0.05)
        accuracies = evaluate_candidates(node, ARCH, node.local_weights.copy(), grid)
        assert len(set(accuracies)) == 1

    def test_alpha_zero_grid_scores_global(self):
        node = make_node()
        global_w = init_params(ARCH, 5)
        accuracies = evaluate_candidates(node, ARCH, global_w, NegotiationGrid((0.0,)))
        assert accuracies[0] == evaluate(global_w, ARCH, node.split.test)

    def test_alpha_one_grid_scores_local(self):
        node = make_node()
        node.local_weights = init_params(ARCH, 8)
        accuracies = evaluate_candidates(node, ARCH, init_params(ARCH, 5), NegotiationGrid((1.0,)))
        assert accuracies[0] == evaluate(node.local_weights, ARCH, node.split.test)

    def test_accuracies_in_unit_interval(self):
        node = make_node()
        grid = build_grid(0.5, 0.8, 0.05)
        accuracies = evaluate_candidates(node, ARCH, init_params(ARCH, 5), grid)
        assert type(accuracies) is tuple and len(accuracies) == len(grid)
        assert all(0.0 <= a <= 1.0 for a in accuracies)

    @pytest.mark.parametrize("arch", ARCHS, ids=[f"{a.input_dim}-{a.hidden_dims}-{a.output_dim}" for a in ARCHS])
    @pytest.mark.parametrize("grid", GRIDS, ids=["ends", "quarters", "one", "hundredths"])
    def test_equals_evaluating_every_mixed_model(self, arch, grid):
        """Mixing the first layer's products gives the accuracies that
        evaluating each mixed weight vector gives, on seeded nodes and test
        sets of 1 to 37 rows; alpha 0 and 1 score the global and the local
        model exactly."""
        for seed in range(4):
            rng = np.random.default_rng(seed)
            n = (1, 7, 37, 20)[seed]
            test = LabeledDataset(rng.normal(size=(n, arch.input_dim)), rng.integers(0, arch.output_dim, size=n))
            split = NodeDataSplit(train=test, test=test, assigned_labels=frozenset(), base_indices=np.arange(n))
            local = init_params(arch, 2 * seed) + rng.normal(0.0, 0.3, size=arch.param_count)
            node = NodeState(node_id=0, split=split, personalized=local.copy(), local_weights=local)
            global_w = init_params(arch, 2 * seed + 1) + rng.normal(0.0, 0.3, size=arch.param_count)
            oracle = tuple(evaluate(mix(local, global_w, alpha), arch, test) for alpha in grid.alphas)
            assert evaluate_candidates(node, arch, global_w, grid) == oracle

    def test_inputs_are_not_mutated(self):
        node = make_node()
        global_w = init_params(ARCH, 5)
        local_before, global_before = node.local_weights.copy(), global_w.copy()
        evaluate_candidates(node, ARCH, global_w, build_grid(0.0, 1.0, 0.1))
        assert np.array_equal(node.local_weights, local_before)
        assert np.array_equal(global_w, global_before)

    def test_empty_test_set_rejected(self):
        node = make_node()
        node.split = NodeDataSplit(
            train=node.split.train,
            test=node.split.test.subset([]),
            assigned_labels=node.split.assigned_labels,
            base_indices=node.split.base_indices,
        )
        with pytest.raises(ValueError, match="^empty test set$"):
            evaluate_candidates(node, ARCH, init_params(ARCH, 5), build_grid(0.5, 0.8, 0.05))


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


CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "synthetic_scei.cfg")
# the benchmark's MNIST-sized protocol: 784 inputs, 199,210 parameters, two noise attackers
WIDE = {
    "synthetic_per_class": "500",
    "synthetic_input_dim": "784",
    "nodes": "10",
    "samples_per_node": "200",
    "labels_per_node": "4",
    "hidden": "200,200",
    "local_epochs": "1",
    "learning_rate": "0.03",
    "attacks": "1:noise:10.0:1, 2:noise:10.0:1",
    "seed": "1",
}


@pytest.mark.parametrize(
    "raw, rounds", [(parse_config_file(CONFIG), 5), (WIDE, 2)], ids=["sample_config", "wide_shape"]
)
def test_runs_record_what_evaluating_every_mixed_model_records(raw, rounds, monkeypatch):
    """Every recorded accuracy, and so the ledger's head hash, is the one that
    evaluating each mixed weight vector in turn gives."""
    cfg = build_config(raw, rounds=rounds)
    book = run_experiment(cfg).ledger
    monkeypatch.setattr(
        node_mod,
        "evaluate_candidates",
        lambda node, arch, global_w, grid: tuple(
            evaluate(mix(node.local_weights, global_w, alpha), arch, node.split.test) for alpha in grid.alphas
        ),
    )
    oracle = run_experiment(cfg).ledger
    assert any(record.kind is RecordKind.ACCURACY_LIST for record in oracle.records)
    assert book.head_hash == oracle.head_hash
