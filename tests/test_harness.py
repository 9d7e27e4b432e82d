import numpy as np
import pytest

from scei.contract import ContractState, Policy
from scei.data import LabeledDataset, NodeDataSplit, PartitionSpec
from scei.harness import (
    ExperimentAbort,
    ExperimentConfig,
    RoundMetrics,
    Scheme,
    SyntheticSource,
    build_config,
    parse_attacks,
    parse_config_file,
    read_metrics_csv,
    run_experiment,
    summarize,
    write_csv,
    _run_rounds,
)
from scei.ledger import Ledger, RecordKind, decode_params, encode_params
from scei.model import MlpArchitecture, TrainingConfig, init_params
from scei.node import AdditiveNoise, NodeState, SignFlip


def small_config(scheme, seed=1, rounds=3, fixed_alpha=None, attacks=(), num_nodes=4, **kw):
    defaults = dict(
        scheme=scheme,
        dataset=SyntheticSource(num_classes=6, per_class=400, input_dim=8, separation=4.0),
        partition=PartitionSpec(
            num_nodes=num_nodes, samples_per_node=120, labels_per_node=3, rng_seed=seed
        ),
        arch=MlpArchitecture(8, (12, 12), 6),
        training=TrainingConfig(batch_size=8, local_epochs=1, learning_rate=0.05, rng_seed=seed),
        rounds=rounds,
        fixed_alpha=fixed_alpha,
        seed=seed,
        policy=Policy.MAX_MEAN,
        attacks=tuple(attacks),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestSchemeReductions:
    def test_fixed_alpha_zero_equals_fedavg_bit_exact(self):
        fixed = run_experiment(small_config(Scheme.FIXED_ALPHA, fixed_alpha=0.0))
        fedavg = run_experiment(small_config(Scheme.FEDAVG))
        for round_no in range(1, 4):
            gf = decode_params(fixed.ledger.query_round(round_no, RecordKind.GLOBAL_WEIGHTS)[0].payload)
            ga = decode_params(fedavg.ledger.query_round(round_no, RecordKind.GLOBAL_WEIGHTS)[0].payload)
            assert np.array_equal(gf, ga)
        assert [m.accuracy for m in fixed.metrics] == [m.accuracy for m in fedavg.metrics]

    def test_fixed_alpha_one_equals_local_accuracies(self):
        fixed = run_experiment(small_config(Scheme.FIXED_ALPHA, fixed_alpha=1.0))
        local = run_experiment(small_config(Scheme.LOCAL))
        assert [m.accuracy for m in fixed.metrics] == [m.accuracy for m in local.metrics]

    def test_local_never_writes_global_weights(self):
        local = run_experiment(small_config(Scheme.LOCAL))
        for round_no in range(1, 4):
            assert local.ledger.query_round(round_no, RecordKind.GLOBAL_WEIGHTS) == []


class TestDeterminism:
    def test_same_config_same_metrics_and_ledger(self):
        a = run_experiment(small_config(Scheme.SCEI))
        b = run_experiment(small_config(Scheme.SCEI))
        stripped_a = [(m.round_no, m.node_id, m.accuracy, m.alpha, m.flagged, m.expelled) for m in a.metrics]
        stripped_b = [(m.round_no, m.node_id, m.accuracy, m.alpha, m.flagged, m.expelled) for m in b.metrics]
        assert stripped_a == stripped_b
        assert a.ledger.head_hash == b.ledger.head_hash
        assert [r.hash for r in a.ledger.records] == [r.hash for r in b.ledger.records]

    def test_different_seed_changes_run(self):
        a = run_experiment(small_config(Scheme.SCEI, seed=1))
        b = run_experiment(small_config(Scheme.SCEI, seed=2))
        assert a.ledger.head_hash != b.ledger.head_hash


class TestProtocolLedgerFlow:
    def test_every_round_has_expected_records(self):
        result = run_experiment(small_config(Scheme.SCEI))
        book = result.ledger
        assert book.verify_chain() is None
        # round 0 carries the initial global model
        assert len(book.query_round(0, RecordKind.GLOBAL_WEIGHTS)) == 1
        for round_no in range(1, 4):
            assert len(book.query_round(round_no, RecordKind.LOCAL_WEIGHTS)) == 4
            assert len(book.query_round(round_no, RecordKind.GLOBAL_WEIGHTS)) == 1
            assert len(book.query_round(round_no, RecordKind.SUSPICION_SET)) == 1
            assert len(book.query_round(round_no, RecordKind.ACCURACY_LIST)) == 4
            assert len(book.query_round(round_no, RecordKind.ALPHA_DECISION)) == 1

    def test_alpha_history_matches_ledger(self):
        result = run_experiment(small_config(Scheme.SCEI))
        from scei.ledger import decode_alpha_decision

        for round_no, alpha in enumerate(result.state.alpha_history, start=1):
            rec = result.ledger.query_round(round_no, RecordKind.ALPHA_DECISION)[0]
            assert decode_alpha_decision(rec.payload)[0] == alpha

    def test_negotiated_alpha_within_grid(self):
        result = run_experiment(small_config(Scheme.SCEI))
        assert all(0.5 <= a <= 0.8 for a in result.state.alpha_history)

    def test_one_metrics_row_per_active_node_per_round(self):
        result = run_experiment(small_config(Scheme.SCEI, rounds=4))
        seen = {}
        for m in result.metrics:
            seen.setdefault(m.round_no, []).append(m.node_id)
        for round_no, ids in seen.items():
            assert ids == sorted(ids) == list(range(4))


def _identical_nodes(arch, weights, n=2):
    rng = np.random.default_rng(0)
    ds = LabeledDataset(rng.normal(size=(30, arch.input_dim)), rng.integers(0, arch.output_dim, 30))
    split = NodeDataSplit(
        train=ds.subset(range(20)),
        test=ds.subset(range(20, 30)),
        assigned_labels=frozenset(range(arch.output_dim)),
        base_indices=np.arange(30),
    )
    return [
        NodeState(i, split, weights.copy(), weights.copy(), None) for i in range(n)
    ]


class TestSymmetry:
    def test_identical_nodes_tie_break_to_smallest_alpha(self):
        arch = MlpArchitecture(6, (8, 8), 3)
        cfg = ExperimentConfig(
            scheme=Scheme.SCEI,
            dataset=SyntheticSource(3, 50, 6, 3.0),
            partition=PartitionSpec(num_nodes=2, samples_per_node=20, labels_per_node=2, rng_seed=0),
            arch=arch,
            training=TrainingConfig(batch_size=10, local_epochs=1, learning_rate=0.05, rng_seed=0),
            rounds=2,
            seed=0,
        )
        weights = init_params(arch, 0)
        nodes = _identical_nodes(arch, weights)
        book = Ledger()
        book.append(0, RecordKind.GLOBAL_WEIGHTS, None, encode_params(weights))
        state = ContractState.fresh([0, 1], total_rounds=2)
        metrics, state = _run_rounds(nodes, book, state, cfg)
        # identical data and identical training make every accuracy column tie,
        # so negotiation must settle on the grid minimum
        assert state.alpha_history == (0.5, 0.5)
        per_round = {}
        for m in metrics:
            per_round.setdefault(m.round_no, []).append(m.accuracy)
        for accs in per_round.values():
            assert len(set(accs)) == 1


class TestAttacksAndDefence:
    def test_attacked_node_flagged_and_expelled(self):
        # quantile fences need a reasonable population, hence 8 nodes here
        cfg = small_config(
            Scheme.SCEI,
            rounds=6,
            num_nodes=8,
            attacks=((2, AdditiveNoise(sigma=25.0, start_round=1)),),
        )
        result = run_experiment(cfg)
        flagged_rounds = [m.round_no for m in result.metrics if m.node_id == 2 and m.flagged]
        assert flagged_rounds[:5] == [1, 2, 3, 4, 5]
        expelled = [(m.round_no, m.node_id) for m in result.metrics if m.expelled]
        assert (5, 2) in expelled
        # no rows after expulsion
        assert all(m.round_no <= 5 for m in result.metrics if m.node_id == 2)
        assert 2 not in result.state.active_nodes
        exp_records = [r for r in result.ledger.records if r.kind is RecordKind.EXPULSION]
        assert [(r.round_no, r.node_id) for r in exp_records] == [(5, 2)]

    def test_flagged_node_excluded_from_negotiation(self):
        cfg = small_config(
            Scheme.SCEI,
            rounds=2,
            num_nodes=8,
            attacks=((1, AdditiveNoise(sigma=25.0, start_round=1)),),
        )
        result = run_experiment(cfg)
        reports = result.ledger.query_round(1, RecordKind.ACCURACY_LIST)
        assert sorted(r.node_id for r in reports) == [0, 2, 3, 4, 5, 6, 7]

    def test_fedavg_scheme_never_flags(self):
        cfg = small_config(
            Scheme.FEDAVG,
            rounds=3,
            attacks=((1, SignFlip(start_round=1)),),
        )
        result = run_experiment(cfg)
        assert not any(m.flagged or m.expelled for m in result.metrics)
        for round_no in (1, 2, 3):
            assert result.ledger.query_round(round_no, RecordKind.SUSPICION_SET) == []

    def test_all_nodes_flagged_aborts_with_round(self, monkeypatch):
        import scei.contract as contract_mod
        from scei.contract import DefenceReport

        def flag_everyone(diffs, round_no, total_rounds, node_ids=None):
            ids = list(node_ids)
            return DefenceReport(
                diffs=dict(zip(ids, map(float, diffs))),
                quantile_lb=0.25,
                quantile_ub=0.75,
                iqr=1.0,
                flagged=frozenset(ids),
            )

        monkeypatch.setattr("scei.harness.contract.detect_anomalies", flag_everyone)
        with pytest.raises(ExperimentAbort, match="round 1"):
            run_experiment(small_config(Scheme.SCEI))


    def test_diverging_learning_rate_aborts(self):
        """The 199,210-parameter shape at learning rate 0.5 overflows within
        a few rounds; the run stops naming the round and the nodes instead of
        going on at chance accuracy."""
        raw = {
            "synthetic_classes": "10",
            "synthetic_per_class": "500",
            "synthetic_input_dim": "784",
            "nodes": "10",
            "samples_per_node": "200",
            "labels_per_node": "4",
            "hidden": "200,200",
            "rounds": "12",
            "local_epochs": "1",
            "learning_rate": "0.5",
            "attacks": "1:noise:10.0:1, 2:noise:10.0:1",
        }
        with np.errstate(all="ignore"), pytest.raises(
            ExperimentAbort, match=r"^round \d+: node\(s\) \d+(, \d+)* trained to non-finite weights$"
        ):
            run_experiment(build_config(raw, seed=1))


class TestCsv:
    def test_train_time_is_an_equal_share_per_round(self):
        result = run_experiment(small_config(Scheme.SCEI, rounds=2))
        for round_no in (1, 2):
            shares = {m.train_s for m in result.metrics if m.round_no == round_no}
            assert len(shares) == 1 and shares.pop() > 0

    def test_row_count_and_header(self, tmp_path):
        result = run_experiment(small_config(Scheme.SCEI, rounds=3))
        path = tmp_path / "metrics.csv"
        write_csv(result.metrics, path)
        lines = path.read_text().split("\n")
        assert lines[0] == "round,node_id,accuracy,alpha,flagged,expelled,train_s,negotiate_s,ledger_s"
        assert len([l for l in lines if l]) == 1 + 3 * 4
        assert "\r" not in path.read_text()

    def test_round_trip_and_stability_outside_timings(self, tmp_path):
        cfg = small_config(Scheme.SCEI, rounds=2)
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_experiment(cfg).metrics, a_path)
        write_csv(run_experiment(cfg).metrics, b_path)

        def stable_part(path):
            return [line.split(",")[:6] for line in path.read_text().splitlines()]

        assert stable_part(a_path) == stable_part(b_path)

    def test_parse_back_matches_summary(self, tmp_path):
        result = run_experiment(small_config(Scheme.SCEI, rounds=3))
        path = tmp_path / "metrics.csv"
        write_csv(result.metrics, path)
        parsed = read_metrics_csv(path)
        original = summarize(result.metrics)
        reparsed = summarize(parsed)
        for a, b in zip(original.rounds, reparsed.rounds):
            assert a.round_no == b.round_no
            assert abs(a.mean_accuracy - b.mean_accuracy) < 1e-6

    def test_empty_metrics_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], tmp_path / "x.csv")


class TestSummarize:
    def test_constant_accuracy(self):
        metrics = [
            RoundMetrics(1, n, 0.5, 0.0, False, False, 0.0, 0.0, 0.0) for n in range(4)
        ]
        summary = summarize(metrics)
        assert summary.rounds[0].mean_accuracy == 0.5
        assert summary.rounds[0].variance == 0.0

    def test_threshold_never_reached(self):
        metrics = [RoundMetrics(1, 0, 0.5, 0.0, False, False, 0.0, 0.0, 0.0)]
        assert summarize(metrics, threshold=0.9).rounds_to_threshold is None

    def test_matches_recount_oracle(self):
        rng = np.random.default_rng(8)
        metrics = [
            RoundMetrics(r, n, float(rng.uniform()), 0.5, False, False, 0.0, 0.0, 0.0)
            for r in range(1, 5)
            for n in range(6)
        ]
        summary = summarize(metrics)
        for row in summary.rounds:
            values = [m.accuracy for m in metrics if m.round_no == row.round_no]
            mean = sum(values) / len(values)
            var = sum((v - mean) ** 2 for v in values) / len(values)
            assert abs(row.mean_accuracy - mean) < 1e-12
            assert abs(row.variance - var) < 1e-12

    def test_threshold_first_round(self):
        metrics = [
            RoundMetrics(1, 0, 0.4, 0.0, False, False, 0.0, 0.0, 0.0),
            RoundMetrics(2, 0, 0.8, 0.0, False, False, 0.0, 0.0, 0.0),
            RoundMetrics(3, 0, 0.9, 0.0, False, False, 0.0, 0.0, 0.0),
        ]
        assert summarize(metrics, threshold=0.75).rounds_to_threshold == 2


class TestConfigParsing:
    def test_parse_and_build(self, tmp_path):
        text = """
# demo config
scheme = scei
dataset = synthetic
synthetic_classes = 6
synthetic_per_class = 400
synthetic_input_dim = 8
nodes = 4
samples_per_node = 120
labels_per_node = 3
hidden = 12,12
rounds = 3
batch_size = 8
local_epochs = 1
learning_rate = 0.05
seed = 7
attacks = 1:noise:10.0:1, 3:signflip:2
"""
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        cfg = build_config(parse_config_file(path))
        assert cfg.scheme is Scheme.SCEI
        assert cfg.partition.num_nodes == 4
        assert cfg.arch.hidden_dims == (12, 12)
        assert cfg.training.batch_size == 8
        assert cfg.seed == 7
        assert cfg.attacks == (
            (1, AdditiveNoise(sigma=10.0, start_round=1)),
            (3, SignFlip(start_round=2)),
        )

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("scheme = scei\nrounds = 3\nseed = 1\n")
        cfg = build_config(parse_config_file(path), scheme="fedavg", rounds=5, seed=9)
        assert cfg.scheme is Scheme.FEDAVG
        assert cfg.rounds == 5
        assert cfg.seed == 9

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file(path)

    def test_attack_spec_errors(self):
        with pytest.raises(ValueError):
            parse_attacks("1:noise:1")  # missing start round
        with pytest.raises(ValueError):
            parse_attacks("1:what:2")

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            small_config(Scheme.FIXED_ALPHA)  # missing alpha
        with pytest.raises(ValueError):
            small_config(Scheme.FIXED_ALPHA, fixed_alpha=1.5)
        with pytest.raises(ValueError):
            small_config(Scheme.SCEI, attacks=((9, SignFlip(1)),))  # node id out of range
        with pytest.raises(ValueError):
            small_config(Scheme.SCEI, rounds=0)
