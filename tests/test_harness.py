import errno
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from scei.contract import NegotiationGrid, Policy, build_grid
from scei.data import LabeledDataset, NodeDataSplit, PartitionSpec
import scei.harness as harness
from scei.harness import (
    CONFIG_TABLE,
    ExperimentAbort,
    ExperimentConfig,
    MnistSource,
    RoundMetrics,
    Scheme,
    SyntheticSource,
    build_config,
    parse_attacks,
    parse_config_file,
    read_metrics_csv,
    run_experiment,
    summarize,
    settle_alpha,
    settle_uploads,
    write_csv,
    _run_rounds,
)
from scei.ledger import Ledger, RecordKind, decode_alpha_decision, decode_params, encode_params, verify_dump_file
from scei.model import MlpArchitecture, TrainingConfig, init_params
from scei.node import AdditiveNoise, NodeState, SignFlip
from test_data import write_mnist_pair

SAMPLE_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "synthetic_scei.cfg")


def small_config(scheme, seed=1, rounds=3, fixed_alpha=None, attacks=(), num_nodes=4, **kw):
    defaults = dict(
        scheme=scheme,
        dataset=SyntheticSource(num_classes=6, per_class=400, input_dim=8, separation=4.0),
        partition=PartitionSpec(
            num_nodes=num_nodes, samples_per_node=120, labels_per_node=3, rng_seed=seed
        ),
        hidden=(12, 12),
        training=TrainingConfig(batch_size=8, local_epochs=1, learning_rate=0.05, rng_seed=seed),
        rounds=rounds,
        fixed_alpha=fixed_alpha,
        seed=seed,
        policy=Policy.MAX_MEAN,
        attacks=tuple(attacks),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so a run forks one trainer process beside itself
    whatever this machine has."""
    own = min(os.sched_getaffinity(0))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {own, own + 1})


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

    def test_same_head_hash_on_one_and_two_blas_threads(self):
        """A (10, 784) @ (784, 200) product can differ in its last bit between
        1 and 2 OpenBLAS threads; run_experiment trains on one thread, so the
        784-input, 200 x 200 shape records the same chain under either."""
        script = (
            "from scei.harness import build_config, run_experiment\n"
            "raw = dict(scheme='scei', dataset='synthetic', synthetic_classes='10', synthetic_separation='4.0',\n"
            "           synthetic_per_class='500', synthetic_input_dim='784', nodes='10', labels_per_node='4',\n"
            "           samples_per_node='200', hidden='200,200', local_epochs='1', learning_rate='0.03',\n"
            "           batch_size='10', grid_start='0.5', grid_end='0.8', grid_step='0.05', policy='max_mean',\n"
            "           attacks='1:noise:10.0:1, 2:noise:10.0:1')\n"
            "print(run_experiment(build_config(raw, rounds=2, seed=1)).ledger.head_hash.hex())\n"
        )
        path = os.path.dirname(os.path.dirname(harness.__file__))
        heads = [
            subprocess.run(
                [sys.executable, "-c", script],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for threads in ("1", "2")
        ]
        assert len(heads[0].strip()) == 64
        assert heads[0] == heads[1]


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
        """Every metrics row carries its round's recorded alpha decision."""
        result = run_experiment(small_config(Scheme.SCEI))
        assert {m.round_no for m in result.metrics} == {1, 2, 3}
        for m in result.metrics:
            rec = result.ledger.query_round(m.round_no, RecordKind.ALPHA_DECISION)[0]
            assert decode_alpha_decision(rec.payload)[0] == m.alpha

    def test_negotiated_alpha_within_grid(self):
        result = run_experiment(small_config(Scheme.SCEI))
        alphas = recorded_alphas(result.ledger)
        assert len(alphas) == 3
        assert all(0.5 <= a <= 0.8 for a in alphas)

    def test_one_metrics_row_per_active_node_per_round(self):
        result = run_experiment(small_config(Scheme.SCEI, rounds=4))
        seen = {}
        for m in result.metrics:
            seen.setdefault(m.round_no, []).append(m.node_id)
        for round_no, ids in seen.items():
            assert ids == sorted(ids) == list(range(4))


class TestRoundMemory:
    """The round loop holds each vector of a round once: the source dataset
    is gone before training, uploads are put as they are built, and vectors
    read back from the ledger view its payloads."""

    def test_the_source_dataset_is_gone_when_training_starts(self, monkeypatch):
        refs, alive = [], []
        generate, train = harness.generate_synthetic, harness.node_mod.local_round

        def generate_and_watch(*args):
            ds = generate(*args)
            refs.extend((weakref.ref(ds), weakref.ref(ds.features)))
            return ds

        def train_and_look(*args):
            if not alive:
                alive.append([ref() is not None for ref in refs])
            return train(*args)

        monkeypatch.setattr(harness, "generate_synthetic", generate_and_watch)
        monkeypatch.setattr(harness.node_mod, "local_round", train_and_look)
        run_experiment(small_config(Scheme.SCEI))
        assert len(refs) == 2
        assert alive == [[False, False]]

    def test_the_initial_weights_are_gone_when_training_starts(self, monkeypatch):
        """The genesis GLOBAL_WEIGHTS record and each node's two copies are all
        that is left of the initial vector once the rounds begin."""
        refs, alive = [], []
        init, train = harness.init_params, harness.node_mod.local_round

        def init_and_watch(*args):
            weights = init(*args)
            refs.append(weakref.ref(weights))
            return weights

        def train_and_look(*args):
            if not alive:
                alive.append([ref() is not None for ref in refs])
            return train(*args)

        monkeypatch.setattr(harness, "init_params", init_and_watch)
        monkeypatch.setattr(harness.node_mod, "local_round", train_and_look)
        run_experiment(small_config(Scheme.SCEI))
        assert len(refs) == 1
        assert alive == [[False]]

    def test_the_rounds_hold_little_beyond_the_bytes_they_append(self, monkeypatch):
        """From the first training call to the end of the run, traced memory
        peaks at the bytes the rounds append plus 1,194,739 bytes, 8.1
        vectors of 147,504 bytes: training's working stacks and the ledger's
        records and hashes. Holding a round's uploads in a list read 13.1
        vectors, decoding a copy of each vector read back 14.1, and both
        18.1, so either alone exceeds the bound of 11."""
        cfg = small_config(Scheme.SCEI, hidden=(128, 128))
        vector = 8 * cfg.arch.param_count
        assert vector == 147_504
        train, start = harness.node_mod.local_round, []

        def train_and_mark(*args):
            if not start:
                start.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()
            return train(*args)

        monkeypatch.setattr(harness.node_mod, "local_round", train_and_mark)
        tracemalloc.start()
        try:
            result = run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        appended = sum(len(rec.payload) for rec in result.ledger.records if rec.round_no >= 1)
        assert peak - start[0] - appended < 11 * vector


def recorded_alphas(book):
    """The negotiated alphas, one per round, from the ALPHA_DECISION records."""
    return [decode_alpha_decision(r.payload)[0] for r in book.records if r.kind is RecordKind.ALPHA_DECISION]


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
        cfg = ExperimentConfig(
            scheme=Scheme.SCEI,
            dataset=SyntheticSource(3, 50, 6, 3.0),
            partition=PartitionSpec(num_nodes=2, samples_per_node=20, labels_per_node=2, rng_seed=0),
            hidden=(8, 8),
            training=TrainingConfig(batch_size=10, local_epochs=1, learning_rate=0.05, rng_seed=0),
            rounds=2,
            seed=0,
        )
        weights = init_params(cfg.arch, 0)
        nodes = _identical_nodes(cfg.arch, weights)
        book = Ledger()
        book.append(0, RecordKind.GLOBAL_WEIGHTS, None, encode_params(weights))
        metrics = _run_rounds(nodes, book, cfg)
        # identical data and identical training make every accuracy column tie,
        # so negotiation must settle on the grid minimum
        assert recorded_alphas(book) == [0.5, 0.5]
        assert [m.alpha for m in metrics] == [0.5] * 4
        per_round = {}
        for m in metrics:
            per_round.setdefault(m.round_no, []).append(m.accuracy)
        for accs in per_round.values():
            assert len(set(accs)) == 1


def rebuild(book, cfg):
    """A fresh ledger holding book's round-0 global and node records, with
    every coordinator record put by the two steps in between."""
    rebuilt = Ledger()

    def copy(round_no, kind):
        for rec in book.query_round(round_no, kind):
            rebuilt.append(rec.round_no, rec.kind, rec.node_id, rec.payload)

    copy(0, RecordKind.GLOBAL_WEIGHTS)
    for round_no in range(1, cfg.rounds + 1):
        copy(round_no, RecordKind.LOCAL_WEIGHTS)
        settle_uploads(rebuilt, round_no, cfg)
        copy(round_no, RecordKind.ACCURACY_LIST)
        if cfg.scheme is Scheme.SCEI:
            settle_alpha(rebuilt, round_no, cfg)
    return rebuilt


def golden_config(scheme):
    extra = {"fixed_alpha": "0.75"} if scheme == "fixed_alpha" else {}
    return build_config(dict(parse_config_file(SAMPLE_CONFIG), scheme=scheme, **extra), rounds=5)


class TestCoordinatorSteps:
    """The coordinator's records follow from the ledger alone: its two steps,
    run between copies of a run's node records, rebuild the run's chain."""

    @pytest.mark.parametrize("scheme", ["scei", "fedavg", "local", "fixed_alpha"])
    def test_the_steps_rebuild_each_golden_run(self, scheme):
        cfg = golden_config(scheme)
        book = run_experiment(cfg).ledger
        rebuilt = rebuild(book, cfg)
        assert len(rebuilt) == len(book)
        assert rebuilt.head_hash == book.head_hash

    def test_the_steps_rebuild_a_run_with_an_expulsion(self):
        cfg = small_config(Scheme.SCEI, rounds=6, num_nodes=8, attacks=((2, AdditiveNoise(25.0, 1)),))
        book = run_experiment(cfg).ledger
        assert [(r.round_no, r.node_id) for r in book.records if r.kind is RecordKind.EXPULSION] == [(5, 2)]
        assert rebuild(book, cfg).head_hash == book.head_hash

    def test_a_rehashed_forgery_is_named_at_its_round(self):
        """Node 4's round-3 upload edited and the chain re-hashed: the chain
        checks out, and the first rebuilt record that differs is one of the
        coordinator's round-3 records."""
        cfg = golden_config("scei")
        forged = Ledger()
        for rec in run_experiment(cfg).ledger.records[1:]:
            payload = rec.payload
            if (rec.round_no, rec.kind, rec.node_id) == (3, RecordKind.LOCAL_WEIGHTS, 4):
                payload = encode_params(decode_params(payload) * 1.01)
            forged.append(rec.round_no, rec.kind, rec.node_id, payload)
        assert forged.verify_chain() is None
        rebuilt = rebuild(forged, cfg)
        first = next(r for r, f in zip(rebuilt.records, forged.records) if r.hash != f.hash)
        assert first.round_no == 3
        assert first.kind in (RecordKind.SUSPICION_SET, RecordKind.EXPULSION, RecordKind.GLOBAL_WEIGHTS)


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

    def test_non_finite_upload_flagged_and_expelled(self):
        """Noise of scale 1e308 overflows part of node 1's upload to inf. The
        defence flags it every round and keeps it out of every global model,
        so the honest nodes train on and node 1 is expelled at round 5."""
        raw = dict(parse_config_file(SAMPLE_CONFIG), nodes="8", hidden="8,8", attacks="1:noise:1e308:1")
        with np.errstate(all="ignore"):
            result = run_experiment(build_config(raw, rounds=6, seed=1))
        flagged = [(m.round_no, m.node_id) for m in result.metrics if m.flagged]
        assert flagged == [(r, 1) for r in range(1, 6)]
        assert [(m.round_no, m.node_id) for m in result.metrics if m.expelled] == [(5, 1)]
        globals_ = [r for r in result.ledger.records if r.kind is RecordKind.GLOBAL_WEIGHTS]
        assert len(globals_) == 7
        assert all(np.isfinite(decode_params(r.payload)).all() for r in globals_)
        assert {m.round_no for m in result.metrics} == set(range(1, 7))

    @pytest.mark.parametrize("sigma", ["1e160", "1e300"])
    def test_overflowing_distances_blame_only_the_attacker(self, sigma):
        """A finite upload this large overflows the plain sum of squares of
        every node's distance from the temporary global. Recomputed with a
        scaled norm, the distances stay finite, so only node 1 is flagged,
        in rounds 1-5, and it is expelled at round 5."""
        raw = dict(parse_config_file(SAMPLE_CONFIG), nodes="8", hidden="8,8", attacks=f"1:noise:{sigma}:1")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_experiment(build_config(raw, rounds=6, seed=1))
        flagged = [(m.round_no, m.node_id) for m in result.metrics if m.flagged]
        assert flagged == [(r, 1) for r in range(1, 6)]
        assert [(m.round_no, m.node_id) for m in result.metrics if m.expelled] == [(5, 1)]

    def test_distances_past_the_float64_limit_blame_only_the_attacker(self):
        """At noise 3e307 on 6,154 parameters every node's distance exceeds the
        float64 limit even with its entries rescaled. All distances are divided
        by one power of two, which keeps their order, so only node 1 is
        flagged, in rounds 1-5, and it is expelled at round 5."""
        raw = dict(parse_config_file(SAMPLE_CONFIG), nodes="8", hidden="64,64", attacks="1:noise:3e307:1")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_experiment(build_config(raw, rounds=6, seed=1))
        assert max(m.round_no for m in result.metrics) == 6
        flagged = [(m.round_no, m.node_id) for m in result.metrics if m.flagged]
        assert flagged == [(r, 1) for r in range(1, 6)]
        assert [(m.round_no, m.node_id) for m in result.metrics if m.expelled] == [(5, 1)]

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

    def test_honest_expulsions_in_clean_runs(self):
        """The paper's fence rule expels honest nodes with no attacker present
        (README, "Known limitations"): on the sample config's 20 rounds, seeds
        1-10 expel exactly these (node, round) pairs. A change to the defence
        that moves this rate changes this table on purpose."""
        raw = parse_config_file(SAMPLE_CONFIG)
        assert raw.get("attacks", "") == ""
        expelled = {}
        for seed in range(1, 11):
            result = run_experiment(build_config(raw, seed=seed))
            pairs = sorted((m.node_id, m.round_no) for m in result.metrics if m.expelled)
            if pairs:
                expelled[seed] = pairs
        assert expelled == {5: [(9, 12)], 8: [(1, 5), (9, 5)]}

    def test_all_nodes_flagged_aborts_with_round(self, monkeypatch, two_cpus):
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
        assert multiprocessing.active_children() == []


    def test_diverging_learning_rate_aborts(self, tmp_path):
        """The 199,210-parameter shape at learning rate 0.5 overflows within
        a few rounds; the run stops naming the round and the nodes instead of
        going on at chance accuracy, and leaves the dump of every round
        before the one that diverged."""
        dump = tmp_path / "ledger.bin"
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
            "ledger_out": str(dump),
        }
        with np.errstate(all="ignore"), pytest.raises(
            ExperimentAbort, match=r"^round \d+: node\(s\) \d+(, \d+)* trained to non-finite weights$"
        ) as raised:
            run_experiment(build_config(raw, seed=1))
        # seed 1 aborts at round 7, after 125 records
        aborted_at = int(re.match(r"round (\d+)", str(raised.value)).group(1))
        assert verify_dump_file(dump) == (None, 125)
        last = Ledger.read_dump(dump).records[-1]
        assert (last.round_no, last.kind) == (aborted_at - 1, RecordKind.ALPHA_DECISION)


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

    def test_exact_bytes_and_values_read_back(self, tmp_path):
        rows = [
            RoundMetrics(1, 0, np.float64(0.8125), 0.65, True, False, 1e-9, 123456.5, 0.0),
            RoundMetrics(3, 2, 0.0, 1.0, True, True, 0.25, 2.5e-7, 3.0000004),
            RoundMetrics(12, 9, np.float64(2 / 3), 0.5, False, True, 0.1, 1.0, 1e-6),
        ]
        path = tmp_path / "metrics.csv"
        write_csv(rows, path)
        assert path.read_bytes() == (
            b"round,node_id,accuracy,alpha,flagged,expelled,train_s,negotiate_s,ledger_s\n"
            b"1,0,0.812500,0.650000,true,false,0.000000,123456.500000,0.000000\n"
            b"3,2,0.000000,1.000000,true,true,0.250000,0.000000,3.000000\n"
            b"12,9,0.666667,0.500000,false,true,0.100000,1.000000,0.000001\n"
        )
        parsed = read_metrics_csv(path)
        assert parsed == (
            RoundMetrics(1, 0, 0.8125, 0.65, True, False, 0.0, 123456.5, 0.0),
            RoundMetrics(3, 2, 0.0, 1.0, True, True, 0.25, 0.0, 3.0),
            RoundMetrics(12, 9, 0.666667, 0.5, False, True, 0.1, 1.0, 1e-6),
        )
        for m in parsed:
            assert [type(v) for v in vars(m).values()] == [int, int, float, float, bool, bool, float, float, float]

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
        assert [row.round_no for row in summary.rounds] == [1, 2, 3, 4]
        for row in summary.rounds:
            values = [m.accuracy for m in metrics if m.round_no == row.round_no]
            # sums taken left to right, so the summary is equal to the last bit
            mean = 0.0
            for v in values:
                mean += v
            mean /= len(values)
            var = 0.0
            for v in values:
                var += (v - mean) ** 2
            var /= len(values)
            assert row.mean_accuracy == mean
            assert row.variance == var

    def test_threshold_first_round(self):
        metrics = [
            RoundMetrics(1, 0, 0.4, 0.0, False, False, 0.0, 0.0, 0.0),
            RoundMetrics(2, 0, 0.8, 0.0, False, False, 0.0, 0.0, 0.0),
            RoundMetrics(3, 0, 0.9, 0.0, False, False, 0.0, 0.0, 0.0),
        ]
        assert summarize(metrics, threshold=0.75).rounds_to_threshold == 2


class TestConfigParsing:
    def test_malformed_value_names_its_key(self):
        with pytest.raises(ValueError, match=r"^config key 'rounds': invalid literal for int\(\)"):
            build_config({"rounds": "ten"})
        with pytest.raises(ValueError, match=r"^config key 'learning_rate': could not convert"):
            build_config({"learning_rate": "fast"})
        with pytest.raises(ValueError, match=r"^config key 'hidden': invalid literal for int\(\)"):
            build_config({"hidden": "64,wide"})

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

    def test_grid_is_built_once_from_its_keys(self):
        assert small_config(Scheme.SCEI).grid == build_grid(0.5, 0.8, 0.05)
        grid = build_config({"grid_start": "0.25", "grid_end": "0.75", "grid_step": "0.25"}).grid
        assert isinstance(grid, NegotiationGrid) and grid.alphas == (0.25, 0.5, 0.75)
        with pytest.raises(ValueError, match="^config key 'grid_step': could not convert"):
            build_config({"grid_step": "wide"})

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ValueError) as exc:
            parse_config_file(path)
        assert str(exc.value) == f"{path}, line 1: unknown key 'bogus'"

    def test_a_line_without_a_value_is_refused_by_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("# rounds\nrounds = 3\n\nseed 4  # no '='\n")
        with pytest.raises(ValueError) as exc:
            parse_config_file(path)
        assert str(exc.value) == f"{path}, line 4: expected 'key = value', got \"seed 4  # no '='\""

    def test_a_key_given_twice_is_refused(self, tmp_path):
        """The second occurrence is refused with both line numbers, instead of
        silently winning over the first."""
        path = tmp_path / "exp.cfg"
        path.write_text("rounds = 20\nseed = 3\n# rounds = 5\nrounds = 2\n")
        with pytest.raises(ValueError) as exc:
            parse_config_file(path)
        assert str(exc.value) == f"{path}, line 4: key 'rounds' already set on line 1"

    def test_output_paths_are_checked_before_the_run(self, tmp_path, monkeypatch):
        """Two outputs naming one file, or an output in a directory that does
        not exist, are refused by build_config under both output keys."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        for out, ledger_out, cause in (
            ("same.out", "same.out", "out 'same.out' and ledger_out 'same.out' name one file"),
            ("same.out", "./sub/../same.out", "out 'same.out' and ledger_out './sub/../same.out' name one file"),
            ("nodir/x.csv", None, "out 'nodir/x.csv' lies in no existing directory"),
            (None, str(tmp_path / "nodir" / "x.bin"), f"ledger_out '{tmp_path}/nodir/x.bin' lies in no existing directory"),
        ):
            with pytest.raises(ValueError) as exc:
                build_config({}, out=out, ledger_out=ledger_out)
            assert str(exc.value) == f"config keys 'out', 'ledger_out': {cause}"
        cfg = build_config({}, out="metrics.csv", ledger_out="sub/ledger.bin")
        assert (cfg.output_path, cfg.ledger_path) == ("metrics.csv", "sub/ledger.bin")

    def test_the_table_defaults_are_the_dataclass_defaults(self):
        """CONFIG_TABLE restates ExperimentConfig's defaults (grid, policy,
        attacks, fixed_alpha, seed, outputs) as text; the two agree."""
        built = build_config({})
        direct = ExperimentConfig(
            scheme=built.scheme,
            dataset=built.dataset,
            partition=built.partition,
            hidden=built.hidden,
            training=built.training,
            rounds=built.rounds,
        )
        assert built == direct

    def test_attack_spec_errors(self):
        for text, message in (
            ("1:noise:1", "noise attack '1:noise:1' needs node:noise:sigma:start"),
            ("2:NOISE:1", "noise attack '2:NOISE:1' needs node:noise:sigma:start"),
            ("1:what:2", "unknown attack kind 'what'"),
            ("1", "attack spec '1' needs node:kind[:sigma]:start"),
            ("1:noise", "attack spec '1:noise' needs node:kind[:sigma]:start"),
            ("0:noise:1:1, 3:SIGNFLIP", "attack spec ' 3:SIGNFLIP' needs node:kind[:sigma]:start"),
            ("1:signflip:1:2", "signflip attack '1:signflip:1:2' needs node:signflip:start"),
            (",", "attack spec '' needs node:kind[:sigma]:start"),
            ("x:what:2", "invalid literal for int() with base 10: 'x'"),
            ("1:noise:s:2", "noise attack '1:noise:s:2': could not convert string to float: 's'"),
            ("1:noise:-1:2", "noise attack '1:noise:-1:2': sigma must be finite and positive, got -1.0"),
            ("0:noise:nan:1", "noise attack '0:noise:nan:1': sigma must be finite and positive, got nan"),
            ("0:noise:inf:1", "noise attack '0:noise:inf:1': sigma must be finite and positive, got inf"),
            ("0:signflip:0", "signflip attack '0:signflip:0': start_round must be >= 1, got 0"),
            ("0:noise:1:-5", "noise attack '0:noise:1:-5': start_round must be >= 1, got -5"),
        ):
            with pytest.raises(ValueError) as exc:
                parse_attacks(text)
            assert str(exc.value) == message, text

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            small_config(Scheme.FIXED_ALPHA)  # missing alpha
        with pytest.raises(ValueError):
            small_config(Scheme.FIXED_ALPHA, fixed_alpha=1.5)
        for value in (-0.5, 1.5, math.nan, math.inf):
            with pytest.raises(ValueError, match=rf"^fixed_alpha must lie in \[0, 1\], got {value}$"):
                small_config(Scheme.SCEI, fixed_alpha=value)
        with pytest.raises(ValueError):
            small_config(Scheme.SCEI, attacks=((9, SignFlip(1)),))  # node id out of range
        with pytest.raises(ValueError):
            small_config(Scheme.SCEI, rounds=0)
        with pytest.raises(ValueError, match=r"^config keys .*'attacks'.*: node 1 has more than one attack$"):
            build_config({"attacks": "1:noise:10.0:1, 1:signflip:3"})
        # a config holds a built grid; anything else is refused at construction,
        # so before any data is generated
        with pytest.raises(ValueError, match=r"^grid must be a NegotiationGrid from contract\.build_grid, got \(0\.5, 0\.8, nan\)$"):
            small_config(Scheme.SCEI, grid=(0.5, 0.8, math.nan))
        # a grid that cannot be built is refused with its keys, before any round runs
        for key in ("grid_start", "grid_end", "grid_step"):
            for value in ("nan", "inf"):
                with pytest.raises(ValueError, match=rf"^config keys 'grid_start', 'grid_end', 'grid_step': .*{value}"):
                    build_config({key: value})

    def test_model_widths_come_from_the_dataset(self):
        assert small_config(Scheme.SCEI).arch == MlpArchitecture(8, (12, 12), 6)
        mnist = small_config(Scheme.SCEI, dataset=MnistSource("images", "labels"), hidden=(200, 200))
        assert mnist.arch == MlpArchitecture(784, (200, 200), 10)
        assert build_config({"synthetic_classes": "7", "synthetic_input_dim": "5", "hidden": "3,4"}).arch == (
            MlpArchitecture(5, (3, 4), 7)
        )
        for hidden in ((0, 4), (4,), (4, 4, 4)):
            with pytest.raises(ValueError, match=r"^hidden widths must be two integers >= 1, got \("):
                small_config(Scheme.SCEI, hidden=hidden)
        with pytest.raises(TypeError, match="arch"):
            small_config(Scheme.SCEI, arch=MlpArchitecture(8, (12, 12), 9))

    def test_refusals_name_the_keys_of_their_part(self):
        for raw, message in (
            ({"nodes": "0"}, "config keys 'nodes', 'samples_per_node', 'labels_per_node', 'skew_ratio', 'seed': "
                             "num_nodes must be >= 1"),
            ({"hidden": "0,4"}, "config keys 'scheme', 'fixed_alpha', 'hidden', 'rounds', 'attacks', 'seed': "
                                "hidden widths must be two integers >= 1, got (0, 4)"),
            ({"seed": "-1"}, "config keys 'scheme', 'fixed_alpha', 'hidden', 'rounds', 'attacks', 'seed': "
                             "seed must be >= 0, got -1"),
            ({"grid_step": "1e-300"}, "config keys 'grid_start', 'grid_end', 'grid_step': "
                                      "step 1e-300 gives more than 101 candidates"),
            ({"synthetic_per_class": "0"}, "config keys 'synthetic_classes', 'synthetic_per_class', "
                                           "'synthetic_input_dim', 'synthetic_separation': "
                                           "num_classes, per_class and input_dim must all be >= 1"),
            ({"dataset": "mnist"}, "config keys 'mnist_images', 'mnist_labels': "
                                   "mnist dataset needs an images path and a labels path"),
            ({"dataset": "Tabular"}, "config key 'dataset': unknown dataset 'tabular'"),
            ({"nodes": "100"}, "config keys 'nodes', 'samples_per_node', 'labels_per_node', 'synthetic_classes', "
                               "'synthetic_per_class': dataset has 15000 examples, need at least 60000"),
            ({"labels_per_node": "12"}, "config keys 'nodes', 'samples_per_node', 'labels_per_node', "
                                        "'synthetic_classes', 'synthetic_per_class': "
                                        "dataset has 10 labels, need 12 per node"),
        ):
            with pytest.raises(ValueError) as exc:
                build_config(raw)
            assert str(exc.value) == message

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["learning_rate", "synthetic_separation"])
    def test_non_finite_rates_rejected_naming_the_value(self, key, value):
        """A nan or inf step size or class separation is refused up front with
        its value, instead of aborting at round 1 as if training had diverged."""
        raw = {"synthetic_per_class": "40", "samples_per_node": "20", "hidden": "4,4", "rounds": "1"}
        with pytest.raises(ValueError, match=rf"must be finite and non-negative, got {value}$"):
            run_experiment(build_config(dict(raw, **{key: value})))


# every config key meets these values, on a config small enough to run a round
EDGE_VALUES = ("0", "-1", "nan", "inf")
EDGE_EXTRAS = {
    "samples_per_node": ("1", "2"),
    "hidden": ("0,4", "4", "4,4,4"),
    "grid_step": ("1e-7", "1e-300"),
    "attacks": ("0:noise:nan:1", "0:noise:inf:1", "0:signflip:0", "0:noise:1:-5"),
    "fixed_alpha": ("1.5",),
}
# values that must be refused under their own key, whatever the scheme
EDGE_REFUSED = {"fixed_alpha": {"-1", "nan", "inf", "1.5"}}
EDGE_BASE = {
    "synthetic_classes": "6",
    "synthetic_per_class": "40",
    "synthetic_input_dim": "4",
    "nodes": "3",
    "samples_per_node": "20",
    "labels_per_node": "2",
    "hidden": "4,4",
    "rounds": "1",
    "local_epochs": "1",
}
EDGE_CASES = [
    (key, {key: value}) for key in CONFIG_TABLE for value in EDGE_VALUES + EDGE_EXTRAS.get(key, ())
] + [
    ("fixed_alpha", {"scheme": "fixed_alpha", "fixed_alpha": value})
    for value in EDGE_VALUES + EDGE_EXTRAS["fixed_alpha"]
]


@pytest.mark.parametrize(
    "key, edits", EDGE_CASES, ids=[",".join(f"{k}={v}" for k, v in edits.items()) for _, edits in EDGE_CASES]
)
def test_edge_value_runs_or_is_refused_by_name(key, edits, monkeypatch, tmp_path):
    """Each value either builds and runs a round, or build_config refuses it
    naming its key, before any data is generated."""
    monkeypatch.chdir(tmp_path)  # out and ledger_out write where they are told
    generated = []
    real = harness.generate_synthetic
    monkeypatch.setattr(harness, "generate_synthetic", lambda *args: generated.append(args) or real(*args))
    try:
        with np.errstate(all="ignore"):
            result = run_experiment(build_config(dict(EDGE_BASE, **edits)))
    except ValueError as exc:
        assert not generated, f"refused only after the data was generated: {exc}"
        named = re.match(r"^config keys? ('\w+'(?:, '\w+')*): ", str(exc))
        assert named and repr(key) in named.group(1).split(", "), str(exc)
        if edits[key] in EDGE_REFUSED.get(key, ()):
            assert named.group(0) == f"config key {key!r}: ", str(exc)
    else:
        assert edits[key] not in EDGE_REFUSED.get(key, ()), f"{edits} ran instead of being refused"
        assert {m.round_no for m in result.metrics} == {1}


def test_an_aborted_run_leaves_its_dump(monkeypatch, tmp_path):
    """A run that ends in ExperimentAbort still writes the records so far, so
    the run whose cause matters most can be checked: here round 0, then round
    1's uploads and the suspicion set that flagged every node."""
    from scei.contract import DefenceReport

    def flag_everyone(diffs, round_no, total_rounds, node_ids=None):
        ids = list(node_ids)
        return DefenceReport(dict(zip(ids, map(float, diffs))), 0.25, 0.75, 1.0, frozenset(ids))

    monkeypatch.setattr("scei.harness.contract.detect_anomalies", flag_everyone)
    dump = tmp_path / "ledger.bin"
    with pytest.raises(ExperimentAbort, match="round 1"):
        run_experiment(small_config(Scheme.SCEI, ledger_path=str(dump)))
    assert verify_dump_file(dump) == (None, 7)
    book = Ledger.read_dump(dump)
    assert [(rec.round_no, rec.kind, rec.node_id) for rec in book.records[1:]] == [
        (0, RecordKind.GLOBAL_WEIGHTS, None),
        *((1, RecordKind.LOCAL_WEIGHTS, node_id) for node_id in range(4)),
        (1, RecordKind.SUSPICION_SET, None),
    ]
    assert book.read(1, RecordKind.SUSPICION_SET) == [(None, (0, 1, 2, 3))]


class Interrupted(BaseException):
    """Raised from inside the rounds, and not an Exception, as a KeyboardInterrupt is not."""


@pytest.mark.parametrize("error", [RuntimeError("a fault in round 2"), Interrupted("stopped in round 2")])
def test_a_run_ending_in_any_exception_leaves_its_dump(error, monkeypatch, tmp_path, two_cpus):
    """A run that dies of anything raised during the rounds, not only of
    ExperimentAbort, writes the records it appended before the raise: here
    the fifth candidate evaluation, the first of round 2, raises after round
    2's global weights are recorded."""
    calls = []
    evaluate = harness.node_mod.evaluate_candidates

    def fail_on_the_fifth_call(*args):
        calls.append(args)
        if len(calls) == 5:
            raise error
        return evaluate(*args)

    monkeypatch.setattr(harness.node_mod, "evaluate_candidates", fail_on_the_fifth_call)
    dump = tmp_path / "ledger.bin"
    with pytest.raises(type(error)) as raised:
        run_experiment(small_config(Scheme.SCEI, ledger_path=str(dump)))
    assert raised.value is error  # same type, same message
    assert multiprocessing.active_children() == []
    assert verify_dump_file(dump) == (None, 19)
    book = Ledger.read_dump(dump)
    assert [rec.round_no for rec in book.records] == [0, 0] + [1] * 11 + [2] * 6
    assert [(rec.kind, rec.node_id) for rec in book.records[-6:]] == [
        *((RecordKind.LOCAL_WEIGHTS, node_id) for node_id in range(4)),
        (RecordKind.SUSPICION_SET, None),
        (RecordKind.GLOBAL_WEIGHTS, None),
    ]


def test_a_run_whose_trainers_fail_to_fork_leaves_its_dump(monkeypatch, tmp_path):
    """A fork that fails, as it does when the process limit is reached,
    raises out of the run after genesis and round 0's global weights are
    recorded, and those two records are still written."""

    def no_fork(nodes, arch):
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(harness.node_mod, "Trainers", no_fork)
    dump = tmp_path / "ledger.bin"
    with pytest.raises(OSError, match="Resource temporarily unavailable"):
        run_experiment(small_config(Scheme.SCEI, ledger_path=str(dump)))
    assert verify_dump_file(dump) == (None, 2)
    assert [rec.kind for rec in Ledger.read_dump(dump).records] == [RecordKind.GENESIS, RecordKind.GLOBAL_WEIGHTS]


def _small_run_head():
    return run_experiment(small_config(Scheme.SCEI, rounds=2)).ledger.head_hash


class TestTrainerProcesses:
    """A run trains shares of each round in forked trainer processes, one per
    usable CPU beyond the first; it never hangs on them or leaves one behind."""

    def test_a_run_forks_its_trainers_and_reaps_them(self, monkeypatch):
        """One usable CPU forks no trainer and two fork one; both runs record
        the same ledger, neither leaves a process behind, and the trainer
        returns by itself once the run closes its pipe."""
        forked = []
        real = harness.node_mod.Trainers

        def recorded(*args):
            trainers = real(*args)
            forked.append(list(trainers._procs))
            return trainers

        monkeypatch.setattr(harness.node_mod, "Trainers", recorded)
        own = min(os.sched_getaffinity(0))
        heads = []
        for cpus in ({own}, {own, own + 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            heads.append(run_experiment(small_config(Scheme.SCEI, rounds=2)).ledger.head_hash)
            assert multiprocessing.active_children() == []
        assert [len(procs) for procs in forked] == [0, 1]
        assert forked[1][0].exitcode == 0
        assert heads[0] == heads[1]

    def test_a_run_in_a_pool_worker_trains_alone(self, two_cpus):
        """A pool's worker is a daemonic process, which may start none: its
        run forks no trainer and records the ledger of a run outside it."""
        with multiprocessing.get_context("fork").Pool(1) as pool:
            head = pool.apply_async(_small_run_head).get(timeout=60)
        assert head == _small_run_head()

    def test_a_trainer_that_raises_raises_its_exception_in_the_run(self, monkeypatch, two_cpus):
        caller = os.getpid()
        train = harness.node_mod.sgd_train

        def fail_in_a_trainer(*args):
            if os.getpid() != caller:
                raise ValueError("no room for the stack")
            return train(*args)

        monkeypatch.setattr(harness.node_mod, "sgd_train", fail_in_a_trainer)
        with pytest.raises(ValueError, match=r"^no room for the stack$") as raised:
            run_experiment(small_config(Scheme.SCEI))
        assert "in fail_in_a_trainer" in str(raised.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_a_killed_trainer_aborts_the_run_by_name(self, monkeypatch, two_cpus):
        """The trainer is killed after round 1's training; round 2 names its
        exit code instead of waiting for an answer that never comes."""
        apply = harness.node_mod.apply_alpha

        def kill_the_trainers(*args):
            for child in multiprocessing.active_children():
                os.kill(child.pid, signal.SIGKILL)
            return apply(*args)

        monkeypatch.setattr(harness.node_mod, "apply_alpha", kill_the_trainers)
        with pytest.raises(ExperimentAbort, match=r"^round 2: trainer process exited with code -9$"):
            run_experiment(small_config(Scheme.SCEI))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("spare", [0, 1])
    def test_a_diverging_run_aborts_alike_on_any_cpu_count(self, spare, monkeypatch):
        """Learning rate 3.0 on the sample config overflows in round 1 for
        nodes of both shares; the message is the same with a trainer process
        and without one."""
        own = min(os.sched_getaffinity(0))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(own, own + spare + 1)))
        raw = dict(parse_config_file(SAMPLE_CONFIG), learning_rate="3.0", local_epochs="1")
        with np.errstate(all="ignore"), pytest.raises(ExperimentAbort) as raised:
            run_experiment(build_config(raw, rounds=2))
        assert str(raised.value) == "round 1: node(s) 0, 3, 4, 6, 7, 8, 9 trained to non-finite weights"
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("key", ["out", "ledger_out"])
def test_an_output_naming_a_directory_is_refused(key, tmp_path):
    """A directory given as an output is refused before any data exists,
    instead of ending in IsADirectoryError once every round has run."""
    with pytest.raises(ValueError) as exc:
        build_config({key: str(tmp_path)})
    assert str(exc.value) == f"config keys 'out', 'ledger_out': {key} {str(tmp_path)!r} is a directory"


def test_a_config_built_in_python_has_its_outputs_checked_before_any_data(monkeypatch, tmp_path):
    """An ExperimentConfig made without build_config meets the same check of
    its outputs before any data is built, not a FileNotFoundError from the
    dump once every round has run."""
    def never(*args):
        raise AssertionError("reached past the output check")

    monkeypatch.setattr(harness, "_build_dataset", never)
    monkeypatch.setattr(harness.node_mod, "local_round", never)
    missing = str(tmp_path / "nodir" / "ledger.bin")
    with pytest.raises(ValueError) as exc:
        run_experiment(small_config(Scheme.SCEI, num_nodes=5, rounds=5, hidden=(16, 16), ledger_path=missing))
    assert str(exc.value) == f"ledger_out {missing!r} lies in no existing directory"
    assert list(tmp_path.iterdir()) == []


MNIST_RAW = dict(dataset="mnist", nodes="5", samples_per_node="100", labels_per_node="2", hidden="8,8", rounds="1")
MNIST_FILE_KEYS = "config keys 'mnist_images', 'mnist_labels': "


class TestMnistChecks:
    """IDX files that do not fit the model are refused by build_config, from
    the image header and the label bytes, before any training."""

    def refusal(self, images, labels, **edits):
        with pytest.raises(ValueError) as exc:
            build_config(dict(MNIST_RAW, mnist_images=str(images), mnist_labels=str(labels), **edits))
        return str(exc.value)

    def test_a_fitting_pair_builds(self, tmp_path):
        images, labels = write_mnist_pair(tmp_path)
        cfg = build_config(dict(MNIST_RAW, mnist_images=str(images), mnist_labels=str(labels)))
        assert cfg.dataset == MnistSource(str(images), str(labels))

    def test_images_of_another_size(self, tmp_path):
        images, labels = write_mnist_pair(tmp_path, rows=4, cols=3)
        assert self.refusal(images, labels) == f"{MNIST_FILE_KEYS}{images}: 4 x 3 images give 12 inputs, the model takes 784"

    def test_labels_past_the_classes(self, tmp_path):
        images, labels = write_mnist_pair(tmp_path, classes=12)
        assert self.refusal(images, labels) == f"{MNIST_FILE_KEYS}{labels}: label 11 outside [0, 10)"

    def test_a_missing_labels_file(self, tmp_path):
        images, labels = write_mnist_pair(tmp_path)
        labels.unlink()
        assert self.refusal(images, labels) == f"{MNIST_FILE_KEYS}cannot read {labels}: No such file or directory"

    def test_swapped_files(self, tmp_path):
        images, labels = write_mnist_pair(tmp_path)
        assert self.refusal(labels, images) == (
            f"{MNIST_FILE_KEYS}{labels}: wrong magic: expected 0x00000803, got 0x00000801"
        )

    def test_a_config_built_in_python_is_checked_before_any_training(self, tmp_path, monkeypatch):
        """An ExperimentConfig made without build_config meets the same check
        of its files when the run builds its data, not a shape error in training."""
        images, labels = write_mnist_pair(tmp_path, rows=4, cols=3)
        cfg = small_config(
            Scheme.SCEI, rounds=1, num_nodes=5, dataset=MnistSource(str(images), str(labels)), hidden=(8, 8),
            partition=PartitionSpec(num_nodes=5, samples_per_node=100, labels_per_node=2, rng_seed=1),
        )
        trained = []
        monkeypatch.setattr(harness.node_mod, "local_round", lambda *args: trained.append(args))
        with pytest.raises(ValueError) as exc:
            run_experiment(cfg)
        assert str(exc.value) == f"{images}: 4 x 3 images give 12 inputs, the model takes 784"
        assert trained == []

    def test_a_partition_the_files_cannot_fill(self, tmp_path):
        images, labels = write_mnist_pair(tmp_path)
        assert self.refusal(images, labels, nodes="40") == (
            "config keys 'nodes', 'samples_per_node', 'labels_per_node', 'mnist_images', 'mnist_labels': "
            "dataset has 3000 examples, need at least 4000"
        )
        assert self.refusal(images, labels, labels_per_node="20", samples_per_node="120") == (
            "config keys 'nodes', 'samples_per_node', 'labels_per_node', 'mnist_images', 'mnist_labels': "
            "dataset has 10 labels, need 20 per node"
        )
