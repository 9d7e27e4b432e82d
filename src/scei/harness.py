"""Experiment orchestration: config, round loop, baselines, CSV metrics.

The round loop is barrier-synchronized and strictly ordered (training of all
active nodes, uploads in node order, then defence, aggregation, candidate
evaluation, negotiation, personalization), and every cross-phase artifact
travels through the ledger: uploads are read back before aggregating, the
global model is read back before mixing, candidate reports are read back
before negotiating. Two runs with the same config and seed therefore produce
identical metrics (timing columns aside) and identical ledger hashes.

Schemes
  scei         defence + negotiated alpha each round
  fedavg       plain averaging, alpha forced to 0, no defence, no negotiation
  fixed_alpha  plain averaging, the configured alpha, no defence/negotiation
  local        no aggregation; nodes never read global weights (alpha 1)
"""

from __future__ import annotations

import csv
import enum
import time
from dataclasses import dataclass, replace

import numpy as np

from . import contract, ledger as ledger_mod, node as node_mod
from .contract import (
    AccuracyMatrix,
    AggregationError,
    ContractState,
    NegotiationGrid,
    Policy,
    build_grid,
)
from .data import (
    LabeledDataset,
    PartitionSpec,
    generate_synthetic,
    inject_skew,
    load_mnist_idx,
    partition_non_iid,
)
from .ledger import Ledger, RecordKind
from .model import MlpArchitecture, TrainingConfig, evaluate, init_params
from .node import AdditiveNoise, NodeState, SignFlip, derive_seed

_INIT_TAG = 21

CSV_HEADER = "round,node_id,accuracy,alpha,flagged,expelled,train_s,negotiate_s,ledger_s"


class ExperimentAbort(RuntimeError):
    """The round loop cannot continue (for example, every node got flagged, or
    local training left non-finite weights)."""


class Scheme(enum.Enum):
    SCEI = "scei"
    FEDAVG = "fedavg"
    LOCAL = "local"
    FIXED_ALPHA = "fixed_alpha"


@dataclass(frozen=True)
class SyntheticSource:
    num_classes: int = 10
    per_class: int = 1500
    input_dim: int = 20
    separation: float = 4.0


@dataclass(frozen=True)
class MnistSource:
    images_path: str
    labels_path: str


@dataclass(frozen=True)
class ExperimentConfig:
    scheme: Scheme
    dataset: SyntheticSource | MnistSource
    partition: PartitionSpec
    arch: MlpArchitecture
    training: TrainingConfig
    rounds: int
    grid: tuple = (0.5, 0.8, 0.05)
    policy: Policy = Policy.MAX_MEAN
    attacks: tuple = ()  # ((node_id, AdditiveNoise | SignFlip), ...)
    fixed_alpha: float | None = None
    seed: int = 0
    output_path: str | None = None
    ledger_path: str | None = None

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.scheme is Scheme.FIXED_ALPHA:
            if self.fixed_alpha is None:
                raise ValueError("fixed_alpha scheme needs a fixed_alpha value")
            if not 0.0 <= self.fixed_alpha <= 1.0:
                raise ValueError("fixed_alpha must lie in [0, 1]")
        for node_id, attack in self.attacks:
            if not 0 <= node_id < self.partition.num_nodes:
                raise ValueError(f"attack node id {node_id} outside 0..{self.partition.num_nodes - 1}")
            if not isinstance(attack, (AdditiveNoise, SignFlip)):
                raise ValueError(f"unknown attack {attack!r}")


@dataclass(frozen=True)
class RoundMetrics:
    round_no: int
    node_id: int
    accuracy: float
    alpha: float
    flagged: bool
    expelled: bool
    train_s: float
    negotiate_s: float
    ledger_s: float


@dataclass(frozen=True)
class ExperimentResult:
    metrics: tuple
    ledger: Ledger
    state: ContractState


@dataclass(frozen=True)
class RoundSummary:
    round_no: int
    mean_accuracy: float
    variance: float


@dataclass(frozen=True)
class ExperimentSummary:
    rounds: tuple
    threshold: float | None = None
    rounds_to_threshold: int | None = None


def _build_dataset(cfg: ExperimentConfig) -> LabeledDataset:
    if isinstance(cfg.dataset, SyntheticSource):
        src = cfg.dataset
        return generate_synthetic(
            src.num_classes, src.per_class, src.input_dim, src.separation, cfg.seed
        )
    return load_mnist_idx(cfg.dataset.images_path, cfg.dataset.labels_path)


def _build_nodes(cfg: ExperimentConfig, splits, init_weights) -> list:
    attack_map = dict(cfg.attacks)
    return [
        NodeState(
            node_id=i,
            split=split,
            personalized=init_weights.copy(),
            local_weights=init_weights.copy(),
            attack=attack_map.get(i),
        )
        for i, split in enumerate(splits)
    ]


class _Stopwatch:
    def __init__(self):
        self.total = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.total += time.perf_counter() - self._start
        return False


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Build data and nodes, run the full round loop, optionally write outputs."""
    ds = _build_dataset(cfg)
    splits = partition_non_iid(ds, cfg.partition)
    if cfg.partition.skew_ratio > 0:
        splits = inject_skew(splits, ds, cfg.partition)

    init_weights = init_params(cfg.arch, derive_seed(cfg.seed, _INIT_TAG))
    nodes = _build_nodes(cfg, splits, init_weights)

    book = Ledger()
    book.append(0, RecordKind.GLOBAL_WEIGHTS, None, ledger_mod.encode_params(init_weights))
    state = ContractState.fresh(
        [n.node_id for n in nodes], total_rounds=cfg.rounds, policy=cfg.policy
    )

    metrics, state = _run_rounds(nodes, book, state, cfg)

    if cfg.output_path:
        write_csv(metrics, cfg.output_path)
    if cfg.ledger_path:
        book.write_dump(cfg.ledger_path)
    return ExperimentResult(metrics=tuple(metrics), ledger=book, state=state)


def _run_rounds(nodes, book: Ledger, state: ContractState, cfg: ExperimentConfig):
    """The protocol loop proper; nodes may be hand-built, which the tests use."""
    grid = build_grid(*cfg.grid)
    by_id = {n.node_id: n for n in nodes}
    metrics = []

    for round_no in range(1, cfg.rounds + 1):
        state = replace(state, round_no=round_no)
        active_at_start = list(state.active_nodes)
        ledger_s = {n: 0.0 for n in active_at_start}
        negotiate_s = {n: 0.0 for n in active_at_start}

        # phase 1: local training of every active node, then uploads in
        # ascending node order; each node is charged an equal share of the
        # stacked training time
        with _Stopwatch() as sw:
            try:
                trained = node_mod.local_round(
                    [by_id[n] for n in active_at_start], cfg.arch, cfg.training, round_no
                )
            except node_mod.NonFiniteWeights as exc:
                raise ExperimentAbort(f"round {round_no}: {exc}") from exc
        train_s = dict.fromkeys(active_at_start, sw.total / len(active_at_start))
        for node_id, upload in zip(active_at_start, trained):
            with _Stopwatch() as sw:
                book.append(
                    round_no,
                    RecordKind.LOCAL_WEIGHTS,
                    node_id,
                    ledger_mod.encode_params(upload),
                )
            ledger_s[node_id] += sw.total

        uploads = {
            rec.node_id: ledger_mod.decode_params(rec.payload)
            for rec in book.query_round(round_no, RecordKind.LOCAL_WEIGHTS)
        }

        # phase 2: defence (scei only)
        if cfg.scheme is Scheme.SCEI:
            ordered_ids = sorted(uploads)
            temp_global = contract.fed_avg([uploads[n] for n in ordered_ids])
            diffs = contract.model_diffs([uploads[n] for n in ordered_ids], temp_global)
            report = contract.detect_anomalies(
                diffs, round_no, cfg.rounds, node_ids=ordered_ids
            )
            state = contract.update_suspicions(state, report, round_no)
            book.append(
                round_no,
                RecordKind.SUSPICION_SET,
                None,
                ledger_mod.encode_node_set(report.flagged),
            )
            for node_id in sorted(report.expelled):
                book.append(round_no, RecordKind.EXPULSION, node_id, b"")
            try:
                global_weights = contract.robust_aggregate(uploads, report)
            except AggregationError as exc:
                raise ExperimentAbort(f"round {round_no}: {exc}") from exc
        else:
            report = None
            if cfg.scheme is Scheme.LOCAL:
                global_weights = None
            else:
                global_weights = contract.fed_avg(
                    [uploads[n] for n in sorted(uploads)]
                )

        if global_weights is not None:
            book.append(
                round_no,
                RecordKind.GLOBAL_WEIGHTS,
                None,
                ledger_mod.encode_params(global_weights),
            )
            global_weights = ledger_mod.decode_params(
                book.query_round(round_no, RecordKind.GLOBAL_WEIGHTS)[0].payload
            )

        # phases 3-4: candidate evaluation and negotiation (scei only)
        flagged = report.flagged if report is not None else frozenset()
        expelled_now = set(report.expelled) if report is not None else set()
        if cfg.scheme is Scheme.SCEI:
            negotiators = [n for n in state.active_nodes if n not in flagged]
            for node_id in negotiators:
                nd = by_id[node_id]
                with _Stopwatch() as sw:
                    cand = node_mod.evaluate_candidates(nd, cfg.arch, global_weights, grid)
                negotiate_s[node_id] += sw.total
                with _Stopwatch() as sw:
                    book.append(
                        round_no,
                        RecordKind.ACCURACY_LIST,
                        node_id,
                        ledger_mod.encode_accuracy_list(cand.alphas, cand.accuracies),
                    )
                ledger_s[node_id] += sw.total

            reports = book.query_round(round_no, RecordKind.ACCURACY_LIST)
            rows = sorted(
                (rec.node_id, ledger_mod.decode_accuracy_list(rec.payload)[1])
                for rec in reports
            )
            matrix = AccuracyMatrix(
                node_ids=tuple(r[0] for r in rows),
                values=np.array([r[1] for r in rows]),
            )
            alpha, grid_index = contract.negotiate_alpha(matrix, grid, cfg.policy)
            book.append(
                round_no,
                RecordKind.ALPHA_DECISION,
                None,
                ledger_mod.encode_alpha_decision(alpha, grid_index),
            )
            alpha = ledger_mod.decode_alpha_decision(
                book.query_round(round_no, RecordKind.ALPHA_DECISION)[0].payload
            )[0]
            state = replace(state, alpha_history=state.alpha_history + (alpha,))
            candidate_acc = {
                node_id: accs[grid_index] for node_id, accs in rows
            }
        elif cfg.scheme is Scheme.FEDAVG:
            alpha, candidate_acc = 0.0, {}
        elif cfg.scheme is Scheme.FIXED_ALPHA:
            alpha, candidate_acc = cfg.fixed_alpha, {}
        else:
            alpha, candidate_acc = 1.0, {}

        # phase 5: personalization and metrics
        for node_id in active_at_start:
            nd = by_id[node_id]
            if node_id in expelled_now:
                accuracy = evaluate(nd.personalized, cfg.arch, nd.split.test)
            elif cfg.scheme is Scheme.LOCAL:
                nd.personalized = nd.local_weights.copy()
                accuracy = evaluate(nd.personalized, cfg.arch, nd.split.test)
            else:
                node_mod.apply_alpha(nd, global_weights, alpha)
                if node_id in candidate_acc:
                    accuracy = candidate_acc[node_id]
                else:
                    accuracy = evaluate(nd.personalized, cfg.arch, nd.split.test)
            metrics.append(
                RoundMetrics(
                    round_no=round_no,
                    node_id=node_id,
                    accuracy=accuracy,
                    alpha=float(alpha),
                    flagged=node_id in flagged,
                    expelled=node_id in expelled_now,
                    train_s=train_s[node_id],
                    negotiate_s=negotiate_s[node_id],
                    ledger_s=ledger_s[node_id],
                )
            )
    return metrics, state


def write_csv(metrics, path) -> None:
    """One row per (round, node): accuracies and alphas with 6 decimals, LF endings."""
    rows = list(metrics)
    if not rows:
        raise ValueError("no metrics to write")
    with open(path, "w", newline="\n") as f:
        f.write(CSV_HEADER + "\n")
        for m in rows:
            f.write(
                f"{m.round_no},{m.node_id},{m.accuracy:.6f},{m.alpha:.6f},"
                f"{'true' if m.flagged else 'false'},{'true' if m.expelled else 'false'},"
                f"{m.train_s:.6f},{m.negotiate_s:.6f},{m.ledger_s:.6f}\n"
            )


def read_metrics_csv(path) -> tuple:
    """Parse a metrics CSV back into RoundMetrics rows."""
    out = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        for row in reader:
            out.append(
                RoundMetrics(
                    round_no=int(row["round"]),
                    node_id=int(row["node_id"]),
                    accuracy=float(row["accuracy"]),
                    alpha=float(row["alpha"]),
                    flagged=row["flagged"] == "true",
                    expelled=row["expelled"] == "true",
                    train_s=float(row["train_s"]),
                    negotiate_s=float(row["negotiate_s"]),
                    ledger_s=float(row["ledger_s"]),
                )
            )
    return tuple(out)


def summarize(metrics, threshold: float | None = None) -> ExperimentSummary:
    """Per-round mean and population variance of accuracy over reporting nodes,
    plus the first round whose mean reaches the threshold (if given)."""
    by_round = {}
    for m in metrics:
        by_round.setdefault(m.round_no, []).append(m.accuracy)
    summaries = []
    for round_no in sorted(by_round):
        values = by_round[round_no]
        mean = 0.0
        for v in values:
            mean += v
        mean /= len(values)
        var = 0.0
        for v in values:
            var += (v - mean) ** 2
        var /= len(values)
        summaries.append(RoundSummary(round_no=round_no, mean_accuracy=mean, variance=var))
    reached = None
    if threshold is not None:
        for s in summaries:
            if s.mean_accuracy >= threshold:
                reached = s.round_no
                break
    return ExperimentSummary(
        rounds=tuple(summaries), threshold=threshold, rounds_to_threshold=reached
    )


# --- configuration ------------------------------------------------------------

CONFIG_KEYS = {
    "scheme": "scei | fedavg | local | fixed_alpha",
    "fixed_alpha": "alpha in [0,1]; required when scheme = fixed_alpha",
    "dataset": "synthetic | mnist",
    "synthetic_classes": "class count for the synthetic generator (default 10)",
    "synthetic_per_class": "examples per class (default 1500)",
    "synthetic_input_dim": "feature dimension (default 20)",
    "synthetic_separation": "class-center distance from origin (default 4.0)",
    "mnist_images": "path to an IDX image file",
    "mnist_labels": "path to an IDX label file",
    "nodes": "number of training nodes (default 10)",
    "samples_per_node": "base examples per node (default 600)",
    "labels_per_node": "distinct labels per node (default 4)",
    "skew_ratio": "fraction of out-of-distribution test data in [0, 0.25) (default 0)",
    "hidden": "two comma-separated hidden-layer widths (default 200,200)",
    "rounds": "federated rounds (default 50)",
    "batch_size": "minibatch size (default 10)",
    "local_epochs": "local epochs per round (default 5)",
    "learning_rate": "SGD step size (default 0.01)",
    "grid_start": "first candidate alpha (default 0.5)",
    "grid_end": "last candidate alpha (default 0.8)",
    "grid_step": "candidate spacing (default 0.05)",
    "policy": "max_mean | min_variance (default max_mean)",
    "attacks": "comma-separated node:kind[:sigma]:start, kind in {noise, signflip}",
    "seed": "master seed (default 0)",
    "out": "metrics CSV path (optional)",
    "ledger_out": "ledger dump path (optional)",
}


def parse_config_file(path) -> dict:
    """Flat `key = value` lines; '#' starts a comment; blank lines ignored."""
    raw = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            raw[key] = value
    return raw


def parse_attacks(text: str) -> tuple:
    """'1:noise:10.0:1, 3:signflip:39' -> ((1, AdditiveNoise(10.0, 1)), (3, SignFlip(39)))."""
    specs = []
    text = text.strip()
    if not text:
        return ()
    for chunk in text.split(","):
        parts = [p.strip() for p in chunk.strip().split(":")]
        if len(parts) < 3:
            raise ValueError(f"attack spec {chunk!r} needs node:kind[:sigma]:start")
        node_id = int(parts[0])
        kind = parts[1].lower()
        if kind == "noise":
            if len(parts) != 4:
                raise ValueError(f"noise attack {chunk!r} needs node:noise:sigma:start")
            specs.append((node_id, AdditiveNoise(sigma=float(parts[2]), start_round=int(parts[3]))))
        elif kind == "signflip":
            if len(parts) != 3:
                raise ValueError(f"signflip attack {chunk!r} needs node:signflip:start")
            specs.append((node_id, SignFlip(start_round=int(parts[2]))))
        else:
            raise ValueError(f"unknown attack kind {kind!r}")
    return tuple(specs)


def build_config(raw: dict, **overrides) -> ExperimentConfig:
    """Assemble an ExperimentConfig from flat string keys plus keyword overrides.

    Overrides (scheme, rounds, seed, out, ledger_out) mirror the CLI flags and
    win over file values when not None.
    """
    merged = dict(raw)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = str(value)

    def get(key, default=None):
        return merged.get(key, default)

    scheme = Scheme(get("scheme", "scei").lower())
    seed = int(get("seed", "0"))

    dataset_kind = get("dataset", "synthetic").lower()
    if dataset_kind == "synthetic":
        dataset = SyntheticSource(
            num_classes=int(get("synthetic_classes", "10")),
            per_class=int(get("synthetic_per_class", "1500")),
            input_dim=int(get("synthetic_input_dim", "20")),
            separation=float(get("synthetic_separation", "4.0")),
        )
        input_dim, num_classes = dataset.input_dim, dataset.num_classes
    elif dataset_kind == "mnist":
        images = get("mnist_images")
        labels = get("mnist_labels")
        if not images or not labels:
            raise ValueError("mnist dataset needs mnist_images and mnist_labels paths")
        dataset = MnistSource(images_path=images, labels_path=labels)
        input_dim, num_classes = 784, 10
    else:
        raise ValueError(f"unknown dataset {dataset_kind!r}")

    hidden = tuple(int(h.strip()) for h in get("hidden", "200,200").split(","))
    arch = MlpArchitecture(input_dim=input_dim, hidden_dims=hidden, output_dim=num_classes)

    partition = PartitionSpec(
        num_nodes=int(get("nodes", "10")),
        samples_per_node=int(get("samples_per_node", "600")),
        labels_per_node=int(get("labels_per_node", "4")),
        skew_ratio=float(get("skew_ratio", "0")),
        rng_seed=seed,
    )
    training = TrainingConfig(
        batch_size=int(get("batch_size", "10")),
        local_epochs=int(get("local_epochs", "5")),
        learning_rate=float(get("learning_rate", "0.01")),
        rng_seed=seed,
    )

    fixed_alpha = get("fixed_alpha")
    return ExperimentConfig(
        scheme=scheme,
        dataset=dataset,
        partition=partition,
        arch=arch,
        training=training,
        rounds=int(get("rounds", "50")),
        grid=(
            float(get("grid_start", "0.5")),
            float(get("grid_end", "0.8")),
            float(get("grid_step", "0.05")),
        ),
        policy=Policy(get("policy", "max_mean").lower()),
        attacks=parse_attacks(get("attacks", "")),
        fixed_alpha=float(fixed_alpha) if fixed_alpha is not None else None,
        seed=seed,
        output_path=get("out"),
        ledger_path=get("ledger_out"),
    )
