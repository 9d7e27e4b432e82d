"""Experiment orchestration: config, round loop, baselines, CSV metrics.

The round loop is barrier-synchronized and strictly ordered (training of all
active nodes, uploads in node order, then defence, aggregation, candidate
evaluation, negotiation, personalization), and every cross-phase artifact
travels through the ledger: uploads are read back before aggregating, the
global model is read back before mixing, candidate reports are read back
before negotiating. Two runs with the same config and seed therefore produce
identical metrics (timing columns aside) and identical ledger hashes.

Schemes are points of one protocol. The round loop reads the scheme once,
into three values:
  screened    uploads pass the defence before aggregation (scei only)
  aggregated  a global model is formed (every scheme but local)
  alpha       the fixed mixing weight: 0 for fedavg, 1 for local, the
              configured value for fixed_alpha; None for scei, whose nodes
              negotiate it every round
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import enum
import glob
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import contract, node as node_mod
from .contract import AccuracyMatrix, AggregationError, ContractState, NegotiationGrid, Policy, build_grid
from .data import (
    LabeledDataset,
    PartitionSpec,
    check_mnist_idx,
    check_partition,
    check_synthetic,
    generate_synthetic,
    inject_skew,
    load_mnist_idx,
    partition_non_iid,
)
from .ledger import Ledger, RecordKind
from .model import MlpArchitecture, TrainingConfig, evaluate, init_params
from .node import AdditiveNoise, NodeState, SignFlip, derive_seed

_INIT_TAG = 21


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
    num_classes: int
    per_class: int
    input_dim: int
    separation: float

    def __post_init__(self):
        check_synthetic(self.num_classes, self.per_class, self.input_dim, self.separation)


@dataclass(frozen=True)
class MnistSource:
    images_path: str
    labels_path: str
    input_dim = 784
    num_classes = 10

    def __post_init__(self):
        if not self.images_path or not self.labels_path:
            raise ValueError("mnist dataset needs an images path and a labels path")


@dataclass(frozen=True)
class ExperimentConfig:
    scheme: Scheme
    dataset: SyntheticSource | MnistSource
    partition: PartitionSpec
    hidden: tuple
    training: TrainingConfig
    rounds: int
    grid: NegotiationGrid = build_grid(0.5, 0.8, 0.05)
    policy: Policy = Policy.MAX_MEAN
    attacks: tuple = ()  # ((node_id, AdditiveNoise | SignFlip), ...)
    fixed_alpha: float | None = None
    seed: int = 0
    output_path: str | None = None
    ledger_path: str | None = None
    # the model: the dataset's widths around the hidden ones
    arch: MlpArchitecture = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arch = MlpArchitecture(self.dataset.input_dim, self.hidden, self.dataset.num_classes)
        object.__setattr__(self, "arch", arch)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not isinstance(self.grid, NegotiationGrid):
            raise ValueError(f"grid must be a NegotiationGrid from contract.build_grid, got {self.grid!r}")
        if self.scheme is Scheme.FIXED_ALPHA and self.fixed_alpha is None:
            raise ValueError("fixed_alpha scheme needs a fixed_alpha value")
        # checked under every scheme, so a bad value is not passed over because the scheme ignores it
        if self.fixed_alpha is not None and not 0.0 <= self.fixed_alpha <= 1.0:
            raise ValueError(f"fixed_alpha must lie in [0, 1], got {self.fixed_alpha}")
        attacked = [node_id for node_id, _ in self.attacks]
        for node_id, attack in self.attacks:
            if attacked.count(node_id) > 1:
                raise ValueError(f"node {node_id} has more than one attack")
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


def _parse_flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


# CSV column, RoundMetrics field, how the writer prints it, how the reader parses it
_FLOAT = ("{:.6f}".format, float)
_BOOL = (lambda v: "true" if v else "false", _parse_flag)
_CSV_COLUMNS = (
    ("round", "round_no", "{}".format, int),
    ("node_id", "node_id", "{}".format, int),
    ("accuracy", "accuracy", *_FLOAT),
    ("alpha", "alpha", *_FLOAT),
    ("flagged", "flagged", *_BOOL),
    ("expelled", "expelled", *_BOOL),
    ("train_s", "train_s", *_FLOAT),
    ("negotiate_s", "negotiate_s", *_FLOAT),
    ("ledger_s", "ledger_s", *_FLOAT),
)
CSV_HEADER = ",".join(column for column, _, _, _ in _CSV_COLUMNS)


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
    # a config built in Python has not met build_config's check of the files
    src = cfg.dataset
    check_mnist_idx(src.images_path, src.labels_path, src.input_dim, src.num_classes)
    return load_mnist_idx(src.images_path, src.labels_path)


def _build_splits(cfg: ExperimentConfig) -> list:
    """Each node's split; the source dataset is gone once this returns, as
    the splits hold copies of its rows."""
    ds = _build_dataset(cfg)
    return inject_skew(partition_non_iid(ds, cfg.partition), ds, cfg.partition)


def _build_nodes(cfg: ExperimentConfig, splits, book: Ledger) -> list:
    """A node per split, both of its models at the initial weights, which go
    into book first as round 0's GLOBAL_WEIGHTS; no later step reads the
    vector, so it is gone once this returns."""
    init_weights = init_params(cfg.arch, derive_seed(cfg.seed, _INIT_TAG))
    book.put(0, RecordKind.GLOBAL_WEIGHTS, None, init_weights)
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


def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy, or
    None when numpy carries no such library."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_-*.so"))
    if len(libs) != 1:
        return None
    try:
        lib = ctypes.CDLL(libs[0])
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the previous count.

    A product such as (10, 784) @ (784, 200) can differ in its last bit
    between thread counts, so a run pinned to one thread records the same
    ledger hashes whatever thread count the process starts with. Without the
    bundled library nothing is pinned, and hashes hold per thread count.
    """
    api = _openblas_threads()
    if api is None:
        yield
        return
    get, set_ = api
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Build data and nodes, run the full round loop on one BLAS thread with
    a trainer process per spare CPU, optionally write outputs."""
    # a config built in Python has not met build_config's check of the outputs
    _check_outputs(cfg.output_path, cfg.ledger_path)
    with _one_blas_thread():
        book = Ledger()
        nodes = _build_nodes(cfg, _build_splits(cfg), book)
        state = ContractState.fresh([n.node_id for n in nodes])

        # forked here, so each trainer holds the node datasets and the BLAS pin
        trainers = node_mod.Trainers(nodes, cfg.arch)
        try:
            metrics, state = _run_rounds(nodes, book, state, cfg, trainers)
        finally:
            trainers.close()
            # the records so far, also when the rounds end in an exception:
            # the ones up to it are the ones that explain it
            if cfg.ledger_path:
                book.write_dump(cfg.ledger_path)

    if cfg.output_path:
        write_csv(metrics, cfg.output_path)
    return ExperimentResult(metrics=tuple(metrics), ledger=book, state=state)


def _run_rounds(nodes, book: Ledger, state: ContractState, cfg: ExperimentConfig, trainers=None):
    """The protocol loop proper; nodes may be hand-built, which the tests use.
    trainers, a node.Trainers over these nodes, trains shares of each round
    beside this process."""
    screened = cfg.scheme is Scheme.SCEI
    aggregated = cfg.scheme is not Scheme.LOCAL
    # None: negotiated every round
    fixed_alpha = {Scheme.FEDAVG: 0.0, Scheme.LOCAL: 1.0, Scheme.FIXED_ALPHA: cfg.fixed_alpha}.get(cfg.scheme)
    by_id = {n.node_id: n for n in nodes}
    metrics = []

    for round_no in range(1, cfg.rounds + 1):
        active = state.active_nodes
        negotiate_s = dict.fromkeys(active, 0.0)

        # phase 1: local training of every active node, then uploads in
        # ascending node order, each put as it is built, so none outlives its
        # put; each node is charged an equal share of the stacked training time
        start = time.perf_counter()
        try:
            outgoing = node_mod.local_round([by_id[n] for n in active], cfg.arch, cfg.training, round_no, trainers)
        except (node_mod.NonFiniteWeights, node_mod.TrainerExited) as exc:
            raise ExperimentAbort(f"round {round_no}: {exc}") from exc
        train_s = (time.perf_counter() - start) / len(active)
        ledger_s = {}
        for node_id in active:
            start = time.perf_counter()
            book.put(round_no, RecordKind.LOCAL_WEIGHTS, node_id, next(outgoing))
            ledger_s[node_id] = time.perf_counter() - start
        uploads = dict(book.read(round_no, RecordKind.LOCAL_WEIGHTS))

        # phase 2: screening
        flagged, expelled = frozenset(), ()
        if screened:
            report, state, expelled = contract.screen(uploads, state, round_no, cfg.rounds)
            flagged = report.flagged
            book.put(round_no, RecordKind.SUSPICION_SET, None, flagged)
            for node_id in expelled:
                book.put(round_no, RecordKind.EXPULSION, node_id, None)

        # phase 3: aggregation of the unflagged uploads
        global_weights = None
        if aggregated:
            try:
                global_weights = contract.robust_aggregate(uploads, flagged)
            except AggregationError as exc:
                raise ExperimentAbort(f"round {round_no}: {exc}") from exc
            book.put(round_no, RecordKind.GLOBAL_WEIGHTS, None, global_weights)
            [(_, global_weights)] = book.read(round_no, RecordKind.GLOBAL_WEIGHTS)

        # phase 4: candidate evaluation and negotiation by the unflagged nodes
        alpha, candidate_acc = fixed_alpha, {}
        if alpha is None:
            for node_id in state.active_nodes:
                if node_id in flagged:
                    continue
                start = time.perf_counter()
                accuracies = node_mod.evaluate_candidates(by_id[node_id], cfg.arch, global_weights, cfg.grid)
                negotiate_s[node_id] = time.perf_counter() - start
                start = time.perf_counter()
                book.put(round_no, RecordKind.ACCURACY_LIST, node_id, (cfg.grid.alphas, accuracies))
                ledger_s[node_id] += time.perf_counter() - start

            rows = sorted((node_id, accs) for node_id, (_, accs) in book.read(round_no, RecordKind.ACCURACY_LIST))
            matrix = AccuracyMatrix(node_ids=[r[0] for r in rows], values=np.array([r[1] for r in rows]))
            book.put(round_no, RecordKind.ALPHA_DECISION, None, contract.negotiate_alpha(matrix, cfg.grid, cfg.policy))
            [(_, (alpha, grid_index))] = book.read(round_no, RecordKind.ALPHA_DECISION)
            candidate_acc = {node_id: accs[grid_index] for node_id, accs in rows}

        # phase 5: personalization and metrics; a node expelled this round
        # keeps its model, and with no global model formed a node's own
        # weights stand in for it
        for node_id in active:
            nd = by_id[node_id]
            if node_id not in expelled:
                node_mod.apply_alpha(nd, nd.local_weights if global_weights is None else global_weights, alpha)
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
                    expelled=node_id in expelled,
                    train_s=train_s,
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
            f.write(",".join(show(getattr(m, attr)) for _, attr, show, _ in _CSV_COLUMNS) + "\n")


def _read_utf8(path) -> str:
    """The file's text; bytes that are not UTF-8 are refused by file and line."""
    with open(path, "rb") as f:
        blob = f.read()
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = blob.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}, line {line}: not UTF-8 text ({exc.reason})") from exc


def read_metrics_csv(path) -> tuple:
    """Parse a metrics CSV back into RoundMetrics rows; bytes that are not
    UTF-8, a header without the written columns or a cell that does not parse
    are refused by file and line."""
    with io.StringIO(_read_utf8(path), newline="") as f:
        reader = csv.DictReader(f)
        missing = [column for column, _, _, _ in _CSV_COLUMNS if column not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}, line 1: the header lacks {', '.join(missing)}; expected {CSV_HEADER}")
        rows = []
        for row in reader:
            values = {}
            for column, attr, _, parse in _CSV_COLUMNS:
                try:  # the cells a short row lacks read as None
                    values[attr] = parse(row[column] or "")
                except ValueError as exc:
                    raise ValueError(f"{path}, line {reader.line_num}, column {column}: {exc}") from exc
            rows.append(RoundMetrics(**values))
        return tuple(rows)


def summarize(metrics, threshold: float | None = None) -> ExperimentSummary:
    """Per-round mean and population variance of accuracy over reporting nodes,
    plus the first round whose mean reaches the threshold (if given)."""
    by_round = {}
    for m in metrics:
        by_round.setdefault(m.round_no, []).append(m.accuracy)
    summaries = [
        RoundSummary(round_no, contract.population_mean(values), contract.population_variance(values))
        for round_no, values in sorted(by_round.items())
    ]
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


def _widths(text: str) -> tuple:
    return tuple(int(h.strip()) for h in text.split(","))


def _unit_fraction(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"must lie in [0, 1], got {value}")
    return value


# attack kind -> (class, usage, parsers of the fields after the kind, in the
# order of the class's fields)
_ATTACK_KINDS = {
    "noise": (AdditiveNoise, "node:noise:sigma:start", (float, int)),
    "signflip": (SignFlip, "node:signflip:start", (int,)),
}


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
        node_id, kind = int(parts[0]), parts[1].lower()
        if kind not in _ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {kind!r}")
        cls, usage, parsers = _ATTACK_KINDS[kind]
        if len(parts) != 2 + len(parsers):
            raise ValueError(f"{kind} attack {chunk!r} needs {usage}")
        try:
            specs.append((node_id, cls(*(parse(value) for parse, value in zip(parsers, parts[2:])))))
        except ValueError as exc:
            raise ValueError(f"{kind} attack {chunk!r}: {exc}") from exc
    return tuple(specs)


# dataset kind -> (source class, the config key of each of its fields)
_SOURCES = {
    "synthetic": (SyntheticSource, dict(num_classes="synthetic_classes", per_class="synthetic_per_class",
                                        input_dim="synthetic_input_dim", separation="synthetic_separation")),
    "mnist": (MnistSource, dict(images_path="mnist_images", labels_path="mnist_labels")),
}


def _dataset_kind(text: str) -> str:
    if text.lower() not in _SOURCES:
        raise ValueError(f"unknown dataset {text.lower()!r}")
    return text.lower()


# key -> (default as written in a config file, parse); a key with a None
# default is absent unless given
CONFIG_TABLE = {
    "scheme": ("scei", lambda v: Scheme(v.lower())),
    "fixed_alpha": (None, _unit_fraction),
    "dataset": ("synthetic", _dataset_kind),
    "synthetic_classes": ("10", int),
    "synthetic_per_class": ("1500", int),
    "synthetic_input_dim": ("20", int),
    "synthetic_separation": ("4.0", float),
    "mnist_images": (None, str),
    "mnist_labels": (None, str),
    "nodes": ("10", int),
    "samples_per_node": ("600", int),
    "labels_per_node": ("4", int),
    "skew_ratio": ("0", float),
    "hidden": ("200,200", _widths),
    "rounds": ("50", int),
    "batch_size": ("10", int),
    "local_epochs": ("5", int),
    "learning_rate": ("0.01", float),
    "grid_start": ("0.5", float),
    "grid_end": ("0.8", float),
    "grid_step": ("0.05", float),
    "policy": ("max_mean", lambda v: Policy(v.lower())),
    "attacks": ("", parse_attacks),
    "seed": ("0", int),
    "out": (None, str),
    "ledger_out": (None, str),
}


def parse_config_file(path) -> dict:
    """Flat `key = value` lines of UTF-8 text; '#' starts a comment; blank
    lines ignored; each key at most once. A refusal names the file and line
    as `<file>, line N: ...`."""
    raw, lines = {}, {}
    with io.StringIO(_read_utf8(path), newline=None) as f:
        for lineno, line in enumerate(f, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}, line {lineno}: expected 'key = value', got {line.rstrip()!r}")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key not in CONFIG_TABLE:
                raise ValueError(f"{path}, line {lineno}: unknown key {key!r}")
            if key in lines:
                raise ValueError(f"{path}, line {lineno}: key {key!r} already set on line {lines[key]}")
            raw[key], lines[key] = value, lineno
    return raw


def _check_outputs(out, ledger_out) -> None:
    """Each output file lies in an existing directory and is not one, and the two are not one file."""
    for key, path in (("out", out), ("ledger_out", ledger_out)):
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ValueError(f"{key} {path!r} lies in no existing directory")
        if path and os.path.isdir(path):
            raise ValueError(f"{key} {path!r} is a directory")
    if out and ledger_out and os.path.realpath(out) == os.path.realpath(ledger_out):
        raise ValueError(f"out {out!r} and ledger_out {ledger_out!r} name one file")


def build_config(raw: dict, **overrides) -> ExperimentConfig:
    """Assemble an ExperimentConfig from flat string keys plus keyword overrides.

    Overrides (scheme, rounds, seed, out, ledger_out) mirror the CLI flags and
    win over file values when not None. A value that does not parse raises
    ValueError naming its key; a value that a part of the config refuses
    raises it naming the keys that feed that part.
    """
    merged = dict(raw)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = str(value)

    def get(key):
        default, parse = CONFIG_TABLE[key]
        text = merged.get(key, default)
        if text is None:
            return None
        try:
            return parse(text)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from exc

    def part(build, keys: dict, **built):
        """build(**built), each field in keys set to its key's parsed value."""
        values = {name: get(key) for name, key in keys.items()}
        try:
            return build(**built, **values)
        except ValueError as exc:
            raise ValueError(f"config keys {', '.join(map(repr, keys.values()))}: {exc}") from exc

    dataset = part(*_SOURCES[get("dataset")])
    partition = part(PartitionSpec, dict(num_nodes="nodes", samples_per_node="samples_per_node",
                                         labels_per_node="labels_per_node", skew_ratio="skew_ratio",
                                         rng_seed="seed"))
    # the example and label counts are known before any data is built: a
    # synthetic dataset's from its keys, MNIST's from the image header and the
    # label bytes, once the files are found to fit the model
    if isinstance(dataset, SyntheticSource):
        count_keys = dict(num_classes="synthetic_classes", per_class="synthetic_per_class")
        counts = (dataset.num_classes * dataset.per_class, dataset.num_classes)
    else:
        count_keys = dict(images_path="mnist_images", labels_path="mnist_labels")
        counts = part(check_mnist_idx, count_keys, input_dim=dataset.input_dim, num_classes=dataset.num_classes)
    part(lambda num_nodes, samples_per_node, labels_per_node, **_: check_partition(
             *counts, num_nodes, samples_per_node, labels_per_node),
         dict(num_nodes="nodes", samples_per_node="samples_per_node", labels_per_node="labels_per_node", **count_keys))
    part(_check_outputs, dict(out="out", ledger_out="ledger_out"))
    return part(
        ExperimentConfig,
        dict(scheme="scheme", fixed_alpha="fixed_alpha", hidden="hidden", rounds="rounds",
             attacks="attacks", seed="seed"),
        dataset=dataset,
        partition=partition,
        training=part(TrainingConfig, dict(batch_size="batch_size", local_epochs="local_epochs",
                                           learning_rate="learning_rate", rng_seed="seed")),
        grid=part(build_grid, dict(start="grid_start", end="grid_end", step="grid_step")),
        policy=get("policy"),
        output_path=get("out"),
        ledger_path=get("ledger_out"),
    )
