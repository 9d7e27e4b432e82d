"""Desk-scale simulator of smart-contract coordinated personalized federated learning.

Nodes train a shared MLP on non-iid local data, upload weights to a
hash-chained ledger, and a deterministic coordinator averages uploads, screens
them with a dynamic IQR defence, and negotiates the local/global mixing weight
every round. Baseline schemes (plain averaging, pure local training, fixed
mixing weight) run through the same loop for side-by-side evaluation.
"""

from .contract import (
    AccuracyMatrix,
    AggregationError,
    DefenceReport,
    NegotiationGrid,
    Policy,
    build_grid,
    detect_anomalies,
    dynamic_bounds,
    fed_avg,
    interpolated_quantile,
    mix,
    model_diffs,
    negotiate_alpha,
    population_mean,
    population_variance,
    robust_aggregate,
    screen,
    update_suspicions,
)
from .data import (
    IdxFormatError,
    LabeledDataset,
    NodeDataSplit,
    PartitionError,
    PartitionSpec,
    SkewError,
    generate_synthetic,
    inject_skew,
    load_mnist_idx,
    partition_non_iid,
)
from .harness import (
    ExperimentAbort,
    ExperimentConfig,
    ExperimentResult,
    MnistSource,
    RoundMetrics,
    Scheme,
    SyntheticSource,
    build_config,
    parse_config_file,
    read_metrics_csv,
    run_experiment,
    summarize,
    write_csv,
)
from .ledger import Ledger, LedgerFormatError, LedgerRecord, RecordKind, verify_dump_bytes, verify_dump_file
from .model import (
    MlpArchitecture,
    TrainingConfig,
    evaluate,
    init_params,
    loss_and_grad,
    sgd_train,
)
from .node import (
    AdditiveNoise,
    NodeState,
    NonFiniteWeights,
    SignFlip,
    TrainerExited,
    Trainers,
    apply_alpha,
    derive_seed,
    evaluate_candidates,
    local_round,
)

__version__ = "0.1.0"
