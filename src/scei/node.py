"""Per-node protocol behaviour: local training, candidate evaluation, personalization.

Attacks corrupt only the uploaded vector; the node's own weights stay honest,
so an attacked node keeps training from uncorrupted state round after round.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .contract import NegotiationGrid, mix
from .data import NodeDataSplit
from .model import MlpArchitecture, TrainingConfig, evaluate, sgd_train

# stream tags for per-node, per-round derived seeds
_TRAIN_TAG = 11
_NOISE_TAG = 12

# Most parameter bytes one stacked sgd_train call takes. Stacking pays off
# where a step costs numpy call overhead; once a stack outgrows the core's
# cache it trains slower than its nodes one by one (199,210 parameters,
# 10 nodes, one epoch of 200 samples, on a 2-core Xeon with 2 MiB of L2 per
# core: 0.23 s stacked, 0.18 s one by one; stacks of 1-3 nodes tie).
_STACK_BYTES = 4 * 2**20


def derive_seed(*parts) -> int:
    """Deterministic child seed from a tuple of integers."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


@dataclass(frozen=True)
class AdditiveNoise:
    """Upload corrupted with i.i.d. Gaussian noise from start_round onward."""

    sigma: float
    start_round: int

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class SignFlip:
    """Upload negated elementwise from start_round onward."""

    start_round: int


@dataclass
class NodeState:
    node_id: int
    split: NodeDataSplit
    personalized: np.ndarray  # the deployed model, w_P
    local_weights: np.ndarray  # the latest honestly trained model, w_L
    attack: AdditiveNoise | SignFlip | None = None


@dataclass(frozen=True)
class CandidateReport:
    """One node's test accuracy for every candidate alpha on the grid."""

    node_id: int
    alphas: tuple
    accuracies: tuple


def _attack_active(attack, round_no: int) -> bool:
    return attack is not None and round_no >= attack.start_round


class NonFiniteWeights(ArithmeticError):
    """Local training left inf or nan in some nodes' weights."""

    def __init__(self, node_ids):
        self.node_ids = tuple(node_ids)
        super().__init__(f"node(s) {', '.join(map(str, self.node_ids))} trained to non-finite weights")


def local_round(nodes, arch: MlpArchitecture, cfg: TrainingConfig, round_no: int) -> list:
    """Train each node from its personal model and return the vectors to upload.

    `nodes` are the round's active nodes in ascending id order; the uploads
    come back in that order. Nodes with equal train sizes train together in
    stacked sgd_train calls of at most _STACK_BYTES of parameters, and each
    gets its own copy of its row. The shuffle seed derives from
    (cfg.rng_seed, round), the attack noise seed from (cfg.rng_seed,
    node_id, round), so runs replay exactly. An active attack corrupts only
    the returned upload; node.local_weights stays honest.
    Raises NonFiniteWeights if training diverged for any node.
    """
    train_cfg = replace(cfg, rng_seed=derive_seed(cfg.rng_seed, round_no, _TRAIN_TAG))
    per_stack = max(1, _STACK_BYTES // (8 * arch.param_count))
    same_length = {}
    for node in nodes:
        same_length.setdefault(len(node.split.train), []).append(node)
    groups = [g[i : i + per_stack] for g in same_length.values() for i in range(0, len(g), per_stack)]
    diverged = []
    for group in groups:
        stack = sgd_train(
            np.stack([node.personalized for node in group]),
            arch,
            train_cfg,
            [node.split.train for node in group],
        )
        if not np.isfinite(stack).all():
            diverged += [node.node_id for node, row in zip(group, stack) if not np.isfinite(row).all()]
        for node, row in zip(group, stack):
            node.local_weights = row.copy()
    if diverged:
        raise NonFiniteWeights(sorted(diverged))
    return [_upload(node, cfg, round_no) for node in nodes]


def _upload(node: NodeState, cfg: TrainingConfig, round_no: int) -> np.ndarray:
    if not _attack_active(node.attack, round_no):
        return node.local_weights.copy()
    if isinstance(node.attack, SignFlip):
        return -node.local_weights
    rng = np.random.default_rng([cfg.rng_seed, node.node_id, round_no, _NOISE_TAG])
    noise = rng.normal(0.0, node.attack.sigma, size=node.local_weights.shape)
    return node.local_weights + noise


def evaluate_candidates(
    node: NodeState,
    arch: MlpArchitecture,
    global_weights: np.ndarray,
    grid: NegotiationGrid,
) -> CandidateReport:
    """Mix the node's weights with the global model at every grid alpha and
    score each candidate on the node's local test set."""
    accuracies = tuple(
        evaluate(mix(node.local_weights, global_weights, alpha), arch, node.split.test)
        for alpha in grid.alphas
    )
    return CandidateReport(node_id=node.node_id, alphas=grid.alphas, accuracies=accuracies)


def apply_alpha(node: NodeState, global_weights: np.ndarray, alpha: float) -> NodeState:
    """Set the personal model to the negotiated mix of local and global weights."""
    node.personalized = mix(node.local_weights, global_weights, alpha)
    return node
