"""Coordinator logic: aggregation, mixing, alpha negotiation, and the upload defence.

All operations are pure functions over values the round loop reads back from
the ledger. Reductions that feed consensus decisions (averages, negotiation
scores) accumulate sequentially in ascending node order so every run of the
same inputs produces bit-identical outputs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

# a node must be flagged this many consecutive rounds before expulsion
EXPULSION_STREAK = 5

# distance spreads below these are treated as "all nodes agree": no flags.
# the relative cutoff comfortably covers samples that agree to a factor
# 1 + 1e-9 even after float rounding, and sits far below any real disagreement
AGREEMENT_ABS_SPREAD = 1e-12
AGREEMENT_REL_SPREAD = 1e-8

FENCE_SCALE = 1.5

# each candidate costs every node a mix of everything after the first layer's
# weights and a pass through layers 2-3 per round; 101 (step 0.01 over [0, 1])
# cost 1.4-1.6x local training on both the synthetic and the 784-input shape
MAX_GRID_CANDIDATES = 101


class AggregationError(RuntimeError):
    """No unflagged node is left to aggregate."""


class Policy(enum.Enum):
    MAX_MEAN = "max_mean"
    MIN_VARIANCE = "min_variance"


@dataclass(frozen=True)
class NegotiationGrid:
    """Strictly increasing candidate mixing weights, all within [0, 1]."""

    alphas: tuple

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if not alphas:
            raise ValueError("grid must contain at least one alpha")
        if any(not 0.0 <= a <= 1.0 for a in alphas):
            raise ValueError(f"grid alphas must lie in [0, 1]: {alphas}")
        if any(b <= a for a, b in zip(alphas, alphas[1:])):
            raise ValueError(f"grid alphas must be strictly increasing: {alphas}")

    def __len__(self) -> int:
        return len(self.alphas)


@dataclass(frozen=True)
class AccuracyMatrix:
    """Per-node accuracy rows across the negotiation grid (complete, in [0, 1])."""

    node_ids: tuple
    values: np.ndarray

    def __post_init__(self):
        node_ids = tuple(int(n) for n in self.node_ids)
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"accuracy matrix must be 2-D, got shape {values.shape}")
        if values.shape[0] != len(node_ids):
            raise ValueError(
                f"{len(node_ids)} node ids but {values.shape[0]} accuracy rows"
            )
        if len(set(node_ids)) != len(node_ids):
            raise ValueError("duplicate node ids in accuracy matrix")
        if values.size == 0:
            raise ValueError("accuracy matrix must be non-empty")
        if not np.isfinite(values).all():
            raise ValueError("accuracy matrix has missing or non-finite cells")
        if values.min() < 0.0 or values.max() > 1.0:
            raise ValueError("accuracies must lie in [0, 1]")
        object.__setattr__(self, "node_ids", node_ids)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class DefenceReport:
    """Outcome of one round of upload screening.

    quantile_lb / quantile_ub are the quantile LEVELS used this round; iqr is
    the value spread between them.
    """

    diffs: dict
    quantile_lb: float
    quantile_ub: float
    iqr: float
    flagged: frozenset


@dataclass(frozen=True)
class ContractState:
    """The coordinator's view: participants and suspicion history. The
    negotiated alphas live in the ledger's ALPHA_DECISION records."""

    active_nodes: tuple
    suspicion_history: dict

    @classmethod
    def fresh(cls, node_ids) -> "ContractState":
        return cls(active_nodes=tuple(sorted(int(n) for n in node_ids)), suspicion_history={})


def fed_avg(local_vectors) -> np.ndarray:
    """Elementwise unweighted mean, accumulated sequentially in list order.

    The sum is anchored at the first vector (mean = first + mean of residuals),
    so averaging K identical vectors returns that vector bit-exactly. Finite
    inputs near the float64 limit can overflow the residuals; those entries
    are recomputed as the sum of v / K, which stays finite.
    """
    vectors = [np.asarray(v, dtype=np.float64) for v in local_vectors]
    if not vectors:
        raise ValueError("fed_avg needs at least one vector")
    length = vectors[0].shape
    if any(v.shape != length for v in vectors):
        raise ValueError("all vectors must have the same length")
    anchor = vectors[0]
    residual = np.zeros_like(anchor)
    # an overflowing residual of finite inputs is handled below, so it warns of nothing
    with np.errstate(over="ignore", invalid="ignore"):
        for v in vectors:
            residual += v - anchor
        mean = anchor + residual / len(vectors)
    overflowed = ~np.isfinite(mean)
    if overflowed.any() and all(np.isfinite(v).all() for v in vectors):
        rescued = np.zeros(np.count_nonzero(overflowed))
        for v in vectors:
            rescued += v[overflowed] / len(vectors)
        mean[overflowed] = rescued
    return mean


def mix(local: np.ndarray, global_: np.ndarray, alpha: float) -> np.ndarray:
    """Convex combination alpha*local + (1-alpha)*global.

    The endpoints return the corresponding input exactly: alpha 0 is the global
    vector, alpha 1 the local one.
    """
    local = np.asarray(local, dtype=np.float64)
    global_ = np.asarray(global_, dtype=np.float64)
    if local.shape != global_.shape:
        raise ValueError(
            f"shape mismatch: local {local.shape} vs global {global_.shape}"
        )
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if alpha == 0.0:
        return global_.copy()
    if alpha == 1.0:
        return local.copy()
    return alpha * local + (1.0 - alpha) * global_


def build_grid(start: float, end: float, step: float) -> NegotiationGrid:
    """Candidate alphas start, start+step, ... up to and including end (within 1e-12).

    When the step overshoots the range the grid degenerates to [start].
    """
    if not 0.0 <= start < end <= 1.0:
        raise ValueError(f"need 0 <= start < end <= 1, got start={start}, end={end}")
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step}")
    steps = (end - start) / step + 1e-12
    if steps >= MAX_GRID_CANDIDATES:
        raise ValueError(f"step {step} gives more than {MAX_GRID_CANDIDATES} candidates")
    alphas = [start + i * step for i in range(math.floor(steps) + 1)]
    if abs(alphas[-1] - end) <= 1e-12:
        alphas[-1] = end
    return NegotiationGrid(alphas=tuple(alphas))


def population_mean(values) -> float:
    """Mean of values, summed left to right in float64."""
    total = 0.0
    for v in values:
        total += float(v)
    return total / len(values)


def population_variance(values) -> float:
    """Population variance of values, summed left to right around their mean."""
    mean = population_mean(values)
    total = 0.0
    for v in values:
        total += (float(v) - mean) ** 2
    return total / len(values)


def negotiate_alpha(acc: AccuracyMatrix, grid: NegotiationGrid, policy: Policy):
    """Pick the grid alpha the policy prefers; ties go to the smallest alpha.

    MAX_MEAN maximizes the across-node mean accuracy of a column; MIN_VARIANCE
    minimizes the across-node population variance, that is, it maximizes the
    negated variance. Returns (alpha, grid index).
    """
    if acc.values.shape[1] != len(grid):
        raise ValueError(
            f"matrix has {acc.values.shape[1]} columns for a grid of {len(grid)}"
        )
    if policy is Policy.MAX_MEAN:
        scores = [population_mean(column) for column in acc.values.T]
    elif policy is Policy.MIN_VARIANCE:
        scores = [-population_variance(column) for column in acc.values.T]
    else:
        raise ValueError(f"unknown policy {policy!r}")
    best_index = scores.index(max(scores))
    return grid.alphas[best_index], best_index


def _norm(d: np.ndarray) -> float:
    # numpy's own pairwise sum, not BLAS: the same bits on any thread count
    return np.sqrt(np.square(d).sum())


def model_diffs(local_vectors, temp_global: np.ndarray) -> np.ndarray:
    """Euclidean distance of each upload from the temporary global average.

    When a distance of finite entries overflows, every distance is divided by
    the one power of two that makes the largest finite; the division is
    exact, so the fences decide as they would on the unscaled distances.
    """
    temp_global = np.asarray(temp_global, dtype=np.float64)
    norms, scales = np.empty(len(local_vectors)), np.ones(len(local_vectors))
    for i, v in enumerate(local_vectors):
        v = np.asarray(v, dtype=np.float64)
        if v.shape != temp_global.shape:
            raise ValueError(f"vector {i} has shape {v.shape}, expected {temp_global.shape}")
        d = v - temp_global
        # an overflowing sum of squares is handled below, so it warns of nothing
        with np.errstate(over="ignore"):
            norms[i] = _norm(d)
            if not np.isfinite(norms[i]) and np.isfinite(d).all():
                # recompute with the entries scaled by the largest of them
                scales[i] = np.abs(d).max()
                norms[i] = _norm(d / scales[i])
    # each distance is scale * norm, below 2**exponent; keep every one below 2**1024
    exponents = np.frexp(scales)[1] + np.frexp(norms)[1]
    shift = max(0, int(exponents.max(initial=0)) - 1024)
    return np.ldexp(scales, -shift) * norms


def dynamic_bounds(round_no: int, total_rounds: int):
    """Quantile levels that widen linearly with training progress.

    The lower level falls 0.25 -> 0.10 and the upper rises 0.75 -> 0.90 as the
    round goes 0 -> total, so later (more personalized, more spread-out) uploads
    need a larger deviation to look anomalous.
    """
    if total_rounds < 1:
        raise ValueError("total_rounds must be >= 1")
    if not 0 <= round_no <= total_rounds:
        raise ValueError(f"round {round_no} outside [0, {total_rounds}]")
    lower = 0.25 - 0.15 / total_rounds * round_no
    upper = 0.75 + 0.15 / total_rounds * round_no
    return lower, upper


def interpolated_quantile(values, level: float) -> float:
    """Quantile by linear interpolation between closest order statistics."""
    xs = np.sort(np.asarray(values, dtype=np.float64))
    if xs.size == 0:
        raise ValueError("quantile of empty sample")
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"quantile level must lie in [0, 1], got {level}")
    position = (xs.size - 1) * level
    lo = int(math.floor(position))
    hi = min(lo + 1, xs.size - 1)
    frac = position - lo
    return float(xs[lo] + frac * (xs[hi] - xs[lo]))


def detect_anomalies(diffs, round_no: int, total_rounds: int, node_ids=None) -> DefenceReport:
    """Box-plot style screening of upload distances with round-dependent levels.

    A node is flagged when its distance falls strictly outside
    [Q_lb - 1.5*IQR, Q_ub + 1.5*IQR], where Q_lb/Q_ub are the interpolated
    quantiles at the dynamic levels and IQR is their spread. When the whole
    sample agrees (total spread at most 1e-8 of its scale, or 1e-12 absolute)
    nobody is flagged by the fences, so unanimous rounds never produce
    spurious outliers. A non-finite distance is always flagged; quantiles,
    fences and spread are taken over the finite distances only.
    """
    diffs = np.asarray(diffs, dtype=np.float64)
    if diffs.size == 0:
        raise ValueError("detect_anomalies needs at least one distance")
    if node_ids is None:
        node_ids = range(diffs.size)
    node_ids = [int(n) for n in node_ids]
    if len(node_ids) != diffs.size:
        raise ValueError(f"{diffs.size} distances but {len(node_ids)} node ids")

    lower_level, upper_level = dynamic_bounds(round_no, total_rounds)
    finite = np.isfinite(diffs)
    flagged = {node for node, ok in zip(node_ids, finite) if not ok}
    sample = diffs[finite]
    iqr = 0.0
    if sample.size:
        q_lower = interpolated_quantile(sample, lower_level)
        q_upper = interpolated_quantile(sample, upper_level)
        iqr = q_upper - q_lower
        spread = float(sample.max() - sample.min())
        if spread > max(AGREEMENT_ABS_SPREAD, AGREEMENT_REL_SPREAD * float(sample.max())):
            lower_fence = q_lower - FENCE_SCALE * iqr
            upper_fence = q_upper + FENCE_SCALE * iqr
            flagged.update(
                node for node, d in zip(node_ids, diffs) if d < lower_fence or d > upper_fence
            )
    return DefenceReport(
        diffs={node: float(d) for node, d in zip(node_ids, diffs)},
        quantile_lb=lower_level,
        quantile_ub=upper_level,
        iqr=float(iqr),
        flagged=frozenset(flagged),
    )


def update_suspicions(state: ContractState, report: DefenceReport, round_no: int):
    """Record this round's flags and expel nodes flagged 5 rounds in a row.

    Returns the new state and the nodes expelled this round, ascending.
    Expelled nodes leave active_nodes; any clean round resets a node's streak
    because the membership test needs all of rounds t-4..t present.
    """
    history = {node: tuple(rounds) for node, rounds in state.suspicion_history.items()}
    for node in sorted(report.flagged):
        history[node] = history.get(node, ()) + (round_no,)

    streak = set(range(round_no - EXPULSION_STREAK + 1, round_no + 1))
    expelled = tuple(
        node for node in sorted(report.flagged) if node in state.active_nodes and streak <= set(history[node])
    )
    active = tuple(n for n in state.active_nodes if n not in expelled)
    return replace(state, active_nodes=active, suspicion_history=history), expelled


def screen(uploads, state: ContractState, round_no: int, total_rounds: int):
    """One round of upload screening: distances, fences and the suspicion update.

    uploads maps node id to its vector. A non-finite upload stays out of the
    temporary global, so its own distance is non-finite and flags it. Returns
    the DefenceReport, the new state and the nodes expelled this round.
    """
    node_ids = sorted(uploads)
    vectors = [uploads[n] for n in node_ids]
    finite = [v for v in vectors if np.isfinite(v).all()]
    diffs = model_diffs(vectors, fed_avg(finite or vectors))
    report = detect_anomalies(diffs, round_no, total_rounds, node_ids=node_ids)
    state, expelled = update_suspicions(state, report, round_no)
    return report, state, expelled


def robust_aggregate(locals_by_node, flagged) -> np.ndarray:
    """fed_avg restricted to unflagged uploads, in ascending node-id order."""
    good = [node for node in sorted(locals_by_node) if node not in flagged]
    if not good:
        raise AggregationError("every node is flagged; nothing to aggregate")
    return fed_avg([locals_by_node[node] for node in good])
